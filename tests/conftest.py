from fractions import Fraction

import pytest

from coframes import builtin_model, builtin_names
from coframes import ratpoly as rp

_MODELS = {}


def model(name):
    if name not in _MODELS:
        _MODELS[name] = builtin_model(name)
    return _MODELS[name]


def page1(name):
    return model(name).page1()


@pytest.fixture(params=builtin_names())
def each_model(request):
    return model(request.param)


def random_unipotent(m, rng):
    """Identity plus entries strictly above the (weight, index) diagonal,
    so the change preserves the filtration and has determinant one."""
    n = m.nvars
    emat = [[rp.const(1, n) if i == j else {} for j in range(n)]
            for i in range(n)]
    for i in range(n):
        for j in range(n):
            if (m.weights[j], j) > (m.weights[i], i) and rng.random() < 0.6:
                emat[i][j] = rp.const(
                    Fraction(rng.randint(-3, 3), rng.randint(1, 2)), n)
    return emat
