"""Command line front end: subcommands, formats, exit codes."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from coframes import cli
from coframes import ratpoly as rp


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_text(capsys):
    code, out, err = run(capsys, "list")
    assert code == 0
    assert "contact5" in out and "symplectic4" in out
    assert "bgg ambient basic" in out


def test_list_json_is_sorted(capsys):
    code, out, err = run(capsys, "list", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    names = [r["geometry"] for r in payload["geometries"]]
    assert "elliptic7" in names
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_page_level1_engel(capsys):
    code, out, err = run(capsys, "page", "engel4", "--level", "1",
                         "--format", "json")
    assert code == 0
    cells = {(c["p"], c["q"]): c["dim"]
             for c in json.loads(out)["cells"] if c["dim"]}
    assert cells == {(0, 0): 1, (1, 0): 2, (2, 1): 1,
                     (2, 2): 1, (3, 3): 2, (4, 3): 1}


@pytest.mark.parametrize("geometry", ["engel4", "g2_5", "elliptic7"])
def test_page_level0_reads_the_models_one_page(capsys, monkeypatch,
                                               geometry):
    from coframes import models, pages
    want = pages.Page0(models.builtin_model(geometry)).dims()
    built = []
    for cls in (pages.Page0, pages.Page1):
        def counted(self, model, init=cls.__init__, name=cls.__name__):
            built.append(name)
            init(self, model)
        monkeypatch.setattr(cls, "__init__", counted)
    code, out, err = run(capsys, "page", geometry, "--level", "0",
                         "--format", "json")
    assert code == 0
    # one page-0 table, the one inside the model's page
    assert built == ["Page1", "Page0"]
    payload = json.loads(out)
    assert payload["level"] == 0
    assert [(c["p"], c["q"], c["dim"], c["label"])
            for c in payload["cells"]] == [
                (p, q, d, "") for (p, q), d in sorted(want.items())]


def test_page_csv_has_header(capsys):
    code, out, err = run(capsys, "page", "contact5", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["p", "q", "dim", "label"]
    assert len(rows) > 5


def test_page_unknown_geometry_exits_2(capsys):
    code, out, err = run(capsys, "page", "nope")
    assert code == 2
    assert "unknown geometry" in err
    assert "elliptic7" in err and "symplectic4" not in err


def test_page_symplectic4_exits_2_without_offering_it(capsys):
    # symplectic4 has a complex but no coframe model, so no page table
    code, out, err = run(capsys, "page", "symplectic4")
    assert code == 2 and not out
    assert "no coframe model" in err
    assert "choose from" not in err


def test_report_bgg(capsys):
    code, out, err = run(capsys, "report", "g2_5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ranks"] == [1, 2, 3, 3, 2, 1]
    assert payload["orders"] == [1, 3, 2, 3, 1]
    assert payload["checks"]["palindrome"]


def test_report_basic_complex(capsys):
    code, out, err = run(capsys, "report", "g2_5", "--complex", "basic",
                         "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ranks"] == [1, 2, 6, 9, 5, 1]
    assert payload["ok"]


def test_report_unknown_complex_exits_2(capsys):
    code, out, err = run(capsys, "report", "engel4", "--complex", "rs")
    assert code == 2


def test_verify_engel_passes(capsys):
    code, out, err = run(capsys, "verify", "engel4", "--degree", "2",
                         "--samples", "4")
    assert code == 0
    assert "result: PASS" in out
    assert "FAIL" not in out


def test_verify_json_deterministic(capsys):
    args = ("verify", "engel4", "--degree", "2", "--samples", "4",
            "--seed", "9", "--format", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    ids = [c["id"] for c in payload["checks"]]
    assert "structure" in ids and "exactness[bgg]" in ids


def test_verify_skip_flag(capsys):
    code, out, err = run(capsys, "verify", "engel4", "--degree", "2",
                         "--samples", "4", "--skip", "exactness",
                         "--format", "json")
    assert code == 0
    ids = [c["id"] for c in json.loads(out)["checks"]]
    assert not any(i.startswith("exactness") for i in ids)


def test_verify_unknown_skip_exits_2(capsys):
    code, out, err = run(capsys, "verify", "engel4", "--skip", "bogus")
    assert code == 2
    assert out == ""
    assert "unknown check id bogus" in err
    for cid in cli.CHECK_IDS:
        assert cid in err


@pytest.mark.parametrize("name", cli.builtin_names())
def test_levi_linear_feeds_only_sections_with_a_bracket(monkeypatch, name):
    """verify's levi_linear check runs on the depth-2 covectors, where the
    Levi bracket lives: every section it feeds levi_apply has a nonzero
    image, so none of them passes the check vacuously."""
    from coframes.models import builtin_model, levi_apply
    m = builtin_model(name)
    images = []

    def recorded(model, a):
        images.append(levi_apply(model, a))
        return images[-1]
    monkeypatch.setattr(cli, "levi_apply", recorded)
    skip = [cid for cid in cli.CHECK_IDS if cid != "levi_linear"]
    (line,) = cli._check_lines(m, skip)
    assert images and all(not f.is_zero() for f in images)
    assert line == {"id": "levi_linear", "ok": True,
                    "detail": "%d vertical covectors" % len(m.depth2)}


@pytest.mark.parametrize("var", ["COFRAMES_SEED", "COFRAMES_DEGREE"])
def test_environment_leaves_the_defaults(monkeypatch, var):
    monkeypatch.setenv(var, "abc")
    args = cli._build_parser().parse_args(["verify", "engel4"])
    assert (args.seed, args.degree) == (7, 3)


def test_one_parser_serves_every_call(capsys):
    assert cli._build_parser() is cli._build_parser()
    base = ("verify", "engel4", "--degree", "1", "--format", "json")
    code, out, _ = run(capsys, *base, "--skip", "exactness", "--seed", "3")
    assert code == 0 and json.loads(out)["seed"] == 3
    code, out, _ = run(capsys, *base)
    payload = json.loads(out)
    assert code == 0 and payload["seed"] == 7
    assert "exactness[bgg]" in [c["id"] for c in payload["checks"]]


@pytest.mark.parametrize("argv", [
    ("list", "--seed", "3"),
    ("apply", "engel4", "--operator", "d0", "--input", "s.json",
     "--format", "csv")], ids=["list-seed", "apply-format"])
def test_option_no_command_reads_exits_2(capsys, argv):
    # only verify takes --seed; apply always writes JSON
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    assert capsys.readouterr().err == USAGE + \
        "coframes: error: unrecognized arguments: %s %s\n" % argv[-2:]


USAGE = "usage: coframes [-h] {list,page,report,verify,apply,classify7} ...\n"


@pytest.mark.parametrize("argv,message", [
    ((), "the following arguments are required: command"),
    (("bogus",), "argument command: invalid choice: 'bogus' (choose from "
                 "'list', 'page', 'report', 'verify', 'apply', 'classify7')"),
    (("verify", "engel4", "--degree", "0"), "--degree must be at least 1"),
    (("verify", "engel4", "--samples", "0"), "--samples must be at least 1"),
], ids=["no-command", "unknown-command", "degree-0", "samples-0"])
def test_usage_errors_exit_2_with_the_top_usage(monkeypatch, capsys, argv,
                                                 message):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == \
        ("", USAGE + "coframes: error: %s\n" % message)


def test_top_help_lists_every_command(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main(["-h"])
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == USAGE + """
Exact calculus of filtered coframes: pages, derived operators, verified
resolutions.

positional arguments:
  {list,page,report,verify,apply,classify7}
    list                models and their named complexes
    page                graded page tables
    report              rank and order table of a complex
    verify              verification suite for a geometry
    apply               apply a derived operator to a section
    classify7           orbit class of a 7-variable model

options:
  -h, --help            show this help message and exit
"""


def test_command_help(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main(["apply", "-h"])
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == """\
usage: coframes apply [-h] --operator OPERATOR --input INPUT [--output OUTPUT]
                      [--complex COMPLEX]
                      geometry

positional arguments:
  geometry

options:
  -h, --help           show this help message and exit
  --operator OPERATOR
  --input INPUT
  --output OUTPUT
  --complex COMPLEX
"""


def test_verify_symplectic_rs(capsys):
    code, out, err = run(capsys, "verify", "symplectic4", "--degree", "2",
                         "--samples", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    exact = [c for c in payload["checks"]
             if c["id"] == "exactness[rs]"][0]
    assert exact["ok"]
    assert exact["detail"].startswith("homology 1 1 0")


def test_apply_constant_gives_zero(tmp_path, capsys):
    sec = {"model": "engel4", "cell": 0,
           "coeffs": [{"nvars": 4,
                       "terms": [{"exps": [0, 0, 0, 0],
                                  "num": "1", "den": "1"}]}]}
    path = tmp_path / "const1.json"
    path.write_text(json.dumps(sec))
    code, out, err = run(capsys, "apply", "engel4", "--operator", "dH",
                         "--input", str(path))
    assert code == 0
    payload = json.loads(out)
    assert all(not t["terms"] for t in payload["coeffs"])
    assert payload["cell"] == 1


def test_apply_writes_output_file(tmp_path, capsys):
    sec = {"model": "engel4", "cell": 0,
           "coeffs": [{"nvars": 4,
                       "terms": [{"exps": [0, 0, 1, 0],
                                  "num": "2", "den": "1"}]}]}
    src = tmp_path / "in.json"
    src.write_text(json.dumps(sec))
    dst = tmp_path / "out.json"
    code, out, err = run(capsys, "apply", "engel4", "--operator", "d0",
                         "--input", str(src), "--output", str(dst))
    assert code == 0
    payload = json.loads(dst.read_text())
    assert any(t["terms"] for t in payload["coeffs"])


def test_apply_unwritable_output_exits_2(tmp_path, capsys):
    sec = {"model": "engel4", "cell": 0,
           "coeffs": [{"nvars": 4, "terms": []}]}
    src = tmp_path / "in.json"
    src.write_text(json.dumps(sec))
    dst = tmp_path / "missing" / "out.json"
    code, out, err = run(capsys, "apply", "engel4", "--operator", "d0",
                         "--input", str(src), "--output", str(dst))
    assert code == 2
    assert err.startswith("error: cannot write output: ")
    assert not dst.exists()


def test_apply_wrong_component_count_exits_2(tmp_path, capsys):
    sec = {"model": "engel4", "cell": 1,
           "coeffs": [{"nvars": 4, "terms": []}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(sec))
    code, out, err = run(capsys, "apply", "engel4", "--operator", "P",
                         "--input", str(path))
    assert code == 2
    assert "components" in err


@pytest.mark.parametrize("nvars,exps", [(5, [0, 0, 0, 1, 7]),
                                         (3, [0, 1, 0])])
def test_apply_wrong_nvars_exits_2(tmp_path, capsys, nvars, exps):
    sec = {"model": "engel4", "cell": 0,
           "coeffs": [{"nvars": nvars,
                       "terms": [{"exps": exps, "num": "1", "den": "1"}]}]}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(sec))
    code, out, err = run(capsys, "apply", "engel4", "--operator", "d0",
                         "--input", str(path))
    assert code == 2
    assert out == ""
    assert "variables" in err


@pytest.mark.parametrize("blob", [
    [],
    {"model": "engel4", "cell": 0,
     "coeffs": [{"nvars": 4, "terms": [{"exps": [0, 0, 1, 0],
                                         "num": "1", "den": "0"}]}]}])
def test_apply_malformed_section_exits_2(tmp_path, capsys, blob):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(blob))
    code, out, err = run(capsys, "apply", "engel4", "--operator", "d0",
                         "--input", str(path))
    assert code == 2
    assert "cannot read section" in err


def _engel_section(cell, ncoeffs, model="engel4"):
    return {"model": model, "cell": cell,
            "coeffs": [{"nvars": 4, "terms": [{"exps": [0, 1, 1, 0],
                                                "num": "1", "den": "1"}]}
                       for _ in range(ncoeffs)]}


@pytest.mark.parametrize("operator,section,what", [
    ("d0", _engel_section(0, 1, model="contact5"), "model"),
    ("d0", _engel_section(7, 1), "cell"),
    ("d1", _engel_section(0, 2), "cell"),
    ("dH", _engel_section(1, 1), "cell"),
    ("P", _engel_section(2, 2), "cell"),
    ("S", _engel_section(1, 1), "cell")],
    ids=["model", "d0-cell-7", "d1-cell-0", "dH-cell-1", "P-cell-2",
         "S-cell-1"])
def test_apply_section_off_the_operator_source_exits_2(tmp_path, capsys,
                                                        operator, section,
                                                        what):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(section))
    code, out, err = run(capsys, "apply", "engel4", "--operator", operator,
                         "--input", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: section is ")
    assert what in err


@pytest.mark.parametrize("operator,cell,ncoeffs", [("P", 1, 2), ("S", 2, 1),
                                                   ("d1", 1, 2)])
def test_apply_answers_on_the_next_cell(tmp_path, capsys, operator, cell,
                                        ncoeffs):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(_engel_section(cell, ncoeffs)))
    code, out, err = run(capsys, "apply", "engel4", "--operator", operator,
                         "--input", str(path))
    assert code == 0
    payload = json.loads(out)
    assert (payload["model"], payload["cell"]) == ("engel4", cell + 1)


@pytest.mark.parametrize("operator,cell,ncoeffs", [("P", 1, 2), ("S", 2, 1),
                                                   ("d1", 1, 2)])
@pytest.mark.parametrize("where", ["flag", "section"])
def test_apply_unknown_complex_exits_2(tmp_path, capsys, operator, cell,
                                       ncoeffs, where):
    section = _engel_section(cell, ncoeffs)
    argv = ["apply", "engel4", "--operator", operator]
    if where == "flag":
        argv += ["--complex", "bogus"]
    else:
        section["variant"] = "bogus"
    path = tmp_path / "s.json"
    path.write_text(json.dumps(section))
    code, out, err = run(capsys, *argv, "--input", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: geometry engel4 has no complex named 'bogus'\n"


def test_apply_unknown_operator_exits_2(tmp_path, capsys):
    sec = {"model": "engel4", "cell": 0,
           "coeffs": [{"nvars": 4, "terms": []}]}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(sec))
    code, out, err = run(capsys, "apply", "engel4", "--operator", "Q",
                         "--input", str(path))
    assert code == 2


@pytest.mark.parametrize("operator,degrees", [("d0", {0, 1, 7}),
                                              ("d3", {3, 4, 7})])
def test_one_request_derives_its_two_degrees_and_the_top(operator, degrees):
    """An operator from degree p reads the cells of degrees p and p + 1;
    finding the top node of the complex reads degree nvars."""
    import random
    from coframes.operators import random_section
    handle, _, _ = cli._named_operator("elliptic7", operator, None)
    handle.apply(random_section(handle.source, random.Random(1), 2))
    page1 = handle.page1
    assert set(page1.data) == {k for k in page1.page0.cells
                               if k[0] in degrees}


@pytest.mark.parametrize("geometry,variant", [("symplectic4", None),
                                              ("g2_5", "ambient")])
def test_one_request_builds_one_span_solver(monkeypatch, geometry, variant):
    from coframes import operators
    built = []
    init = operators.SpanSolver.__init__

    def counted(self, forms):
        built.append(forms)
        init(self, forms)
    monkeypatch.setattr(operators.SpanSolver, "__init__", counted)
    handle, _, _ = cli._named_operator(geometry, "d3", variant)
    assert built == [handle.target.forms]


@pytest.mark.parametrize("name", ["P", "S"])
def test_engel4_alias_builds_one_page(monkeypatch, name):
    from coframes import pages
    built = []
    init = pages.Page1.__init__

    def counted(self, model):
        built.append(model.name)
        init(self, model)
    monkeypatch.setattr(pages.Page1, "__init__", counted)
    cli._named_operator("engel4", name, "bgg")
    assert built == ["engel4"]


@pytest.mark.parametrize("argv", [("verify", "g2_5", "--degree", "1"),
                                  ("verify", "dist3in6", "--degree", "1"),
                                  ("report", "dist3in6")])
def test_one_request_loads_one_model_and_derives_each_cell_once(
        monkeypatch, capsys, argv):
    """The line checks and every complex of a request read the one page of
    the request's one model."""
    from coframes import pages
    loaded, derived = [], []
    load, derive = cli.builtin_model, pages.Page1._derive

    def counted_load(name):
        loaded.append(name)
        return load(name)

    def counted_derive(page, key):
        derived.append(key)
        return derive(page, key)
    monkeypatch.setattr(cli, "builtin_model", counted_load)
    monkeypatch.setattr(pages.Page1, "_derive", counted_derive)
    assert run(capsys, *argv)[0] == 0
    assert loaded == [argv[1]]
    assert derived and len(derived) == len(set(derived))


def test_verify_unknown_geometry_offers_symplectic4(capsys):
    code, out, err = run(capsys, "verify", "nosuch")
    assert code == 2 and not out
    assert "unknown geometry 'nosuch'" in err
    for g in cli.GEOMETRIES:
        assert g in err


def test_composition_line_is_a_proof():
    """verify's composition line is the Leibniz identity on the normal
    forms: it fails on a pair that does not compose to zero and passes on
    every named complex."""
    from test_verify import _broken_rs
    (line,) = cli._complex_checks(_broken_rs(), 1, ["exactness"])
    assert line == {"id": "composition[broken]", "ok": False,
                    "detail": "pairs not zero: 1"}
    for g in cli.GEOMETRIES:
        model = cli._load_model(g)
        for variant in cli._complex_names(g):
            res = cli._resolution(model, g, variant)
            (line,) = cli._complex_checks(res, 1, ["exactness"])
            assert line == {"id": "composition[%s]" % variant, "ok": True,
                            "detail": "%d pairs proved zero"
                            % (len(res.operators) - 1)}


def test_verify_exits_1_on_a_pair_that_does_not_compose(monkeypatch,
                                                        capsys):
    from test_verify import _broken_rs
    monkeypatch.setattr(cli, "_resolution", lambda *a: _broken_rs())
    code, out, err = run(capsys, "verify", "symplectic4", "--degree", "1",
                         "--skip", "exactness", "--format", "json")
    assert code == 1 and not err
    assert json.loads(out)["checks"] == [
        {"id": "composition[broken]", "ok": False,
         "detail": "pairs not zero: 1"}]


def test_verify_checks_do_not_read_seed_or_samples(capsys):
    base = ("verify", "engel4", "--degree", "1", "--format", "json")
    outs = [json.loads(run(capsys, *base, *extra)[1]) for extra in
            ((), ("--seed", "11"), ("--samples", "3"))]
    assert outs[0]["checks"] == outs[1]["checks"] == outs[2]["checks"]
    assert [(p["seed"], p["samples"]) for p in outs] == [
        (7, 20), (11, 20), (7, 3)]


def test_verify_proves_each_pair_once_and_applies_no_form(monkeypatch,
                                                          capsys):
    """One request computes each pair's Leibniz identity once: the
    exactness line reads the composition line's memo.  No section is
    pushed through a normal form."""
    from coframes.operators import NormalForm
    calls = {"compose": 0, "apply": 0}
    compose, apply = NormalForm._compose_zero, NormalForm.apply

    def counted_compose(nf, after):
        calls["compose"] += 1
        return compose(nf, after)

    def counted_apply(nf, *a, **k):
        calls["apply"] += 1
        return apply(nf, *a, **k)
    monkeypatch.setattr(NormalForm, "_compose_zero", counted_compose)
    monkeypatch.setattr(NormalForm, "apply", counted_apply)
    assert run(capsys, "verify", "g2_5", "--degree", "1")[0] == 0
    assert calls == {"compose": 4 + 4 + 4, "apply": 0}


def test_classify7_builtins(capsys):
    code, out, err = run(capsys, "classify7", "--model", "elliptic7",
                         "--format", "json")
    assert code == 0
    assert json.loads(out)["kind"] == "elliptic"
    code, out, err = run(capsys, "classify7", "--model", "hyperbolic7",
                         "--format", "json")
    assert code == 0
    assert json.loads(out)["kind"] == "hyperbolic"


def test_classify7_model_file(tmp_path, capsys):
    from coframes.models import builtin_model, model_to_json
    blob = model_to_json(builtin_model("hyperbolic7"))
    path = tmp_path / "model.json"
    path.write_text(json.dumps(blob))
    code, out, err = run(capsys, "classify7", "--model", str(path),
                         "--format", "json")
    assert code == 0
    assert json.loads(out)["kind"] == "hyperbolic"


def _break_first_entry(blob):
    blob["coframe"][0][0] = "x"


def _zero_denominator(blob):
    blob["coframe"][0][0]["terms"][0]["den"] = 0


def _drop_rows(blob):
    del blob["coframe"][3:]


def _congruence_index(blob):
    blob["congruences"][0]["index"] = 99


def _congruence_mod(blob):
    blob["congruences"][0]["mod"] = [99]


def _numeric_name(blob):
    blob["name"] = 5


def _zero_weight(blob):
    blob["weights"][0] = 0


def _rhs_field(key, value):
    def mutate(blob):
        blob["congruences"][0]["rhs"][key] = value
    return mutate


def _rhs_index(blob):
    blob["congruences"][0]["rhs"]["terms"][0]["indices"] = [4, 9]


# every 1-based index is range-checked where the file is read
@pytest.mark.parametrize("mutate", [_break_first_entry, _zero_denominator,
                                    _drop_rows, _congruence_index,
                                    _congruence_mod, _numeric_name,
                                    _zero_weight, _rhs_field("nvars", 5),
                                    _rhs_field("degree", 3), _rhs_index],
                         ids=["string-entry", "zero-den", "three-rows",
                              "congruence-99", "mod-99", "numeric-name",
                              "zero-weight", "rhs-nvars-5", "rhs-degree-3",
                              "rhs-index-9"])
def test_classify7_malformed_model_exits_2(tmp_path, capsys, mutate):
    from coframes.models import builtin_model, model_to_json
    blob = model_to_json(builtin_model("elliptic7"))
    mutate(blob)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(blob))
    code, out, err = run(capsys, "classify7", "--model", str(path))
    assert code == 2
    assert "cannot read model file" in err


def test_classify7_curved_model_exits_2(tmp_path, capsys):
    """x_3^2 added to coframe[0][4], the dx_4 coefficient of omega_0
    (0-based), puts 2 x_3 omega_3 ^ omega_4 into d(omega_0): the Levi
    bracket is not constant, so the model has no orbit class."""
    from coframes.models import builtin_model, model_to_json
    blob = model_to_json(builtin_model("elliptic7"))
    blob["coframe"][0][4]["terms"].append(
        {"exps": [0, 0, 0, 2, 0, 0, 0], "num": "1", "den": "1"})
    path = tmp_path / "curved.json"
    path.write_text(json.dumps(blob))
    for fmt in ("text", "json", "csv"):
        code, out, err = run(capsys, "classify7", "--model", str(path),
                             "--format", fmt)
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot classify elliptic7: ")
        assert "not constant" in err and "Traceback" not in err


def test_classify7_ignores_a_selectors_key(tmp_path, capsys):
    """Selectors come from the weights; a "selectors" key is not read."""
    from coframes.models import builtin_model, model_to_json
    blob = model_to_json(builtin_model("elliptic7"))
    blob["selectors"] = {"depth2": [99], "horizontal": [0]}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(blob))
    code, out, err = run(capsys, "classify7", "--model", str(path),
                         "--format", "json")
    assert code == 0
    assert json.loads(out)["inertia"] == [3, 0, 0]


def test_classify7_non_seven_variable_model_exits_2(tmp_path, capsys):
    from coframes.models import builtin_model, model_to_json
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_json(builtin_model("contact5"))))
    code, out, err = run(capsys, "classify7", "--model", str(path))
    assert code == 2
    assert "1 depth-2 and 4 horizontal" in err
    assert "Traceback" not in err


def test_classify7_bad_input_exits_2(tmp_path, capsys):
    code, out, err = run(capsys, "classify7", "--model", "contact99")
    assert code == 2


@pytest.mark.parametrize("argv,text,what", [
    (("apply", "engel4", "--operator", "d0", "--input"), "[" * 200000,
     "section"),
    (("classify7", "--model"), '{"a":' * 200000, "model file")],
    ids=["apply-array", "classify7-object"])
def test_deeply_nested_json_exits_2(tmp_path, capsys, argv, text, what):
    path = tmp_path / "deep.json"
    path.write_text(text)
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read %s: " % what)


def _poly_blob(nvars, nterms=1, exps=None):
    exps = exps if exps is not None else [0] * nvars
    return {"nvars": nvars, "terms": [{"exps": exps, "num": "1", "den": "1"}
                                      for _ in range(nterms)]}


def _too_many_poly_terms(blob):
    blob["coeffs"][0] = _poly_blob(4, rp.MAX_TERMS + 1)


def _too_many_variables(blob):
    blob["coeffs"][0] = _poly_blob(rp.MAX_NVARS + 1)


def _degree_past_the_cap(blob):
    blob["coeffs"][0] = _poly_blob(4, exps=[0, 0, rp.MAX_DEGREE, 1])


def _too_many_components(blob):
    from coframes.operators import MAX_SECTION_COMPONENTS
    blob["coeffs"] = [_poly_blob(4)] * (MAX_SECTION_COMPONENTS + 1)


@pytest.mark.parametrize("mutate", [_too_many_poly_terms,
                                    _too_many_variables,
                                    _degree_past_the_cap,
                                    _too_many_components],
                         ids=["terms", "nvars", "degree", "components"])
def test_apply_oversized_section_exits_2(tmp_path, capsys, mutate):
    blob = _engel_section(0, 1)
    mutate(blob)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(blob))
    code, out, err = run(capsys, "apply", "engel4", "--operator", "d0",
                         "--input", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read section: ")
    assert "at most" in err or "outside" in err


def _model_nvars_past_the_cap(blob):
    blob["nvars"] = rp.MAX_NVARS + 1


def _model_entry_terms(blob):
    blob["coframe"][0][1] = _poly_blob(7, rp.MAX_TERMS + 1)


def _model_entry_degree(blob):
    # unchecked, x_4^(10^7) here keeps det 1 and took classify7 23 s
    blob["coframe"][0][4]["terms"][0]["exps"] = [0, 0, 0, 10 ** 7, 0, 0, 0]


def _model_rhs_terms(blob):
    terms = blob["congruences"][0]["rhs"]["terms"]
    blob["congruences"][0]["rhs"]["terms"] = terms * (rp.MAX_TERMS + 1)


@pytest.mark.parametrize("mutate", [_model_nvars_past_the_cap,
                                    _model_entry_terms, _model_entry_degree,
                                    _model_rhs_terms],
                         ids=["nvars", "entry-terms", "entry-degree",
                              "rhs-terms"])
def test_classify7_oversized_model_exits_2(tmp_path, capsys, mutate):
    from coframes.models import builtin_model, model_to_json
    blob = model_to_json(builtin_model("elliptic7"))
    mutate(blob)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(blob))
    code, out, err = run(capsys, "classify7", "--model", str(path))
    assert code == 2
    assert err.startswith("error: cannot read model file: ")
    assert "at most" in err or "outside" in err


# #### fuzzing the JSON boundary ############################################

FUZZ = settings(max_examples=80, derandomize=True, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(),
                    st.floats(allow_nan=False, allow_infinity=False),
                    st.text(max_size=3),
                    st.sampled_from(["0", "1", "-1", "2", "4", "7", "bgg",
                                     "engel4", "elliptic7"]))
_VALUES = st.recursive(
    _LEAVES, lambda kids: st.one_of(st.lists(kids, max_size=3),
                                    st.dictionaries(st.text(max_size=5),
                                                    kids, max_size=3)),
    max_leaves=5)
_ACTIONS = ("descend",) * 4 + ("replace", "delete", "duplicate")


def _mutated(data, node):
    """A copy of a JSON value with one node replaced, deleted or repeated,
    at a place drawn by walking down from the root."""
    if isinstance(node, dict) and node:
        key = data.draw(st.sampled_from(sorted(node)))
        out = dict(node)
    elif isinstance(node, list) and node:
        key = data.draw(st.integers(0, len(node) - 1))
        out = list(node)
    else:
        return data.draw(_VALUES)
    action = data.draw(st.sampled_from(_ACTIONS))
    if action == "descend":
        out[key] = _mutated(data, node[key])
    elif action == "replace":
        out[key] = data.draw(_VALUES)
    elif action == "delete":
        del out[key]
    elif isinstance(out, list):
        out.insert(key, node[key])
    else:
        out[key + "_"] = node[key]
    return out


def _run_on_file(argv, blob):
    """cli.main on argv plus a file holding blob: (code, stdout, stderr).
    An exception escapes, as a traceback would."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(blob, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv) + [path])
    return code, out.getvalue(), err.getvalue()


def _usage_error(code, out, err):
    return code == 2 and out == "" and err.startswith("error: ")


_FUZZ_SECTION = {"model": "engel4", "variant": "bgg", "cell": 1,
                 "coeffs": [_poly_blob(4, exps=[0, 1, 2, 0]),
                            {"nvars": 4, "terms": [
                                {"exps": [1, 0, 0, 1], "num": "-3",
                                 "den": "2"}]}]}


@FUZZ
@given(st.data())
def test_apply_mutated_section_exits_2_or_answers(data):
    from coframes.operators import GradedSection
    blob = _mutated(data, _FUZZ_SECTION)
    code, out, err = _run_on_file(
        ("apply", "engel4", "--operator", "d1", "--input"), blob)
    if code != 0:
        assert _usage_error(code, out, err), (code, err)
        return
    section = GradedSection.from_json(blob)
    assert (section.resolution, section.node) == ("engel4", 1)
    handle = cli._named_operator("engel4", "d1", section.variant)[0]
    want = GradedSection("engel4", "bgg", 2, handle.apply(section.coeffs))
    assert json.loads(out) == want.to_json(4)


@FUZZ
@given(st.data())
def test_classify7_mutated_model_exits_2_or_answers(data):
    from coframes.models import (builtin_model, model_from_json,
                                 model_to_json, orbit_invariant)
    blob = _mutated(data, model_to_json(builtin_model("elliptic7")))
    code, out, err = _run_on_file(
        ("classify7", "--format", "json", "--model"), blob)
    if code == 2:
        assert _usage_error(code, out, err), err
        return
    rep = orbit_invariant(model_from_json(blob))
    assert code == (0 if rep.kind in ("elliptic", "hyperbolic") else 1)
    assert json.loads(out)["kind"] == rep.kind
    assert json.loads(out)["inertia"] == list(rep.inertia)


def test_python_dash_m_runs_the_cli(capsys):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run([sys.executable, "-m", "coframes", "list"],
                          env=env, capture_output=True, text=True)
    code, out, err = run(capsys, "list")
    assert proc.returncode == code == 0
    assert proc.stdout == out
