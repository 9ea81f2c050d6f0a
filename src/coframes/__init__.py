"""Exact calculus of filtered coframes.

Coordinate models of filtered geometric structures, their graded pages,
derived differential operators assembled by lift, correct, project, and
verification suites that certify structure equations, page tables,
operator orders, composition-zero, and polynomial local exactness, all
over exact rational arithmetic.
"""

from .forms import (Form, change_basis, contract, exterior_d, form_add,
                    form_from_json, form_monomial, form_pmul, form_scale,
                    form_sub, form_to_json, form_zero, interior, one_form,
                    wedge)
from .models import (Congruence, GeometryModel, LeviReport, OrbitReport,
                     StructureReport, builtin_model, builtin_names,
                     change_rows, coframe_d, levi_apply, levi_form,
                     model_from_json, model_to_json, orbit_invariant,
                     split_by_cell_weight, splitting_shift, symplectic_data,
                     verify_structure)
from .operators import (GradedSection, OperatorHandle, Resolution,
                        build_rs_complex, derive_operator, named_complex,
                        random_section)
from .pages import Page0, Page1, check_function_linear, e0_apply
from .ratpoly import Poly
from .splitting import (NormalizeReport, ObstructionReport, TwoAdaptedReport,
                        certify_two_adapted, normalize_splitting,
                        obstruction, obstruction_hom, perturb,
                        shift_action_rank)
from .verify import (CompositionReport, ExactnessReport, composition_check,
                     cross_check_dims, exactness_check, rs_h1_witness,
                     schur_dim)

__version__ = "0.1.0"

__all__ = [
    "CompositionReport", "Congruence", "ExactnessReport", "Form",
    "GeometryModel", "GradedSection", "LeviReport",
    "NormalizeReport", "ObstructionReport", "OperatorHandle",
    "OrbitReport", "Page0", "Page1", "Poly", "Resolution",
    "StructureReport", "TwoAdaptedReport", "build_rs_complex",
    "builtin_model", "builtin_names", "certify_two_adapted",
    "change_basis", "change_rows", "check_function_linear", "coframe_d",
    "composition_check", "contract", "cross_check_dims", "derive_operator",
    "e0_apply", "exactness_check", "exterior_d", "form_add",
    "form_from_json", "form_monomial", "form_pmul", "form_scale",
    "form_sub", "form_to_json", "form_zero", "interior", "levi_apply",
    "levi_form", "model_from_json", "model_to_json", "named_complex",
    "normalize_splitting", "obstruction", "obstruction_hom", "one_form",
    "orbit_invariant", "perturb", "random_section", "rs_h1_witness",
    "schur_dim", "shift_action_rank", "split_by_cell_weight",
    "splitting_shift", "symplectic_data", "verify_structure", "wedge",
]
