"""Exact-arithmetic engine for finite-dimensional Jordan algebras.

Everything is computed over the rationals: algebra presentations and their
verification, derivation Lie algebras, modules with dual-oracle validation,
differential forms, and derivation-based connections with curvature.
"""

import os as _os

# BLAS pools size themselves at import; cap them before numpy loads
_threads = _os.environ.get("JORDANIUM_THREADS")
if _threads:
    for _var in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        _os.environ.setdefault(_var, _threads)

__version__ = "0.1.0"

from .algebra import (
    AlgebraPresentation,
    JordanVerdict,
    algebra_dumps,
    algebra_from_dict,
    algebra_loads,
    algebra_to_dict,
    build_hermitian,
    build_real,
    build_spin,
    center_basis,
    check_jordan,
    direct_sum,
    unit_check,
)
from .cayley_dickson import MAX_LEVEL, basis_table
from .connections import (
    Connection,
    Curvature,
    GaugePotential,
    base_connection,
    curvature,
    curvature_report,
    extend_to_forms,
    flatness_check,
    forms_leibniz_check,
    free_rank,
    gauge_potential,
    inner_connection,
    inner_operator_on_module,
    lie_hom_check,
    potential_from_connection,
    potential_from_dict,
    potential_to_dict,
    with_potential,
    zero_potential,
)
from .derivations import (
    DerivationBasis,
    annihilator_subalgebra,
    bracket_constants,
    check_center_stability,
    check_jacobi,
    check_lie_rinehart,
    check_unit_annihilated,
    commutator_action_matrix,
    complete_triality,
    derivation_basis,
    derivation_from_triality,
    express_in_inner,
    inner_basis_operators,
    inner_operator,
    inner_span_report,
    is_block_diagonal_for_slots,
    leibniz_violation,
    octonion_slot_block,
    structure_constants,
    triality_defect,
)
from .forms import (
    DEGREE_CAP,
    DerForm,
    bracket_table,
    coordinate_form,
    d_der,
    element_form,
    form_associator,
    form_from_dict,
    form_to_dict,
    graded_commutativity_check,
    leibniz_check,
    module_element_form,
    unit_form,
    wedge,
    z_linearity_defect,
    zero_form,
)
from .linalg import Mat, Vec, frac, nullspace, rank, rref, solve
from .modules import (
    ModuleAction,
    ModuleHom,
    ModuleVerdict,
    build_antihermitian,
    build_clifford,
    build_free,
    check_module,
    compose,
    hom_basis,
    hom_center_restriction,
    module_dumps,
    module_from_dict,
    module_loads,
    module_to_dict,
    split_null_extension,
)
