"""Norm form equations over a number field tower: heights, relative units,
and height-bounded reduction of solutions."""

from .errors import NotASolutionError, PrecisionError
from .module_order import (
    CoefficientRing,
    FullModule,
    RelativeUnitSystem,
    coefficient_ring,
    fundamental_unit_real_quadratic,
    is_torsion_unit,
    relative_units,
    relative_units_from_epsilons,
    torsion_units,
    verify_rank,
)
from .norm_form import (
    NormFormPoly,
    SolutionSet,
    check_solution,
    enumerate_solutions,
    norm_form_poly,
    partition_classes,
)
from .number_field import (
    FieldElement,
    FieldTower,
    build_tower,
    char_poly,
    embed_k_in_l,
    mult_matrix,
    relative_norm,
)
from .places_heights import (
    Place,
    PlaceFiber,
    archimedean_log_vector,
    archimedean_places,
    log_abs,
    place_fibers,
    weil_height,
)
from .problemfile import ProblemFile, build_context, parse_problem, serialize_problem
from .rational_core import (
    ComplexApprox,
    Poly,
    integer_kernel,
    poly_complex_roots,
    primitive_part,
)
from .reduction import (
    BalancedSubspaceVector,
    ReductionReport,
    balance_vector,
    cm_height_identity,
    reduce_solution,
    round_to_unit,
)

__version__ = "0.1.0"
