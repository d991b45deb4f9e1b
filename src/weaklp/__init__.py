"""weaklp: desk-scale numerical verification of weak-Lp difference-quotient
norms, level-set limits, covering inequalities, and their corollaries."""

__version__ = "0.1.0"

from .errors import ConsistencyError, InvalidParameterError, PreconditionError
from .fields import (
    ScalarField,
    catalogue,
    field_from_spec,
    gradient_lp_norm,
    lp_norm,
    make_bump,
    make_mollified_indicator,
    make_product_bump,
    make_sum,
    scale_field,
)
from .levelset import (
    LevelSetQuery,
    default_lambda_grid,
    distribution_profile,
    pair_measure_mc,
    pair_measure_polar,
    sandwich_bounds,
    tail_limit,
    verify_sandwich,
    weak_quasinorm,
)
from .quadrature import (
    QuadratureResult,
    RandomStream,
    gauss_nodes_1d,
    lower_bound_constant,
    monte_carlo,
    sphere_abs_moment,
    sphere_rule,
    surface_area,
)
from .seminorms import SeminormQuery, seminorm_limit_factor, diagonal_divergence_probe, gagliardo

__all__ = [name for name in dir() if not name.startswith("_")]
