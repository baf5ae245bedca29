"""Exact principalization of ideals in Q[x, y] over the origin and the
local topological zeta functions attached to them."""

from .blowup import (
    BlowUpEvent,
    ChartState,
    PointRecord,
    blow_up,
    divisor_order_of,
    initial_state,
    restrict_residual_to,
)
from .criterion import classify, cross_check, poles_by_criterion
from .diagram import (
    IntersectionDiagram,
    Vertex,
    alphas,
    diagram_from_state,
    export_dot,
    export_json,
    load_json,
    validate_all,
    validate_alpha_bounds,
    validate_alpha_signs,
    validate_nu_bound,
    validate_ordered_tree,
    validate_tree_shape,
)
from .family import admissible, build, expected_chain, realize_pole
from .generic import certify_generic, sample_lambda
from .poly import (
    BiPoly,
    gcd_bi,
    parse_poly,
    poly_to_str,
    squarefree_decomposition,
)
from .principalize import (
    PrincipalizationResult,
    find_bad_points,
    principalize,
    verify_minimality,
)
from .ratfunc import Pole, RationalFunctionS, poles_of, rf_sum_of_terms
from .zeta import ZetaReport, pole_report, residue_contribution

__version__ = "0.1.0"
