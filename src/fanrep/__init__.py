"""Quiver-representation categories for normal crossings, generic line
arrangements, and smooth toric fans: exact validation, Hom spaces, and
descent gluing."""

from .exactnum import (
    IntMatrix,
    NotCompletableError,
    NotInvertibleError,
    RatMatrix,
    complete_to_unimodular,
    invert,
    mat_mul,
    solve_nullspace,
)
from .geometry import (
    ChartBasis,
    Cone,
    Fan,
    FanError,
    Ray,
    chart_bases,
    dual_cone_smooth,
    fan_from_json,
    fan_to_json,
    is_smooth,
    maximal_cones,
    validate_fan,
)
from .charts import (
    CocycleError,
    check_cocycle,
    gluing_map,
    stratum_loop_exponents,
)
from .quivers import (
    Quiver,
    arrangement_quiver,
    fan_quiver,
    hypercube_quiver,
    quiver_from_json,
    quiver_to_json,
)
from .reps import (
    IsoResult,
    Morphism,
    Representation,
    ShapeError,
    Violation,
    are_isomorphic,
    direct_sum,
    hom_basis,
    monodromy,
    rep_from_json,
    rep_to_json,
    validate_CDelta,
    validate_CSigma,
    validate_Cn,
)
from .descent import (
    DescentDatum,
    DescentError,
    DescentMorphism,
    chart_quiver,
    descent_from_json,
    descent_to_json,
    glue,
    glue_morphism,
    section,
    validate_descent,
)

__version__ = "0.1.0"
