"""hullkit: exact computations with hull-volume functions of convex bodies.

Convex polygons and 3-polytopes with exact primitives (hulls, volumes,
support/gauge, polarity, Minkowski sums, brightness), the translate- and
homothety-hull volume functions and their closed forms, exact illumination
bodies, projection and polar projection bodies with touching-translate
checks, and sideline extension combinatorics of polygons.
"""

from .bodies import (
    EPS,
    Body,
    Polygon,
    Polytope3,
    affine_image,
    brightness,
    brightness_many,
    central_symmetral,
    difference_body,
    gauge,
    hausdorff_distance,
    hull,
    minkowski_sum,
    point_body_distance,
    point_body_distances,
    polar,
    rot90,
    shadow_area,
    support,
    volume,
)
from .errors import (
    ConditionViolated,
    DegenerateInput,
    DimensionMismatch,
    GeometryError,
    LambdaOutOfRange,
    LevelBelowVolume,
    MissingIntersection,
    NonConvexInput,
    NonPositiveDelta,
    NonUnitDirection,
    OriginNotInterior,
    SamplingExhausted,
    SchemaError,
    SingularMatrix,
    TooFewDirections,
)
from .extensions import (
    ExtensionCurve,
    RegularityReport,
    admissible_extension_pairs,
    affinely_regular_polygon,
    extension_homothety_check,
    is_affinely_regular,
    kl_extension,
    sideline_intersections,
)
from .fileio import body_from_dict, body_to_dict, load_body, parse_body, save_body, serialize_body
from .hullfun import (
    HullFunctionValue,
    convex_hull_function,
    homothetic_hull_function,
    lambda_reduce,
    point_hull_values,
    point_hull_volume,
)
from .illumination import (
    HOMOTHETY_TOL,
    HomothetyReport,
    LevelSet,
    homothety_fit,
    illumination_body,
    illumination_body_2d,
    illumination_body_3d,
    ray_level_solve,
)
from .projection import (
    BALL_FIT_TOL,
    TCVP_TOL,
    TcvpReport,
    constancy_check,
    delta_values,
    polar_projection_body,
    projection_body,
    tcvp_check,
    translative_volume_constant,
)

__version__ = "0.1.0"
