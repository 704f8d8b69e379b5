"""Exception types for geometric contract violations."""


class GeometryError(ValueError):
    """Base class for all hullkit errors."""


class DegenerateInput(GeometryError):
    """Input points do not span a full-dimensional convex body."""


class DimensionMismatch(GeometryError):
    """Operands live in different ambient dimensions."""


class OriginNotInterior(GeometryError):
    """Operation requires the origin strictly inside the body."""


class NonUnitDirection(GeometryError):
    """Direction argument must be a unit vector."""


class LambdaOutOfRange(GeometryError):
    """Homothety ratio must satisfy 0 <= lam < 1."""


class LevelBelowVolume(GeometryError):
    """Level-set queries need a level above the body volume."""


class NonPositiveDelta(GeometryError):
    """Illumination bodies are defined for finite delta > 0."""


class TooFewDirections(GeometryError):
    """Direction-sampled checks need at least 16 directions."""


class SamplingExhausted(GeometryError):
    """Rejection sampling found no valid body within its fixed number of tries."""


class MissingIntersection(GeometryError):
    """A required sideline intersection does not exist (parallel sidelines)."""


class ConditionViolated(GeometryError):
    """Extension parameters violate the admissibility conditions."""


class SingularMatrix(GeometryError):
    """Affine map must be invertible."""


class SchemaError(GeometryError):
    """Body file does not match the JSON schema."""


class NonConvexInput(GeometryError):
    """Strict parsing rejects vertex lists with non-extreme points."""
