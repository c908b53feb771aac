"""Rolling space forms without slipping or twisting.

Numerical toolkit for the kinematics of one Riemannian space form rolling
on another: rolling-curve integration, the bracket structure and growth
vector of the rolling distribution, symmetry residual checks against the
Killing algebra of the second factor, the graded nilpotent approximation,
and the non-flatness obstruction arithmetic.
"""

from .spaces import (
    DomainError,
    Euclidean,
    GeodesicPath,
    GeometryError,
    Hyperbolic,
    MismatchError,
    SampledPath,
    SpaceForm,
    Sphere,
    WarpFunction,
    Warped,
    from_spec,
)
from .rolling import RollingPair, RollingState, TangentOfQ, roll_along, rolling_lift

__all__ = [
    "Euclidean",
    "Sphere",
    "Hyperbolic",
    "Warped",
    "WarpFunction",
    "SpaceForm",
    "GeodesicPath",
    "SampledPath",
    "GeometryError",
    "DomainError",
    "MismatchError",
    "from_spec",
    "RollingPair",
    "RollingState",
    "TangentOfQ",
    "roll_along",
    "rolling_lift",
]
