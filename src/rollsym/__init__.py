"""Rolling space forms without slipping or twisting.

Numerical toolkit for the kinematics of one Riemannian space form rolling
on another: rolling-curve integration, the bracket structure and growth
vector of the rolling distribution, symmetry residual checks against the
Killing algebra of the second factor, the graded nilpotent approximation,
and the non-flatness obstruction arithmetic.
"""

import importlib

# each public name and the module that defines it
_HOMES = {
    **dict.fromkeys(("Euclidean", "Sphere", "Hyperbolic", "Warped", "WarpFunction", "SpaceForm",
                     "GeodesicPath", "SampledPath", "from_spec"), "spaces"),
    **dict.fromkeys(("GeometryError", "DomainError", "MismatchError"), "errors"),
    **dict.fromkeys(("RollingPair", "RollingState", "roll_along", "rolling_lift"), "rolling"),
}
__all__ = list(_HOMES)


def __getattr__(name):
    """A public name or a submodule, loaded on its first use (PEP 562):
    importing the package loads no submodule, so that a command loads only
    the modules it runs."""
    if name in _HOMES:
        return getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    try:
        return importlib.import_module(f".{name}", __name__)
    except ModuleNotFoundError as exc:
        if exc.name != f"{__name__}.{name}":
            raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
