"""The error taxonomy and the readers of user input.

Every input error is a GeometryError (exit 2 at the command line), a curve
that leaves its coordinate domain a DomainError (exit 3), and a candidate or
generator that does not fit its manifold a MismatchError (exit 5).  The
readers turn a JSON value into a number, a count, an array or a checked
object, and raise a GeometryError with a one-line message otherwise.
"""

from __future__ import annotations

import numpy as np


class GeometryError(ValueError):
    """A geometric precondition failed (off-manifold point, base mismatch, ...)."""


class DomainError(GeometryError):
    """A curve or geodesic left the manifold's coordinate domain."""


class MismatchError(GeometryError):
    """A candidate or generator does not fit the manifold it is applied to."""


def integral(value, what):
    """A count read from input: 2 and 2.0 give 2, a non-integral number is
    an input error rather than being truncated, and so is a boolean (see
    real)."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise GeometryError(f"{what} must be an integer, got {value!r}")
    return int(value)


def real(value, what):
    """A number read from input, as a float: JSON true and false are input
    errors, though Python reads them as 1 and 0."""
    if isinstance(value, bool):
        raise GeometryError(f"{what} must be a number, got {value!r}")
    return float(value)


def keyed(spec, what, keys):
    """A JSON object read from input, whose keys are all among `keys`: a
    misspelled or unknown key is an input error, not ignored."""
    if not (isinstance(spec, dict) and set(spec) <= set(keys)):
        raise GeometryError(f"{what} must be an object with keys among {', '.join(keys[:-1])} "
                            f"and {keys[-1]}, got {spec!r}")
    return spec


def tagged(spec, what, tag, keys):
    """The kind that the `tag` key of a JSON object read from input names,
    the object checked by keyed with the keys `keys` maps that kind to."""
    if not isinstance(spec, dict):
        raise GeometryError(f"{what} must be an object with a {tag}, got {spec!r}")
    kind = spec.get(tag)
    if not (isinstance(kind, str) and kind in keys):
        raise GeometryError(f"unknown {what} {tag} {kind!r}")
    keyed(spec, f"a {kind} {what}", keys[kind])
    return kind


def reals(value, what):
    """An array of numbers read from input (nested lists), as floats, with
    real's rule for every entry."""
    if any(isinstance(v, bool) for v in np.asarray(value, dtype=object).flat):
        raise GeometryError(f"{what} must hold numbers, got a boolean")
    return np.asarray(value, dtype=float)
