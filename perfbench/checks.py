"""Independent checks of the reports that the benchmark ops write.

Each checker re-reads the op's output file instead of trusting its exit
code, and uses only NumPy and the standard library, so a defect in the
package under test cannot also hide in its own check.  A checker returns
(passed, reason, health), where health holds accuracy figures for the
traced run.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

ISOMETRY_TOL = 1e-7
DEVELOPMENT_TOL = 1e-6


def check(op):
    """Judge the report of an op that has run; never raises on bad data."""
    if not op.out.is_file():
        return False, "report missing", {}
    try:
        return CHECKERS[op.check](op.out, op.params)
    except (ValueError, KeyError, TypeError, IndexError, json.JSONDecodeError) as exc:
        return False, f"unreadable report: {type(exc).__name__}: {exc}", {}


def _finite(values):
    return all(math.isfinite(v) for v in values)


def sphere_frame(x, radius):
    """Deterministic orthonormal frame of a round sphere at x, as the package
    defines it: Gram-Schmidt on the projected coordinate basis in coordinate
    order, skipping near-null vectors, the last row flipped so that
    (rows, x / r) is positively oriented."""
    x = np.asarray(x, float)
    rows = []
    for k in range(len(x)):
        v = np.zeros(len(x))
        v[k] = 1.0
        v = v - (x @ v / radius**2) * x
        for r in rows:
            v = v - (v @ r) * r
        if v @ v > 1e-16:
            rows.append(v / math.sqrt(v @ v))
        if len(rows) == len(x) - 1:
            break
    rows = np.array(rows)
    if np.linalg.det(np.vstack([rows, x / radius])) < 0:
        rows[-1] = -rows[-1]
    return rows


def check_roll(path, params):
    with open(path, newline="") as fh:
        table = list(csv.reader(fh))
    header, rows = table[0], table[1:]
    if header[0] != "t" or header[-1] != "isometry_residual":
        return False, "unexpected CSV header", {}
    grid = params["grid"]
    if len(rows) != grid + 1:
        return False, f"{len(rows)} rows for a grid of {grid} intervals", {}
    data = np.array(rows, dtype=float)
    if not np.isfinite(data).all():
        return False, "non-finite value in trajectory", {}
    residual = float(data[:, -1].max())
    health = {"max_isometry_residual": residual}
    if residual >= ISOMETRY_TOL:
        return False, f"isometry residual {residual:.3e}", health
    if abs(data[-1, 0] - params["length"]) > 1e-12 * max(1.0, params["length"]):
        return False, "trajectory does not end at the path length", health
    if params.get("closed_form"):
        err = _development_error(header, data, params)
        if not err < DEVELOPMENT_TOL:
            return False, f"development off the closed form by {err:.3e}", health
    return True, "", health


def _development_error(header, data, params):
    """S^2(1) rolled on R^2 along a unit-speed geodesic: the contact point on
    the plane moves on the straight line x_hat_0 + t A v (criterion 3)."""
    xs = [i for i, h in enumerate(header) if h.startswith("x") and not h.startswith("xhat")]
    xh = [i for i, h in enumerate(header) if h.startswith("xhat")]
    am = [i for i, h in enumerate(header) if h.startswith("A")]
    x0, xhat0, xhat_end = data[0, xs], data[0, xh], data[-1, xh]
    n = len(xh)
    a0 = data[0, am].reshape(n, n)
    d = np.asarray(params["direction"], float)
    v = d - (x0 @ d) * x0
    v = v / np.linalg.norm(v)
    frame = sphere_frame(x0, 1.0)
    expected = xhat0 + params["length"] * (a0 @ (frame @ v))  # the plane's frame is the identity
    return float(np.linalg.norm(xhat_end - expected))


def check_growth(path, params):
    report = json.loads(path.read_text())
    ranks = report["flag"]["ranks"]
    gaps = [g for g in report["flag"]["gaps"] if g is not None]
    health = {"min_rank_gap": min(gaps)} if gaps else {}
    if ranks != params["ranks"]:
        return False, f"ranks {ranks}, expected {params['ranks']}", health
    if not _finite(gaps) or any(g < params["gap_min"] for g in gaps):
        return False, f"rank gap below {params['gap_min']:g}: {gaps}", health
    return True, "", health


def check_audit(path, params):
    report = json.loads(path.read_text())
    maxima = [float(v["max"]) for v in report["residuals"].values()]
    if len(maxima) != 3 or not _finite(maxima):
        return False, "residual block malformed", {}
    if report["samples"] != params["samples"]:
        return False, f"{report['samples']} samples, expected {params['samples']}", {}
    worst = max(maxima)
    tol = params["tol"]
    if params["perturbed"]:
        health = {"min_residual_perturbed": worst}
        if worst < tol:
            return False, f"perturbed candidates not rejected (max residual {worst:.3e})", health
    else:
        health = {"max_residual": worst}
        if worst >= tol:
            return False, f"Killing-induced residual {worst:.3e} above {tol:g}", health
    return True, "", health


def check_nilpotent(path, params):
    report = json.loads(path.read_text())
    n = params["n"]
    if report["verification"]["ok"] is not True:
        return False, "verification not ok", {}
    entries = len(report["structure_constants"])
    if entries != 3 * n * (n - 1) // 2:
        return False, f"{entries} structure constants, expected {3 * n * (n - 1) // 2}", {}
    return True, "", {}


CHECKERS = {
    "roll": check_roll,
    "growth": check_growth,
    "audit": check_audit,
    "nilpotent": check_nilpotent,
}
