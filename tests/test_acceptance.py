"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line on success (run with -s to see them);
a failing assertion marks the criterion red.  Tolerances are pinned here
and nowhere else.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from rollsym import Euclidean, GeodesicPath, GeometryError, Hyperbolic, Sphere, WarpFunction, Warped
from rollsym.brackets import (
    bracket_fd,
    bracket_structured,
    curvature_mismatch,
    flag_ranks,
    rolling_generators,
)
from rollsym.cli import main
from rollsym.curvature import (
    operator_invertible,
    rolling_curvature_operator,
    so_dim,
    wedge_matrix,
)
from rollsym.nilpotent import flatness_obstruction, verify_structure
from rollsym.rolling import RollingPair, TangentOfQ, roll_along
from rollsym.symmetry import (
    killing_catalog,
    killing_to_symmetry,
    inner_symmetry_residual,
    perturb_candidate,
    propagate_chain,
    sym0_dimension_probe,
    symmetry_residual,
    vertical_compatibility_residual,
)

# the expected [E_i, E_j] comes from a stencil of the frame written in the
# tests, not from the connection form that bracket_structured uses
from test_brackets import frame_bracket


def report(num, text):
    print(f"PASS criterion {num}: {text}")


def test_criterion_01_growth_vectors():
    t0 = time.monotonic()
    cases = [
        (RollingPair(Sphere(2, 1.0), Sphere(2, 3.0)), (2, 3, 5), 101),
        (RollingPair(Sphere(3, 1.0), Euclidean(3)), (3, 6, 9), 102),
    ]
    min_gap = math.inf
    for pair, expected, seed in cases:
        rng = np.random.default_rng(seed)
        for _ in range(20):
            rep = flag_ranks(pair.random_state(rng), depth=3, tol=1e-8)
            assert rep.ranks == expected, (rep.ranks, expected)
            for gap in rep.gaps:
                assert gap >= 1e4
                if gap != math.inf:
                    min_gap = min(min_gap, gap)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report(1, f"growth vectors (2,3,5) and (3,6,9) at 20 states each, "
              f"min finite gap {min_gap:.1e}, {elapsed:.1f}s")


def test_criterion_02_bracket_identity():
    cases = [
        (RollingPair(Sphere(2, 3.0), Sphere(2, 1.0)), -8.0 / 9.0, 201),
        (RollingPair(Sphere(2, 1.0), Euclidean(2)), 1.0, 202),
        (RollingPair(Hyperbolic(2, 1.0), Sphere(2, 1.0)), -2.0, 203),
    ]
    worst_structured = worst_fd = 0.0
    for pair, kappa, seed in cases:
        assert curvature_mismatch(pair) == pytest.approx(kappa, abs=1e-12)
        rng = np.random.default_rng(seed)
        gens = rolling_generators()
        n = pair.dim
        for _ in range(20):
            q = pair.random_state(rng)
            # the (i, j) tables of all generator brackets at q
            got = bracket_structured(gens, gens, q).coords().reshape(n, n, -1)
            got_fd = bracket_fd(gens, gens, q).coords().reshape(n, n, -1)
            for i in range(n):
                for j in range(i + 1, n):
                    w = frame_bracket(pair, q, i, j)
                    expected = TangentOfQ(
                        q, w, q.apply(w), kappa * wedge_matrix(np.eye(n)[i], np.eye(n)[j])
                    ).coords()
                    worst_structured = max(worst_structured, np.abs(got[i, j] - expected).max())
                    worst_fd = max(worst_fd, np.abs(got_fd[i, j] - expected).max())
    assert worst_structured < 1e-5
    assert worst_fd < 1e-5
    report(2, f"bracket identity on kappa in (-8/9, 1, -2); residuals "
              f"structured {worst_structured:.1e}, finite-difference {worst_fd:.1e}")


def test_criterion_03_rolling_integrity():
    rng = np.random.default_rng(301)
    worst_res = 0.0
    for pair in (RollingPair(Sphere(2, 1.0), Euclidean(2)),
                 RollingPair(Sphere(2, 1.0), Sphere(2, 3.0))):
        q0 = pair.random_state(rng)
        v = pair.space.random_tangent(rng, q0.x, unit=True)
        curve = roll_along(q0, GeodesicPath(pair.space, q0.x, v, 2 * math.pi), step=1e-3)
        worst_res = max(worst_res, float(curve.residuals.max()))
        assert np.all(np.linalg.det(curve.A) > 0)
    assert worst_res < 1e-7

    pair = RollingPair(Sphere(2, 1.0), Euclidean(2))
    q0 = pair.random_state(rng)
    v = pair.space.random_tangent(rng, q0.x, unit=True)
    length = 2.5
    qT = roll_along(q0, GeodesicPath(pair.space, q0.x, v, length), step=1e-3).final_state()
    dev_err = np.linalg.norm(qT.x_hat - (q0.x_hat + length * q0.apply(v)))
    assert dev_err < 1e-6
    report(3, f"isometry residual {worst_res:.1e} over length 2*pi, orientation kept, "
              f"geodesic development error {dev_err:.1e}")


def draw_samples(pair, rng, count):
    """count audit samples (state, X, Y), drawn in the order of cmd_audit."""
    qs, Xs, Ys = [], [], []
    for _ in range(count):
        qs.append(pair.random_state(rng))
        Xs.append(pair.space.random_tangent(rng, qs[-1].x, unit=True))
        Ys.append(pair.space.random_tangent(rng, qs[-1].x, unit=True))
    return qs, Xs, Ys


def test_criterion_04_killing_fields_induce_symmetries():
    setups = [
        (RollingPair(Sphere(2, 2.0), Euclidean(2)), 401),
        (RollingPair(Sphere(2, 2.0), Sphere(2, 1.0)), 402),
        (RollingPair(Sphere(2, 2.0), Hyperbolic(2, 1.0)), 403),
        (RollingPair(Sphere(3, 2.0), Sphere(3, 1.0)), 404),
    ]
    worst = 0.0
    for pair, seed in setups:
        rng = np.random.default_rng(seed)
        catalog = killing_catalog(pair.space_hat)
        cands = killing_to_symmetry(pair, catalog)
        qs, Xs, Ys = draw_samples(pair, rng, 50)
        assert all(np.all(cands.Z(q) == 0.0) for q in qs)  # base-fixing: Z = 0
        rs = (*symmetry_residual(cands, qs, Xs),
              vertical_compatibility_residual(cands, qs, Xs, Ys))
        worst = max(worst, np.max(rs))
        assert worst < 1e-6

        pert = perturb_candidate(killing_to_symmetry(pair, catalog[-1]), 1e-3, rng)
        qs, Xs, Ys = draw_samples(pair, rng, 5)
        rs = (*symmetry_residual(pert, qs, Xs), vertical_compatibility_residual(pert, qs, Xs, Ys))
        assert np.all(np.max(rs, axis=(0, 2)) > 1e-4)
    report(4, f"Killing catalogs of R^2, S^2, H^2, S^3 pass at 50 states "
              f"(worst residual {worst:.1e}); 1e-3 perturbations rejected")


def test_criterion_05_base_fixing_dimension():
    for pair, expected, seed in (
        (RollingPair(Sphere(2, 2.0), Sphere(2, 1.0)), 3, 501),
        (RollingPair(Sphere(3, 2.0), Sphere(3, 1.0)), 6, 502),
    ):
        rng = np.random.default_rng(seed)
        q0 = pair.random_state(rng)
        cands = killing_to_symmetry(pair, killing_catalog(pair.space_hat))
        rep = sym0_dimension_probe(q0, cands, tol=1e-8)
        assert rep.rank == expected
        assert rep.gap >= 1e4  # full rank reports an infinite gap
    report(5, "base-fixing evaluation data has rank n(n+1)/2 (3 and 6) with clear gaps")


def test_criterion_06_jacobi_propagation_matches_killing_data():
    worst = 0.0
    for mh, seed in ((Sphere(2, 1.0), 601), (Euclidean(2), 602)):
        pair = RollingPair(Sphere(2, 3.0), mh)
        rng = np.random.default_rng(seed)
        q = pair.random_state(rng)
        for field in killing_catalog(mh):
            cand = killing_to_symmetry(pair, field)
            q_cur, z_cur, u_cur = q, cand.Z_hat(q)[0], cand.U_bar(q)[0]
            for _ in range(3):
                direction = pair.space.random_tangent(rng, q_cur.x, unit=True)
                q_cur, z_cur, u_cur = propagate_chain(q_cur, [(direction, 0.8)], z_cur, u_cur)
            worst = max(
                worst,
                float(np.abs(z_cur - cand.Z_hat(q_cur)[0]).max()),
                float(np.abs(u_cur - cand.U_bar(q_cur)[0]).max()),
            )
    assert worst < 1e-5
    report(6, f"three-segment propagation matches the Killing construction "
              f"to {worst:.1e} on S^2 and R^2 targets")


def test_criterion_07_inner_symmetry():
    worst = 0.0
    for n, seed in ((2, 701), (3, 702)):
        warped = Warped((-1.2, 1.2), WarpFunction("cos"), Sphere(n - 1, 1.0))
        pair = RollingPair(warped, Sphere(n, 1.0))
        rng = np.random.default_rng(seed)
        radial = np.zeros(warped.amb_dim)
        radial[0] = 1.0
        for _ in range(20):
            q = pair.random_state(rng)
            worst = max(worst, inner_symmetry_residual(radial, q))
    assert worst < 1e-8

    pair = RollingPair(Sphere(2, 1.0), Euclidean(2))
    rng = np.random.default_rng(703)
    for _ in range(20):
        q = pair.random_state(rng)
        z = pair.space.random_tangent(rng, q.x, unit=True)
        assert inner_symmetry_residual(z, q) >= 1.0 - 1e-6
    report(7, f"radial field of the cosine warp is inner against the unit sphere "
              f"(residual {worst:.1e}); the mismatched pair rejects every candidate")


def test_criterion_08_nilpotent_structure():
    t0 = time.monotonic()
    for n in (2, 3, 4, 5):
        rep = verify_structure(n)
        assert rep["ok"]
        assert rep["triple_identity_failures"] == 0
        assert rep["jacobi_failures"] == 0
        assert rep["step3_failures"] == 0
        assert rep["dims"] == (n, so_dim(n), n)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    report(8, f"graded algebra verified exactly for n in 2..5 in {elapsed:.2f}s")


def test_criterion_09_non_flatness():
    rng = np.random.default_rng(901)
    for _ in range(100):
        k = Fraction(int(rng.integers(-60, 61)), int(rng.integers(1, 13)))
        kh = Fraction(int(rng.integers(-60, 61)), int(rng.integers(1, 13)))
        if k == kh:
            kh = k + 1
        n = int(rng.integers(3, 7))
        rep = flatness_obstruction(k, kh, Fraction(int(rng.integers(1, 9)), 4), n=n)
        assert rep.verdict == "not_flat"
    exact = flatness_obstruction(1, Fraction(1, 9), 1, n=3)
    assert exact.obstruction_M == Fraction(81, 64)
    with pytest.raises(GeometryError):
        flatness_obstruction(2, 2, 1)
    assert flatness_obstruction(1, Fraction(1, 9), 1, n=2).verdict == "inconclusive"
    report(9, "100 mismatched pairs all not flat; exact 81/64 at (1, 1/9, 1); "
              "kappa=0 rejected; n=2 inconclusive")


def test_criterion_10_rolling_curvature_operator():
    rng = np.random.default_rng(1001)
    cases = [
        (RollingPair(Sphere(2, 1.0), Sphere(2, 3.0)), 1.0 - 1.0 / 9.0, True),
        (RollingPair(Sphere(3, 1.0), Euclidean(3)), 1.0, True),
        (RollingPair(Hyperbolic(2, 1.0), Sphere(2, 1.0)), -2.0, True),
        (RollingPair(Sphere(2, 2.0), Sphere(2, 2.0)), 0.0, False),
    ]
    for pair, mismatch, should_invert in cases:
        q = pair.random_state(rng)
        op = rolling_curvature_operator(q)
        assert np.abs(op - mismatch * np.eye(so_dim(pair.dim))).max() < 1e-9
        verdict, _, _ = operator_invertible(op)
        assert verdict == should_invert
    report(10, "bivector operator equals (K - K_hat) I to 1e-9; invertible iff K != K_hat")


def test_criterion_11_cli_determinism(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "manifold_pair": [
            {"kind": "sphere", "dim": 2, "radius": 1.0},
            {"kind": "sphere", "dim": 2, "radius": 3.0},
        ],
        "seed": 11,
    }))
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / f"growth_{name}.json"
        assert main(["--config", str(cfg), "growth", "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]

    outputs = []
    for name in ("a", "b"):
        out = tmp_path / f"audit_{name}.json"
        assert main([
            "--config", str(cfg), "symmetry-check",
            "--candidate", json.dumps({"kind": "catalog"}),
            "--samples", "5", "--out", str(out),
        ]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    report(11, "repeated CLI runs with fixed config and seed are byte-identical")
