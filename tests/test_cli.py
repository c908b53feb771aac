import copy
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rollsym.cli import main

ROOT = Path(__file__).resolve().parents[1]

SPHERE_PLANE = {
    "manifold_pair": [
        {"kind": "sphere", "dim": 2, "radius": 1.0},
        {"kind": "euclidean", "dim": 2},
    ],
    "seed": 7,
}

SPHERES_1_3 = {
    "manifold_pair": [
        {"kind": "sphere", "dim": 2, "radius": 1.0},
        {"kind": "sphere", "dim": 2, "radius": 3.0},
    ],
    "seed": 3,
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_simulate_writes_trajectory_and_reports_residual(tmp_path, capsys):
    cfg = write_config(tmp_path, SPHERE_PLANE)
    out = tmp_path / "traj.csv"
    code = main([
        "--config", cfg, "simulate",
        "--path-spec", json.dumps({"type": "geodesic", "direction": [1.0, 0.0, 0.0],
                                   "length": 3.141592653589793}),
        "--out", str(out), "--format", "csv",
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("t,x0")
    assert len(lines) > 3000
    assert "max isometry residual" in capsys.readouterr().out


def test_simulate_zero_length_path_single_row(tmp_path):
    cfg = write_config(tmp_path, SPHERE_PLANE)
    out = tmp_path / "traj.csv"
    code = main([
        "--config", cfg, "simulate",
        "--path-spec", json.dumps({"type": "geodesic", "direction": [1.0, 0.0, 0.0],
                                   "length": 0.0}),
        "--out", str(out), "--format", "csv",
    ])
    assert code == 0
    assert len(out.read_text().splitlines()) == 2  # header + initial state


@pytest.mark.parametrize("scale", [2.0**1000, 2.0**-1060], ids=["2**1000", "2**-1060"])
def test_simulate_direction_scale_does_not_change_the_trajectory(tmp_path, scale):
    # the path is the unit-speed geodesic along the direction, however long
    # the direction is: a norm beyond the float range must not stop the roll
    cfg = write_config(tmp_path, SPHERES_1_3)

    def trajectory(direction):
        out = tmp_path / "traj.csv"
        assert main(["--config", cfg, "simulate", "--path-spec",
                     json.dumps({"type": "geodesic", "direction": direction, "length": 1.0}),
                     "--out", str(out)]) == 0
        return out.read_bytes()

    for d in ([1.0, 1.0, 0.0], [0.75, -0.5, 0.25]):
        assert trajectory([scale * c for c in d]) == trajectory(d)


def test_simulate_default_format_is_trajectory_csv(tmp_path):
    cfg = write_config(tmp_path, SPHERE_PLANE)
    out = tmp_path / "default_out"
    code = main([
        "--config", cfg, "simulate",
        "--path-spec", json.dumps({"type": "geodesic", "direction": [1.0, 0.0, 0.0],
                                   "length": 0.3}),
        "--out", str(out),
    ])
    assert code == 0
    assert out.read_text().startswith("t,x0")


def test_simulate_sampled_path_file(tmp_path):
    import numpy as np

    state = {
        "x": [0.0, 0.0, 1.0],
        "x_hat": [0.0, 0.0],
        "A": [[1.0, 0.0], [0.0, 1.0]],
    }
    cfg = write_config(tmp_path, {**SPHERE_PLANE, "initial_state": state})
    ts = np.linspace(0.0, 0.5, 41)
    pts = np.array([[np.sin(t), 0.0, np.cos(t)] for t in ts])
    samples = tmp_path / "path.csv"
    np.savetxt(samples, np.column_stack([ts, pts]), delimiter=",")
    out = tmp_path / "traj.csv"
    code = main([
        "--config", cfg, "simulate",
        "--path-spec", json.dumps({"type": "samples", "file": str(samples)}),
        "--out", str(out), "--format", "csv",
    ])
    assert code == 0
    rows = out.read_text().splitlines()
    assert len(rows) == 42  # header + one state per sample


def test_simulate_json_format(tmp_path):
    cfg = write_config(tmp_path, SPHERE_PLANE)
    out = tmp_path / "traj.json"
    code = main([
        "--config", cfg, "simulate",
        "--path-spec", json.dumps({"type": "geodesic", "direction": [1.0, 0.0, 0.0],
                                   "length": 0.5}),
        "--out", str(out), "--format", "json",
    ])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["max_isometry_residual"] < 1e-7
    assert "A" in data["trajectory"][0]
    rows = data["trajectory"]
    assert len(rows) == 501
    assert sorted(rows[0]) == ["A", "isometry_residual", "t", "x", "x_hat"]
    assert rows[-1]["t"] == 0.5
    assert max(r["isometry_residual"] for r in rows) == data["max_isometry_residual"]


@pytest.mark.parametrize("config, hat_check", [(SPHERE_PLANE, "plane"), (SPHERES_1_3, "sphere")])
def test_coarse_long_simulation_stays_within_tolerance(tmp_path, capsys, config, hat_check):
    # integrating the frames by RK4 at step 0.05 over length 20 used to drift
    # out of the state checks and exit 2: "contact map is not an isometry
    # (residual 1.388e-09)" on the plane, "point violates the sphere
    # constraint by 1.080e-10" on S^2(3)
    cfg = write_config(tmp_path, config)
    out = tmp_path / "traj.csv"
    code = main([
        "--config", cfg, "simulate", "--step", "0.05",
        "--path-spec", json.dumps({"type": "geodesic", "direction": [1.0, 0.0, 0.0],
                                   "length": 20.0}),
        "--out", str(out), "--format", "csv",
    ])
    assert code == 0, capsys.readouterr().err
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert len(data) == 401
    assert data[:, -1].max() < 1e-12


def test_simulate_domain_exit_code(tmp_path):
    warped_pair = {
        "manifold_pair": [
            {
                "kind": "warped",
                "dim": 2,
                "interval": [-1.2, 1.2],
                "warp": {"name": "cosh", "a": 1.0, "b": 0.0, "omega": 1.0},
                "fiber": {"kind": "sphere", "dim": 1, "radius": 1.0},
            },
            {"kind": "euclidean", "dim": 2},
        ],
        "seed": 1,
        "initial_state": {
            "x": [0.0, 1.0, 0.0],
            "x_hat": [0.0, 0.0],
            "A": [[1.0, 0.0], [0.0, 1.0]],
        },
    }
    cfg = write_config(tmp_path, warped_pair)
    code = main([
        "--config", cfg, "simulate",
        "--path-spec", json.dumps({"type": "geodesic", "direction": [1.0, 0.0, 0.0],
                                   "length": 5.0}),
        "--out", str(tmp_path / "t.csv"), "--format", "csv",
    ])
    assert code == 3


def test_warped_fiber_of_a_warped_product_exits_2(tmp_path, capsys):
    # the curvature of a warped product needs a fiber of constant curvature
    inner = {"kind": "warped", "interval": [-1.2, 1.2], "warp": {"name": "cosh"},
             "fiber": {"kind": "sphere", "dim": 1, "radius": 1.0}}
    outer = {"kind": "warped", "interval": [-1.2, 1.2], "warp": {"name": "cos"}, "fiber": inner}
    cfg = write_config(tmp_path, {"manifold_pair": [outer, {"kind": "sphere", "dim": 3}],
                                  "seed": 1})
    assert main(["--config", cfg, "rol", "--out", str(tmp_path / "k.json")]) == 2
    assert "fiber of a warped product must be a space form" in capsys.readouterr().err
    assert not (tmp_path / "k.json").exists()


def test_config_parse_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--config", str(bad), "growth"]) == 2
    missing_pair = write_config(tmp_path, {"seed": 0}, "nopair.json")
    assert main(["--config", missing_pair, "growth"]) == 2
    sphere, plane = SPHERE_PLANE["manifold_pair"]
    malformed = [
        [sphere, plane],  # not a JSON object
        {"manifold_pair": [{**sphere, "dim": "two"}, plane]},
        {"manifold_pair": [{**sphere, "radius": "abc"}, plane]},
        # counts are not truncated
        {"manifold_pair": [{**sphere, "dim": 2.9}, plane]},
        {**SPHERE_PLANE, "seed": 2.7},
        {**SPHERE_PLANE, "tolerances": {"rank": "abc"}},
        # the plane has no constraint that a non-finite coordinate would violate
        {**SPHERE_PLANE, "initial_state": {"x": [0.0, 0.0, 1.0], "x_hat": [float("nan"), 0.0],
                                           "A": [[1.0, 0.0], [0.0, 1.0]]}},
        {**SPHERE_PLANE, "initial_state": {"x": [0.0, 0.0, 1.0], "x_hat": [0.0, 0.0],
                                           "A": np.eye(3).tolist()}},
        {**SPHERE_PLANE, "initial_state": {"x": [0.0, 0.0, 1.0], "x_hat": [0.0, 0.0],
                                           "A": [[float("nan"), 0.0], [0.0, 1.0]]}},
    ]
    for k, payload in enumerate(malformed):
        capsys.readouterr()
        out = tmp_path / "growth.json"
        assert main(["--config", write_config(tmp_path, payload, f"m{k}.json"), "growth",
                     "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()
    # an output path that is not a string is rejected before anything is opened
    bad_out = write_config(tmp_path, {**SPHERE_PLANE, "output": {"path": ["a"]}}, "out.json")
    assert main(["--config", bad_out, "growth"]) == 2
    # integral counts written as floats are counts
    whole = {"manifold_pair": [{**sphere, "dim": 2.0}, {**plane, "dim": 2.0}], "seed": 7.0}
    assert main(["--config", write_config(tmp_path, whole, "w.json"), "growth",
                 "--out", str(tmp_path / "w.out")]) == 0
    # killing builds no point, so a non-finite radius must be caught where it is read
    for radius in ("nan", "inf"):
        nan_sphere = {"manifold_pair": [plane, {**sphere, "radius": radius}]}
        out = tmp_path / "killing.json"
        assert main(["--config", write_config(tmp_path, nan_sphere, "r.json"), "killing",
                     "--out", str(out)]) == 2
        assert not out.exists()


def test_growth_report_and_exit(tmp_path):
    cfg = write_config(tmp_path, SPHERES_1_3)
    out = tmp_path / "growth.json"
    assert main(["--config", cfg, "growth", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["flag"]["ranks"] == [2, 3, 5]
    assert data["predicted_growth"] == [2, 3, 5]
    assert data["kappa"] == pytest.approx(8.0 / 9.0)
    assert data["seed"] == 3


def test_growth_matched_curvatures_notes_kappa_zero(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "manifold_pair": [
                {"kind": "sphere", "dim": 2, "radius": 1.0},
                {"kind": "sphere", "dim": 2, "radius": 1.0},
            ],
            "seed": 5,
        },
    )
    out = tmp_path / "growth.json"
    assert main(["--config", cfg, "growth", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["note"] == "kappa=0"
    assert data["flag"]["ranks"] == [2, 2, 2]


def test_growth_rank_gap_ambiguity_exit(tmp_path):
    nearly_equal = {
        "manifold_pair": [
            {"kind": "sphere", "dim": 2, "radius": 1.0},
            {"kind": "sphere", "dim": 2, "radius": 1.0 + 5e-9},
        ],
        "seed": 2,
    }
    cfg = write_config(tmp_path, nearly_equal)
    assert main(["--config", cfg, "growth", "--out", str(tmp_path / "g.json")]) == 4


def test_growth_equilibrates_flag_layers_of_different_lengths(tmp_path):
    # the depth-3 bracket rows are about 175 long against 1.4 for the
    # generators; unscaled, the smallest kept singular value sat only 4e3
    # above the cut and a correct flag exited 4
    cfg = write_config(tmp_path, {
        "manifold_pair": [
            {"kind": "sphere", "dim": 2, "radius": 1.0},
            {"kind": "sphere", "dim": 2, "radius": 3.0},
        ],
    })
    out = tmp_path / "g.json"
    assert main(["--config", cfg, "growth", "--seed", "1186217206", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["flag"]["ranks"] == [2, 3, 5] and data["rank_cut_ambiguous"] is False


def test_audit_catalog_and_perturbation(tmp_path):
    cfg = write_config(tmp_path, SPHERES_1_3)
    out = tmp_path / "audit.json"
    assert main([
        "--config", cfg, "symmetry-check",
        "--candidate", json.dumps({"kind": "catalog"}),
        "--samples", "5", "--out", str(out),
    ]) == 0
    data = json.loads(out.read_text())
    assert data["sym0_dimension"]["rank"] == 3
    assert all(block["max"] < 1e-6 for block in data["residuals"].values())

    code = main([
        "--config", cfg, "audit",
        "--candidate", json.dumps({"kind": "catalog", "perturb": 1e-3}),
        "--samples", "3", "--out", str(tmp_path / "aud2.json"),
    ])
    assert code == 1

    # a non-finite perturbation used to write NaN residuals and pass
    for eps in (float("nan"), float("inf")):
        out3 = tmp_path / "aud3.json"
        assert main([
            "--config", cfg, "audit", "--candidate", json.dumps({"kind": "catalog", "perturb": eps}),
            "--samples", "2", "--out", str(out3),
        ]) == 2
        assert not out3.exists()


def test_audit_sphere_on_hyperbolic_plane_seed_62(tmp_path):
    # round-off left the drift residual slightly off the hyperboloid's tangent
    # space, its Minkowski norm negative and math.sqrt raising
    cfg = write_config(tmp_path, {
        "manifold_pair": [
            {"kind": "sphere", "dim": 2, "radius": 2.0},
            {"kind": "hyperbolic", "dim": 2, "radius": 1.0},
        ],
    })
    out = tmp_path / "audit.json"
    assert main([
        "--config", cfg, "symmetry-check", "--candidate", json.dumps({"kind": "catalog"}),
        "--samples", "20", "--seed", "62", "--out", str(out),
    ]) == 0
    data = json.loads(out.read_text())
    assert all(block["max"] < 1e-6 for block in data["residuals"].values())


def test_seeded_perturbed_audit_report_is_pinned(tmp_path):
    # the stacked perturbation draws one normal (n, n) per field in catalog
    # order, so the seeded noise, and with it the report, are those of one
    # draw per candidate
    cfg = write_config(tmp_path, {
        "manifold_pair": [
            {"kind": "sphere", "dim": 3, "radius": 2.0},
            {"kind": "sphere", "dim": 3, "radius": 1.0},
        ],
        "seed": 17,
    })
    out = tmp_path / "audit.json"
    assert main([
        "--config", cfg, "symmetry-check",
        "--candidate", json.dumps({"kind": "catalog", "perturb": 1e-3}),
        "--samples", "10", "--out", str(out),
    ]) == 1
    data = json.loads(out.read_text())
    assert data["candidates"] == [f"killing(rotation-{i}{j})+skew(0.001)"
                                  for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))]
    assert data["residuals"]["eq_drift"]["max"] == pytest.approx(0.001371564580228729, rel=1e-9)


def test_audit_mismatched_generator_exit(tmp_path):
    cfg = write_config(tmp_path, SPHERE_PLANE)
    code = main([
        "--config", cfg, "symmetry-check",
        "--candidate", json.dumps({"kind": "killing",
                                   "generator": {"type": "boost", "axis": 1}}),
        "--samples", "1",
    ])
    assert code == 5
    # an unknown generator type, or a generator index that is not a whole
    # number, is a parse error, not a mismatch
    for generator in ({"type": "spin"}, {"type": "translation", "axis": 0.5},
                      {"type": "rotation", "plane": [0, 1.5]}):
        code = main([
            "--config", cfg, "symmetry-check",
            "--candidate", json.dumps({"kind": "killing", "generator": generator}),
            "--samples", "1",
        ])
        assert code == 2
    code = main([
        "--config", cfg, "symmetry-check",
        "--candidate", json.dumps({"kind": "killing",
                                   "generator": {"type": "translation", "axis": 1.0}}),
        "--samples", "1", "--out", str(tmp_path / "axis.json"),
    ])
    assert code == 0
    # the Killing catalog of a non-constant-curvature second factor is a mismatch
    warped = {"kind": "warped", "interval": [-1.2, 1.2], "warp": {"name": "cosh"},
              "fiber": {"kind": "sphere", "dim": 1, "radius": 1.0}}
    cfg = write_config(tmp_path, {"manifold_pair": [{"kind": "euclidean", "dim": 2}, warped]},
                       "warped.json")
    assert main(["--config", cfg, "killing"]) == 5


def test_killing_listing(tmp_path):
    cfg = write_config(tmp_path, SPHERE_PLANE)
    out = tmp_path / "killing.json"
    assert main(["--config", cfg, "killing", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["dimension"] == 3
    assert data["fields"] == ["translation-0", "translation-1", "rotation-01"]


def test_rol_report(tmp_path):
    cfg = write_config(tmp_path, SPHERES_1_3)
    out = tmp_path / "rol.json"
    assert main(["--config", cfg, "rol", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["invertible"] is True
    assert data["singular_values"] == pytest.approx([8.0 / 9.0], abs=1e-9)


ONE_DIMENSIONAL_PAIRS = {
    "S1(1)/R1": [{"kind": "sphere", "dim": 1, "radius": 1.0}, {"kind": "euclidean", "dim": 1}],
    "S1(1)/S1(2)": [{"kind": "sphere", "dim": 1, "radius": 1.0},
                    {"kind": "sphere", "dim": 1, "radius": 2.0}],
}
SUBCOMMANDS_ON_A_PAIR = {
    "simulate": ["--path-spec", json.dumps({"type": "geodesic", "direction": [0.0, 1.0],
                                            "length": 1.0})],
    "growth": [],
    "symmetry-check": ["--candidate", json.dumps({"kind": "catalog"})],
    "killing": [],
    "rol": [],
}


@pytest.mark.parametrize("pair", sorted(ONE_DIMENSIONAL_PAIRS))
@pytest.mark.parametrize("command", sorted(SUBCOMMANDS_ON_A_PAIR))
def test_rol_on_a_one_dimensional_pair_exits_2(tmp_path, capsys, command, pair):
    # rolling needs n >= 2: every subcommand that reads a pair refuses a
    # pair of curves as an input error, before it computes or writes anything
    cfg = write_config(tmp_path, {"manifold_pair": ONE_DIMENSIONAL_PAIRS[pair], "seed": 1})
    out = tmp_path / "report.out"
    assert main(["--config", cfg, command, *SUBCOMMANDS_ON_A_PAIR[command],
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "n >= 2" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_nilpotent_report(tmp_path):
    out = tmp_path / "nil.json"
    assert main(["nilpotent", "--n", "3", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["verification"]["ok"] is True
    names = {entry["x"] for entry in data["structure_constants"]}
    assert "N0" in names


# sha256 of `nilpotent --n k` reports written by the Fraction-based
# verification that the structure-tensor version replaced
NILPOTENT_REPORT_SHA256 = {
    2: "58f3a1e579c81ed2379d2f344dd5aabf5a55a2a4168806d25ed6a4f3143348ec",
    3: "e29fcf375f09afa32dfd41ad53945941db63cd996cf1d2694de5433b170cc260",
    4: "aadfe56f51e4c72e9324437eface7ee9b112da5f84227778caae1a4ff5312a85",
    5: "fd236633776e4b2bec3740779d2bfd4f07acc7dfbafac69fd248b40ae943124d",
    6: "b385df49cef9ec0b4df44a86b11d56df6bb2ddcef5ec4296e65a1aa4112a7d72",
    7: "2013108590d77c7dfd53b6e8eb1267ce452a9661d5084d4df0f622cdda566d66",
}


@pytest.mark.parametrize("n", sorted(NILPOTENT_REPORT_SHA256))
def test_nilpotent_report_bytes_are_pinned(tmp_path, n):
    out = tmp_path / "nil.json"
    assert main(["nilpotent", "--n", str(n), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == NILPOTENT_REPORT_SHA256[n]


@pytest.mark.parametrize("n", ["1", "13"])
def test_nilpotent_rejects_n_out_of_range(tmp_path, capsys, n):
    out = tmp_path / "nil.json"
    assert main(["nilpotent", "--n", n, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--n must lie in [2, 12]" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--K", "--K-hat", "--beta"])
@pytest.mark.parametrize("value", ["nan", "inf", "abc"])
def test_flatness_rejects_non_finite_or_unparsable_numbers(tmp_path, capsys, flag, value):
    args = {"--K": "1", "--K-hat": "1/9", "--beta": "1", flag: value}
    out = tmp_path / "flat.json"
    assert main(["flatness", *[a for kv in args.items() for a in kv], "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "not a finite rational number" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("args", [["--K", "1e400", "--K-hat", "1"],
                                  ["--K", "1", "--K-hat", "3", "--beta", "1e200"]])
def test_flatness_values_beyond_the_float_range_exit_2(tmp_path, capsys, args):
    # the exact inputs are fine, but the report's float values overflow
    out = tmp_path / "flat.json"
    assert main(["flatness", *args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "OverflowError" in err and "Traceback" not in err
    assert not out.exists()


def test_flatness_report_and_rational_inputs(tmp_path):
    out = tmp_path / "flat.json"
    assert main(["flatness", "--K", "1", "--K-hat", "1/9", "--beta", "1",
                 "--n", "3", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["obstruction"]["obstruction_M"]["num"] == 81
    assert data["obstruction"]["verdict"] == "not_flat"
    assert main(["flatness", "--K", "1", "--K-hat", "1"]) == 2


def test_reports_are_byte_identical_for_fixed_seed(tmp_path):
    cfg = write_config(tmp_path, SPHERES_1_3)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert main(["--config", cfg, "growth", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()

    c, d = tmp_path / "c.json", tmp_path / "d.json"
    for out in (c, d):
        assert main([
            "--config", cfg, "symmetry-check",
            "--candidate", json.dumps({"kind": "catalog"}),
            "--samples", "3", "--out", str(out),
        ]) == 0
    assert c.read_bytes() == d.read_bytes()


@pytest.mark.parametrize("step", ["0", "-0.01", "nan", "inf"])
def test_simulate_rejects_a_step_that_is_not_finite_and_positive(tmp_path, capsys, step):
    cfg = write_config(tmp_path, SPHERE_PLANE)
    out = tmp_path / "traj.csv"
    assert main([
        "--config", cfg, "simulate",
        "--path-spec", json.dumps({"type": "geodesic", "direction": [1.0, 0.0, 0.0],
                                   "length": 0.5}),
        f"--step={step}", "--out", str(out),
    ]) == 2
    assert "--step must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("step", ["1e-300", "1e-250"])
def test_simulate_rejects_a_grid_too_large_to_hold(tmp_path, capsys, step):
    # such grids cannot be allocated (and one of a few million rows would take
    # gigabytes): the step is an input error, found before any grid is built
    cfg = write_config(tmp_path, SPHERE_PLANE)
    out = tmp_path / "traj.csv"
    assert main([
        "--config", cfg, "simulate",
        "--path-spec", json.dumps({"type": "geodesic", "direction": [1.0, 0.0, 0.0],
                                   "length": 0.5}),
        f"--step={step}", "--out", str(out),
    ]) == 2
    assert "grid intervals" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_audit_rejects_a_sample_count_below_one(tmp_path, capsys, samples):
    cfg = write_config(tmp_path, SPHERES_1_3)
    out = tmp_path / "audit.json"
    assert main([
        "--config", cfg, "symmetry-check", "--candidate", json.dumps({"kind": "catalog"}),
        f"--samples={samples}", "--out", str(out),
    ]) == 2
    assert "--samples must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_python_dash_m_runs_the_cli(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "rollsym", *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120).returncode

    assert run("nilpotent", "--n", "4", "--out", str(tmp_path / "nil.json")) == 0
    cfg = write_config(tmp_path, SPHERES_1_3)
    assert run("--config", cfg, "symmetry-check", "--candidate", json.dumps({"kind": "catalog"}),
               "--samples", "0") == 2


def test_importing_the_cli_loads_no_scipy_integrate_or_interpolate():
    # no subcommand integrates or interpolates on its own: the functions that
    # do import their SciPy module when they run, so a CLI run does not pay
    # for those imports
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = ("import sys, rollsym.cli; print(' '.join(sorted(m for m in sys.modules "
            "if m.split('.')[:2] in (['scipy', 'integrate'], ['scipy', 'interpolate']))))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""


def test_the_parser_is_built_once_and_keeps_no_state_between_calls(tmp_path):
    from rollsym.cli import build_parser

    cfg = write_config(tmp_path, SPHERES_1_3)

    def growth(*extra):
        out = tmp_path / "g.json"
        assert main(["--config", cfg, "growth", "--depth", "2", "--out", str(out), *extra]) == 0
        return out.read_bytes()

    build_parser.cache_clear()
    fresh = growth()
    assert build_parser() is build_parser()
    seeded = growth("--seed", "11")
    # the override of the call before does not carry over to this one
    assert growth() == fresh
    assert json.loads(fresh)["seed"] == 3 and json.loads(seeded)["seed"] == 11


@pytest.mark.parametrize("path", [
    {"direction": [1.0, 0.0, 0.0]},  # one entry too many for the plane
    {"direction": [float("nan"), 1.0]},
    {"direction": [1.0, 0.0], "length": float("nan")},
    {"direction": [1.0, 0.0], "length": float("inf")},
], ids=["wrong-length", "nan-direction", "nan-length", "inf-length"])
def test_simulate_rejects_a_malformed_path(tmp_path, capsys, path):
    plane_first = {"manifold_pair": [{"kind": "euclidean", "dim": 2},
                                     {"kind": "sphere", "dim": 2, "radius": 1.0}]}
    cfg = write_config(tmp_path, plane_first)
    out = tmp_path / "traj.csv"
    assert main(["--config", cfg, "simulate", "--path-spec",
                 json.dumps({"type": "geodesic", "length": 0.5, **path}), "--out", str(out)]) == 2
    assert "path" in capsys.readouterr().err
    assert not out.exists()


def test_an_audit_sample_evaluates_u_bar_once_at_its_state(tmp_path, monkeypatch):
    from rollsym.symmetry import KillingField

    calls = []
    nabla = KillingField.nabla_matrix
    monkeypatch.setattr(KillingField, "nabla_matrix",
                        lambda self, *a: calls.append(1) or nabla(self, *a))
    cfg = write_config(tmp_path, SPHERES_1_3)
    assert main([
        "--config", cfg, "symmetry-check", "--candidate", json.dumps({"kind": "catalog"}),
        "--samples", "3", "--seed", "1", "--out", str(tmp_path / "audit.json"),
    ]) == 0
    # per sample: once at the state and at the two samples of the order-2
    # stencil of the drift derivative; once more for the dimension probe
    assert len(calls) == 3 * 3 + 1


def test_audit_rejects_a_perturbation_too_large_to_hold(tmp_path, capsys):
    # at seed 1 the noise's largest entry is below 1: its scale used to
    # overflow to inf, U_bar to turn NaN and the NaN skewness residual to
    # pass validation, ending in a LinAlgError traceback
    cfg = write_config(tmp_path, SPHERES_1_3)
    out = tmp_path / "audit.json"
    assert main([
        "--config", cfg, "symmetry-check",
        "--candidate", json.dumps({"kind": "catalog", "perturb": 1e308}),
        "--samples", "2", "--seed", "1", "--out", str(out),
    ]) == 2
    err = capsys.readouterr().err
    assert "is not skew" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-6"])
def test_perturbed_audit_with_a_degenerate_tolerance_exits_2(tmp_path, capsys, tol):
    cfg = write_config(tmp_path, SPHERES_1_3)
    out = tmp_path / "audit.json"
    assert main([
        "--config", cfg, "symmetry-check",
        "--candidate", json.dumps({"kind": "catalog", "perturb": 1e-3}),
        "--samples", "2", f"--tol={tol}", "--out", str(out),
    ]) == 2
    assert "tolerance residual must be finite and positive" in capsys.readouterr().err
    assert not out.exists()
    config_tol = write_config(tmp_path, {**SPHERES_1_3, "tolerances": {"isometry": float(tol)}},
                              "tol.json")
    assert main(["--config", config_tol, "rol", "--out", str(out)]) == 2
    assert not out.exists()


def test_the_audit_dimension_probe_reads_the_rank_tolerance(tmp_path):
    # the probe used to rank at the default 1e-8 whatever the config said,
    # while growth and rol honoured the setting
    cfg = write_config(tmp_path, {**SPHERES_1_3, "tolerances": {"rank": 1e-3}})
    out = tmp_path / "audit.json"
    assert main(["--config", cfg, "symmetry-check", "--candidate", json.dumps({"kind": "catalog"}),
                 "--samples", "2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["tolerances"]["rank"] == report["sym0_dimension"]["tol"] == 1e-3


def test_tolerance_override_recorded(tmp_path):
    cfg = write_config(tmp_path, SPHERES_1_3)
    out = tmp_path / "g.json"
    assert main(["--config", cfg, "--tol", "1e-5", "growth", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["tolerances"]["residual"] == 1e-5


# -- fuzzing malformed input ------------------------------------------------------------
#
# Every corruption below makes the input malformed on its own, so any mix of
# them must exit with an error code and write no report.

FUZZ_PATH = {"type": "geodesic", "direction": [1.0, 0.0, 0.0], "length": 0.05}
NAN, INF = float("nan"), float("inf")
NOT_A_COUNT = [0, -1, -3, 2.9, 1.5, "two", "", "nan", None, [], {}, NAN, INF]
NOT_POSITIVE = [0.0, -1.0, -1e-3, NAN, INF, -INF, "nan", "-inf", "abc", None, [], {}]
JUNK = ["abc", "", 5, None, [], [1, 2], {}]
GOOD_STATE = {"x": [0.0, 0.0, 1.0], "x_hat": [0.0, 0.0, 3.0], "A": [[1.0, 0.0], [0.0, 1.0]]}
BAD_STATES = [
    "abc", [1, 2], {"x": [0.0, 0.0, 1.0]},
    {**GOOD_STATE, "x": [0.0, 0.0, 2.0]},
    {**GOOD_STATE, "x": [0.0, 1.0]},
    {**GOOD_STATE, "x": [NAN, 0.0, 1.0]},
    {**GOOD_STATE, "x_hat": ["a", 0.0, 3.0]},
    {**GOOD_STATE, "A": "abc"},
    {**GOOD_STATE, "A": [[1.0, 0.0], [0.0, 2.0]]},
    {**GOOD_STATE, "A": [[0.0, 1.0], [1.0, 0.0]]},
    {**GOOD_STATE, "A": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]},
    {**GOOD_STATE, "A": [[NAN, 0.0], [0.0, 1.0]]},
]
BAD_PATHS = [
    "{not json", "[]", "5", '"x"',
    json.dumps({"type": "geodesic"}),
    json.dumps({"type": "spiral", "direction": [1.0, 0.0, 0.0]}),
    json.dumps({**FUZZ_PATH, "direction": [1.0, 0.0]}),
    json.dumps({**FUZZ_PATH, "direction": "abc"}),
    json.dumps({**FUZZ_PATH, "direction": [1.0, "a", 0.0]}),
    json.dumps({**FUZZ_PATH, "direction": [NAN, 0.0, 0.0]}),
    json.dumps({**FUZZ_PATH, "length": "abc"}),
    json.dumps({**FUZZ_PATH, "length": NAN}),
    json.dumps({**FUZZ_PATH, "length": INF}),
    json.dumps({**FUZZ_PATH, "length": -0.05}),
    json.dumps({"type": "samples"}),
    json.dumps({"type": "samples", "file": "missing.csv"}),
    json.dumps({"type": "samples", "file": "garbage.csv"}),
    json.dumps({"type": "samples", "file": "one_row.csv"}),
]
VALID_KINDS = ("euclidean", "sphere", "hyperbolic", "warped")


def _corrupt_manifold(draw, config):
    pair = config["manifold_pair"]
    k = draw(st.integers(0, 1))
    how = draw(st.sampled_from(["pair", "factor", "dim", "radius", "kind"]))
    if how == "pair":
        config["manifold_pair"] = draw(st.sampled_from([None, [], 5, [pair[0]], pair * 2]))
    elif how == "factor":
        pair[k] = draw(st.sampled_from(JUNK))
    elif how == "dim":
        pair[k]["dim"] = draw(st.sampled_from(NOT_A_COUNT))
    elif how == "radius":
        pair[k]["radius"] = draw(st.sampled_from(NOT_POSITIVE))
    else:
        pair[k]["kind"] = draw(st.text(max_size=8).filter(lambda t: t not in VALID_KINDS))


@st.composite
def malformed_invocations(draw):
    """(subcommand, config, global flags, subcommand flags), malformed at least once."""
    command = draw(st.sampled_from(["killing", "rol", "simulate", "symmetry-check"]))
    choices = ["not_object", "manifold", "tolerances", "seed", "output", "--seed", "--tol"]
    if command in ("rol", "simulate"):
        choices += ["initial_state"]
    if command == "simulate":
        choices += ["--step", "--path-spec"]
    if command == "symmetry-check":
        choices += ["--samples"]
    picked = draw(st.lists(st.sampled_from(choices), min_size=1, max_size=2, unique=True))
    config = copy.deepcopy(SPHERES_1_3)
    global_flags, sub_flags = [], []
    path_spec = json.dumps(FUZZ_PATH)
    for what in picked:
        if what == "manifold":
            _corrupt_manifold(draw, config)
        elif what == "tolerances":
            key = draw(st.sampled_from(["residual", "rank", "step", "isometry"]))
            config["tolerances"] = {key: draw(st.sampled_from(NOT_POSITIVE))}
        elif what == "seed":
            config["seed"] = draw(st.sampled_from(["abc", -1, -7, 2.7, None, [], "1.5", NAN]))
        elif what == "output":
            config["output"] = draw(st.sampled_from(["x", 5, [], {"format": "xml"},
                                                     {"format": 5}]))
        elif what == "initial_state":
            config["initial_state"] = draw(st.sampled_from(BAD_STATES))
        elif what == "--seed":
            global_flags.append(f"--seed=-{draw(st.integers(1, 1000))}")
        elif what == "--tol":
            tol = draw(st.sampled_from(["nan", "inf", "-inf", "0", "-1e-6", "abc"]))
            global_flags.append(f"--tol={tol}")
        elif what == "--step":
            step = draw(st.sampled_from(["0", "-0.01", "nan", "inf", "-inf", "abc", "1e-300"]))
            sub_flags.append(f"--step={step}")
        elif what == "--samples":
            sub_flags.append(f"--samples={draw(st.sampled_from(['0', '-1', '-3', 'abc', '1.5']))}")
        elif what == "--path-spec":
            path_spec = draw(st.sampled_from(BAD_PATHS))
    if "not_object" in picked:
        config = draw(st.one_of(st.lists(st.integers(), max_size=3), st.integers(),
                                st.text(max_size=5), st.none(), st.booleans()))
    if command == "simulate":
        sub_flags += ["--path-spec", path_spec, "--format", "csv"]
    if command == "symmetry-check":
        sub_flags += ["--candidate", json.dumps({"kind": "catalog"})]
    return command, config, global_flags, sub_flags


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz")
    (base / "garbage.csv").write_text("a,b\nc,d\n")
    (base / "one_row.csv").write_text("0.0,0.0,0.0,1.0\n")
    return base


@settings(max_examples=300, deadline=None)
@given(malformed_invocations())
# a negative length slipped past the grid-size check and asked NumPy for
# about 5e298 grid times
@example(invocation=("simulate", SPHERES_1_3, [], [
    "--step=1e-300", "--path-spec",
    json.dumps({"type": "geodesic", "direction": [1.0, 0.0, 0.0], "length": -0.05}),
    "--format", "csv"]))
def test_malformed_input_exits_with_an_error_code_and_writes_nothing(fuzz_dir, invocation):
    command, config, global_flags, sub_flags = invocation
    cfg = fuzz_dir / "config.json"
    cfg.write_text(json.dumps(config))
    out = fuzz_dir / "report.out"
    out.unlink(missing_ok=True)
    argv = ["--config", str(cfg), *global_flags, command, *sub_flags, "--out", str(out)]
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(fuzz_dir)  # sample files in path specs are relative
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the flag text itself
            code = exc.code
    assert code in (2, 3, 4, 5)
    assert not out.exists()
