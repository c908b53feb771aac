import ast
import copy
import hashlib
import importlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import rollsym
from rollsym import Hyperbolic, Sphere
from rollsym.cli import _plain, main
from rollsym.rolling import RollingPair
from rollsym.spaces import GeodesicPath, from_spec

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

WARPED_S1 = {"kind": "warped", "interval": [-0.5, 0.5], "warp": {"name": "cos"},
             "fiber": {"kind": "sphere", "dim": 1, "radius": 1.0}}


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


@pytest.mark.parametrize("argv, code, status", [
    (["simulate", "--path-spec", json.dumps({"type": "geodesic", "direction": [1.0, 0.0, 0.0],
                                             "length": 0.5}), "--format", "json"],
     0, "max isometry residual: "),
    (["symmetry-check", "--candidate", json.dumps({"kind": "catalog", "perturb": 1e-3}),
      "--samples", "5"], 1, "residuals above tolerance 1e-06: "),
])
def test_a_report_on_stdout_is_the_whole_of_stdout(tmp_path, capsys, argv, code, status):
    # the status line after a report went to stdout in both cases, so stdout
    # did not parse as JSON; with --out it stays on stdout
    cfg = write_config(tmp_path, {**SPHERES_1_3, "seed": 7})
    out = tmp_path / "report.json"
    assert main(["--config", cfg, *argv, "--out", str(out)]) == code
    filed = capsys.readouterr()
    assert filed.out.startswith(status) and filed.out.count("\n") == 1 and filed.err == ""
    assert main(["--config", cfg, *argv]) == code
    printed = capsys.readouterr()
    assert printed.out == out.read_text()
    json.loads(printed.out)
    assert printed.err == filed.out


def test_the_readme_command_lines_run_and_their_reports_parse(tmp_path, monkeypatch, capsys):
    # the fenced sh block under "## Command line", its pair.json written by
    # its heredoc, each rollsym line run in-process
    section = (ROOT / "README.md").read_text().split("\n## Command line\n", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```", section, flags=re.M | re.S).group(1)
    monkeypatch.chdir(tmp_path)
    config = re.search(r"^cat > (\S+) <<'EOF'\n(.*?)^EOF$", block, flags=re.M | re.S)
    (tmp_path / config.group(1)).write_text(config.group(2))
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("rollsym ")]
    assert len(commands) == 7
    for argv in commands:
        assert main(argv[1:]) == 0, argv
        printed = capsys.readouterr().out
        if "--out" not in argv:
            json.loads(printed)
            continue
        report = tmp_path / argv[argv.index("--out") + 1]
        if "csv" in argv:
            rows = np.loadtxt(report, delimiter=",", skiprows=1, ndmin=2)
            assert len(rows) > 1 and np.isfinite(rows).all()
        else:
            json.loads(report.read_text())


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


def test_simulate_direction_normal_to_the_manifold_is_no_path(tmp_path):
    # at --seed s the start point is the normalised default_rng(s) normal
    # draw, so that draw is normal to the sphere there: its tangent part is
    # round-off, once normalised into a vector that was not tangent and left
    # the sphere (27 of these 50 seeds exited 2); on the hyperboloid the
    # round-off part may have a negative Minkowski square (39 of 50 exited
    # 2); a 1e-6 tangent share rolls
    hyperbolic_first = {"manifold_pair": [{"kind": "hyperbolic", "dim": 2, "radius": 1.0},
                                          {"kind": "sphere", "dim": 2, "radius": 1.0}]}
    cfgs = write_config(tmp_path, SPHERE_PLANE), write_config(tmp_path, hyperbolic_first, "h2.json")
    out = tmp_path / "traj.csv"

    def rows(cfg, seed, direction):
        assert main(["--config", cfg, "simulate", "--seed", str(seed), "--path-spec",
                     json.dumps({"type": "geodesic", "direction": direction, "length": 0.5}),
                     "--out", str(out)]) == 0
        return len(out.read_text().splitlines()) - 1

    h2 = RollingPair(Hyperbolic(2, 1.0), Sphere(2, 1.0))
    for seed in range(50):
        assert rows(cfgs[0], seed, np.random.default_rng(seed).standard_normal(3).tolist()) == 1
        x = h2.random_state(np.random.default_rng(seed)).x
        assert rows(cfgs[1], seed, (3.7 * x).tolist()) == 1
    normal = np.random.default_rng(2).standard_normal(3)
    tangent = np.cross(normal, [1.0, 0.0, 0.0])
    tangent *= 1e-6 * np.linalg.norm(normal) / np.linalg.norm(tangent)
    assert rows(cfgs[0], 2, (normal + tangent).tolist()) == 501


@pytest.mark.parametrize("share, rows", [(3e-12, 501), (3e-13, 1)])
def test_simulate_direction_with_a_tangent_share_near_the_threshold(tmp_path, share, rows):
    # a direction whose tangent part is at most 1e-12 of its length is no
    # path; at x = (0, 0, 1) the share of (share, 0, 1) is exact
    cfg = write_config(tmp_path, {**SPHERE_PLANE, "initial_state": {
        "x": [0.0, 0.0, 1.0], "x_hat": [0.0, 0.0], "A": [[1.0, 0.0], [0.0, 1.0]]}})
    out = tmp_path / "traj.csv"
    assert main(["--config", cfg, "simulate", "--path-spec",
                 json.dumps({"type": "geodesic", "direction": [share, 0.0, 1.0], "length": 0.5}),
                 "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) - 1 == rows


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
    # a key that a samples path does not take is refused, not ignored
    out.unlink()
    assert main(["--config", cfg, "simulate", "--path-spec",
                 json.dumps({"type": "samples", "file": str(samples), "length": 3.0}),
                 "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("step, tolerance, code", [
    ("0.25", None, 0), ("0.125", None, 0), ("0.25", 1e-3, 0), ("0.1", 1e-12, 0), ("0.01", 1e-12, 0),
    ("0.25", 1e-15, 1),
], ids=["coarse", "fine", "coarse-lenient", "fine-strict", "finest-strict", "below-round-off"])
def test_a_sampled_roll_exits_by_its_isometry_tolerance(tmp_path, capsys, step, tolerance, code):
    # 9 samples of a latitude circle roll as the broken geodesic through
    # them, whose isometry residual is round-off (1.2e-15) and whose report
    # is the same at every step: the configured tolerance decides exit 0 or
    # 1, where a fixed 1e-9 check of the rows used to exit 3 whatever the
    # tolerance
    t = np.arange(9) * 0.25
    c = np.cos(0.6)
    pts = np.column_stack((t, c * np.cos(3 * t), c * np.sin(3 * t), np.full(9, np.sin(0.6))))
    np.savetxt(tmp_path / "circle.csv", pts, delimiter=",", fmt="%.17g")
    state = {"x": pts[0, 1:].tolist(), "x_hat": [3.0, 0.0, 0.0], "A": np.eye(2).tolist()}
    tolerances = {} if tolerance is None else {"tolerances": {"isometry": tolerance}}
    cfg = write_config(tmp_path, {**SPHERES_1_3, "initial_state": state, **tolerances})
    out = tmp_path / "traj.json"
    path = json.dumps({"type": "samples", "file": str(tmp_path / "circle.csv")})
    assert main(["--config", cfg, "simulate", "--step", step, "--format", "json",
                 "--out", str(out), "--path-spec", path]) == code
    assert capsys.readouterr().out.startswith("max isometry residual: ")
    residual = json.loads(out.read_text())["max_isometry_residual"]
    assert (residual < (tolerance or 1e-7)) == (code == 0)
    other = tmp_path / "other.json"
    main(["--config", cfg, "simulate", "--step", "0.013", "--format", "json", "--out", str(other),
          "--path-spec", path])
    assert other.read_bytes() == out.read_bytes()


@pytest.mark.parametrize("rows, message", [
    ("0,0,1\n1,1,0\n", "a time and 3 ambient coordinates"),
    ("0,0,0,1\n", "at least 2 samples"),
    ("0,0,0,1\nnan,0,0,1\n", "must be finite"),
    ("0,0,0,1\n0.1,0,inf,1\n", "must be finite"),
    ("0,0,0,1\n1,1e200,0,1\n", "lies off the manifold"),  # its residual overflows to inf
])
def test_simulate_rejects_a_malformed_samples_file(tmp_path, capsys, rows, message):
    cfg = write_config(tmp_path, SPHERES_1_3)
    samples = tmp_path / "path.csv"
    samples.write_text(rows)
    out = tmp_path / "traj.csv"
    assert main([
        "--config", cfg, "simulate",
        "--path-spec", json.dumps({"type": "samples", "file": str(samples)}),
        "--out", str(out),
    ]) == 2
    err = capsys.readouterr().err
    assert message in err and err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("rows", ["", "\n\n"])
def test_simulate_on_an_empty_samples_file_prints_only_the_error(tmp_path, rows):
    # -W always: a warning that loadtxt emits would reach stderr whatever the filters
    cfg = write_config(tmp_path, SPHERES_1_3)
    (tmp_path / "path.csv").write_text(rows)
    done = subprocess.run(
        [sys.executable, "-W", "always", "-m", "rollsym", "--config", cfg, "simulate",
         "--path-spec", json.dumps({"type": "samples", "file": "path.csv"}), "--out", "traj.csv"],
        cwd=tmp_path, env=_src_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stderr == "error: a sampled path needs at least 2 samples, got 0\n"
    assert not (tmp_path / "traj.csv").exists()


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


def test_a_warped_second_factor_that_rolls_out_of_its_interval_exits_3(tmp_path, capsys):
    # the contact point on the warped factor leaves (-1.2, 1.2) during the
    # roll: a domain error, not an off-manifold point in the trajectory
    warped = {"kind": "warped", "dim": 2, "interval": [-1.2, 1.2], "warp": {"name": "cos"},
              "fiber": {"kind": "euclidean", "dim": 1}}
    cfg = write_config(tmp_path, {"manifold_pair": [{"kind": "euclidean", "dim": 2}, warped],
                                  "seed": 0})
    code = main([
        "--config", cfg, "simulate", "--seed", "0",
        "--path-spec", json.dumps({"type": "geodesic", "direction": [0, 1], "length": 6}),
        "--out", str(tmp_path / "t.csv"), "--format", "csv",
    ])
    assert code == 3
    assert "domain error" in capsys.readouterr().err


@pytest.mark.parametrize("kinds", [("hyperbolic", "sphere"), ("sphere", "hyperbolic")])
@pytest.mark.parametrize("length, step, code", [(6, "0.01", 0), (7, "0.01", 3), (30, "0.5", 3),
                                                (800, "1", 3)])
def test_a_long_roll_on_a_hyperbolic_factor_is_a_domain_error(tmp_path, kinds, length, step, code):
    # far out on the hyperboloid a rolled point misses the absolute POINT_TOL
    # by round-off from t = 6.8, at length 30 its frame cannot be completed
    # either, and at length 800 the rows overflow: rows computed from valid
    # input, so exit 3 with one line and no NumPy warning, not exit 2 (config
    # error)
    cfg = write_config(tmp_path, {"manifold_pair": [{"kind": k, "dim": 2, "radius": 1.0}
                                                    for k in kinds], "seed": 0})
    done = subprocess.run(
        [sys.executable, "-W", "always", "-m", "rollsym", "--config", cfg, "simulate",
         "--step", step, "--out", "traj.csv", "--path-spec",
         json.dumps({"type": "geodesic", "direction": [0.3, 1, 0.2], "length": length})],
        cwd=tmp_path, env=_src_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == code, done.stderr
    if code == 0:
        assert done.stderr == ""
        return
    line, = done.stderr.splitlines()
    assert line.startswith("domain error: the roll fails a check at t = ")
    assert "point violates the hyperbolic constraint" in line
    assert not (tmp_path / "traj.csv").exists()


def test_a_sampled_roll_out_of_a_warped_interval_is_a_domain_error(tmp_path):
    # a straight samples-file path in the plane develops along d/ds of
    # cos x R^1 and leaves (-1.2, 1.2) at t = 1.2: the transport of the
    # segment that crosses it raises, so exit 3 with one line and no NumPy
    # warning
    warped = {"kind": "warped", "dim": 2, "interval": [-1.2, 1.2], "warp": {"name": "cos"},
              "fiber": {"kind": "euclidean", "dim": 1}}
    state = {"x": [0.0, 0.0], "x_hat": [0.0, 0.0], "A": [[1.0, 0.0], [0.0, 1.0]]}
    cfg = write_config(tmp_path, {"manifold_pair": [{"kind": "euclidean", "dim": 2}, warped],
                                  "seed": 0, "initial_state": state})
    ts = np.linspace(0.0, 3.0, 31)
    np.savetxt(tmp_path / "path.csv", np.column_stack((ts, ts, 0.0 * ts)), delimiter=",")
    done = subprocess.run(
        [sys.executable, "-W", "always", "-m", "rollsym", "--config", cfg, "simulate",
         "--out", "traj.csv", "--path-spec", json.dumps({"type": "samples", "file": "path.csv"})],
        cwd=tmp_path, env=_src_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 3, done.stderr
    line, = done.stderr.splitlines()
    assert line.startswith("domain error: radial coordinate 1.2")
    assert line.endswith("left the interval (-1.2, 1.2)")
    assert not (tmp_path / "traj.csv").exists()


def _simulate_samples(tmp_path, pair, state, rows):
    """simulate on the samples file of the given rows, in a fresh process
    that shows every warning: (exit code, stderr lines, whether an output
    file was written)."""
    cfg = write_config(tmp_path, {"manifold_pair": pair, "seed": 0, "initial_state": state})
    np.savetxt(tmp_path / "path.csv", rows, delimiter=",", fmt="%.17g")
    done = subprocess.run(
        [sys.executable, "-W", "always", "-m", "rollsym", "--config", cfg, "simulate",
         "--out", "traj.csv", "--path-spec", json.dumps({"type": "samples", "file": "path.csv"})],
        cwd=tmp_path, env=_src_env(), capture_output=True, text=True, timeout=120)
    return done.returncode, done.stderr.splitlines(), (tmp_path / "traj.csv").exists()


COS_S1 = {"kind": "warped", "dim": 2, "interval": [-1.2, 1.2], "warp": {"name": "cos"},
          "fiber": {"kind": "sphere", "dim": 1, "radius": 1.0}}


@pytest.mark.parametrize("pair, state, rows", [
    # antipodes of S2(1) at t = 0.5 and t = 1.25
    ([SPHERES_1_3["manifold_pair"][0], {"kind": "euclidean", "dim": 2}],
     {"x": [0.0, 0.6, 0.8], "x_hat": [0.0, 0.0], "A": [[1.0, 0.0], [0.0, 1.0]]},
     [[0.0, 0.0, 0.6, 0.8], [0.5, 0.0, 0.0, 1.0], [1.25, 0.0, 0.0, -1.0]]),
    # antipodal fiber points of cos x S1, at one s
    ([COS_S1, {"kind": "sphere", "dim": 2, "radius": 1.0}],
     {"x": [0.3, 1.0, 0.0], "x_hat": [0.0, 0.0, 1.0], "A": [[1.0, 0.0], [0.0, 1.0]]},
     [[0.0, 0.3, 1.0, 0.0], [0.5, 0.2, 0.0, 1.0], [1.25, 0.2, 0.0, -1.0]]),
], ids=["S2 antipodes", "cos S1 fiber antipodes"])
def test_samples_with_no_unique_shortest_geodesic_between_them_exit_2(tmp_path, pair, state,
                                                                      rows):
    # no segment joins the two samples: the roll names both sample times
    code, lines, written = _simulate_samples(tmp_path, pair, state, rows)
    assert (code, written) == (2, False)
    assert lines == ["error: no unique shortest geodesic joins the path samples at t = 0.5 "
                     "and t = 1.25"]


def test_a_samples_segment_that_leaves_a_warped_interval_exits_3(tmp_path):
    # both samples lie inside (-1.2, 1.2) on cos x S1, but the shortest
    # geodesic between them bends out to where f is smaller, past s = 1.2
    state = {"x": [1.1, 1.0, 0.0], "x_hat": [0.0, 0.0, 1.0], "A": [[1.0, 0.0], [0.0, 1.0]]}
    rows = [[0.0, 1.1, 1.0, 0.0], [1.0, 1.1, math.cos(2.5), math.sin(2.5)]]
    code, lines, written = _simulate_samples(
        tmp_path, [COS_S1, {"kind": "sphere", "dim": 2, "radius": 1.0}], state, rows)
    assert (code, written) == (3, False)
    line, = lines
    assert line.startswith("domain error: radial coordinate ")
    assert line.endswith("left the interval (-1.2, 1.2)")


def test_samples_that_do_not_start_at_the_contact_point_exit_2(tmp_path):
    state = {"x": [0.0, 0.0, 1.0], "x_hat": [0.0, 0.0], "A": [[1.0, 0.0], [0.0, 1.0]]}
    rows = [[0.0, math.sin(1e-6), 0.0, math.cos(1e-6)], [1.0, 0.0, 1.0, 0.0]]
    code, lines, written = _simulate_samples(tmp_path, SPHERE_PLANE["manifold_pair"], state, rows)
    assert (code, written) == (2, False)
    assert lines == ["error: driving path does not start at the contact point"]


@pytest.mark.parametrize("radius, offset, code", [
    *((r, offset, code) for r in (1e-3, 1.0, 1e6) for offset, code in ((1e-10, 0), (1e-7, 2))),
    (1e6, 4.9e-6, 2),  # 4.9 units from the contact point
])
def test_a_path_starts_at_the_contact_point_by_one_relative_rule(tmp_path, capsys, radius,
                                                                  offset, code):
    # the start is checked as each segment's end is: within 1e-8 of the larger
    # coordinate; np.allclose's rtol of 1e-5 let the first sample lie 1e-7 of r
    # away at every radius, and 4.9 units away on S2(1e6); offsets are angles
    x0 = np.full(3, radius / math.sqrt(3.0))
    u, w = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0), np.array([1.0, 1.0, -2.0]) / math.sqrt(6.0)
    first = math.cos(offset) * x0 + math.sin(offset) * radius * u
    second = math.cos(0.1) * x0 + math.sin(0.1) * radius * w
    np.savetxt(tmp_path / "path.csv", [[0.0, *first], [1.0, *second]], delimiter=",", fmt="%.17g")
    cfg = write_config(tmp_path, {"manifold_pair": [
        {"kind": "sphere", "dim": 2, "radius": radius}, {"kind": "euclidean", "dim": 2}],
        "initial_state": {"x": x0.tolist(), "x_hat": [0.0, 0.0], "A": np.eye(2).tolist()}})
    out = tmp_path / "traj.csv"
    spec = json.dumps({"type": "samples", "file": str(tmp_path / "path.csv")})
    assert main(["--config", cfg, "simulate", "--path-spec", spec, "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code:
        assert err == "error: driving path does not start at the contact point\n"
        assert not out.exists()
    else:
        assert err == "" and out.exists()


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


@pytest.mark.parametrize("command", ["growth", "killing"])
@pytest.mark.parametrize("fault, message", [
    ({"interval": [-1.2, 1.2, 99]}, "a warp interval has two ends, got 3"),
    ({"interval": [-1.2]}, "a warp interval has two ends, got 1"),
    ({"dim": 7}, "a warped product has dim 3, got 7"),
])
def test_a_warped_spec_has_two_interval_ends_and_the_dim_of_its_fiber_plus_one(
        tmp_path, capsys, command, fault, message):
    cfg = write_config(tmp_path, {"manifold_pair": [
        {**COSH_S2, **fault}, {"kind": "sphere", "dim": 3, "radius": 1.0}]})
    out = tmp_path / "report.json"
    assert main(["--config", cfg, command, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_a_warp_that_vanishes_between_its_ends_exits_2(tmp_path):
    # cos(2 pi s / 0.15) is positive at both ends of (-1.2, 1.2) and at 17
    # points spread over it, yet reaches -0.9997 between them
    warped = {"kind": "warped", "interval": [-1.2, 1.2],
              "warp": {"name": "cos", "omega": 2 * np.pi / 0.15},
              "fiber": {"kind": "sphere", "dim": 1, "radius": 1.0}}
    cfg = write_config(tmp_path, {"manifold_pair": [warped, {"kind": "sphere", "dim": 2}],
                                  "seed": 0})
    done = subprocess.run(
        [sys.executable, "-W", "always", "-m", "rollsym", "--config", cfg, "growth",
         "--out", "growth.json"],
        cwd=tmp_path, env=_src_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 2, done.stderr
    assert done.stderr == "error: warp function must be positive on the interval\n"
    assert not (tmp_path / "growth.json").exists()


WARP_SIZE_COMMANDS = {
    "growth": [],
    "rol": [],
    "simulate": ["--path-spec", json.dumps({"type": "geodesic", "direction": [0.1, 1.0, 0.0],
                                            "length": 0.2})],
}


@pytest.mark.parametrize("command", sorted(WARP_SIZE_COMMANDS))
@pytest.mark.parametrize("warp, code", [
    ({"name": "cos", "a": 1e154}, 0),
    ({"name": "cos", "a": 1e155}, 2),
    ({"name": "cosh", "a": 1e154}, 0),
    ({"name": "cosh", "a": 1e155}, 2),
    ({"name": "affine", "a": 1e154}, 0),
    ({"name": "affine", "a": 1e155}, 2),
    # f(0.5)^2 = e a^2 overflows from a = 8.2e153
    ({"name": "exp", "a": 8e153}, 0),
    ({"name": "exp", "a": 1e154}, 2),
    # an affine warp reads no omega, which only its squares overflowed
    ({"name": "affine", "omega": 1e155}, 0),
], ids=["cos-1e154", "cos-1e155", "cosh-1e154", "cosh-1e155", "affine-1e154", "affine-1e155",
        "exp-8e153", "exp-1e154", "affine-omega-1e155"])
def test_a_warp_too_large_to_square_exits_2(tmp_path, capsys, warp, code, command):
    # f^2 overflowed: from a = 1e155 growth died in the SVD, simulate raised
    # OverflowError and rol warned; so did exp at 1e154 at this seed
    cfg = write_config(tmp_path, {"manifold_pair": [{**WARPED_S1, "warp": warp},
                                                    {"kind": "sphere", "dim": 2}], "seed": 4})
    out = tmp_path / "report.out"
    assert main(["--config", cfg, command, *WARP_SIZE_COMMANDS[command],
                 "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("error: warp too large") and err.count("\n") == 1
        assert not out.exists()
    else:
        assert err == "" and out.exists()


SMALL_WARP_COMMANDS = {**WARP_SIZE_COMMANDS,
                       "symmetry-check": ["--candidate", json.dumps({"kind": "catalog"}),
                                          "--samples", "5"]}


def _small_warp(name, a):
    """A warp of the given family and amplitude; an affine one with slope 0.3 a."""
    return {"name": name, "a": a, **({"b": 0.3 * a} if name == "affine" else {})}


@pytest.mark.parametrize("command", sorted(SMALL_WARP_COMMANDS))
@pytest.mark.parametrize("name", ["affine", "cos", "cosh", "exp"])
@pytest.mark.parametrize("a, runs", [(1e-20, True), (1e-76, True), (1e-78, False),
                                     (1e-152, False)])
def test_a_warp_too_small_to_divide_by_exits_2(tmp_path, capsys, command, name, a, runs):
    # products of three fiber-frame scalings 1/f overflowed: from a = 1e-103
    # growth warned and died in the SVD, and from 1e-155 rol did; every warp
    # accepted runs without a warning, which the suite turns into an error
    cfg = write_config(tmp_path, {"manifold_pair": [{**WARPED_S1, "warp": _small_warp(name, a)},
                                                    {"kind": "sphere", "dim": 2}], "seed": 0})
    out = tmp_path / "report.out"
    code = main(["--config", cfg, command, *SMALL_WARP_COMMANDS[command], "--out", str(out)])
    err = capsys.readouterr().err
    if runs:
        assert code in (0, 1) and out.exists()
    else:
        assert code == 2 and not out.exists()
        assert err.startswith("error: warp too small or too steep") and err.count("\n") == 1


def test_config_parse_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--config", str(bad), "growth"]) == 2
    missing_pair = write_config(tmp_path, {"seed": 0}, "nopair.json")
    assert main(["--config", missing_pair, "growth"]) == 2
    sphere, plane = SPHERE_PLANE["manifold_pair"]
    state = {"x": [0.0, 0.0, 1.0], "x_hat": [0.0, 0.0], "A": [[1.0, 0.0], [0.0, 1.0]]}
    malformed = [
        [sphere, plane],  # not a JSON object
        {"manifold_pair": [{**sphere, "dim": "two"}, plane]},
        {"manifold_pair": [{**sphere, "radius": "abc"}, plane]},
        # counts are not truncated
        {"manifold_pair": [{**sphere, "dim": 2.9}, plane]},
        {**SPHERE_PLANE, "seed": 2.7},
        {**SPHERE_PLANE, "tolerances": {"rank": "abc"}},
        # key-value pairs were read as an object (growth exited 4 at rank
        # tolerance 1e-3), and a misspelled key or an empty list was ignored
        {**SPHERE_PLANE, "tolerances": [["rank", 1e-3]]},
        {**SPHERE_PLANE, "tolerances": {"rnak": 1e-3}},
        {**SPHERE_PLANE, "tolerances": []},
        # the plane has no constraint that a non-finite coordinate would violate
        {**SPHERE_PLANE, "initial_state": {"x": [0.0, 0.0, 1.0], "x_hat": [float("nan"), 0.0],
                                           "A": [[1.0, 0.0], [0.0, 1.0]]}},
        {**SPHERE_PLANE, "initial_state": {"x": [0.0, 0.0, 1.0], "x_hat": [0.0, 0.0],
                                           "A": np.eye(3).tolist()}},
        {**SPHERE_PLANE, "initial_state": {"x": [0.0, 0.0, 1.0], "x_hat": [0.0, 0.0],
                                           "A": [[float("nan"), 0.0], [0.0, 1.0]]}},
        # a valid stack of one state is not one state
        {**SPHERE_PLANE, "initial_state": {"x": [[0.0, 0.0, 1.0]], "x_hat": [[0.0, 0.0]],
                                           "A": [[[1.0, 0.0], [0.0, 1.0]]]}},
        # nor are two points for one contact map, and a boolean is no coordinate
        {**SPHERE_PLANE, "initial_state": {**state, "x": [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]}},
        {**SPHERE_PLANE, "initial_state": {**state, "x": [True, 0, 0]}},
        {"manifold_pair": [{**sphere, "dim": 0}, plane]},
        {"manifold_pair": [sphere, {**plane, "dim": 0}]},
        {"manifold_pair": [{**WARPED_S1, "interval": [1, 1]}, plane]},
        # a misspelled or unknown key in any object was ignored and the run
        # went on without it (a seed of 0, a radius of 1, a random state)
        {**SPHERE_PLANE, "sede": 5},
        {"manifold_pair": [{**sphere, "radus": 7}, plane]},
        {"manifold_pair": [sphere, {**plane, "radius": 1.0}]},
        {"manifold_pair": [{**WARPED_S1, "dimm": 2}, plane]},
        {"manifold_pair": [{**WARPED_S1, "warp": {"name": "cos", "omgea": 2.0}}, plane]},
        {**SPHERE_PLANE, "output": {"fromat": "json"}},
        {**SPHERE_PLANE, "initial_state": {**state, "xhat": [0.0, 0.0]}},
        # a present but empty state was read as no state
        {**SPHERE_PLANE, "initial_state": {}},
    ]
    for k, payload in enumerate(malformed):
        capsys.readouterr()
        out = tmp_path / "growth.json"
        assert main(["--config", write_config(tmp_path, payload, f"m{k}.json"), "growth",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, payload
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


@pytest.mark.parametrize("depth", [4, 6])
def test_growth_pads_the_prediction_of_a_full_flag_to_its_depth(tmp_path, depth):
    # S3(1)/S3(2) reaches the full 9 at depth 3 and stays there; a rank
    # tuple of length depth used to be compared with a prediction of length 3
    cfg = write_config(tmp_path, {"manifold_pair": [_sphere(3), _sphere(3, 2.0)], "seed": 0})
    out = tmp_path / "growth.json"
    assert main(["--config", cfg, "growth", "--depth", str(depth), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["predicted_growth"] == [3, 6] + [9] * (depth - 2)
    assert data["flag"]["ranks"] == data["predicted_growth"]


@pytest.mark.parametrize("depth", ["0", "7"])
def test_growth_rejects_a_depth_outside_one_to_six(tmp_path, capsys, depth):
    # flag_ranks' own guard decides, and the report is never written
    cfg = write_config(tmp_path, SPHERES_1_3)
    out = tmp_path / "growth.json"
    assert main(["--config", cfg, "growth", "--depth", depth, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: flag depth") and "Traceback" not in err
    assert not out.exists()


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
    assert data["flag"]["ranks"] == data["predicted_growth"]


def _sphere(dim, radius=1.0):
    return {"kind": "sphere", "dim": dim, "radius": radius}


def _hyperbolic(dim, radius=1.0):
    return {"kind": "hyperbolic", "dim": dim, "radius": radius}


def _warped(name, fiber, r=1.0):
    # omega = 1/r on [-1.2 r, 1.2 r]: a fiber of radius r can match the warp
    return {"kind": "warped", "interval": [-1.2 * r, 1.2 * r],
            "warp": {"name": name, "omega": 1.0 / r}, "fiber": fiber}


@pytest.mark.parametrize("pair, kappa", [
    ([_sphere(2), _warped("cos", _sphere(1))], 0.0),
    ([_warped("cos", _sphere(1)), _sphere(2)], 0.0),
    ([_sphere(3), _warped("cos", _sphere(2))], 0.0),
    ([{"kind": "hyperbolic", "dim": 3, "radius": 1.0},
      _warped("exp", {"kind": "euclidean", "dim": 2})], 0.0),
    # fiber planes of cos S2(2) carry (1/4 - sin^2) / cos^2, not 1
    ([_sphere(3), _warped("cos", _sphere(2, 2.0))], None),
    # omega = 1/r squares to 1/r^2 only to round-off
    ([_sphere(3, 0.3), _warped("cos", _sphere(2, 0.3), 0.3)], 0.0),
    ([_sphere(3, 0.7), _warped("cos", _sphere(2, 0.7), 0.7)], 0.0),
    ([_hyperbolic(3, 0.3), _warped("cosh", _hyperbolic(2, 0.3), 0.3)], 0.0),
    ([_hyperbolic(3, 0.7), _warped("cosh", _hyperbolic(2, 0.7), 0.7)], 0.0),
    # the invariant of exp is exactly 0: as f'(0)^2 + k_ref f(0)^2 it is -1.8e-15
    ([{**_warped("exp", {"kind": "euclidean", "dim": 2}), "warp": {"name": "exp", "a": 3.3,
                                                                  "omega": 0.9}},
      _hyperbolic(3, 1 / 0.9)], 0.0),
], ids=["S2(1)/cos S1(1)", "cos S1(1)/S2(1)", "S3(1)/cos S2(1)", "H3(1)/exp R2",
        "S3(1)/cos S2(2)", "S3(0.3)/cos S2(0.3)", "S3(0.7)/cos S2(0.7)",
        "H3(0.3)/cosh H2(0.3)", "H3(0.7)/cosh H2(0.7)", "exp(3.3, 0.9) R2/H3(1/0.9)"])
def test_growth_reads_the_curvature_of_a_warped_space_form(tmp_path, pair, kappa):
    # a warped product of constant curvature is a space form: equal
    # curvatures give kappa = 0 and the degenerate flag, which is correct
    cfg = write_config(tmp_path, {"manifold_pair": pair, "seed": 1})
    out = tmp_path / "growth.json"
    code = main(["--config", cfg, "growth", "--out", str(out)])
    data = json.loads(out.read_text())
    assert data["kappa"] == kappa
    if kappa is not None:
        assert code == 0
        assert data["note"] == "kappa=0"
        assert not data["rank_cut_ambiguous"]
        assert data["flag"]["ranks"] == data["predicted_growth"]
    else:
        assert "note" not in data


@pytest.mark.parametrize("pair", [[_hyperbolic(2, 1000.0), _sphere(2, 1000.0)],
                                  [_sphere(3, 3e4), _hyperbolic(3, 3e4)]],
                         ids=["H2(1000)/S2(1000)", "S3(3e4)/H3(3e4)"])
def test_a_large_radius_passes_its_own_point_check(tmp_path, pair):
    # the point check was absolute: the ulp of r^2 is 1.2e-10 at r = 1000, so
    # about half the program's own seeded draws failed it and blamed the
    # input (exit 2), and rolled rows failed it (exit 3)
    cfg = write_config(tmp_path, {"manifold_pair": pair})
    path = {"type": "geodesic", "direction": [0.3] + [1.0] * pair[0]["dim"]}
    commands = [["growth"], ["rol"],
                ["symmetry-check", "--candidate", '{"kind": "catalog"}', "--samples", "5"],
                ["simulate", "--path-spec", json.dumps(path), "--format", "json"]]
    codes = {(cmd[0], seed): main(["--config", cfg, *cmd, "--seed", str(seed),
                                   "--out", str(tmp_path / "report")])
             for cmd in commands for seed in range(10)}
    assert set(codes.values()) == {0}, codes


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


@pytest.mark.parametrize("pair, seed, ranks", [
    ([_sphere(4), _hyperbolic(4)], 104, [4, 10, 14]),
    ([_sphere(4), _hyperbolic(4)], 283, [4, 10, 14]),
    ([_sphere(3), {"kind": "euclidean", "dim": 3}], 585, [3, 6, 9]),
], ids=["S4(1)/H4(1)-104", "S4(1)/H4(1)-283", "S3(1)/R3-585"])
def test_growth_is_clear_where_gram_schmidt_nearly_cancels(tmp_path, pair, seed, ranks):
    # at these states the Gram-Schmidt frame turns about 100 rad per unit
    # length; its rolling lifts put a depth-3 singular value within 1e4 of
    # the rank cut, and growth exited 4 on a correct flag
    cfg = write_config(tmp_path, {"manifold_pair": pair})
    out = tmp_path / "g.json"
    assert main(["--config", cfg, "growth", "--seed", str(seed), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["flag"]["ranks"] == ranks and data["rank_cut_ambiguous"] is False


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
    # the stacked perturbation draws one normal (amb, amb) per field in
    # catalog order, so the seeded noise, and with it the report, are those
    # of one draw per candidate; the samples are drawn after it as stacks
    # (all states, then all X, then all Y), which sets the pinned maximum.
    # The order-2 stencils of the earlier residuals, applied to this field,
    # give these values to within their floor of 1e-9
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
    assert data["residuals"]["eq_drift"]["max"] == pytest.approx(0.0013711747313656473, rel=1e-9)
    assert data["residuals"]["eq_curvature"]["max"] == pytest.approx(0.0018071578600026927,
                                                                     rel=1e-9)
    assert data["residuals"]["eq_curvature"]["mean"] == pytest.approx(9.67989664640654e-4,
                                                                      rel=1e-9)


@pytest.mark.parametrize("candidate", [{"kind": "catalog"}, {"kind": "catalog", "perturb": 1e-3}])
def test_an_audit_draws_once_and_probes_its_first_sample(tmp_path, monkeypatch, candidate):
    # one seeded Generator feeds the perturbation, the samples and the
    # dimension probe, which reads the first sample state
    from rollsym.cli import np as cli_np
    from rollsym.spaces import from_spec
    from rollsym.symmetry import (killing_catalog, killing_to_symmetry, perturb_candidate,
                                  sym0_dimension_probe)

    spec = {"manifold_pair": [{"kind": "sphere", "dim": 3, "radius": 2.0},
                              {"kind": "sphere", "dim": 3, "radius": 1.0}], "seed": 11}
    cfg = write_config(tmp_path, spec)
    out = tmp_path / "audit.json"
    made = []
    default_rng = cli_np.random.default_rng
    monkeypatch.setattr(cli_np.random, "default_rng",
                        lambda *a, **k: made.append(a) or default_rng(*a, **k))
    assert main(["--config", cfg, "symmetry-check", "--candidate", json.dumps(candidate),
                 "--samples", "4", "--out", str(out)]) == (1 if "perturb" in candidate else 0)
    assert made == [(11,)]

    pair = RollingPair(*map(from_spec, spec["manifold_pair"]))
    rng = default_rng(11)
    catalog = killing_catalog(pair.space_hat)
    cands = (perturb_candidate(pair, catalog, candidate["perturb"], rng) if "perturb" in candidate
             else killing_to_symmetry(pair, catalog))
    qs = pair.state(*pair.draw(rng, (4,)))
    probe = sym0_dimension_probe(qs[0], cands, tol=1e-8)
    assert json.loads(out.read_text())["sym0_dimension"] == json.loads(json.dumps(_plain(probe)))


@pytest.mark.parametrize("seed", range(4))
def test_an_audit_checks_its_states_before_it_draws_tangents_at_them(tmp_path, capsys, seed,
                                                                    monkeypatch):
    # on H2(1e-10) a draw of unit spatial coordinates, 1e10 radii out, misses
    # its constraint; random_tangent drew at such unchecked points, warned of
    # an invalid sqrt, and only then did the state check refuse them.  Draws
    # in units of r stay on the hyperboloid, so the test makes the far draws
    def far_points(self, rng, shape=()):
        spatial = rng.standard_normal(shape + (self.dim,))
        return np.concatenate((np.sqrt(self.radius**2 + np.vecdot(spatial, spatial))[..., None],
                               spatial), axis=-1)

    monkeypatch.setattr(Hyperbolic, "random_point", far_points)
    cfg = write_config(tmp_path, {"manifold_pair": [_hyperbolic(2, 1e-10), _sphere(2)]})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["--config", cfg, "--seed", str(seed), "symmetry-check", "--candidate",
                     json.dumps({"kind": "catalog"}), "--samples", "5"]) == 2
    assert caught == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: point violates the hyperbolic constraint")


AUDIT_FLOOR_PAIRS = {
    "S2(2)/S2(1)": [{"kind": "sphere", "dim": 2, "radius": 2.0},
                    {"kind": "sphere", "dim": 2, "radius": 1.0}],
    "S2(2)/H2(1)": [{"kind": "sphere", "dim": 2, "radius": 2.0},
                    {"kind": "hyperbolic", "dim": 2, "radius": 1.0}],
    "S3(2)/S3(1)": [{"kind": "sphere", "dim": 3, "radius": 2.0},
                    {"kind": "sphere", "dim": 3, "radius": 1.0}],
    "cosh S2(1)/S3(1)": [{"kind": "warped", "interval": [-1.2, 1.2], "warp": {"name": "cosh"},
                          "fiber": {"kind": "sphere", "dim": 2, "radius": 1.0}},
                         {"kind": "sphere", "dim": 3, "radius": 1.0}],
}


@pytest.mark.parametrize("label", list(AUDIT_FLOOR_PAIRS))
def test_a_tolerance_of_1e_11_separates_a_1e_9_perturbation(tmp_path, label):
    # the stencil residuals sat at 1.7e-9 to 5.1e-9 on these pairs, so the
    # catalog failed this tolerance; the bracket's sit at round-off
    cfg = write_config(tmp_path, {"manifold_pair": AUDIT_FLOOR_PAIRS[label]})
    for candidate, code in (({"kind": "catalog"}, 0), ({"kind": "catalog", "perturb": 1e-9}, 1)):
        assert main(["--config", cfg, "symmetry-check", "--candidate", json.dumps(candidate),
                     "--samples", "20", "--tol", "1e-11",
                     "--out", str(tmp_path / "audit.json")]) == code


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


@pytest.mark.parametrize("radius", [1e-15, 1e-3, 1.0, 1e3, 1e6, 1e7, 1e10, 1e15])
def test_rol_and_growth_read_agreeing_curvatures_by_one_rule_at_every_scale(tmp_path, radius):
    # a relative round-off rule: at 1e6 and 1e7 the absolute floor called
    # kappa = 8.9e-13 a zero map, and at 1e-3 round-off of 1e6 invertible;
    # growth exits 0 at every radius, a matched pair's flag flat and the
    # other's (2, 3, 5): each flag layer is scaled by its own longest row,
    # where a floor taken from the generators dropped the depth-2 rows
    # (kappa ~ 1/r^2) from r = 1e5 on and read (2, 2, 2)
    sphere = {"kind": "sphere", "dim": 2}
    for ratio in (3.0, 1.0):
        cfg = write_config(tmp_path, {"manifold_pair": [{**sphere, "radius": radius},
                                                        {**sphere, "radius": ratio * radius}]})
        for seed in range(5):
            rol, growth = tmp_path / "rol.json", tmp_path / "growth.json"
            assert main(["--config", cfg, "--seed", str(seed), "rol", "--out", str(rol)]) == 0
            assert main(["--config", cfg, "--seed", str(seed), "growth", "--out", str(growth)]) == 0
            data, report = json.loads(rol.read_text()), json.loads(growth.read_text())
            assert report["flag"]["ranks"] == ([2, 3, 5] if ratio != 1.0 else [2, 2, 2])
            nonzero = any(v != 0.0 for row in data["operator"] for v in row)
            assert nonzero == (report["kappa"] != 0.0) == (ratio != 1.0)
            assert data["invertible"] is nonzero
            if nonzero:
                assert data["condition_number"] == pytest.approx(1.0, abs=1e-9)
            else:
                assert data["condition_number"] is None


# not below radius 1: the unscaled hyperbolic draw fails its own point check there
@pytest.mark.parametrize("radius", [1.0, 1e6, 1e10, 1e15])
def test_growth_reads_a_sphere_over_a_hyperbolic_space_alike_at_every_scale(tmp_path, radius):
    # from 1e6 on, a floor taken from the generators dropped the depth-2 rows
    # (curvature ~ 1/r^2) and growth read (3, 3, 3) and exited 1
    cfg = write_config(tmp_path, {"manifold_pair": [
        {"kind": "sphere", "dim": 3, "radius": radius},
        {"kind": "hyperbolic", "dim": 3, "radius": radius}]})
    growth = tmp_path / "growth.json"
    for seed in range(5):
        assert main(["--config", cfg, "--seed", str(seed), "growth", "--out", str(growth)]) == 0
        assert json.loads(growth.read_text())["flag"]["ranks"] == [3, 6, 9]


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


@pytest.mark.parametrize("radius", [1e-170, 1e-155, 1e155])
@pytest.mark.parametrize("kind", ["sphere", "hyperbolic"])
@pytest.mark.parametrize("command", sorted(SUBCOMMANDS_ON_A_PAIR))
def test_a_radius_whose_curvature_leaves_the_float_range_exits_2(tmp_path, capsys, command,
                                                                  kind, radius):
    # r^2 or 1/r^2 beyond the floats: radius**2 raised ZeroDivisionError or
    # OverflowError, or K = inf failed later; now one error line, no traceback
    cfg = write_config(tmp_path, {"manifold_pair": [{"kind": kind, "dim": 2, "radius": radius},
                                                    {"kind": "sphere", "dim": 2}]})
    out = tmp_path / "report.out"
    assert main(["--config", cfg, command, *SUBCOMMANDS_ON_A_PAIR[command],
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: radius too small or too large: r^2 or the "
                                         "curvature 1/r^2 leaves the float range"]
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("radius", [1e-150, 1e150])
def test_a_radius_whose_square_and_curvature_are_floats_constructs(radius):
    for space in (Sphere(2, radius), Hyperbolic(2, radius)):
        assert abs(space.curvature_constant) == 1.0 / (radius * radius)


# finite inputs whose checks overflow: the residual is inf and fails its check
HUGE_STATES = {
    "A": {"x": [0.0, 0.0, 1.0], "x_hat": [0.0, 0.0], "A": [[1e308, 1e308], [0.0, 1.0]]},
    "x": {"x": [1e200, 0.0, 1.0], "x_hat": [0.0, 0.0], "A": [[1.0, 0.0], [0.0, 1.0]]},
}
ON_SPHERE_PLANE = {
    "simulate": ["--path-spec", json.dumps({"type": "geodesic", "direction": [1.0, 0.0, 0.0],
                                            "length": 1.0})],
    "growth": [],
    "rol": [],
}


@pytest.mark.parametrize("state", sorted(HUGE_STATES))
@pytest.mark.parametrize("command", sorted(ON_SPHERE_PLANE))
def test_a_state_whose_check_overflows_exits_2_with_one_error_line(tmp_path, capsys, command,
                                                                    state):
    cfg = write_config(tmp_path, {**SPHERE_PLANE, "initial_state": HUGE_STATES[state]})
    out = tmp_path / "report.out"
    assert main(["--config", cfg, command, *ON_SPHERE_PLANE[command], "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert ("not an isometry" if state == "A" else "violates the sphere constraint") in err
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
    # written by the dense float64 contraction that the sparse joins replaced
    8: "033c4a0368c1282161c38b01dfe2c05496a8593bb0d65d83ff0d8d8615ea7d73",
    9: "61bcaafcd3fb649365467a2b21ee2495308dfb3b41d3e5c4c026980ebf6c8748",
    10: "054aacb0535d241ca491b523b2192381f3660455e61839bf5a079b480a026eec",
    11: "789752c95137a56502913f615780717e79cc51126663ca3e5c8a848fc00a3a08",
    12: "6afd122aa8c279210568bb190d7f426fedbd3bc560ba6181fa00e1128e695a74",
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


def _constant_samples_run(tmp_path, times):
    """simulate at step 1e-5 along a constant sampled path at the config's
    initial state, sampled at the given times."""
    cfg = write_config(tmp_path, {**SPHERE_PLANE, "initial_state": {
        "x": [0.0, 0.0, 1.0], "x_hat": [0.0, 0.0], "A": [[1.0, 0.0], [0.0, 1.0]]}})
    samples = tmp_path / "path.csv"
    samples.write_text("".join(f"{t},0,0,1\n" for t in times))
    out = tmp_path / "traj.csv"
    code = main([
        "--config", cfg, "simulate",
        "--path-spec", json.dumps({"type": "samples", "file": str(samples)}),
        "--step=1e-5", "--out", str(out),
    ])
    return code, out


def test_simulate_caps_the_grid_of_samples_by_their_time_span(tmp_path, capsys):
    # a samples path takes no grid steps, so the step caps no span of samples:
    # (-20, 0) at step 1e-5 rolls one segment, one row per sample
    code, out = _constant_samples_run(tmp_path, (-20.0, 0.0))
    assert code == 0
    assert "grid intervals" not in capsys.readouterr().err
    assert len(out.read_text().splitlines()) == 3  # header + one state per sample


def test_simulate_caps_the_grid_by_the_span_to_the_last_sample(tmp_path, capsys):
    # nor the span from the first sample time to the last
    code, out = _constant_samples_run(tmp_path, (-20.0, -19.9, 0.0))
    assert code == 0
    assert "grid intervals" not in capsys.readouterr().err
    assert len(out.read_text().splitlines()) == 4


def test_simulate_rolls_late_samples_whose_span_is_short(tmp_path):
    # one segment over (20, 20.5), although the last time over the step is 2e6
    code, out = _constant_samples_run(tmp_path, (20.0, 20.5))
    assert code == 0
    assert len(out.read_text().splitlines()) == 3  # header + one state per sample


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


def test_audit_refuses_more_samples_than_its_maximum_before_drawing(tmp_path, capsys,
                                                                   monkeypatch):
    # the count is checked before any sample is drawn, so nothing large is allocated
    from rollsym.cli import MAX_AUDIT_SAMPLES
    from rollsym.rolling import RollingPair

    monkeypatch.setattr(RollingPair, "draw", lambda *args: pytest.fail("samples were drawn"))
    cfg = write_config(tmp_path, SPHERES_1_3)
    out = tmp_path / "audit.json"
    assert main([
        "--config", cfg, "symmetry-check", "--candidate", json.dumps({"kind": "catalog"}),
        "--samples", str(MAX_AUDIT_SAMPLES + 1), "--out", str(out),
    ]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: --samples must be at least 1 and at most {MAX_AUDIT_SAMPLES}, "
                   f"got {MAX_AUDIT_SAMPLES + 1}\n")
    assert not out.exists()


def _src_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def test_python_dash_m_runs_the_cli(tmp_path):
    def run(*argv):
        return subprocess.run([sys.executable, "-m", "rollsym", *argv], cwd=tmp_path, env=_src_env(),
                              capture_output=True, text=True, timeout=120).returncode

    assert run("nilpotent", "--n", "4", "--out", str(tmp_path / "nil.json")) == 0
    cfg = write_config(tmp_path, SPHERES_1_3)
    assert run("--config", cfg, "symmetry-check", "--candidate", json.dumps({"kind": "catalog"}),
               "--samples", "0") == 2


def test_importing_the_package_or_the_cli_loads_no_scipy_module():
    # NumPy is the only runtime dependency; SciPy serves the tests as an oracle
    scipy_modules = "' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    code = f"import sys, rollsym; print({scipy_modules}); import rollsym.cli; print({scipy_modules})"
    done = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["", ""]


def test_nilpotent_leaves_numpy_ma_unimported(tmp_path):
    # np.unique imports numpy.ma on its first call (NumPy 2.4): 11-14 ms and 1.6 MB a process
    code = ("import sys; from rollsym.cli import main; "
            "code = main(['nilpotent', '--n', '6', '--out', 'nil.json']); "
            "print(code, 'numpy.ma' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=_src_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "False"]


ROLLSYM_MODULES = "' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'rollsym'))"
ROLLING_STACK = ["cli", "curvature", "errors", "numerics", "rolling", "spaces"]
AUDIT_STACK = sorted(ROLLING_STACK + ["brackets", "symmetry"])
NILPOTENT_STACK = ["cli", "curvature", "errors", "nilpotent", "numerics"]


@pytest.mark.parametrize("command, loaded", [
    ("simulate", ROLLING_STACK), ("rol", ROLLING_STACK),
    ("growth", sorted(ROLLING_STACK + ["brackets", "nilpotent"])),
    ("symmetry-check", AUDIT_STACK), ("killing", AUDIT_STACK),
    ("nilpotent", NILPOTENT_STACK), ("flatness", NILPOTENT_STACK),
])
def test_each_subcommand_loads_only_the_modules_it_runs(tmp_path, command, loaded):
    # with no bytecode cache every module loaded is compiled at start-up
    cfg = write_config(tmp_path, SPHERES_1_3)
    argv = {"simulate": ["--path-spec", json.dumps({"type": "geodesic", "length": 0.1,
                                                    "direction": [1.0, 0.0, 0.0]})],
            "growth": ["--depth", "2"],
            "symmetry-check": ["--candidate", json.dumps({"kind": "catalog"}), "--samples", "2"],
            "nilpotent": ["--n", "3"],
            "flatness": ["--K", "1", "--K-hat", "2"]}.get(command, [])
    code = (f"import sys; from rollsym.cli import main; "
            f"code = main({['--config', cfg, command, *argv, '--out', 'report.out']!r}); "
            f"print(code); print({ROLLSYM_MODULES})")
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=_src_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    *_, code, modules = done.stdout.splitlines()  # simulate prints its residual first
    assert code == "0"
    assert modules.split() == ["rollsym"] + [f"rollsym.{m}" for m in loaded]


def test_importing_the_package_loads_no_submodule_and_resolves_each_name_at_home():
    code = (f"import sys, rollsym; print({ROLLSYM_MODULES}); "
            "print(' '.join(f'{n}:{getattr(rollsym, n).__module__}' for n in rollsym.__all__))")
    done = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    bare, homes = done.stdout.splitlines()
    assert bare == "rollsym"
    for entry in homes.split():
        name, home = entry.split(":")
        assert getattr(rollsym, name) is getattr(importlib.import_module(home), name)
    assert len(homes.split()) == len(rollsym.__all__) == 16


def test_the_package_resolves_its_submodules_and_refuses_other_names():
    assert rollsym.nilpotent is importlib.import_module("rollsym.nilpotent")
    assert rollsym.errors.GeometryError is rollsym.GeometryError
    with pytest.raises(AttributeError, match="no attribute 'no_such_module'"):
        rollsym.no_such_module
    assert not hasattr(rollsym, "no_such_module")


def test_no_source_file_imports_scipy():
    for path in sorted((ROOT / "src" / "rollsym").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert all(name.split(".")[0] != "scipy" for name in names), path.name


# a None entry in sys.modules makes every import of scipy or of a submodule fail
BLOCK_SCIPY = "import runpy, sys; sys.modules['scipy'] = None; "


@pytest.mark.parametrize("run", ["geodesic", "sampled", "growth", "symmetry-check",
                                 "nilpotent", "propagate_sym0"])
def test_every_subcommand_runs_with_scipy_blocked(tmp_path, run):
    cfg = write_config(tmp_path, SPHERES_1_3)
    at_pole = write_config(tmp_path, {**SPHERES_1_3, "initial_state": {
        "x": [0.0, 0.0, 1.0], "x_hat": [0.0, 0.0, 3.0], "A": [[1.0, 0.0], [0.0, 1.0]]}}, "pole.json")
    ts = np.linspace(0.0, 0.5, 41)
    np.savetxt(tmp_path / "path.csv", np.column_stack([ts, np.sin(ts), 0 * ts, np.cos(ts)]),
               delimiter=",")
    argv = {
        "geodesic": ["--config", cfg, "simulate", "--path-spec",
                     json.dumps({"type": "geodesic", "direction": [1.0, 0.0, 0.0],
                                 "length": 0.3})],
        "sampled": ["--config", at_pole, "simulate", "--path-spec",
                    json.dumps({"type": "samples", "file": "path.csv"})],
        "growth": ["--config", cfg, "growth", "--depth", "3"],
        "symmetry-check": ["--config", cfg, "symmetry-check", "--candidate",
                           json.dumps({"kind": "catalog"}), "--samples", "3"],
        "nilpotent": ["nilpotent", "--n", "4"],
    }
    if run == "propagate_sym0":
        code = f"runpy.run_path({str(ROOT / 'demos' / '04_jacobi_propagation.py')!r})"
    else:
        code = (f"sys.argv = ['rollsym', *{argv[run] + ['--out', 'report.out']!r}]; "
                "runpy.run_module('rollsym', run_name='__main__')")
    done = subprocess.run([sys.executable, "-c", BLOCK_SCIPY + code], cwd=tmp_path,
                          env=_src_env(), capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    assert run == "propagate_sym0" or (tmp_path / "report.out").stat().st_size > 0


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
    {"type": "spiral"},
    # a misspelled key was ignored: the geodesic rolled the default length 1
    {"direction": [1.0, 0.0], "lenght": 3.0},
], ids=["wrong-length", "nan-direction", "nan-length", "inf-length", "unknown-type",
        "misspelled-key"])
def test_simulate_rejects_a_malformed_path(tmp_path, capsys, path):
    plane_first = {"manifold_pair": [{"kind": "euclidean", "dim": 2},
                                     {"kind": "sphere", "dim": 2, "radius": 1.0}]}
    cfg = write_config(tmp_path, plane_first)
    out = tmp_path / "traj.csv"
    assert main(["--config", cfg, "simulate", "--path-spec",
                 json.dumps({"type": "geodesic", "length": 0.5, **path}), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "path" in err and err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("candidate, message", [
    ({"kind": "catalgo"}, "unknown candidate kind 'catalgo'"),
    # a misspelled perturb was ignored: the catalog audited unperturbed and passed
    ({"kind": "catalog", "perturbb": 1e-3}, "a catalog candidate must be an object with keys"),
    ({"kind": "killing", "generatr": {"type": "translation", "axis": 0}},
     "a killing candidate must be an object with keys"),
    ({"kind": "killing", "generator": {"type": "translation", "axis": 0, "plane": [0, 1]}},
     "a translation generator must be an object with keys"),
    ({"kind": "killing", "generator": {"type": "rotation", "plane": [0, 1], "axis": 0}},
     "a rotation generator must be an object with keys"),
], ids=["unknown-kind", "catalog", "killing", "translation", "rotation"])
def test_audit_rejects_an_unknown_candidate_kind_or_key(tmp_path, capsys, candidate, message):
    cfg = write_config(tmp_path, SPHERE_PLANE)
    out = tmp_path / "audit.json"
    assert main(["--config", cfg, "symmetry-check", "--candidate", json.dumps(candidate),
                 "--samples", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not out.exists()


def _tagged_input(obj, value):
    """(config, command) that hand `value` to the CLI as the tagged input object `obj`."""
    plane = {"kind": "euclidean", "dim": 2}
    pair = {"manifold": [value, plane], "fiber": [{**WARPED_S1, "fiber": value}, plane],
            "warp": [{**WARPED_S1, "warp": value}, plane]}.get(obj)
    if pair is not None:
        return {"manifold_pair": pair}, ["growth"]
    if obj == "path spec":
        return SPHERE_PLANE, ["simulate", "--path-spec", json.dumps(value)]
    candidate = value if obj == "candidate" else {"kind": "killing", "generator": value}
    return SPHERE_PLANE, ["symmetry-check", "--candidate", json.dumps(candidate), "--samples", "2"]


@pytest.mark.parametrize("value", [[], "abc", 5], ids=["list", "string", "number"])
@pytest.mark.parametrize("obj, what", [
    ("manifold", "manifold must be an object with a kind"),
    ("fiber", "manifold must be an object with a kind"),
    ("warp", "warp must be an object with a name"),
    ("path spec", "path spec must be an object with a type"),
    ("candidate", "candidate must be an object with a kind"),
    ("generator", "generator must be an object with a type"),
], ids=["manifold", "fiber", "warp", "path-spec", "candidate", "generator"])
def test_a_tagged_input_that_is_no_object_names_the_object(tmp_path, capsys, obj, what, value):
    # these exited 2 with a Python message ("AttributeError: 'list' object has
    # no attribute 'get'") rather than the object's own rule
    config, command = _tagged_input(obj, value)
    out = tmp_path / "report"
    assert main(["--config", write_config(tmp_path, config), *command, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {what}, got {value!r}\n"
    assert not out.exists()


WARPED_FIRST = {"kind": "warped", "interval": [-1.2, 1.2], "warp": {"name": "cosh"},
                "fiber": {"kind": "sphere", "dim": 2, "radius": 1.0}}


BOOLEAN_AXIS = ["symmetry-check", "--candidate", json.dumps(
    {"kind": "killing", "generator": {"type": "translation", "axis": True}})]


@pytest.mark.parametrize("first, command, what", [
    ({**WARPED_FIRST, "warp": {"name": "cosh", "a": True}}, ["killing"], "warp a"),
    ({**WARPED_FIRST, "warp": {"name": "cosh", "b": False}}, ["killing"], "warp b"),
    ({**WARPED_FIRST, "warp": {"name": "cosh", "omega": True}}, ["killing"], "warp omega"),
    ({**WARPED_FIRST, "interval": [False, 1.2]}, ["killing"], "interval end"),
    ({"kind": "sphere", "dim": 3, "radius": True}, ["killing"], "radius"),
    ({"kind": "sphere", "dim": True, "radius": 1.0}, ["killing"], "dim"),
    ({"kind": "sphere", "dim": 3, "radius": 1.0}, BOOLEAN_AXIS, "generator axis"),
], ids=["warp-a", "warp-b", "warp-omega", "interval", "radius", "dim", "axis"])
def test_a_boolean_is_not_a_number(tmp_path, capsys, first, command, what):
    # Python reads true as 1 and false as 0, so these used to run and exit 0
    cfg = write_config(tmp_path, {"manifold_pair": [first, {"kind": "euclidean", "dim": 3}]})
    out = tmp_path / "report.json"
    assert main(["--config", cfg, *command, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{what} must be " in err
    assert not out.exists()


@pytest.mark.parametrize("length", [-1, -0.05])
def test_simulate_rejects_a_negative_path_length(tmp_path, capsys, length):
    # it used to reach the roll and fail there as "driving path time grid
    # must be increasing", which names no input
    cfg = write_config(tmp_path, SPHERE_PLANE)
    out = tmp_path / "traj.csv"
    spec = {"type": "geodesic", "direction": [0, 1, 0], "length": length}
    assert main(["--config", cfg, "simulate", "--path-spec", json.dumps(spec),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and err.count("\n") == 1
    assert err.startswith("error: ")
    assert f"path length must be finite and non-negative, got {float(length)!r}" in err
    assert not out.exists()


def test_an_audit_sample_evaluates_u_bar_once_at_its_state(tmp_path, monkeypatch):
    from rollsym.symmetry import KillingField

    calls = []
    nabla_matrix = KillingField.nabla_matrix
    monkeypatch.setattr(KillingField, "nabla_matrix", lambda self, x, *a: calls.append(
        np.shape(x)[:-1]) or nabla_matrix(self, x, *a))
    cfg = write_config(tmp_path, SPHERES_1_3)
    assert main([
        "--config", cfg, "symmetry-check", "--candidate", json.dumps({"kind": "catalog"}),
        "--samples", "3", "--seed", "1", "--out", str(tmp_path / "audit.json"),
    ]) == 0
    # each one product on the stack of all samples: nabla K for the rows, which
    # the bracket and the dimension probe share, then nabla K with its
    # derivative, once for the candidates' derivatives along the generators and
    # once for those along the fiber rows of the vertical check; none at a
    # lone state
    assert calls == [(3,)] * 3


def test_audit_rejects_a_perturbation_too_large_to_hold(tmp_path, capsys):
    # at seed 1 the noise's largest entry is below 1: its scale used to
    # overflow to inf, U_bar to turn NaN and the NaN skewness residual to
    # pass validation, ending in a LinAlgError traceback; the rows of the
    # perturbed candidates are finite, but their residuals overflow
    cfg = write_config(tmp_path, SPHERES_1_3)
    out = tmp_path / "audit.json"
    assert main([
        "--config", cfg, "symmetry-check",
        "--candidate", json.dumps({"kind": "catalog", "perturb": 1e308}),
        "--samples", "2", "--seed", "1", "--out", str(out),
    ]) == 2
    err = capsys.readouterr().err
    assert "residuals are not finite" in err and "Traceback" not in err
    assert [line.startswith("error:") for line in err.splitlines()] == [True]
    assert not out.exists()


@pytest.mark.parametrize("residual, code", [(5e-10, 0), (5e-9, 2)])
def test_an_input_state_meets_isometry_tol_whatever_the_isometry_tolerance(tmp_path, capsys,
                                                                          residual, code):
    # rolling.ISOMETRY_TOL (1e-9) checks an input state; tolerances.isometry
    # (here 1e-7) weighs only the rows that a roll writes, so it cannot admit
    # a contact map that ISOMETRY_TOL refuses
    stretch = math.sqrt(1.0 + residual)  # |A^T A - I| = residual
    state = {"x": [0.0, 0.0, 1.0], "x_hat": [0.0, 0.0], "A": [[stretch, 0.0], [0.0, 1.0]]}
    cfg = write_config(tmp_path, {**SPHERE_PLANE, "initial_state": state,
                                  "tolerances": {"isometry": 1e-7}})
    out = tmp_path / "traj.csv"
    assert main(["--config", cfg, "simulate", *ON_SPHERE_PLANE["simulate"],
                 "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("error: contact map is not an isometry") and err.count("\n") == 1
        assert not out.exists()
    else:
        assert np.loadtxt(out, delimiter=",", skiprows=1)[0, -1] == pytest.approx(residual)


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
COSH_S2 = {"kind": "warped", "interval": [-1.2, 1.2], "warp": {"name": "cosh"},
           "fiber": {"kind": "sphere", "dim": 2, "radius": 1.0}}
NAN, INF = float("nan"), float("inf")
# JSON true and false are not numbers, though Python reads them as 1 and 0
NOT_A_COUNT = [0, -1, -3, 2.9, 1.5, "two", "", "nan", None, [], {}, NAN, INF, True, False]
NOT_POSITIVE = [0.0, -1.0, -1e-3, NAN, INF, -INF, "nan", "-inf", "abc", None, [], {}, True,
                False]
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
    {**GOOD_STATE, "x": [False, False, True]},
    {**GOOD_STATE, "A": [[True, 0.0], [0.0, 1.0]]},
    {**GOOD_STATE, "A": [[True, False], [False, True]]},
    {**GOOD_STATE, "xhat": [0.0, 0.0, 3.0]},
    {},
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
    json.dumps({**FUZZ_PATH, "direction": [True, 0.0, 0.0]}),
    json.dumps({**FUZZ_PATH, "length": True}),
    json.dumps({"type": "samples"}),
    json.dumps({"type": "samples", "file": "missing.csv"}),
    json.dumps({"type": "samples", "file": "garbage.csv"}),
    json.dumps({"type": "samples", "file": "one_row.csv"}),
    json.dumps({**FUZZ_PATH, "lenght": 3.0}),
]
BAD_CANDIDATES = [
    {"kind": "catalog", "perturb": True},
    {"kind": "catalog", "perturb": False},
    {"kind": "catalog", "perturb": NAN},
    {"kind": "killing", "generator": {"type": "rotation", "plane": [False, True]}},
    {"kind": "killing", "generator": {"type": "rotation", "plane": [0, 1.5]}},
    {"kind": "catalgo"},
    {"kind": "catalog", "perturbb": 1e-3},
    {"kind": "killing", "generator": {"type": "rotation", "plane": [0, 1], "axis": 0}},
]
VALID_KINDS = ("euclidean", "sphere", "hyperbolic", "warped")


def _corrupt_manifold(draw, config):
    pair = config["manifold_pair"]
    k = draw(st.integers(0, 1))
    how = draw(st.sampled_from(["pair", "factor", "dim", "radius", "kind", "key"]))
    if how == "pair":
        config["manifold_pair"] = draw(st.sampled_from([None, [], 5, [pair[0]], pair * 2]))
    elif how == "factor":
        pair[k] = draw(st.sampled_from(JUNK))
    elif how == "dim":
        pair[k]["dim"] = draw(st.sampled_from(NOT_A_COUNT))
    elif how == "radius":
        pair[k]["radius"] = draw(st.sampled_from(NOT_POSITIVE))
    elif how == "key":
        pair[k]["radus"] = 7.0
    else:
        pair[k]["kind"] = draw(st.text(max_size=8).filter(lambda t: t not in VALID_KINDS))


@st.composite
def malformed_invocations(draw):
    """(subcommand, config, global flags, subcommand flags), malformed at least once."""
    command = draw(st.sampled_from(["killing", "rol", "simulate", "symmetry-check"]))
    choices = ["not_object", "manifold", "tolerances", "seed", "output", "key", "--seed", "--tol"]
    if command in ("rol", "simulate"):
        choices += ["initial_state"]
    if command == "simulate":
        choices += ["--step", "--path-spec"]
    if command == "symmetry-check":
        choices += ["--samples", "--candidate"]
    picked = draw(st.lists(st.sampled_from(choices), min_size=1, max_size=2, unique=True))
    config = copy.deepcopy(SPHERES_1_3)
    global_flags, sub_flags = [], []
    path_spec = json.dumps(FUZZ_PATH)
    candidate = {"kind": "catalog"}
    for what in picked:
        if what == "manifold":
            _corrupt_manifold(draw, config)
        elif what == "tolerances":
            key = draw(st.sampled_from(["residual", "rank", "step", "isometry"]))
            # a bad value, key-value pairs in place of an object, or a misspelled key
            config["tolerances"] = draw(st.sampled_from(
                [{key: bad} for bad in NOT_POSITIVE] + [[[key, 1e-3]], {key[::-1]: 1e-3}]))
        elif what == "seed":
            config["seed"] = draw(st.sampled_from(["abc", -1, -7, 2.7, None, [], "1.5", NAN,
                                                   True, False]))
        elif what == "output":
            config["output"] = draw(st.sampled_from(["x", 5, [], {"format": "xml"},
                                                     {"format": 5}, {"fromat": "json"}]))
        elif what == "key":  # a misspelled key of the config
            config[draw(st.sampled_from(["sede", "tolerance", "ouptut", "initial_sate"]))] = 5
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
        elif what == "--candidate":
            candidate = draw(st.sampled_from(BAD_CANDIDATES))
    if "not_object" in picked:
        config = draw(st.one_of(st.lists(st.integers(), max_size=3), st.integers(),
                                st.text(max_size=5), st.none(), st.booleans()))
    if command == "simulate":
        sub_flags += ["--path-spec", path_spec, "--format", "csv"]
    if command == "symmetry-check":
        sub_flags += ["--candidate", json.dumps(candidate)]
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
# a warped spec was read loosely: a third interval end was dropped, and a dim
# that its fiber contradicts was ignored, and both ran to exit 0
@example(invocation=("growth", {"manifold_pair": [
    {**COSH_S2, "interval": [-1.2, 1.2, 99]}, {"kind": "euclidean", "dim": 3}]}, [], []))
@example(invocation=("killing", {"manifold_pair": [
    {**COSH_S2, "dim": 7}, {"kind": "sphere", "dim": 3, "radius": 1.0}]}, [], []))
# tolerances given as key-value pairs were read as an object (growth exited
# 4 at rank tolerance 1e-3), and a misspelled key was ignored (exit 0)
@example(invocation=("growth", {**SPHERES_1_3, "tolerances": [["rank", 1e-3]]}, [], []))
@example(invocation=("growth", {**SPHERES_1_3, "tolerances": {"rnak": 1e-3}}, [], []))
# so was a misspelled key of any other object (exit 0)
@example(invocation=("killing", {**SPHERES_1_3, "sede": 5}, [], []))
@example(invocation=("simulate", SPHERES_1_3, [], [
    "--path-spec", json.dumps({**FUZZ_PATH, "lenght": 3.0}), "--format", "csv"]))
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


STRICT_PAIRS = [
    # a stationary flag and a zero operator: inf gaps and condition number
    [_sphere(2), _sphere(2)],
    [_sphere(2), _warped("cos", _sphere(1))],
    [_warped("exp", _sphere(1)), _hyperbolic(2)],
    [_sphere(3), _hyperbolic(3, 2.0)],
]


def test_every_report_is_strict_json(tmp_path):
    # a float inf is written as null (cli._plain), never as Infinity, and no
    # report holds a NaN, whatever its exit code
    runs = [["nilpotent", "--n", "3"], ["flatness", "--K", "1", "--K-hat", "4", "--n", "2"],
            ["flatness", "--K", "1", "--K-hat", "1/9", "--n", "3"]]
    for k, pair in enumerate(STRICT_PAIRS):
        cfg = write_config(tmp_path, {"manifold_pair": pair, "seed": 1}, f"{k}.json")
        space, rng = from_spec(pair[0]), np.random.default_rng(1)
        q0 = RollingPair(space, from_spec(pair[1])).random_state(rng)  # the config's state
        geodesic = GeodesicPath(space, q0.x, space.random_tangent(rng, q0.x, unit=True), 0.3)
        samples = tmp_path / f"{k}.csv"
        np.savetxt(samples, [[t, *geodesic.point(t)] for t in (0.0, 0.15, 0.3)],
                   delimiter=",", fmt="%.17g")
        for path in ({"type": "geodesic", "direction": geodesic.velocity(0.0).tolist(),
                      "length": 0.3}, {"type": "samples", "file": str(samples)}):
            runs.append(["--config", cfg, "simulate", "--format", "json",
                         "--path-spec", json.dumps(path)])
        runs += [["--config", cfg, *argv] for argv in (
            ["growth", "--depth", "3"], ["growth", "--depth", "4"], ["rol"], ["killing"],
            ["symmetry-check", "--candidate", '{"kind": "catalog"}', "--samples", "3"],
            ["symmetry-check", "--candidate", '{"kind": "catalog", "perturb": 1e-3}',
             "--samples", "3"])]

    def refuse(token):  # NaN, Infinity and -Infinity are no JSON
        raise AssertionError(f"{token} in a report")

    out = tmp_path / "report.json"
    for argv in runs:
        out.unlink(missing_ok=True)
        code = main([*argv, "--out", str(out)])
        # only a Killing catalog asked of the warped second factor writes no report
        assert out.exists() or code == 5, (argv, code)
        if out.exists():
            json.loads(out.read_text(), parse_constant=refuse)
