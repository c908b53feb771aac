"""Benchmark of the rollsym command line, from the root of a source checkout.

    python3 perfbench/run.py --workload roll --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One client, one thread, closed loop: each op is one in-process call of
``rollsym.cli.main(argv)`` and the next op starts when it returns.  The
op list is generated from ``--seed`` during set-up and holds
round(seconds / nominal round time) rounds, so a run lasts about
``--seconds`` at the parent commit and both commits of a comparison run the
same ops.  Every report is re-read and checked outside the timed region.

With ``--trace 0`` the run prints the end-to-end metrics.  With
``--trace 1`` it runs a shorter op list twice, untraced and then with the
span recorder of ``spans.py`` installed, and prints the per-layer metrics;
the spans are saved to ``.bench_out/trace-<workload>-seed<seed>.npz``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``correct`` is false
when an op states a verdict (its exit code) that its report or the input
contradicts; error exits are counted in ``failed`` and ``ok_ratio``.
Times are corrected for the host's speed (``hostspeed.py``); the table
prints the raw wall-clock values beside them.
"""

import time

from hostspeed import corrected, kernel_s

KERNEL_START = kernel_s()
T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

# one thread: pinned before NumPy loads its BLAS
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from checks import check  # noqa: E402
from spans import RHS_VELOCITY, ROOT as ROOT_SPAN, Recorder, SpanTable  # noqa: E402
from workloads import WORKLOADS, build, rounds_for  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

OUT_DIR = ROOT / ".bench_out"
SETUP_CHILDREN = 2
CHILD_TIMEOUT_S = 170

END_TO_END = [
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ok_ratio", "1"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]


def _layer(base, *kinds):
    units = {"calls": "count", "self_s": "s"}
    return [(f"{base}.{k}", units[k], "lower") for k in kinds]


PER_LAYER = (
    _layer("spaces.frame", "calls", "self_s")
    + _layer("spaces.geodesic_flow", "calls", "self_s")
    + _layer("spaces.transport_rhs", "calls")
    + _layer("spaces.transport_along_geodesic", "calls", "self_s")
    + _layer("curvature.rolling_curvature", "calls", "self_s")
    + _layer("rolling.roll_along", "self_s")
    + [("rolling.step_us", "us", "lower"), ("rolling.rhs_evals_per_step", "1", "lower")]
    + _layer("rolling.RollingState", "calls")
    + _layer("rolling.tangent_curve", "calls", "self_s")
    + _layer("rolling.det_transport_matrix", "calls", "self_s")
    + _layer("rolling.directional_derivative", "calls", "self_s")
    + _layer("rolling.write_csv", "self_s")
    + _layer("rolling.expm", "calls")
    + _layer("linalg.svd", "calls")
    + _layer("brackets.flag_ranks", "self_s")
    + _layer("brackets.bracket_structured", "calls", "self_s")
    + _layer("brackets.stencil_data_derivative", "calls", "self_s")
    + _layer("brackets.frame_field_derivative", "calls", "self_s")
    + [("brackets.useful_ratio", "1", "higher")]
    + _layer("symmetry.symmetry_residual", "calls", "self_s")
    + _layer("symmetry.vertical_compatibility_residual", "calls", "self_s")
    + _layer("symmetry.KillingField.nabla_matrix", "calls", "self_s")
    + _layer("symmetry.sym0_dimension_probe", "self_s")
    + _layer("nilpotent.verify_structure", "self_s")
    + _layer("nilpotent.nil_bracket", "calls")
    + [("cli.self_s", "s", "lower"), ("cli.out_bytes", "B", "lower")]
    + [(f"cli.exit_code.{k}", "count", "higher" if k == 0 else "lower") for k in range(6)]
    + [
        ("health.max_isometry_residual", "1", "lower"),
        ("health.min_rank_gap", "1", "higher"),
        ("health.max_residual", "1", "lower"),
        ("health.min_residual_perturbed", "1", "higher"),
        ("trace.overhead_ratio", "1", "lower"),
    ]
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="roll, growth, audit, nilpotent or all")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrunken inputs and one round, for the benchmark's own tests")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


@dataclass
class Result:
    label: str
    code: object
    seconds: float  # host-speed corrected
    wall: float
    ok: bool
    wrong: bool
    reason: str = ""
    health: dict = field(default_factory=dict)
    out_bytes: int = 0
    counts: list = field(default_factory=list)


def execute(op, main, verdict_codes, rec=None, op_id=-1) -> Result:
    """Run one op in the timed region, then check its report outside it."""
    if op.out.exists():
        op.out.unlink()
    gc.collect()
    stdout, stderr = io.StringIO(), io.StringIO()
    counts, error = [], ""
    kernel_before = kernel_s()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        t0 = time.perf_counter()
        try:
            if rec is None:
                code = main(op.argv)
            else:
                code, counts = rec.run_op(op_id, main, op.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed op, not the end of the run
            code, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
    out_bytes = len(stdout.getvalue().encode()) + len(stderr.getvalue().encode())
    if op.out.is_file():
        out_bytes += op.out.stat().st_size
    res = Result(op.label, code, corrected(wall, kernel_before, kernel_s()), wall, False, False,
                 out_bytes=out_bytes, counts=counts)
    if code is None:
        res.reason = "exception " + error
    elif code != op.expect:
        res.reason = f"exit {code}: " + stderr.getvalue().strip()[-160:]
        res.wrong = code in verdict_codes
        if op.out.is_file():
            res.health = check(op)[2]
    else:
        res.ok, res.reason, res.health = check(op)
        res.wrong = not res.ok
    return res


def tail(durations):
    """Highest percentile with at least ten ops beyond it: (value, pct, beyond)."""
    s = sorted(durations)
    if len(s) <= 10:
        return s[-1], 100.0, 0
    i = len(s) - 11
    return s[i], 100.0 * (i + 1) / len(s), len(s) - 1 - i


def setup_sample(args):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          cwd=ROOT, check=True)
    return tuple(json.loads(proc.stdout.strip().splitlines()[-1])["setup"])


def timing(results, key):
    durations = [getattr(r, key) for r in results]
    n_ok = sum(r.ok for r in results)
    value, pct, beyond = tail(durations)
    return {
        "ops_per_s": n_ok / sum(durations),
        "op_p50_ms": 1e3 * statistics.median(durations),
        "op_tail_ms": 1e3 * value,
    }, f"p{pct:.1f} of {len(results)} ops, {beyond} beyond"


def end_to_end(results, setup_samples):
    metrics, tail_note = timing(results, "seconds")
    raw, _ = timing(results, "wall")
    n_ok = sum(r.ok for r in results)
    metrics.update({
        "ok_ratio": n_ok / len(results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(s for s, _ in setup_samples),
    })
    notes = {name: f"wall clock {value:.6g}" for name, value in raw.items()}
    notes["op_tail_ms"] += "; " + tail_note
    notes["setup_s"] = "median of " + ", ".join(
        f"{s:.3f} (wall clock {w:.3f})" for s, w in setup_samples)
    return metrics, notes


def per_layer(rec, ops, untraced, traced):
    every = range(len(ops))
    ok_ids = [i for i in every if traced[i].ok]
    table, table_ok = SpanTable(rec, every), SpanTable(rec, ok_ids)
    totals = {name: sum(r.counts[k] for r in traced)
              for k, name in enumerate(rec.counter_names)}
    metrics = {}
    for name, _, _ in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if kind == "calls":
            metrics[name] = totals[base] if base in totals else table.calls(base)
        elif kind == "self_s":
            metrics[name] = table.self_s(ROOT_SPAN if base == "cli" else base)
    metrics["cli.out_bytes"] = sum(r.out_bytes for r in traced)
    for k in range(6):
        metrics[f"cli.exit_code.{k}"] = sum(r.code == k for r in traced)

    roll_ok = [i for i in ok_ids if ops[i].check == "roll"]
    grid = sum(ops[i].params["grid"] for i in roll_ok)
    vel = rec.counter_names.index(RHS_VELOCITY)
    rhs_evals = sum(traced[i].counts[vel] for i in roll_ok)
    metrics["rolling.step_us"] = 1e6 * table_ok.total_s("rolling.roll_along") / grid if grid else 0.0
    metrics["rolling.rhs_evals_per_step"] = rhs_evals / (4 * grid) if grid else 0.0

    growth_ok = [i for i in ok_ids if ops[i].check == "growth"]
    evaluated = sum(ops[i].params["n"] for i in growth_ok) + SpanTable(rec, growth_ok).calls(
        "brackets.bracket_structured", parent="brackets.flag_ranks")
    final = sum(ops[i].params["ranks"][-1] for i in growth_ok)
    metrics["brackets.useful_ratio"] = final / evaluated if evaluated else 0.0

    def health(key, pick):
        vals = [r.health[key] for r in traced if key in r.health]
        return float(pick(vals)) if vals else 0.0

    metrics["health.max_isometry_residual"] = health("max_isometry_residual", max)
    metrics["health.min_rank_gap"] = health("min_rank_gap", min)
    metrics["health.max_residual"] = health("max_residual", max)
    metrics["health.min_residual_perturbed"] = health("min_residual_perturbed", min)
    metrics["trace.overhead_ratio"] = (sum(r.seconds for r in traced)
                                       / sum(r.seconds for r in untraced))
    return {name: metrics[name] for name, _, _ in PER_LAYER}


def provenance(args, wl, work, n_rounds):
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "rollsym").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": n_rounds,
        "ops": len(wl.ops()),
        "config_sha256": wl.digest(work),
        "git_commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def print_result(wl_name, metrics, units, notes, results, prov):
    print(f"workload {wl_name}: {len(results)} ops, closed loop, 1 client, 1 thread")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<46} {value:>16.6g} {units[name]}{note}")
    failed = [r for r in results if not r.ok]
    for r in failed[:12]:
        print(f"  failed op [{r.label}]: {r.reason}")
    if len(failed) > 12:
        print(f"  ... {len(failed) - 12} more failed ops")
    print(json.dumps({"provenance": prov}, sort_keys=True))
    print(json.dumps({
        "correct": not any(r.wrong for r in results),
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def bench(args, work):
    import rollsym
    from rollsym.cli import main

    trace = bool(args.trace)
    n_rounds = rounds_for(args.workload, args.seconds, trace=trace, tiny=args.tiny)
    wl = build(args.workload, args.seed, n_rounds, work, tiny=args.tiny)
    for op in wl.warmup:
        execute(op, main, wl.verdict_codes)
    setup_wall = time.perf_counter() - T_START
    setup = (corrected(setup_wall, KERNEL_START, kernel_s()), setup_wall)
    if args.setup_only:
        print(json.dumps({"setup": setup}))
        return 0

    ops = wl.ops()
    results = [execute(op, main, wl.verdict_codes) for op in ops]
    if trace:
        rec = Recorder()
        rec.install(rollsym)
        try:
            traced = [execute(op, main, wl.verdict_codes, rec, i) for i, op in enumerate(ops)]
        finally:
            rec.uninstall()
        OUT_DIR.mkdir(exist_ok=True)
        rec.save(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.npz")
        metrics = per_layer(rec, ops, results, traced)
        units = {name: unit for name, unit, _ in PER_LAYER}
        notes = {}
        results = results + traced
    else:
        samples = [setup] + [setup_sample(args) for _ in range(0 if args.tiny else SETUP_CHILDREN)]
        metrics, notes = end_to_end(results, samples)
        units = dict(END_TO_END)
    print_result(args.workload, metrics, units, notes, results,
                 provenance(args, wl, work, n_rounds))
    return 0


def run_all(args):
    """Each workload in a fresh process; prints every metric by name and unit."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            status = proc.returncode or 1
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    if status:
        return status
    print(json.dumps(merged))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "rollsym" / "cli.py").is_file():
        print(f"error: no rollsym sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rollsym

    if not Path(rollsym.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported rollsym from {rollsym.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return bench(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
