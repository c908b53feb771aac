"""Command-line front end: reproducible simulation, rank analysis, symmetry
audits, algebra verification and report emission.

Every subcommand reads a JSON config describing the manifold pair, draws all
randomness from one recorded seed, honors a global tolerance override, and
writes deterministic reports: identical config and seed give byte-identical
output.  Exit codes partition the failure classes: 2 config or input
parsing, 3 integration left the coordinate domain, 4 ambiguous rank gap,
5 candidate/manifold mismatch, 1 residual or verdict failure.  Input is
validated where it is read: a malformed config, flag or JSON argument exits
2 with a message, never with a traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
import warnings
from fractions import Fraction

import numpy as np

from .spaces import (DEFAULT_STEP, DomainError, GeodesicPath, GeometryError, MismatchError,
                     SampledPath, from_spec, integral)
from .rolling import RollingCurve, RollingPair, roll_along
from .curvature import operator_invertible, rolling_curvature_operator
from .brackets import curvature_mismatch, flag_ranks
from .nilpotent import flatness_obstruction, growth_vector, structure_tensor, verify_structure
from .symmetry import (
    KillingField,
    killing_catalog,
    killing_to_symmetry,
    perturb_candidate,
    sym0_dimension_probe,
    symmetry_residual,
    vertical_compatibility_residual,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_RANK_GAP = 4
EXIT_MISMATCH = 5

GAP_REQUIREMENT = 1e4
# the structure tensor is built dense, (2n + n(n-1)/2)^3 int64 entries (5.8 MB at
# n = 12), though verify_structure reads only its 3n(n-1) nonzero ones
NILPOTENT_MAX_N = 12
# a simulated grid holds every row in memory; 2 pi at the default step is 6,284 intervals
MAX_GRID_INTERVALS = 10**6
# all samples are held at once: peak RSS ~6 KB a sample on S3(2)/S3(1), ~57 KB on S6(2)/S6(1)
MAX_AUDIT_SAMPLES = 10**4
TOLERANCE_DEFAULTS = {"residual": 1e-6, "rank": 1e-8, "step": DEFAULT_STEP, "isometry": 1e-7}


def _dump(obj, out_path):
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


@contextlib.contextmanager
def _reading(what):
    """Turn the errors of reading user input into input errors (exit 2)."""
    try:
        yield
    except GeometryError:
        raise
    except (TypeError, ValueError, KeyError, IndexError, AttributeError, OverflowError) as exc:
        raise GeometryError(f"malformed {what}: {type(exc).__name__}: {exc}") from None


def _positive(value, what):
    if not 0 < value < math.inf:
        raise GeometryError(f"{what} must be finite and positive, got {value!r}")
    return value


class Run:
    """Config, seed and tolerances shared by the subcommands."""

    def __init__(self, args, need_pair=True):
        self.config = {}
        with _reading("config"):
            if args.config:
                with open(args.config) as fh:
                    self.config = json.load(fh)
            if not isinstance(self.config, dict):
                raise GeometryError("config must be a JSON object")
            self.seed = (args.seed if args.seed is not None
                         else integral(self.config.get("seed", 0), "seed"))
            tol_block = dict(self.config.get("tolerances", {}))
            if args.tol is not None:
                tol_block["residual"] = args.tol
            self.tolerances = {k: _positive(float(tol_block.get(k, d)), f"tolerance {k}")
                               for k, d in TOLERANCE_DEFAULTS.items()}
            output = self.config.get("output", {})
            if not (isinstance(output, dict) and isinstance(output.get("path") or "", str)
                    and output.get("format") in (None, "json", "csv")):
                raise GeometryError("output must be an object with a path string and a "
                                    "format json or csv")
            self.out = args.out or output.get("path")
            self.format = args.format or output.get("format")
            self.pair = None
            if need_pair:
                pair_spec = self.config.get("manifold_pair")
                if not pair_spec or len(pair_spec) != 2:
                    raise GeometryError("config must hold a two-element manifold_pair")
                self.pair = RollingPair(from_spec(pair_spec[0]), from_spec(pair_spec[1]))
        if self.seed < 0:
            raise GeometryError(f"seed must be a non-negative integer, got {self.seed}")

    def rng(self):
        return np.random.default_rng(self.seed)

    def initial_state(self, rng):
        if self.config.get("initial_state"):
            with _reading("initial_state"):
                return self.pair.state_from_json(self.config["initial_state"])
        return self.pair.random_state(rng)

    def report_header(self):
        return {"seed": self.seed, "tolerances": self.tolerances}


def _parse_path(pair, q0, spec):
    if spec.get("type") == "geodesic":
        direction = np.asarray(spec["direction"], float)
        if direction.shape != q0.x.shape or not np.isfinite(direction).all():
            raise GeometryError(f"path direction must hold {q0.x.size} finite numbers")
        # an exact power-of-two scaling brings the largest entry into [0.5, 1),
        # so that the norm neither overflows nor underflows
        direction = np.ldexp(direction, -np.frexp(np.abs(direction).max())[1])
        tangent = pair.space.project(q0.x, direction)
        length = float(spec.get("length", 1.0))
        if not math.isfinite(length):
            raise GeometryError(f"path length must be finite, got {length!r}")
        nrm2 = pair.space.inner_at(q0.x, tangent, tangent)
        # a normal direction leaves a round-off tangent part, whose Minkowski square may be < 0
        if length == 0.0 or not nrm2 > (1e-12 * np.linalg.norm(direction)) ** 2:
            return None
        return GeodesicPath(pair.space, q0.x, tangent / np.sqrt(nrm2), length)
    if spec.get("type") == "samples":
        with warnings.catch_warnings():
            # an empty file is SampledPath's "fewer than 2 samples" error, not a warning
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(spec["file"], delimiter=",", ndmin=2)
        return SampledPath(pair.space, data[:, 0], data[:, 1:])
    raise GeometryError(f"unknown path spec type {spec.get('type')!r}")


def cmd_simulate(args):
    run = Run(args)
    rng = run.rng()
    q0 = run.initial_state(rng)
    step = _positive(args.step, "--step") if args.step is not None else run.tolerances["step"]
    with _reading("--path-spec"):
        path = _parse_path(run.pair, q0, json.loads(args.path_spec))
    if path is None:
        curve = RollingCurve(run.pair, np.zeros(1), q0.x[None], q0.x_hat[None], q0.isometry[None])
    else:
        # the roll substeps the span from the path's first time, which is 0 on a geodesic
        span = abs(path.t_max - (path.times[0] if isinstance(path, SampledPath) else 0.0))
        if span / step > MAX_GRID_INTERVALS:
            raise GeometryError(f"--step {step:g} over a path span of {span:g} would take more "
                                f"than {MAX_GRID_INTERVALS} grid intervals")
        curve = roll_along(q0, path, step=step)
    residual = float(curve.residuals.max())
    if run.format != "json":  # the trajectory CSV schema is the default
        curve.write_csv(run.out or "trajectory.csv")
    else:
        report = run.report_header()
        report["trajectory"] = [
            {"t": t, "x": x, "x_hat": x_hat, "A": a, "isometry_residual": res}
            for t, x, x_hat, a, res in zip(curve.times.tolist(), curve.x.tolist(),
                                           curve.x_hat.tolist(), curve.A.tolist(),
                                           curve.residuals.tolist())
        ]
        report["max_isometry_residual"] = residual
        _dump(report, run.out)
    print(f"max isometry residual: {residual:.6e}")
    return EXIT_OK if residual < run.tolerances["isometry"] else EXIT_FAIL


def cmd_growth(args):
    run = Run(args)
    rng = run.rng()
    q0 = run.initial_state(rng)
    report = flag_ranks(q0, depth=args.depth, tol=run.tolerances["rank"])
    n = run.pair.dim
    try:
        kappa = curvature_mismatch(run.pair)
    except GeometryError:
        kappa = None
    # kappa = 0 leaves D integrable; a full flag stays full to the requested depth
    growth = (n, n, n) if kappa == 0.0 else growth_vector(n)
    predicted = (growth + growth[-1:] * args.depth)[: args.depth]
    out = run.report_header()
    out["flag"] = report.to_json()
    out["kappa"] = kappa
    out["predicted_growth"] = list(predicted)
    if kappa == 0.0:
        out["note"] = "kappa=0"
    ambiguous = _rank_cut_ambiguous(report, run.tolerances["rank"])
    out["rank_cut_ambiguous"] = ambiguous
    _dump(out, run.out)
    if ambiguous:
        return EXIT_RANK_GAP
    if kappa == 0.0:
        return EXIT_OK
    return EXIT_OK if tuple(report.ranks) == tuple(predicted[: len(report.ranks)]) else EXIT_FAIL


def _rank_cut_ambiguous(report, tol):
    """A rank decision is ambiguous when a singular value sits within the
    required factor of the accept/reject threshold."""
    for sv in report.singular_values:
        if sv[0] == 0.0:
            continue
        threshold = tol * sv[0]
        for s in sv:
            if s == 0.0:
                continue
            ratio = s / threshold if s > threshold else threshold / s
            if ratio < GAP_REQUIREMENT:
                return True
    return False


def _field_from_spec(manifold, gen_spec) -> KillingField:
    kind = gen_spec.get("type")
    catalog = killing_catalog(manifold)
    if kind == "translation":
        name = f"translation-{integral(gen_spec['axis'], 'generator axis')}"
    elif kind == "rotation":
        i, j = sorted(integral(k, "generator plane index") for k in gen_spec["plane"])
        name = f"rotation-{i}{j}"
    elif kind == "boost":
        name = f"boost-{integral(gen_spec['axis'], 'generator axis')}"
    else:
        raise GeometryError(f"unknown generator type {kind!r}")
    if name in catalog.names:
        return catalog[catalog.names.index(name)]
    raise MismatchError(f"generator {name} does not exist on {manifold.kind}{manifold.dim}")


def cmd_audit(args):
    run = Run(args)
    if not 1 <= args.samples <= MAX_AUDIT_SAMPLES:
        raise GeometryError(f"--samples must be at least 1 and at most {MAX_AUDIT_SAMPLES}, "
                            f"got {args.samples}")
    rng = run.rng()
    pair = run.pair
    tol = run.tolerances["residual"]
    with _reading("--candidate"):
        cand_spec = json.loads(args.candidate)
        kind = cand_spec.get("kind")
        if kind == "catalog":
            fields = killing_catalog(pair.space_hat)
        elif kind == "killing":
            fields = _field_from_spec(pair.space_hat, cand_spec.get("generator", {}))
        else:
            raise GeometryError(f"unknown candidate kind {kind!r}")
        eps = float(cand_spec.get("perturb") or 0.0)
    if not math.isfinite(eps):
        raise GeometryError(f"perturb must be finite, got {eps!r}")
    cands = killing_to_symmetry(pair, fields)
    if eps:
        cands = perturb_candidate(cands, eps, rng)

    # the samples are drawn as stacks (all states, then all X, then all Y)
    # and checked as one stack; each checker then takes the whole stack at once
    x, x_hat, a = pair.draw(rng, (args.samples,))
    Xs = pair.space.random_tangent(rng, x, unit=True)
    Ys = pair.space.random_tangent(rng, x, unit=True)
    qs = pair.state(x, x_hat, a)
    # one row of residuals per sample, one entry per candidate
    stats = dict(zip(("eq_drift", "eq_curvature"), symmetry_residual(cands, qs, Xs)))
    stats["vertical"] = vertical_compatibility_residual(cands, qs, Xs, Ys)
    out = run.report_header()
    out["samples"] = args.samples
    out["candidates"] = cands.names
    out["residuals"] = {
        key: {"max": float(np.max(vals)), "mean": float(np.mean(vals.ravel()))}
        for key, vals in stats.items()
    }
    q0 = pair.random_state(run.rng())
    probe = sym0_dimension_probe(q0, cands, tol=run.tolerances["rank"])
    out["sym0_dimension"] = probe.to_json()
    _dump(out, run.out)
    failing = [k for k, v in out["residuals"].items() if not v["max"] < tol]
    if failing:
        print(f"residuals above tolerance {tol:g}: {', '.join(sorted(failing))}")
        return EXIT_FAIL
    return EXIT_OK


def cmd_killing(args):
    run = Run(args)
    mh = run.pair.space_hat
    fields = killing_catalog(mh)
    out = run.report_header()
    out["manifold"] = mh.to_spec()
    out["dimension"] = len(fields)
    out["fields"] = fields.names
    _dump(out, run.out)
    return EXIT_OK


def cmd_rol(args):
    run = Run(args)
    rng = run.rng()
    q0 = run.initial_state(rng)
    op = rolling_curvature_operator(q0)
    verdict, cond, sv = operator_invertible(op, tol=run.tolerances["rank"])
    out = run.report_header()
    out["state"] = q0.to_json()
    out["operator"] = op.tolist()
    out["singular_values"] = sv.tolist()
    out["invertible"] = verdict
    out["condition_number"] = None if cond == float("inf") else cond
    _dump(out, run.out)
    return EXIT_OK


def cmd_nilpotent(args):
    run = Run(args, need_pair=False)
    n = args.n
    if not 2 <= n <= NILPOTENT_MAX_N:
        raise GeometryError(f"--n must lie in [2, {NILPOTENT_MAX_N}]")
    c = structure_tensor(n)
    report = verify_structure(n, c)
    names = (
        [f"N{i}" for i in range(n)]
        + [f"B{i}{j}" for i in range(n) for j in range(i + 1, n)]
        + [f"Z{i}" for i in range(n)]
    )
    # the nonzero constants of the pairs i < j, in (i, j, k) order
    upper = np.triu(np.ones((len(names),) * 2, dtype=bool), 1)
    i, j, k = np.nonzero(upper[..., None] & (c != 0))
    brackets = {}
    for x, y, z, v in zip(i.tolist(), j.tolist(), k.tolist(), c[i, j, k].tolist()):
        brackets.setdefault((x, y), {})[names[z]] = float(v)
    table = [{"x": names[x], "y": names[y], "bracket": b} for (x, y), b in brackets.items()]
    out = run.report_header()
    out["verification"] = {k: (list(v) if isinstance(v, tuple) else v) for k, v in report.items()}
    out["structure_constants"] = table
    _dump(out, run.out)
    return EXIT_OK if report["ok"] else EXIT_FAIL


def cmd_flatness(args):
    run = Run(args, need_pair=False)
    report = flatness_obstruction(_rational(args.K), _rational(args.K_hat),
                                  _rational(args.beta), n=args.n)
    out = run.report_header()
    with _reading("--K, --K-hat or --beta"):  # a value beyond the float range
        out["obstruction"] = report.to_json()
    _dump(out, run.out)
    return EXIT_OK


def _rational(text):
    """K, K_hat or beta as an exact rational; nan, inf or other text is an input error."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise GeometryError(f"not a finite rational number: {text!r}") from None


def _add_global_flags(parser, suppress=False):
    kw = {"default": argparse.SUPPRESS} if suppress else {"default": None}
    parser.add_argument("--config", help="run config JSON path", **kw)
    parser.add_argument("--seed", type=int, help="seed override", **kw)
    parser.add_argument("--tol", type=float, help="residual tolerance override", **kw)
    parser.add_argument("--out", help="output path", **kw)
    parser.add_argument("--format", choices=("json", "csv"), **kw)


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="rollsym",
        description="Rolling space forms: simulation, growth vectors, symmetry audits, "
        "nilpotent structure and flatness obstructions.",
    )
    _add_global_flags(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="roll along a driving path, emit the trajectory")
    _add_global_flags(p, suppress=True)
    p.add_argument("--path-spec", required=True,
                   help='JSON, e.g. {"type":"geodesic","direction":[...],"length":3.14}')
    p.add_argument("--step", type=float, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("growth", help="flag ranks of the rolling distribution")
    _add_global_flags(p, suppress=True)
    p.add_argument("--depth", type=int, default=3)
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("symmetry-check", aliases=["audit"], help="residual sweep for a candidate")
    _add_global_flags(p, suppress=True)
    p.add_argument("--candidate", required=True,
                   help='JSON, e.g. {"kind":"killing","generator":{"type":"rotation","plane":[0,1]}}')
    p.add_argument("--samples", type=int, default=20)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("killing", help="list the Killing catalog of the second factor")
    _add_global_flags(p, suppress=True)
    p.set_defaults(func=cmd_killing)

    p = sub.add_parser("rol", help="rolling-curvature operator at a state")
    _add_global_flags(p, suppress=True)
    p.set_defaults(func=cmd_rol)

    p = sub.add_parser("nilpotent", help="verify the graded algebra, emit structure constants")
    _add_global_flags(p, suppress=True)
    p.add_argument("--n", type=int, default=3,
                   help=f"algebra dimension, 2 <= n <= {NILPOTENT_MAX_N}")
    p.set_defaults(func=cmd_nilpotent)

    p = sub.add_parser("flatness", help="non-flatness obstruction arithmetic")
    _add_global_flags(p, suppress=True)
    p.add_argument("--K", required=True)
    p.add_argument("--K-hat", dest="K_hat", required=True)
    p.add_argument("--beta", default="1")
    p.add_argument("--n", type=int, default=3)
    p.set_defaults(func=cmd_flatness)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (GeometryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH if isinstance(exc, MismatchError) else EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
