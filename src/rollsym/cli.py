"""Command-line front end: reproducible simulation, rank analysis, symmetry
audits, algebra verification and report emission.

Every subcommand reads a JSON config describing the manifold pair, draws all
randomness from one recorded seed, honors a global tolerance override, and
writes deterministic reports: identical config and seed give byte-identical
output.  Exit codes partition the failure classes: 2 config or input
parsing, 3 integration left the coordinate domain, 4 ambiguous rank gap,
5 candidate/manifold mismatch, 1 residual or verdict failure.  Input is
validated where it is read: a malformed config, flag or JSON argument exits
2 with a message, never with a traceback.  Each cmd_* imports the modules it
runs when it runs, so that a process loads, and without a bytecode cache
compiles, only those.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import sys
import warnings
from fractions import Fraction

import numpy as np

from .errors import DomainError, GeometryError, MismatchError, integral, keyed, real, reals, tagged
from .numerics import DEFAULT_STEP, RANK_TOL, cut_margin

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
# a path direction whose tangent part is at most this share of it is normal: the empty path
NORMAL_DIRECTION = 1e-12
TOLERANCE_DEFAULTS = {"residual": 1e-6, "rank": RANK_TOL, "step": DEFAULT_STEP, "isometry": 1e-7}


def _plain(value):
    """A result as JSON data, the one rule of every report: a float inf is null,
    an array, list or tuple a list, a state its {x, x_hat, A} (as initial_state
    reads it), a Fraction its {num, den, value}, a dataclass a dict of its fields."""
    if isinstance(value, float):  # the common cases first: no walk per array entry
        return None if math.isinf(value) else value
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    # no state exists before its module is loaded, and a report without one need not load it
    rolling = sys.modules.get(f"{__package__}.rolling")
    if rolling is not None and isinstance(value, rolling.RollingState):
        return {"x": value.x.tolist(), "x_hat": value.x_hat.tolist(), "A": value.isometry.tolist()}
    if isinstance(value, Fraction):  # float() raises OverflowError past the float range
        return {"num": value.numerator, "den": value.denominator, "value": float(value)}
    if dataclasses.is_dataclass(value):
        value = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


def _dump(obj, out_path):
    """Write the report to out_path or stdout; return the stream for a status line after it."""
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
        return sys.stdout
    sys.stdout.write(text)
    return sys.stderr


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
            keyed(self.config, "config",
                  ("manifold_pair", "seed", "initial_state", "tolerances", "output"))
            self.seed = (args.seed if args.seed is not None
                         else integral(self.config.get("seed", 0), "seed"))
            tol_block = keyed(self.config.get("tolerances", {}), "tolerances",
                              tuple(TOLERANCE_DEFAULTS))
            override = {} if args.tol is None else {"residual": args.tol}
            self.tolerances = {k: _positive(real(v, f"tolerance {k}"), f"tolerance {k}")
                               for k, v in {**TOLERANCE_DEFAULTS, **tol_block, **override}.items()}
            output = keyed(self.config.get("output", {}), "output", ("path", "format"))
            if not (isinstance(output.get("path") or "", str)
                    and output.get("format") in (None, "json", "csv")):
                raise GeometryError("output must be an object with a path string and a "
                                    "format json or csv")
            self.out = args.out or output.get("path")
            self.format = args.format or output.get("format")
            self.pair = None
            if need_pair:
                from .rolling import RollingPair
                from .spaces import from_spec

                pair_spec = self.config.get("manifold_pair")
                if not pair_spec or len(pair_spec) != 2:
                    raise GeometryError("config must hold a two-element manifold_pair")
                self.pair = RollingPair(from_spec(pair_spec[0]), from_spec(pair_spec[1]))
        if self.seed < 0:
            raise GeometryError(f"seed must be a non-negative integer, got {self.seed}")

    def rng(self):
        return np.random.default_rng(self.seed)

    def initial_state(self, rng):
        if "initial_state" not in self.config:
            return self.pair.random_state(rng)
        with _reading("initial_state"):
            data = keyed(self.config["initial_state"], "initial_state", ("x", "x_hat", "A"))
            q = self.pair.state(*(reals(data[key], f"state {key}") for key in ("x", "x_hat", "A")))
        if q.shape:
            raise GeometryError(f"a state holds one contact map, got a stack of shape {q.shape}")
        return q

    def report_header(self):
        return {"seed": self.seed, "tolerances": self.tolerances}


def _parse_path(pair, q0, spec):
    from .spaces import GeodesicPath, SampledPath

    if tagged(spec, "path spec", "type", {"geodesic": ("type", "direction", "length"),
                                          "samples": ("type", "file")}) == "geodesic":
        direction = reals(spec["direction"], "path direction")
        if direction.shape != q0.x.shape or not np.isfinite(direction).all():
            raise GeometryError(f"path direction must hold {q0.x.size} finite numbers")
        # an exact power-of-two scaling brings the largest entry into [0.5, 1),
        # so that the norm neither overflows nor underflows
        direction = np.ldexp(direction, -np.frexp(np.abs(direction).max())[1])
        tangent = pair.space.project(q0.x, direction)
        length = real(spec.get("length", 1.0), "path length")
        if not 0.0 <= length < math.inf:  # NaN fails both
            raise GeometryError(f"path length must be finite and non-negative, got {length!r}")
        nrm2 = pair.space.inner_at(q0.x, tangent, tangent)
        # a normal direction leaves a round-off tangent part, whose Minkowski square may be < 0
        if length == 0.0 or not nrm2 > (NORMAL_DIRECTION * np.linalg.norm(direction)) ** 2:
            return GeodesicPath(pair.space, q0.x, np.zeros_like(tangent), 0.0)  # no step
        return GeodesicPath(pair.space, q0.x, tangent / np.sqrt(nrm2), length)
    with warnings.catch_warnings():
        # an empty file is SampledPath's "fewer than 2 samples" error, not a warning
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        data = np.loadtxt(spec["file"], delimiter=",", ndmin=2)
    return SampledPath(pair.space, data[:, 0], data[:, 1:])


def cmd_simulate(args):
    from .rolling import roll_along
    from .spaces import GeodesicPath

    run = Run(args)
    rng = run.rng()
    q0 = run.initial_state(rng)
    step = _positive(args.step, "--step") if args.step is not None else run.tolerances["step"]
    with _reading("--path-spec"):
        path = _parse_path(run.pair, q0, json.loads(args.path_spec))
    # a geodesic rolls on a grid of the step; a samples path's rows are its samples
    if isinstance(path, GeodesicPath) and path.t_max / step > MAX_GRID_INTERVALS:
        raise GeometryError(f"--step {step:g} over a path span of {path.t_max:g} would take "
                            f"more than {MAX_GRID_INTERVALS} grid intervals")
    curve = roll_along(q0, path, step=step)
    residual = float(curve.residuals.max())
    status = sys.stdout
    if run.format != "json":  # the trajectory CSV schema is the default
        curve.write_csv(run.out or "trajectory.csv")
    else:
        report = run.report_header()
        report["trajectory"] = [
            {"t": t, "x": x, "x_hat": x_hat, "A": a, "isometry_residual": res}
            for t, x, x_hat, a, res in zip(*_plain((curve.times, curve.x, curve.x_hat, curve.A,
                                                    curve.residuals)))
        ]
        report["max_isometry_residual"] = residual
        status = _dump(report, run.out)
    print(f"max isometry residual: {residual:.6e}", file=status)
    return EXIT_OK if residual < run.tolerances["isometry"] else EXIT_FAIL


def cmd_growth(args):
    from .brackets import curvature_mismatch, flag_ranks
    from .nilpotent import growth_vector
    from .rolling import q_dim

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
    out.update(_plain({"flag": {**vars(report), "dim_state_space": q_dim(n)}, "kappa": kappa,
                       "predicted_growth": predicted}))
    if kappa == 0.0:
        out["note"] = "kappa=0"
    ambiguous = any(cut_margin(sv, run.tolerances["rank"]) < GAP_REQUIREMENT
                    for sv in report.singular_values)
    out["rank_cut_ambiguous"] = ambiguous
    _dump(out, run.out)
    if ambiguous:
        return EXIT_RANK_GAP
    return EXIT_OK if report.ranks == predicted else EXIT_FAIL


def _field_from_spec(manifold, gen_spec):
    from .symmetry import killing_catalog

    catalog = killing_catalog(manifold)
    kind = tagged(gen_spec, "generator", "type", {"rotation": ("type", "plane"),
                  **dict.fromkeys(("translation", "boost"), ("type", "axis"))})
    if kind == "rotation":
        i, j = sorted(integral(k, "generator plane index") for k in gen_spec["plane"])
        name = f"rotation-{i}{j}"
    else:
        name = f"{kind}-{integral(gen_spec['axis'], 'generator axis')}"
    if name in catalog.names:
        return catalog[catalog.names.index(name)]
    raise MismatchError(f"generator {name} does not exist on {manifold.kind}{manifold.dim}")


def cmd_audit(args):
    from .brackets import kept_at
    from .symmetry import (killing_catalog, killing_to_symmetry, perturb_candidate,
                           sym0_dimension_probe, symmetry_residual,
                           vertical_compatibility_residual)

    run = Run(args)
    if not 1 <= args.samples <= MAX_AUDIT_SAMPLES:
        raise GeometryError(f"--samples must be at least 1 and at most {MAX_AUDIT_SAMPLES}, "
                            f"got {args.samples}")
    rng = run.rng()
    pair = run.pair
    tol = run.tolerances["residual"]
    with _reading("--candidate"):
        cand_spec = json.loads(args.candidate)
        if tagged(cand_spec, "candidate", "kind", {"catalog": ("kind", "perturb"),
                  "killing": ("kind", "generator", "perturb")}) == "catalog":
            fields = killing_catalog(pair.space_hat)
        else:
            fields = _field_from_spec(pair.space_hat, cand_spec.get("generator", {}))
        eps = real(cand_spec.get("perturb", 0.0), "perturb")
    if not math.isfinite(eps):
        raise GeometryError(f"perturb must be finite, got {eps!r}")
    cands = perturb_candidate(pair, fields, eps, rng) if eps else killing_to_symmetry(pair, fields)

    # one seeded draw: all states as one stack, checked before all X, then
    # all Y, are drawn at them; each checker takes the whole stack at once,
    # and the candidates' rows on it are evaluated once, for the bracket and
    # for the dimension probe, which ranks those of the first sample
    qs = pair.state(*pair.draw(rng, (args.samples,)))
    Xs = pair.space.random_tangent(rng, qs.x, unit=True)
    Ys = pair.space.random_tangent(rng, qs.x, unit=True)
    with np.errstate(over="ignore", invalid="ignore"):  # the checkers refuse rows that overflow
        kept = kept_at(cands, qs)
    # one row of residuals per sample, one entry per candidate
    stats = dict(zip(("eq_drift", "eq_curvature"), symmetry_residual(kept, qs, Xs)))
    stats["vertical"] = vertical_compatibility_residual(kept, qs, Xs, Ys)
    out = run.report_header()
    out["samples"] = args.samples
    out["candidates"] = cands.names
    out["residuals"] = {
        key: {"max": float(np.max(vals)), "mean": float(np.mean(vals.ravel()))}
        for key, vals in stats.items()
    }
    probe = sym0_dimension_probe(qs, kept, tol=run.tolerances["rank"])
    out["sym0_dimension"] = _plain(probe)
    status = _dump(out, run.out)
    failing = [k for k, v in out["residuals"].items() if not v["max"] < tol]
    if failing:
        print(f"residuals above tolerance {tol:g}: {', '.join(sorted(failing))}", file=status)
        return EXIT_FAIL
    return EXIT_OK


def cmd_killing(args):
    from .symmetry import killing_catalog

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
    from .curvature import operator_invertible, rolling_curvature_operator

    run = Run(args)
    rng = run.rng()
    q0 = run.initial_state(rng)
    op = rolling_curvature_operator(q0)
    verdict, cond, sv = operator_invertible(op, tol=run.tolerances["rank"])
    out = run.report_header()
    out.update(_plain({"state": q0, "operator": op, "singular_values": sv, "invertible": verdict,
                       "condition_number": cond}))
    _dump(out, run.out)
    return EXIT_OK


def cmd_nilpotent(args):
    from .curvature import so_pairs
    from .nilpotent import structure_tensor, verify_structure

    run = Run(args, need_pair=False)
    n = args.n
    if not 2 <= n <= NILPOTENT_MAX_N:
        raise GeometryError(f"--n must lie in [2, {NILPOTENT_MAX_N}]")
    c = structure_tensor(n)
    report = verify_structure(n, c)
    names = ([f"N{i}" for i in range(n)] + [f"B{i}{j}" for i, j in so_pairs(n)]
             + [f"Z{i}" for i in range(n)])
    # the nonzero constants of the pairs i < j, in (i, j, k) order
    i, j, k = np.nonzero(c)
    i, j, k = i[i < j], j[i < j], k[i < j]
    brackets = {}
    for x, y, z, v in zip(i.tolist(), j.tolist(), k.tolist(), c[i, j, k].tolist()):
        brackets.setdefault((x, y), {})[names[z]] = float(v)
    table = [{"x": names[x], "y": names[y], "bracket": b} for (x, y), b in brackets.items()]
    out = run.report_header()
    out["verification"] = report
    out["structure_constants"] = table
    _dump(out, run.out)
    return EXIT_OK if report["ok"] else EXIT_FAIL


def cmd_flatness(args):
    from .nilpotent import flatness_obstruction

    run = Run(args, need_pair=False)
    report = flatness_obstruction(_rational(args.K), _rational(args.K_hat),
                                  _rational(args.beta), n=args.n)
    out = run.report_header()
    with _reading("--K, --K-hat or --beta"):  # a value beyond the float range
        out["obstruction"] = _plain(report)
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

    def command(name, func, help, **kw):  # a subcommand also takes the global flags
        p = sub.add_parser(name, help=help, **kw)
        _add_global_flags(p, suppress=True)
        p.set_defaults(func=func)
        return p

    p = command("simulate", cmd_simulate, "roll along a driving path, emit the trajectory")
    p.add_argument("--path-spec", required=True,
                   help='JSON, e.g. {"type":"geodesic","direction":[...],"length":3.14}')
    p.add_argument("--step", type=float, default=None)

    p = command("growth", cmd_growth, "flag ranks of the rolling distribution")
    p.add_argument("--depth", type=int, default=3)

    p = command("symmetry-check", cmd_audit, "residual sweep for a candidate", aliases=["audit"])
    p.add_argument("--candidate", required=True,
                   help='JSON, e.g. {"kind":"killing","generator":{"type":"rotation","plane":[0,1]}}')
    p.add_argument("--samples", type=int, default=20)

    command("killing", cmd_killing, "list the Killing catalog of the second factor")
    command("rol", cmd_rol, "rolling-curvature operator at a state")

    p = command("nilpotent", cmd_nilpotent, "verify the graded algebra, emit structure constants")
    p.add_argument("--n", type=int, default=3,
                   help=f"algebra dimension, 2 <= n <= {NILPOTENT_MAX_N}")

    p = command("flatness", cmd_flatness, "non-flatness obstruction arithmetic")
    p.add_argument("--K", required=True)
    p.add_argument("--K-hat", dest="K_hat", required=True)
    p.add_argument("--beta", default="1")
    p.add_argument("--n", type=int, default=3)

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
