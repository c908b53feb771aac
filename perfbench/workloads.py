"""Seeded inputs for the benchmark workloads.

Every workload is a list of rounds; a round holds one balanced share of the
workload's mix, so any whole number of rounds has the same composition.
All randomness comes from ``numpy.random.default_rng([seed, workload])``:
the same seed gives the same config files and argv lists.  The program
sees only these generated inputs; each op passes its own ``--seed`` so the
program draws its states from it.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

STEP = 1e-3
GAP_MIN = 1e4

def _sphere(dim, radius):
    return {"kind": "sphere", "dim": dim, "radius": radius}


def _hyperbolic(dim, radius):
    return {"kind": "hyperbolic", "dim": dim, "radius": radius}


def _euclidean(dim):
    return {"kind": "euclidean", "dim": dim}


WARPED_COS_S1 = {
    "kind": "warped",
    "interval": [-1.2, 1.2],
    "warp": {"name": "cos"},
    "fiber": _sphere(1, 1.0),
}

# label -> (first factor, second factor, ambient dimension of the first factor)
ROLL_PAIRS = {
    "S2(1)/S2(3)": (_sphere(2, 1.0), _sphere(2, 3.0), 3),
    "S2(1)/R2": (_sphere(2, 1.0), _euclidean(2), 3),
    "H2(1)/S2(1)": (_hyperbolic(2, 1.0), _sphere(2, 1.0), 3),
    "S3(1)/S3(2)": (_sphere(3, 1.0), _sphere(3, 2.0), 4),
}
ROLL_WARPED = ("(-1.2,1.2)xcos S1/S2(1)", WARPED_COS_S1, _sphere(2, 1.0), 3)
# criterion 3: rolling S^2 on the plane develops a geodesic into a line
CLOSED_FORM_PAIR = "S2(1)/R2"

GROWTH_PAIRS = {
    2: (_sphere(2, 1.0), _sphere(2, 3.0)),
    3: (_sphere(3, 1.0), _euclidean(3)),
    4: (_sphere(4, 1.0), _hyperbolic(4, 1.0)),
}
GROWTH_DEPTH = 3

AUDIT_PAIRS = {
    "S2(2)/S2(1)": (_sphere(2, 2.0), _sphere(2, 1.0)),
    "S2(2)/H2(1)": (_sphere(2, 2.0), _hyperbolic(2, 1.0)),
    "S2(2)/R2": (_sphere(2, 2.0), _euclidean(2)),
    "S3(2)/S3(1)": (_sphere(3, 2.0), _sphere(3, 1.0)),
}
AUDIT_SAMPLES = 20
AUDIT_PERTURB = 1e-3

NILPOTENT_NS = (4, 5, 6)

# Path lengths on the space-form pairs: half are round, as users type them
# (multiples of 0.25 up to pi), half are uniform on [0.25, pi].  Over a run,
# the lengths of either kind form a Latin-hypercube sample across all pairs
# that is also stratified per pair, so the run's total path length and the
# spread of its op times barely depend on the seed.
LEN_LO, LEN_HI = 0.25, math.pi
ROUND_LENGTHS = tuple(0.25 * k for k in range(1, 13))
# Warped paths are unit speed and at most 0.35 long: random warped states keep
# a 15% margin (0.36) of the interval (-1.2, 1.2), so they cannot leave it.
WARP_ROUND_LENGTH = 0.25
WARP_LO, WARP_HI = 0.1, 0.35
WARMUP_LENGTH = 0.05

# Time of one round at the parent commit, corrected to the reference host of
# hostspeed.py.  A run executes round(seconds / NOMINAL) rounds, so one
# --seconds gives the same fixed op list on every commit.
NOMINAL_ROUND_S = {"roll": 5.0, "growth": 0.85, "audit": 1.0, "nilpotent": 3.6}
# The traced run executes its op list twice (untraced, then traced), so it
# gets a third of the rounds, which leaves room for the tracing overhead.
TRACE_SHARE = 3.0
TINY_SCALE = 1.0 / 16.0

WORKLOADS = ("roll", "growth", "audit", "nilpotent")


@dataclass
class Op:
    """One ``rollsym.cli.main(argv)`` call and how to judge its result."""

    label: str
    argv: list
    out: Path
    expect: int
    check: str
    params: dict = field(default_factory=dict)


@dataclass
class Workload:
    configs: dict
    warmup: list
    rounds: list
    # exit codes that state a verdict about the input; any other code is an
    # error exit, counted as a failed op but not as a wrong answer
    verdict_codes: tuple = (0,)

    def ops(self):
        return [op for rnd in self.rounds for op in rnd]

    def digest(self, work: Path) -> str:
        """Hash of the generated configs and argv lists, independent of the
        directory they were written to."""
        blob = json.dumps(
            {"configs": self.configs, "warmup": [op.argv for op in self.warmup],
             "ops": [op.argv for op in self.ops()]},
            sort_keys=True,
        ).replace(str(work), "<work>")
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def rounds_for(name, seconds, trace=False, tiny=False):
    if tiny:
        return 1
    nominal = NOMINAL_ROUND_S[name] * (TRACE_SHARE if trace else 1.0)
    return max(1, round(seconds / nominal))


def build(name, seed, n_rounds, work: Path, tiny=False) -> Workload:
    """Generate the configs (written under ``work``) and the op list."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    make = {"roll": _roll, "growth": _growth, "audit": _audit, "nilpotent": _nilpotent}[name]
    wl = make(rng, n_rounds, work, tiny)
    for fname, text in wl.configs.items():
        (work / fname).write_text(text)
    return wl


def _config(pair):
    return json.dumps({"manifold_pair": list(pair), "seed": 0}, sort_keys=True) + "\n"


def _op_seed(rng):
    return str(int(rng.integers(0, 2**31 - 1)))


def _simulate(rng, work, label, cfg, amb, length):
    direction = rng.standard_normal(amb).tolist()
    spec = {"type": "geodesic", "direction": direction, "length": length}
    out = work / "trajectory.csv"
    argv = ["--config", str(work / cfg), "simulate", "--seed", _op_seed(rng),
            "--path-spec", json.dumps(spec), "--step", repr(STEP),
            "--out", str(out), "--format", "csv"]
    params = {"length": length, "grid": max(1, math.ceil(length / STEP)),
              "direction": direction, "closed_form": label == CLOSED_FORM_PAIR}
    return Op(label, argv, out, 0, "roll", params)


def _latin(rng, n_pairs, n_rounds, draw):
    """Lengths[pair][round]: a Latin-hypercube sample over n_pairs * n_rounds
    strata in which each pair also gets one stratum from each of n_rounds
    consecutive blocks.  ``draw(k, n)`` returns a value from stratum k of n."""
    n = n_pairs * n_rounds
    rows = [[0.0] * n_rounds for _ in range(n_pairs)]
    for block in range(n_rounds):
        for j, pair in enumerate(rng.permutation(n_pairs)):
            rows[pair][block] = draw(block * n_pairs + j, n)
    return [[row[i] for i in rng.permutation(n_rounds)] for row in rows]


def _uniform_draw(rng, lo, hi):
    return lambda k, n: float(lo + (k + rng.uniform()) * (hi - lo) / n)


def _round_draw(rng):
    """Stratum k of n of ROUND_LENGTHS is a block of consecutive values (a
    single value once the strata outnumber them)."""
    m = len(ROUND_LENGTHS)

    def draw(k, n):
        lo = k * m // n
        return ROUND_LENGTHS[int(rng.integers(lo, max(lo + 1, (k + 1) * m // n)))]

    return draw


def _roll(rng, n_rounds, work, tiny):
    scale = TINY_SCALE if tiny else 1.0
    warped = ROLL_WARPED[0]
    pairs = dict(ROLL_PAIRS)
    pairs[warped] = ROLL_WARPED[1:]
    cfg = {label: f"roll{k}.json" for k, label in enumerate(pairs)}
    configs = {cfg[label]: _config(pair[:2]) for label, pair in pairs.items()}

    warmup = [_simulate(rng, work, lb, cfg[lb], pairs[lb][2], WARMUP_LENGTH) for lb in pairs]
    n_space = len(ROLL_PAIRS)
    round_len = _latin(rng, n_space, n_rounds, _round_draw(rng))
    uniform_len = _latin(rng, n_space, n_rounds, _uniform_draw(rng, LEN_LO, LEN_HI))
    plan = {lb: (round_len[k], uniform_len[k]) for k, lb in enumerate(ROLL_PAIRS)}
    plan[warped] = ([WARP_ROUND_LENGTH] * n_rounds,
                    _latin(rng, 1, n_rounds, _uniform_draw(rng, WARP_LO, WARP_HI))[0])
    rounds = []
    for r in range(n_rounds):
        ops = [_simulate(rng, work, lb, cfg[lb], pairs[lb][2], lengths[r] * scale)
               for lb, both in plan.items() for lengths in both]
        rounds.append([ops[i] for i in rng.permutation(len(ops))])
    return Workload(configs, warmup, rounds)


def _growth_ranks(n):
    return [n, n * (n + 1) // 2, 2 * n + n * (n - 1) // 2]


def _growth_op(rng, work, n, depth):
    out = work / "growth.json"
    argv = ["--config", str(work / f"growth{n}.json"), "growth", "--seed", _op_seed(rng),
            "--depth", str(depth), "--out", str(out)]
    return Op(f"n={n}", argv, out, 0, "growth",
              {"n": n, "ranks": _growth_ranks(n)[:depth], "gap_min": GAP_MIN})


def _growth(rng, n_rounds, work, tiny):
    configs = {f"growth{n}.json": _config(pair) for n, pair in GROWTH_PAIRS.items()}
    warmup = [_growth_op(rng, work, n, 2) for n in GROWTH_PAIRS]
    rounds = []
    for _ in range(n_rounds):
        ns = [list(GROWTH_PAIRS)[i] for i in rng.permutation(len(GROWTH_PAIRS))]
        rounds.append([_growth_op(rng, work, n, GROWTH_DEPTH) for n in ns])
    return Workload(configs, warmup, rounds)


def _audit_op(rng, work, k, label, samples, perturb):
    out = work / "audit.json"
    cand = {"kind": "catalog"}
    if perturb:
        cand["perturb"] = AUDIT_PERTURB
    argv = ["--config", str(work / f"audit{k}.json"), "symmetry-check", "--seed", _op_seed(rng),
            "--candidate", json.dumps(cand), "--samples", str(samples), "--out", str(out)]
    return Op(label + (" perturbed" if perturb else ""), argv, out, 1 if perturb else 0,
              "audit", {"perturbed": perturb, "samples": samples, "tol": 1e-6})


def _audit(rng, n_rounds, work, tiny):
    labels = list(AUDIT_PAIRS)
    configs = {f"audit{k}.json": _config(AUDIT_PAIRS[lb]) for k, lb in enumerate(labels)}
    samples = 2 if tiny else AUDIT_SAMPLES
    warmup = [_audit_op(rng, work, k, lb, 2, False) for k, lb in enumerate(labels)]
    # one op per pair in each round; the perturbed quarter rotates over pairs
    offset = int(rng.integers(len(labels)))
    rounds = []
    for r in range(n_rounds):
        bad = (r + offset) % len(labels)
        ops = [_audit_op(rng, work, k, lb, samples, k == bad) for k, lb in enumerate(labels)]
        rounds.append([ops[i] for i in rng.permutation(len(ops))])
    return Workload(configs, warmup, rounds, verdict_codes=(0, 1))


def _nilpotent_op(work, n):
    out = work / "nilpotent.json"
    argv = ["nilpotent", "--n", str(n), "--out", str(out)]
    return Op(f"n={n}", argv, out, 0, "nilpotent", {"n": n})


def _nilpotent(rng, n_rounds, work, tiny):
    ns = (2, 3) if tiny else NILPOTENT_NS
    rounds = [[_nilpotent_op(work, ns[i]) for i in rng.permutation(len(ns))]
              for _ in range(n_rounds)]
    return Workload({}, [_nilpotent_op(work, 3)], rounds)
