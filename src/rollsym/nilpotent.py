"""Graded nilpotent approximation of the rolling distribution and the
non-flatness obstruction arithmetic.

The approximation is the step-3 graded Lie algebra R^n + so(n) + R^n with
brackets

    [(a,0,0), (a',0,0)] = (0, a ^ a', 0)
    [(a,0,0), (0,B,0)]  = (0, 0, -B a)
    [layer 3, anything] = 0,     [layer 2, layer 2] = 0 (step-3 grading)

realized here on integer coordinate arrays: the structure constants are
integers, so structure checks are certificates, not approximations.
Rationals enter only the obstruction arithmetic, floating point only where
actual manifolds do.

The obstruction arithmetic encodes the terminal computation of the
non-flatness argument for constant-curvature pairs: a hypothetical flat
frame forces an orthogonal frame of common squared norm beta > 0 whose
fiber derivatives produce the quantities (beta K / kappa)^2 and the
mirrored (beta K_hat / kappa)^2; any nonzero value contradicts flatness,
and K != K_hat makes at least one nonzero.  In dimension two the argument
is void (the 1:3 sphere pair really is flat), so the verdict is forced to
inconclusive there.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .curvature import so_dim, vector_to_skew
from .spaces import GeometryError


class GradedVector:
    """Elements of the graded algebra, stacked along leading axes: one array
    (..., d) of integer coordinates in the graded basis, d = 2n + n(n-1)/2.
    The layers are views of it: a (layer 1), b (the layer-2 skew matrix as
    its strictly upper triangular coefficients in lexicographic order) and c
    (layer 3).  Indexing selects along the leading axes.  int64 products
    wrap on overflow; an object array of Python integers brackets at any
    size."""

    def __init__(self, coords):
        self.coords = np.asarray(coords)
        d = self.coords.shape[-1]
        self.n = (math.isqrt(9 + 8 * d) - 3) // 2
        if self.n < 1 or self.n * (self.n + 3) != 2 * d:
            raise GeometryError(f"{d} coordinates do not make a graded vector")

    @property
    def a(self):
        return self.coords[..., : self.n]

    @property
    def b(self):
        return self.coords[..., self.n : -self.n]

    @property
    def c(self):
        return self.coords[..., -self.n :]

    def __getitem__(self, index):
        return GradedVector(self.coords[index])

    def is_zero(self):
        return not self.coords.any()


def nil_bracket(u: GradedVector, v: GradedVector) -> GradedVector:
    """Bracket of the graded algebra, for two stacks of vectors whose leading
    axes broadcast: bilinear, antisymmetric and exact on integers; layers
    combine as 1+1 -> 2, 1+2 -> 3, all else 0."""
    if u.n != v.n:
        raise GeometryError("graded vectors have different dimensions")
    i, j = np.triu_indices(u.n, 1)
    b = u.a[..., i] * v.a[..., j] - u.a[..., j] * v.a[..., i]
    # [a, B'] = -B'a and [B, a'] = +B a'
    skew_u, skew_v = vector_to_skew(u.b, u.n), vector_to_skew(v.b, u.n)
    c = (skew_u @ v.a[..., None] - skew_v @ u.a[..., None])[..., 0]
    return GradedVector(np.concatenate((np.zeros_like(c), b, c), axis=-1))


def basis(n):
    """The graded basis as one stack of int64 rows: layer-1 generators,
    layer-2 planes (lexicographic), layer-3 tails."""
    return GradedVector(np.eye(2 * n + so_dim(n), dtype=np.int64))


def graded_dims(n):
    """Layer dimensions (n, n(n-1)/2, n); cumulative sums give the growth
    vector (n, n(n+1)/2, 2n + n(n-1)/2)."""
    if n < 2:
        raise GeometryError("graded dimensions need n >= 2")
    return (n, so_dim(n), n)


def growth_vector(n):
    d1, d2, d3 = graded_dims(n)
    return (d1, d1 + d2, d1 + d2 + d3)


def structure_tensor(n):
    """Structure constants of the graded basis: c[i, j, k] is the coefficient
    of basis element k in [basis i, basis j], from one nil_bracket of the
    basis stack against itself, so checks on c certify nil_bracket itself.
    Raises unless every coefficient is an integer with d^2 |c|^3 < 2^53:
    verify_structure's partial sums (at most d^2 products of three) then
    stay exact in float64."""
    bas = basis(n)
    c = nil_bracket(bas[:, None], bas[None, :]).coords
    ints = c.astype(np.int64)
    if not np.array_equal(ints, c):
        raise GeometryError("structure constants must be integers")
    if len(c) ** 2 * int(np.abs(ints).max()) ** 3 >= 2**53:
        raise GeometryError("structure constants too large for exact contraction")
    return ints


def verify_structure(n, c=None) -> dict:
    """Exhaustive exact verification of the graded algebra for a given n:
    the triple-bracket identity on generators, the Jacobi identity over all
    basis triples, vanishing of all four-fold brackets (step-3 nilpotency),
    the grading of the bracket, and the layer dimensions.

    All checks contract the structure tensor c (structure_tensor(n) unless
    given), one basis element x at a time so that no temporary exceeds d^3
    entries.  They run in float64, exact because every partial sum is an
    integer below 2^53."""
    if n < 2:
        raise GeometryError("structure verification needs n >= 2")
    if c is None:
        c = structure_tensor(n)
    d = c.shape[0]
    m = so_dim(n)
    deg = np.repeat([1, 2, 3], [n, m, n])
    grading_ok = not c[deg[:, None, None] + deg[None, :, None] != deg[None, None, :]].any()

    jacobi_failures = 0
    gens = np.empty((n, n, n, d))  # gens[i, j, k] = [N_i, [N_j, N_k]]
    triples = set()
    cf = c.astype(np.float64)
    pairs = cf.reshape(d * d, d)  # pairs[(y, z), l] = c[y, z, l]
    inner = cf.transpose(1, 0, 2).reshape(d, d * d)  # inner[l, (w, m)] = c[w, l, m]
    xyz, tmp = np.empty((d * d, d)), np.empty((d, d * d))
    for x in range(d):
        # [x,[y,z]], then [y,[z,x]] and [z,[x,y]] added, all indexed [y, z, :]
        np.matmul(pairs, cf[x], out=xyz)
        triples.update(map(tuple, xyz[xyz.any(axis=1)].tolist()))
        jac = xyz.reshape(d, d, d)
        if x < n:
            gens[x] = jac[:n, :n]
        jac += np.matmul(cf[:, x], inner, out=tmp).reshape(d, d, d).transpose(1, 0, 2)
        jac += np.matmul(cf[x], inner, out=tmp).reshape(d, d, d)
        jacobi_failures += int(jac.any(axis=2).sum())

    # [N_i, [N_j, N_k]] = -delta_ik Z_j + delta_ij Z_k
    i, j = np.ogrid[:n, :n]
    want = np.zeros_like(gens)
    want[i, j, i, n + m + j] -= 1
    want[i, i, j, n + m + j] += 1
    triple_failures = int((gens != want).any(axis=3).sum())

    # step-3 nilpotency: [x, t] = 0 for every distinct nonzero triple bracket t
    triples = np.array(list(triples)).reshape(-1, d)
    step3_failures = sum(int((triples @ cf[x]).any(axis=1).sum()) for x in range(d))

    # layer dimensions as generated, not as declared: the spans of the
    # first brackets and of the triple brackets must have the full ranks
    layer2_rank = _exact_rank(c[:n, :n, n:n + m].reshape(n * n, m))
    layer3_rank = _exact_rank(gens[..., n + m:].reshape(n**3, n).astype(np.int64))
    dims_ok = (layer2_rank, layer3_rank) == (m, n)
    return {
        "n": n,
        "dims": (n, layer2_rank, layer3_rank),
        "growth": growth_vector(n),
        "triple_identity_failures": triple_failures,
        "jacobi_failures": jacobi_failures,
        "step3_failures": step3_failures,
        "dims_ok": dims_ok,
        "ok": triple_failures == 0
        and jacobi_failures == 0
        and step3_failures == 0
        and dims_ok
        and grading_ok,
    }


def _exact_rank(mat):
    """Rank of an integer matrix by fraction-free (Bareiss) elimination on
    Python integers: after each pivot every remaining entry is a minor of
    the matrix, so each division by the previous pivot is exact."""
    a = np.array(mat, dtype=object)
    a = a[(a != 0).any(axis=1)]
    rank, prev = 0, 1
    for col in range(a.shape[1]):
        rows = np.flatnonzero(a[rank:, col] != 0)
        if not len(rows):
            continue
        a[[rank, rank + rows[0]]] = a[[rank + rows[0], rank]]
        pivot = a[rank, col]
        a[rank + 1:] = (pivot * a[rank + 1:] - a[rank + 1:, col:col + 1] * a[rank]) // prev
        rank, prev = rank + 1, pivot
    return rank


# -- non-flatness obstruction ---------------------------------------------------------


@dataclass
class ObstructionReport:
    """Result of the terminal obstruction arithmetic.

    kappa follows the convention -K + K_hat; it only enters the
    obstructions squared, so its sign never affects the verdict.
    verdict is 'not_flat' when either obstruction is positive (n >= 3)
    and 'inconclusive' for n = 2, where flat pairs genuinely exist.
    """

    K: object
    K_hat: object
    beta: object
    n: int
    kappa: object
    obstruction_M: object
    obstruction_M_hat: object
    verdict: str

    def to_json(self):
        def num(x):
            if isinstance(x, Fraction):
                return {"num": x.numerator, "den": x.denominator, "value": float(x)}
            return x

        return {
            "K": num(self.K),
            "K_hat": num(self.K_hat),
            "beta": num(self.beta),
            "n": self.n,
            "kappa": num(self.kappa),
            "obstruction_M": num(self.obstruction_M),
            "obstruction_M_hat": num(self.obstruction_M_hat),
            "verdict": self.verdict,
        }


def flatness_obstruction(K, K_hat, beta, n=3) -> ObstructionReport:
    """Obstruction quotients (beta K / kappa)^2 and (beta K_hat / kappa)^2
    of the hypothetical flat frame, with exact rational arithmetic whenever
    the inputs are rational.

    Raises on kappa = 0 (the mismatch hypothesis is a precondition, not a
    verdict) and on beta <= 0.
    """
    K, K_hat, beta = (Fraction(v) if isinstance(v, str) else v for v in (K, K_hat, beta))
    if all(isinstance(v, (int, Fraction)) for v in (K, K_hat, beta)):
        K, K_hat, beta = Fraction(K), Fraction(K_hat), Fraction(beta)
    if isinstance(K, numbers.Real) and isinstance(K_hat, numbers.Real):
        kappa = -K + K_hat
    else:
        raise GeometryError("curvatures must be real scalars")
    if kappa == 0:
        raise GeometryError("equal curvatures: the obstruction needs K != K_hat")
    if not beta > 0:
        raise GeometryError("beta must be positive")
    if n < 2:
        raise GeometryError("dimension must be at least 2")
    obs_m = (beta * K / kappa) ** 2
    obs_mh = (beta * K_hat / kappa) ** 2
    if n == 2:
        verdict = "inconclusive"
    else:
        verdict = "not_flat" if max(obs_m, obs_mh) > 0 else "inconclusive"
    return ObstructionReport(K, K_hat, beta, n, kappa, obs_m, obs_mh, verdict)
