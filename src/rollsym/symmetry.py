"""Infinitesimal symmetries of the rolling distribution.

A symmetry candidate is a vector field (Z, Z_hat, U_bar) on the state space:
a drift on each factor plus a vertical part U_bar = A C with C skew, subject
to two first-order equations that characterize when the field preserves the
rolling distribution:

    U_bar(q) X = -A D_X Z + D_X Z_hat                      (drift equation)
    D_X U_bar  = -A R(X ^ Z) + R_hat(AX ^ Z_hat) A         (curvature equation)

with D_X the derivative along rolling curves.  A candidate is one closure
that maps a state to the tangent rows of a stack of fields, one row per
candidate (SymmetryCandidate): the frame coordinates of Z and Z_hat, then the
so(n) coordinates of C, as every tangent vector of the state space is held
(see rolling).  A vertical part that is not skew cannot be written, and the
residuals always use these general equations.  Candidates with Z = 0 form
the base-fixing class; every Killing field of the second factor induces one
through Z_hat(q) = K_hat at the contact point and C = A^T (nabla K_hat) A,
and the rows (Z_hat(q0), C(q0)) of such candidates span at most n(n+1)/2
dimensions.

All residual checkers evaluate candidates through finite-difference
stencils, so user-supplied closures are tested against the actual
definitions rather than against their own derivative formulas.  Killing
fields and candidates come in stacks, and a checker takes a whole stack of
samples (a stacked RollingState): it builds the stencil states of every
sample in one canonical-curve call, evaluates the whole stack of candidates
on them in one call of the closure and returns one residual per sample and
candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .curvature import (curvature_term, rolling_curvature, skew_part, skew_to_vector, so_dim,
                        so_pairs, vector_to_skew, wedge_matrix)
from .numerics import numerical_rank
from .rolling import (
    FD_STEP_FIBER,
    RollingPair,
    RollingState,
    directional_derivative,
    expm,
    rolling_lift,
    row_data,
    tangent_curve,
)
from .spaces import (ConstantCurvature, Euclidean, GeometryError, Hyperbolic, MismatchError,
                     SpaceForm, Sphere)


# -- Killing fields of the catalog manifolds -----------------------------------


class KillingField:
    """A stack of k Killing fields of a constant-curvature catalog manifold,
    each given by a linear generator of the ambient isometry group plus a
    constant translation part: generators (k, amb, amb), translations (k, amb)
    and one name per field.

    For spheres the generator is skew, for hyperbolic spaces it is skew with
    respect to the Minkowski form, and for Euclidean spaces a field is a
    skew matrix or a translation.  The covariant differential is the
    tangential compression of the generator and is skew at every point; its
    second covariant derivative reproduces the curvature term R(X ^ K), which
    is what makes the induced symmetry candidate close.  Indexing returns a
    sub-stack (an integer gives a stack of one), so iteration yields the
    stacks of one in order.
    """

    def __init__(self, manifold: SpaceForm, generators, translations, names):
        self.manifold = manifold
        self.generators = np.asarray(generators, float)
        self.translations = np.asarray(translations, float)
        self.names = list(names)

    def __len__(self):
        return len(self.names)

    def __getitem__(self, index):
        rows = np.atleast_1d(np.arange(len(self))[index])
        return KillingField(self.manifold, self.generators[rows], self.translations[rows],
                            [self.names[i] for i in rows])

    def value(self, x):
        """The fields at the points x (..., amb), a (..., k, amb) array."""
        x = np.asarray(x, float)[..., None, :]  # against the fields
        images = (self.generators @ x[..., None])[..., 0]
        return self.manifold.project(x, images + self.translations)

    def nabla_matrix(self, x, frame):
        """Matrices of the covariant differentials in the deterministic frames
        at the points x (..., amb), a (..., k, n, n) array: entry (i, j) is
        <E_i, nabla_{E_j} K> = <E_i, P G E_j> for the generator G and the
        tangential projection P, which is <E_i, G E_j> since E_i is tangent:
        the matrix (E W) G E^T for the metric weights W."""
        weighted = frame * self.manifold.metric_weights(np.asarray(x, float))[..., None, :]
        return weighted[..., None, :, :] @ self.generators @ frame[..., None, :, :].mT


def killing_catalog(manifold: SpaceForm) -> KillingField:
    """The full Killing algebra of a constant-curvature catalog manifold, as
    one stack of exactly n(n+1)/2 fields."""
    if not isinstance(manifold, (Euclidean, Sphere, Hyperbolic)):
        raise MismatchError(
            "the Killing catalog covers constant-curvature manifolds only; "
            f"got kind {manifold.kind!r}"
        )
    n, amb = manifold.dim, manifold.amb_dim
    pairs = so_pairs(amb)
    shift = n if isinstance(manifold, Euclidean) else 0
    gens = np.zeros((shift + len(pairs), amb, amb))
    trans = np.zeros((shift + len(pairs), amb))
    names = []
    if shift:
        trans[:n] = np.eye(n)
        names = [f"translation-{k}" for k in range(n)]
    # ambient rotations, and on the hyperboloid boosts in the planes (0, j)
    for k, (i, j) in enumerate(pairs, start=shift):
        boost = isinstance(manifold, Hyperbolic) and i == 0
        gens[k, i, j] = 1.0 if boost else -1.0
        gens[k, j, i] = 1.0
        names.append(f"boost-{j}" if boost else f"rotation-{i}{j}")
    return KillingField(manifold, gens, trans, names)


def standard_contact_field(manifold: SpaceForm) -> KillingField:
    """The standard contact (characteristic) field of an odd-dimensional
    unit sphere, as a stack of one: x -> J x for the block rotation J pairing
    consecutive ambient coordinates.

    This is the constant-curvature instance of the contact-geometry example
    of an inner symmetry: rolling the unit sphere on itself, the lift of
    this unit field preserves the rolling distribution.  The general
    contact-geometry version (non-constant curvature) is outside the
    catalog.
    """
    if not isinstance(manifold, Sphere) or manifold.dim % 2 == 0 or manifold.radius != 1.0:
        raise GeometryError("the standard contact field lives on odd-dimensional unit spheres")
    n_amb = manifold.amb_dim
    gen = np.zeros((1, n_amb, n_amb))
    for k in range(0, n_amb - 1, 2):
        gen[0, k, k + 1] = -1.0
        gen[0, k + 1, k] = 1.0
    return KillingField(manifold, gen, np.zeros((1, n_amb)), ["contact"])


# -- symmetry candidates ----------------------------------------------------------


@dataclass
class SymmetryCandidate:
    """A stack of k vector fields on the state space given by one closure,
    with one name per candidate.  `value` maps a state, or a stack of states
    in one call, to the tangent rows of the k fields at each state,
    (*q.shape, k, q_dim(n)): the frame coordinates of Z at x, those of Z_hat
    at x_hat, then the so(n) coordinates of C = A^{-1} U_bar, as
    brackets.StructuredField.value holds them.  A candidate is base-fixing
    where its Z block is zero."""

    pair: RollingPair
    value: Callable[[RollingState], np.ndarray]
    names: list

    def __len__(self):
        return len(self.names)


def killing_to_symmetry(pair: RollingPair, field: KillingField) -> SymmetryCandidate:
    """Base-fixing symmetry candidates induced by a stack of Killing fields
    of the second factor: the rows (0, K_hat at the contact point,
    A^T (nabla K_hat) A) in frame and so(n) coordinates."""
    if field.manifold is not pair.space_hat:
        raise MismatchError("Killing field must live on the second factor of the pair")

    def value(q):
        a = q.expand(q.isometry, q.isometry.ndim + 1)
        c = a.mT @ field.nabla_matrix(q.x_hat, q.frame_hat) @ a
        return np.concatenate((np.zeros(c.shape[:-1]), q.coords_hat(field.value(q.x_hat)),
                               skew_to_vector(c)), axis=-1)

    return SymmetryCandidate(pair, value, [f"killing({name})" for name in field.names])


def perturb_candidate(cand: SymmetryCandidate, eps, rng) -> SymmetryCandidate:
    """Add a fixed random skew perturbation of size eps to each C of the
    stack, one normal (n, n) draw per candidate in stack order, and keep Z and
    Z_hat; used to check that the residual operations reject near-symmetries."""
    n = cand.pair.dim
    noise = skew_part(rng.standard_normal((len(cand), n, n)))
    noise = noise / np.maximum(np.abs(noise).max(axis=(1, 2), keepdims=True), 1e-300) * eps
    shift = np.concatenate((np.zeros((len(cand), 2 * n)), skew_to_vector(noise)), axis=-1)
    return SymmetryCandidate(cand.pair, lambda q: cand.value(q) + shift,
                             [name + f"+skew({eps:g})" for name in cand.names])


# -- residual operations ------------------------------------------------------------


def symmetry_residual(cand: SymmetryCandidate, q, X):
    """Residuals (r1, r2) of the two symmetry equations at every sample
    (q[i], X[i]) of the stack q with tangent vectors X at x, two (samples,
    candidates) arrays, by stencils whose states every candidate shares and
    one tangent_curve call builds for all samples.  Residuals that are not
    finite raise: those of rows at q that are not finite, or that overflow.
    The data (Z, Z_hat, U_bar) comes from rolling.row_data, and the residuals
    are Euclidean norms of orthonormal coordinates."""
    X = np.asarray(X, float)
    with np.errstate(over="ignore", invalid="ignore"):  # what overflows is refused below
        d_z, d_zhat, d_u = directional_derivative(cand.value, q, rolling_lift(q, X))
        z, z_hat, u_bar = row_data(q, cand.value(q))
        x, a = q.coords(X), q.isometry
        r1 = np.linalg.norm((u_bar @ q.expand(x, u_bar.ndim - 1)[..., None])[..., 0]
                            + d_z @ a.mT - d_zhat, axis=-1)

        curv = curvature_term(q, wedge_matrix(x[..., None, :], z),
                              wedge_matrix((a @ x[..., None]).mT, z_hat))
        r2 = np.linalg.norm(d_u + curv, axis=(-2, -1))
    if not np.isfinite(r1 + r2).all():
        raise GeometryError("candidate residuals are not finite")
    return r1, r2


def inner_symmetry_residual(Z, q: RollingState) -> float:
    """Largest rolling-curvature norm over frame planes through the tangent
    vector Z at x, max_i || Rol_q(E_i ^ Z) ||.  Zero certifies the
    inner-symmetry hypothesis at q."""
    zc = q.coords(np.asarray(Z, float))
    planes = wedge_matrix(np.eye(q.pair.dim), zc)
    return float(np.linalg.norm(rolling_curvature(q, planes), axis=(-2, -1)).max())


def vertical_compatibility_residual(cand: SymmetryCandidate, q, X, Y):
    """Residuals of the fiber-derivative compatibility along the rolling
    curvature direction of the plane (X[i], Y[i]) at every sample q[i] of
    the stack q, a (samples, candidates) array:

        A . (d_fiber Z) = d_fiber Z_hat   along  nu(Rol_q(X ^ Y)).

    The rolling curvature and the fiber direction do not depend on the
    candidate, so they are built once for the stack, and the fiber states of
    all samples come from one tangent_curve call.  Residuals that are not
    finite raise, as in symmetry_residual."""
    a = q.isometry
    c = skew_part(a.mT @ rolling_curvature(q, wedge_matrix(q.coords(X), q.coords(Y))))
    # where the direction is round-off, the fiber curve stays put and the
    # derivative is exactly zero
    c = np.where(np.abs(c).max(axis=(-2, -1), keepdims=True) >= 1e-14, c, 0.0)
    fiber = np.concatenate((np.zeros(c.shape[:-2] + (2 * q.pair.dim,)), skew_to_vector(c)), axis=-1)
    with np.errstate(over="ignore", invalid="ignore"):  # what overflows is refused below
        d_z, d_zhat, _ = directional_derivative(cand.value, q, fiber, h=FD_STEP_FIBER)
        r = np.linalg.norm(d_z @ a.mT - d_zhat, axis=-1)
    if not np.isfinite(r).all():
        raise GeometryError("candidate residuals are not finite")
    return r


# -- propagation along rolling curves ---------------------------------------------


@dataclass
class PropagationResult:
    times: np.ndarray
    states: RollingState
    rows: np.ndarray

    def final(self):
        return self.states[-1], self.rows[-1]


def propagate_sym0(q1: RollingState, X, row0, t_grid) -> PropagationResult:
    """Propagate base-fixing symmetry data, the tangent row row0 at q1 with a
    zero Z block, along the rolling curve driven by the geodesic through
    (x1, X), returning its tangent row at every grid time.

    The drift value eta follows the geodesic-variation equation on the second
    factor, and the vertical part the transport integral I of an integrand
    linear in eta, so (eta, eta', I) is one linear system in a parallel frame.
    On a space form its generator is constant (see _jacobi_generator), and
    the rows at the grid times are exact: one matrix exponential each.  A
    second factor that is not a space form raises MismatchError.
    """
    n, mh = q1.pair.dim, q1.pair.space_hat
    if not isinstance(mh, ConstantCurvature):
        raise MismatchError("propagation covers constant-curvature second factors only; "
                            f"got kind {mh.kind!r}")
    t_grid = np.asarray(t_grid, float)
    if t_grid[0] != 0.0 or np.any(np.diff(t_grid) <= 0):
        raise GeometryError("time grid must start at 0 and increase")
    row0 = np.asarray(row0, float)
    if np.any(row0[:n]):
        raise GeometryError("propagation requires base-fixing data (Z = 0)")
    X, a1, c1 = np.asarray(X, float), q1.isometry, vector_to_skew(row0[2 * n:], n)
    y = np.concatenate((row0[n : 2 * n], a1 @ c1 @ q1.coords(X), np.zeros(so_dim(n))))
    ys = expm(t_grid[:, None, None] * _jacobi_generator(q1, X)) @ y

    # each state keeps the frame-transport matrices (p, p_hat) from q1: the
    # parallel frame along the development is p_hat.T in its deterministic
    # frame, and A = p_hat A1 p^T, so that C = A^T U_bar for
    # U_bar = p_hat (A1 C1 + skew(I) A1) p^T; a row is as wide as (eta, eta', I)
    states = tangent_curve(q1, rolling_lift(q1, X), t_grid)
    p, p_hat = states.transports
    rows = np.zeros_like(ys)
    rows[:, n : 2 * n] = (ys[:, None, :n] @ p_hat.mT)[:, 0]
    rows[:, 2 * n :] = skew_to_vector(p @ (c1 + a1.T @ vector_to_skew(ys[:, 2 * n :], n) @ a1)
                                      @ p.mT)
    return PropagationResult(t_grid, states, rows)


def _jacobi_generator(q1, X):
    """The generator L of the geodesic-variation equation along the geodesic
    of (x_hat, A X) on the second factor together with the transport integral
    of the vertical part, (eta, eta', I)' = L (eta, eta', I) = (eta', M eta,
    N eta), with eta the coordinates in the parallel frame (E_l) started at
    the deterministic frame of q1.

    With N_l = R(gamma' ^ E_l) in that frame, M eta is the parallel-frame
    form of R(gamma' ^ eta) gamma', with columns N_l v for the constant
    parallel-frame velocity v, and N eta = sum_l eta_l N_l in so(n)
    coordinates.  The curvature of a space form is the same in every
    orthonormal frame, so L is its value at q1."""
    mh, n = q1.pair.space_hat, q1.pair.dim
    v_c = q1.isometry @ q1.coords(X)
    curv = mh.curvature_matrix_apply(q1.x_hat, wedge_matrix(v_c, np.eye(n)))
    size = 2 * n + so_dim(n)
    gen = np.zeros((size, size))
    gen[:n, n : 2 * n] = np.eye(n)
    gen[n : 2 * n, :n] = (curv @ v_c).T
    gen[2 * n :, :n] = skew_to_vector(curv).T
    return gen


def propagate_chain(q: RollingState, segments, row):
    """Propagate the tangent row at q along a broken-geodesic chain; each
    segment is (X, length), one matrix exponential of the generator of
    (eta, eta', I) (see propagate_sym0).  Returns the final state and
    tangent row."""
    for X, length in segments:
        q, row = propagate_sym0(q, X, row, [0.0, length]).final()
    return q, row


# -- dimension probe -------------------------------------------------------------------


@dataclass
class DimensionReport:
    rank: int
    singular_values: np.ndarray
    gap: float
    tol: float

    def to_json(self):
        return {
            "rank": self.rank,
            "singular_values": self.singular_values.tolist(),
            "gap": None if math.isinf(self.gap) else self.gap,
            "tol": self.tol,
        }


def sym0_dimension_probe(q0: RollingState, cand: SymmetryCandidate, tol=1e-8) -> DimensionReport:
    """Numerical rank of the evaluation data (Z_hat(q0), A0^{-1} U_bar(q0))
    over a stack of base-fixing candidates, one row per candidate: their
    tangent rows at q0 without the Z block.  The data determines the
    candidate along the reachable set, so the rank bounds the dimension of
    the base-fixing symmetry space; the full Killing catalog realizes
    n(n+1)/2.  The rows form one layer of numerics.numerical_rank's rule, so
    the singular values are those of the rows over the longest one.  Rows
    that are not finite raise."""
    values = cand.value(q0)
    if not np.isfinite(values).all():
        raise GeometryError("candidate rows are not finite")
    z, rows = np.split(values, [q0.pair.dim], axis=-1)
    if np.any(z):
        raise GeometryError("dimension probe requires base-fixing candidates (Z = 0)")
    return DimensionReport(*numerical_rank(rows, tol, layers=[len(rows)]), tol)
