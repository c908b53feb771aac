"""Symmetries of the rolling system from Killing fields.

Every Killing field of the second factor induces an infinitesimal symmetry
of the rolling distribution that fixes the first factor: the drift is the
field itself at the contact point and the vertical part is its covariant
differential composed with the contact map.  Two residual equations
characterize such symmetries; genuine candidates sit at stencil accuracy
while small perturbations are rejected by orders of magnitude.
"""

import numpy as np

from rollsym import Sphere
from rollsym.rolling import RollingPair
from rollsym.symmetry import (
    killing_catalog,
    killing_to_symmetry,
    perturb_candidate,
    sym0_dimension_probe,
    symmetry_residual,
    vertical_compatibility_residual,
)

rng = np.random.default_rng(2)

pair = RollingPair(Sphere(2, 2.0), Sphere(2, 1.0))
catalog = killing_catalog(pair.space_hat)
print(f"Killing catalog of the unit sphere: {len(catalog)} fields "
      f"({', '.join(catalog.names)})\n")

# The catalog is one stack: each residual call checks every field at once
# and returns one residual per field.
cands = killing_to_symmetry(pair, catalog)
qs, Xs, Ys = [], [], []
for _ in range(10):
    qs.append(pair.random_state(rng))
    Xs.append(pair.space.random_tangent(rng, qs[-1].x, unit=True))
    Ys.append(pair.space.random_tangent(rng, qs[-1].x, unit=True))
# each residual is a (samples, candidates) array, from one pass over all samples
rows = (*symmetry_residual(cands, qs, Xs), vertical_compatibility_residual(cands, qs, Xs, Ys))
worst = np.max(rows, axis=1)
print(f"  {'candidate':24s} {'drift':>9s} {'curvature':>9s} {'vertical':>9s}   (worst of 10 states)")
for name, (r1, r2, r3) in zip(cands.names, worst.T):
    print(f"  {name:24s} {r1:9.2e} {r2:9.2e} {r3:9.2e}")

# A perturbed candidate is not a symmetry, and the drift equation sees the
# perturbation at exactly its own size.
broken = perturb_candidate(killing_to_symmetry(pair, catalog[0]), 1e-3, rng)
q = pair.random_state(rng)
X = pair.space.random_tangent(rng, q.x, unit=True)
r1, r2 = symmetry_residual(broken, [q], [X])
print(f"\nperturbed by a 1e-3 skew: drift residual {r1[0, 0]:.2e} (rejected)")

# The evaluation data (Z_hat, A^-1 U_bar) at one state determines the
# symmetry along everything reachable, so its rank bounds the dimension of
# the base-fixing symmetry space: n(n+1)/2 for the full catalog.
probe = sym0_dimension_probe(pair.random_state(rng), cands)
print(f"\nevaluation-data rank of the full catalog: {probe.rank} "
      f"(singular values {np.round(probe.singular_values, 3)})")
