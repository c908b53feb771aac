"""Growth vector of the rolling distribution.

The reachable directions of the rolling system organize into a flag:
first the n rolling lifts themselves, then their brackets (which point
along the fiber of contact isometries), then the third-order brackets
that finally span the whole state space.  With curvatures K != K_hat the
ranks are (n, n(n+1)/2, 2n + n(n-1)/2); with matched curvatures the flag
stalls at rank n and the system is not controllable.
"""

import numpy as np

from rollsym import Euclidean, Hyperbolic, Sphere
from rollsym.brackets import (
    bracket_fd,
    bracket_structured,
    controllability_verdict,
    curvature_mismatch,
    flag_ranks,
    rolling_generators,
)
from rollsym.rolling import RollingPair

rng = np.random.default_rng(1)

pairs = {
    "sphere(1) on sphere(3)": RollingPair(Sphere(2, 1.0), Sphere(2, 3.0)),
    "sphere(1) on plane": RollingPair(Sphere(2, 1.0), Euclidean(2)),
    "hyperbolic on sphere": RollingPair(Hyperbolic(2, 1.0), Sphere(2, 1.0)),
    "3-sphere on 3-space": RollingPair(Sphere(3, 1.0), Euclidean(3)),
    "matched spheres": RollingPair(Sphere(2, 2.0), Sphere(2, 2.0)),
}

for name, pair in pairs.items():
    q = pair.random_state(rng)
    rep = flag_ranks(q, depth=3)
    kappa = curvature_mismatch(pair)
    print(f"{name:24s} kappa={kappa:+.3f}  growth {rep.ranks}  "
          f"controllable={controllability_verdict(q)}")

# The first bracket carries the whole story: for rolling lifts of the
# frame, its vertical part is kappa times the wedge of the two directions.
# The generators form one stacked field, and one bracket_structured call
# returns the whole table of brackets [L(E_i), L(E_j)] in (i, j) order.
pair = pairs["sphere(1) on sphere(3)"]
q = pair.random_state(rng)
gens = rolling_generators()
table = bracket_structured(gens, gens, q)
print("\nvertical part of [L(E1), L(E2)] on sphere(1)/sphere(3):")
print(np.round(table[1].C, 6))
print("kappa =", curvature_mismatch(pair))
coords = table.coords().reshape(2, 2, -1)
print(f"antisymmetry defect of the table: {np.abs(coords + coords.swapaxes(0, 1)).max():.1e}")
# The independent oracle: coordinate brackets in the canonical chart by
# finite differences, sharing no stencil or sample state with the formula.
fd = bracket_fd(gens, gens, q)
print(f"largest difference from the chart oracle: {np.abs(table.coords() - fd.coords()).max():.1e}")

# Equiregularity: the growth vector does not depend on the state.
growths = {flag_ranks(pair.random_state(rng), depth=3).ranks for _ in range(10)}
print("\ngrowth vectors over 10 random states:", growths)
