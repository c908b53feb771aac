"""Propagating symmetry data along rolling curves.

Along the rolling curve driven by a geodesic, the drift of a base-fixing
symmetry obeys the geodesic-variation equation on the second factor, and
its vertical part follows a transport-integral formula.  Starting from the
tangent row of a Killing-induced symmetry at one state (the frame
coordinates of its drift Z_hat and the so(n) coordinates of its vertical
part C) and propagating along a broken geodesic therefore lands exactly on
the Killing construction at the end state: the data at one point determines
the symmetry everywhere reachable.
"""

import math

import numpy as np

from rollsym import Euclidean, Sphere
from rollsym.curvature import skew_part, skew_to_vector
from rollsym.rolling import RollingPair
from rollsym.symmetry import killing_catalog, killing_to_symmetry, propagate_sym0

rng = np.random.default_rng(3)

pair = RollingPair(Sphere(2, 3.0), Sphere(2, 1.0))
n = pair.dim
cand = killing_to_symmetry(pair, killing_catalog(pair.space_hat)[2])  # a stack of one

q = pair.random_state(rng)
row = cand.value(q)[0]
print("propagating the tangent row of", cand.names[0], "along a 3-segment broken geodesic")
for leg in range(3):
    direction = pair.space.random_tangent(rng, q.x, unit=True)
    q, row = propagate_sym0(q, direction, row, [0.0, 0.9]).final()
    err = np.abs(row - cand.value(q)[0])
    print(f"  after leg {leg + 1}: drift error {err[n : 2 * n].max():.2e}, "
          f"vertical error {err[2 * n :].max():.2e}")

# On the unit sphere, zero initial drift with a unit covariant rate gives
# the classical sin(t) variation field.
pair2 = RollingPair(Euclidean(2), Sphere(2, 1.0))
q1 = pair2.random_state(rng)
X = pair2.space.random_tangent(rng, q1.x, unit=True)
v_hat = q1.apply(X)
e = pair2.space_hat.random_tangent(rng, q1.x_hat)
e -= pair2.space_hat.inner_at(q1.x_hat, e, v_hat) * v_hat
e /= math.sqrt(pair2.space_hat.inner_at(q1.x_hat, e, e))
c0 = skew_part(q1.isometry.T @ np.outer(q1.coords_hat(e), q1.coords(X)))
c0 /= np.linalg.norm(q1.isometry @ c0 @ q1.coords(X))  # the initial covariant rate is a unit vector
row0 = np.concatenate((np.zeros(2 * n), skew_to_vector(c0)))

grid = np.linspace(0.0, math.pi, 61)
res = propagate_sym0(q1, X, row0, grid)
print("\n|Z_hat(t)| against sin(t) on the unit sphere:")
for k in (10, 20, 30, 45, 60):
    t = grid[k]
    norm = np.linalg.norm(res.rows[k, n : 2 * n])
    print(f"  t = {t:4.2f}: |Z_hat| = {norm:.6f}, sin(t) = {math.sin(t):.6f}")
