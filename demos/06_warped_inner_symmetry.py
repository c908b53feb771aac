"""Inner symmetries from a warped product.

A vector field on the first factor whose rolling lift is itself a symmetry
must have vanishing rolling curvature on every plane through it.  With
matched constant curvatures every field qualifies; the interesting case is
a warped product I x_f N whose warp satisfies f'' = -K f against a space
of constant curvature K: the radial field then generates an inner symmetry
even though the warped factor need not have constant curvature.
"""

import numpy as np

from rollsym import Euclidean, Sphere, WarpFunction, Warped
from rollsym.rolling import RollingPair
from rollsym.symmetry import inner_symmetry_residual

rng = np.random.default_rng(4)

# cosine warp over a circle fiber, rolling on the unit sphere (K = 1)
warped = Warped((-1.2, 1.2), WarpFunction("cos"), Sphere(1, 1.0))
pair = RollingPair(warped, Sphere(2, 1.0))

radial = np.array([1.0, 0.0, 0.0])
worst = 0.0
for _ in range(10):
    q = pair.random_state(rng)
    worst = max(worst, inner_symmetry_residual(radial, q))
print("cosine warp against the unit sphere")
print("  radial-field inner-symmetry residual over 10 states: %.2e" % worst)

# The sectional consequence: planes through the radial field have the same
# curvature as their images under the contact map.
q = pair.random_state(rng)
X = q.frame[1]
sigma = pair.space.sectional_curvature(q.x, X, radial)
sigma_hat = pair.space_hat.sectional_curvature(q.x_hat, q.apply(X), q.apply(radial))
print("  sectional curvature through the radial field: %.6f" % sigma)
print("  image plane on the sphere:                    %.6f" % sigma_hat)

# A curvature mismatch without the warp relation leaves no inner symmetry:
# every nonzero candidate is rejected at the size of the field itself.
pair2 = RollingPair(Sphere(2, 1.0), Euclidean(2))
q2 = pair2.random_state(rng)
z = pair2.space.random_tangent(rng, q2.x, unit=True)
print("\nunit sphere on the plane")
print("  residual of a unit candidate: %.6f (rejected)" % inner_symmetry_residual(z, q2))

# The contact-geometry instance at constant curvature: the standard
# contact field of an odd unit sphere rolls inner on another unit sphere.
from rollsym.symmetry import inner_symmetry_residual as _res, standard_contact_field

s3 = Sphere(3, 1.0)
xi = standard_contact_field(s3)  # a Killing stack of one field
pair_c = RollingPair(s3, Sphere(3, 1.0))
q_c = pair_c.random_state(rng)
print("\nstandard contact field on the unit 3-sphere")
print("  |xi| = %.6f, inner residual %.2e"
      % (np.linalg.norm(xi.value(q_c.x)[0]), _res(lambda s: xi.value(s.x)[0], q_c)))

# Matched curvatures sit at the other extreme: everything is inner.
pair3 = RollingPair(Sphere(2, 2.0), Sphere(2, 2.0))
q3 = pair3.random_state(rng)
z3 = pair3.space.random_tangent(rng, q3.x)
print("\nmatched spheres")
print("  residual of a random candidate: %.2e (every field is inner)"
      % inner_symmetry_residual(z3, q3))
