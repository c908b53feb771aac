"""Rolling a sphere over a plane: the basic kinematics.

A state of the rolling system is a triple (x, x_hat; A): contact points on
both surfaces plus an orientation-preserving isometry between the tangent
planes.  Driving the contact point along a curve in the first factor forces
the rest of the state: contact velocities match (no slipping) and the
isometry stays parallel (no twisting).
"""

import numpy as np

from rollsym import Euclidean, GeodesicPath, Sphere
from rollsym.rolling import RollingPair, roll_along, roll_geodesic

rng = np.random.default_rng(0)

pair = RollingPair(Sphere(2, 1.0), Euclidean(2))
q0 = pair.random_state(rng)
print("initial contact on the sphere:", np.round(q0.x, 4))
print("initial contact on the plane: ", np.round(q0.x_hat, 4))

# Roll along a great-circle arc of length pi.  Because rolling maps
# geodesics to geodesics, the development on the plane is a straight
# segment of the same length.
direction = pair.space.random_tangent(rng, q0.x, unit=True)
path = GeodesicPath(pair.space, q0.x, direction, np.pi)
curve = roll_along(q0, path, step=1e-3)
q_end = curve.final_state()

expected = q0.x_hat + np.pi * q0.apply(direction)
print("\nafter rolling through length pi:")
print("  plane contact:        ", np.round(q_end.x_hat, 6))
print("  straight-line target: ", np.round(expected, 6))
print("  development error:    %.2e" % np.linalg.norm(q_end.x_hat - expected))
print("  isometry drift:       %.2e" % curve.residuals.max())

# The same motion in closed form (transport conjugation of the isometry).
q_closed = roll_geodesic(q0, direction, np.pi)
print("  closed form vs Magnus: %.2e" % np.abs(q_closed.isometry - q_end.isometry).max())

# Rolling back along the reversed path undoes the motion exactly: the
# no-slip constraint is reversible.
q_back = roll_along(q_end, path.reversed(), step=1e-3).final_state()
print("\nreversibility: |x - x0| = %.2e, |A - A0| = %.2e" % (
    np.linalg.norm(q_back.x - q0.x), np.abs(q_back.isometry - q0.isometry).max()))

# Trajectories serialize to CSV with the contact points, the isometry in
# row-major order, and the measured isometry residual per sample.
curve.write_csv("/tmp/rolling_sphere_on_plane.csv")
print("\ntrajectory written to /tmp/rolling_sphere_on_plane.csv")
