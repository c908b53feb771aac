"""Rolling a sphere over a plane: the basic kinematics.

A state of the rolling system is a triple (x, x_hat; A): contact points on
both surfaces plus an orientation-preserving isometry between the tangent
planes.  Driving the contact point along a curve in the first factor forces
the rest of the state: contact velocities match (no slipping) and the
isometry stays parallel (no twisting).
"""

import numpy as np

from rollsym import Euclidean, GeodesicPath, SampledPath, Sphere
from rollsym.rolling import RollingPair, roll_along, rolling_lift, tangent_curve

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

# On two space forms roll_along rolls a geodesic in closed form (the
# development is a geodesic, A stays constant in the parallel frames), and so
# does the canonical curve of the rolling lift.
q_closed = tangent_curve(q0, rolling_lift(q0, direction), np.pi)
print("  roll_along vs canonical curve: %.2e" % np.abs(q_closed.isometry - q_end.isometry).max())

# The same arc given as 201 samples is a spline path, which roll_along
# integrates by 4th-order Magnus steps; its end differs from the closed form
# by the spline's interpolation error.
ts = np.linspace(0.0, np.pi, 201)
sampled = SampledPath(pair.space, ts, pair.space.geodesic_flow(q0.x, direction, ts)[0])
q_magnus = roll_along(q0, sampled, step=1e-3).final_state()
print("  Magnus on the sampled arc:     %.2e (plane contact), %.2e (isometry)" % (
    np.linalg.norm(q_magnus.x_hat - q_end.x_hat), np.abs(q_magnus.isometry - q_end.isometry).max()))

# Rolling back along the reversed path undoes the motion exactly: the
# no-slip constraint is reversible.
q_back = roll_along(q_end, path.reversed(), step=1e-3).final_state()
print("\nreversibility: |x - x0| = %.2e, |A - A0| = %.2e" % (
    np.linalg.norm(q_back.x - q0.x), np.abs(q_back.isometry - q0.isometry).max()))

# Trajectories serialize to CSV with the contact points, the isometry in
# row-major order, and the measured isometry residual per sample.
curve.write_csv("/tmp/rolling_sphere_on_plane.csv")
print("\ntrajectory written to /tmp/rolling_sphere_on_plane.csv")
