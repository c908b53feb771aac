"""The graded model algebra and the non-flatness obstruction.

At every state, the rolling distribution of a mismatched constant-curvature
pair has the same step-3 graded nilpotent model: R^n + so(n) + R^n, with
generators bracketing to wedge planes and planes acting back on generators.
Its structure constants are integers: an element is one row of integer
coordinates, a stack of rows brackets against another stack in one call,
and the structure is verified exactly.

A distribution is flat when it is locally equivalent to this model.  For
n >= 3 that never happens: a hypothetical flat frame forces the quantities
(beta K / kappa)^2 and (beta K_hat / kappa)^2 to vanish, which contradicts
K != K_hat.  In dimension two the argument is void, matching the classical
flat pair of spheres with radius ratio 1:3.
"""

from fractions import Fraction

from rollsym.nilpotent import (
    basis,
    flatness_obstruction,
    graded_dims,
    growth_vector,
    nil_bracket,
    verify_structure,
)

# The brackets on basis elements, spelled out for n = 3: the first n rows of
# the basis are the generators N0, N1, N2.
n = 3
N = basis(n)[:n]
b01 = nil_bracket(N[0], N[1])
print("[N0, N1] lands in layer 2 (plane e0^e1):", b01.b)
t = nil_bracket(N[0], b01)
print("[N0, [N0, N1]] lands in layer 3:", t.c)
print("[N2, [N0, N1]] vanishes (disjoint indices):", nil_bracket(N[2], b01).is_zero())
# one broadcast call brackets every pair of generators: row i, column j of
# the table holds the layer-2 part of [N_i, N_j]
table = nil_bracket(N[:, None], N[None, :])
print("layer-2 parts of the generator table:", table.b.tolist())

print()
for size in (2, 3, 4, 5):
    rep = verify_structure(size)
    print(f"n={size}: layers {graded_dims(size)}, growth {growth_vector(size)}, "
          f"all exact checks pass: {rep['ok']}")

# The obstruction arithmetic, exact on rational inputs.  The 1:3 sphere
# pair with unit frame norm gives exactly 81/64 on the first factor.
print()
rep = flatness_obstruction(1, Fraction(1, 9), 1, n=3)
print("K=1, K_hat=1/9, beta=1, n=3:")
print("  obstruction on the first factor:", rep.obstruction_M)
print("  obstruction on the second factor:", rep.obstruction_M_hat)
print("  verdict:", rep.verdict)

rep2 = flatness_obstruction(1, Fraction(1, 9), 1, n=2)
print("same curvatures in dimension two:", rep2.verdict,
      "(the 1:3 pair really is flat there)")

rep3 = flatness_obstruction(0, 1, 1, n=3)
print("K=0 needs the mirrored argument:",
      f"obstructions ({rep3.obstruction_M}, {rep3.obstruction_M_hat}) -> {rep3.verdict}")
