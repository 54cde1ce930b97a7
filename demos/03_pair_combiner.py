"""
Joining two projector ranges with one restricted pseudoinverse
==============================================================

Given Hermitian projectors alpha and beta whose ranges only meet at the
origin, the projector onto the joint span is

    alpha + (beta - alpha) gamma (beta - alpha),

where gamma inverts beta - beta alpha beta on the range of beta.  The
same operator is the sum of an alternating series in alpha beta, which
converges at a rate set by the principal angles between the ranges.
"""

import numpy as np

from estc.combiner import DegenerateOverlap, combine_pair, range_restricted_pseudoinverse

np.set_printoptions(precision=4, suppress=True)

rng = np.random.default_rng(3)


def random_projector(dim, rank):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q[:, :rank] @ q[:, :rank].conj().T


alpha = random_projector(12, 3)
beta = random_projector(12, 4)
joined = combine_pair(alpha, beta)

# The result is again a Hermitian projector; it absorbs both inputs and
# its trace adds the ranks.
print("hermitian:", np.abs(joined - joined.conj().T).max())
print("idempotent:", np.abs(joined @ joined - joined).max())
print("absorbs alpha:", np.abs(alpha @ joined - alpha).max())
print("absorbs beta:", np.abs(beta @ joined - beta).max())
print("trace:", np.trace(joined).real)

# The restricted pseudoinverse behind it inverts exactly on range(beta)
# and annihilates the rest.
x = beta - beta @ alpha @ beta
gamma = range_restricted_pseudoinverse(x, beta)
print("gamma x = beta:", np.abs(gamma @ x - beta).max())
print("beta gamma = gamma:", np.abs(beta @ gamma - gamma).max())

# Partial sums of the alternating series close in on the same operator.
partial = alpha + beta
left = alpha @ beta
right = beta @ alpha
for k in range(1, 9):
    partial = partial + (left @ alpha - left) + (right @ beta - right)
    print(f"series through order {k}: error {np.abs(partial - joined).max():.3e}")
    left = left @ alpha @ beta
    right = right @ beta @ alpha

# Ranges that share a direction have no joint projector of rank
# rank(alpha) + rank(beta); the combiner refuses instead of regularizing.
shared = random_projector(12, 1)
try:
    combine_pair(shared, shared)
except DegenerateOverlap as err:
    print("degenerate pair rejected:", err)
