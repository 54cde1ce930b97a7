"""Combining two Hermitian projectors into the projector onto the joint span.

Given projectors alpha and beta whose ranges intersect only at zero, the
projector onto span(range alpha, range beta) has the closed form

    A = alpha + delta,
    delta = (beta - alpha) @ gamma @ (beta - alpha),
    gamma = pinv_on_range_beta(beta - beta @ alpha @ beta),

where the pseudoinverse is the ordinary inverse restricted to the range of
beta: it reproduces beta (not the identity) on both sides.  The same A is
the limit of the alternating series

    A = alpha + beta + sum_k [ (alpha beta)^k alpha - (alpha beta)^k
                             + (beta alpha)^k beta  - (beta alpha)^k ],

which converges when the spectral radius of alpha @ beta is below one; the
closed form replaces the series with one small inversion.  When the ranges
do intersect, beta - beta alpha beta is singular on the range of beta and
there is no projector with additive trace: that case is reported, never
regularized away.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateOverlap

# relative singular-value floor of a restricted core, see range_restricted_pseudoinverse
RCOND = 1e-10


def range_basis(p: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the range of a Hermitian projector.

    Eigenvalues of a projector cluster at 0 and 1; columns with eigenvalue
    above 1/2 are the range.
    """
    eigenvalues, vectors = np.linalg.eigh(p)
    return vectors[:, eigenvalues > 0.5]


def range_restricted_pseudoinverse(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Inverse of Hermitian x on the range of projector p, zero elsewhere.

    Satisfies y @ x = x @ y = p and p @ y = y @ p = y.  Raises
    DegenerateOverlap when x is singular on the range of p; that is a
    statement about the inputs, not a numerical nuisance, so no
    regularization is attempted.  Singularity is judged against
    max(largest core singular value, 1); 1 is the operator norm of any
    nonzero projector, which keeps a uniformly tiny core (ranges
    intersecting in every direction) degenerate too.
    """
    q = range_basis(p)
    if q.shape[1] == 0:
        raise DegenerateOverlap("projector has empty range")
    core = q.conj().T @ x @ q
    singular_values = np.linalg.svd(core, compute_uv=False)
    if singular_values[-1] <= RCOND * max(singular_values[0], 1.0):
        raise DegenerateOverlap(
            f"restricted core is singular (smallest/largest singular value "
            f"{singular_values[-1]:.3e}/{singular_values[0]:.3e})"
        )
    return q @ np.linalg.inv(core) @ q.conj().T


def combine_pair(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Projector onto the joint span of two Hermitian projectors.

    Requires the ranges to intersect trivially; raises DegenerateOverlap
    otherwise.  The result R satisfies R**2 = R = R^dag, absorbs both
    inputs (alpha @ R = alpha, beta @ R = beta) and has trace
    tr(alpha) + tr(beta).
    """
    gamma = range_restricted_pseudoinverse(beta - beta @ alpha @ beta, beta)
    diff = beta - alpha
    return alpha + diff @ gamma @ diff
