"""Independent dense oracles and generators shared by the test modules.

Everything here avoids the package's fast paths on purpose: the basis
matrices are frozen literals, the adjugate is built from cofactors, the
characteristic coefficients come from numpy's polynomial routine, the
pair-combination reference sums the alternating series directly, and the
row Gram matrix is assembled from the coupling coefficients without the
engine's cached tables.
"""

import numpy as np

from estc import DimensionlessParams, FieldConfig
from estc.field import FREE_COMPONENTS, v_coupling
from estc.lattice import SHIFTS_S13

# frozen 4x4 basis, index nu = 8M + 4N + 2m + n
GAMMA_LITERALS = (
    # 0
    ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    # 1
    ((1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 1, 0), (0, 0, 0, -1)),
    # 2
    ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)),
    # 3
    ((0, -1j, 0, 0), (1j, 0, 0, 0), (0, 0, 0, -1j), (0, 0, 1j, 0)),
    # 4
    ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1)),
    # 5
    ((1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0), (0, 0, 0, 1)),
    # 6
    ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, -1), (0, 0, -1, 0)),
    # 7
    ((0, -1j, 0, 0), (1j, 0, 0, 0), (0, 0, 0, 1j), (0, 0, -1j, 0)),
    # 8
    ((0, 0, -1, 0), (0, 0, 0, -1), (-1, 0, 0, 0), (0, -1, 0, 0)),
    # 9
    ((0, 0, 1, 0), (0, 0, 0, -1), (1, 0, 0, 0), (0, -1, 0, 0)),
    # 10
    ((0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0)),
    # 11
    ((0, 0, 0, -1j), (0, 0, 1j, 0), (0, -1j, 0, 0), (1j, 0, 0, 0)),
    # 12
    ((0, 0, 1j, 0), (0, 0, 0, 1j), (-1j, 0, 0, 0), (0, -1j, 0, 0)),
    # 13
    ((0, 0, -1j, 0), (0, 0, 0, 1j), (1j, 0, 0, 0), (0, -1j, 0, 0)),
    # 14
    ((0, 0, 0, -1j), (0, 0, -1j, 0), (0, 1j, 0, 0), (1j, 0, 0, 0)),
    # 15
    ((0, 0, 0, -1), (0, 0, 1, 0), (0, 1, 0, 0), (-1, 0, 0, 0)),
)

GAMMA_DENSE = np.array(GAMMA_LITERALS, dtype=complex)


def dense_from_dset(d):
    return np.einsum("...n,nij->...ij", np.asarray(d, dtype=complex), GAMMA_DENSE)


def oracle_dset(m):
    # quarter-trace projection, written out against the frozen literals
    return np.array([np.trace(np.asarray(m) @ GAMMA_DENSE[nu]) / 4 for nu in range(16)])


def oracle_adjugate(m):
    """Cofactor-transpose adjugate of a 4x4 matrix."""
    m = np.asarray(m)
    out = np.empty((4, 4), dtype=complex)
    for i in range(4):
        rows = [r for r in range(4) if r != i]
        for j in range(4):
            cols = [c for c in range(4) if c != j]
            minor = m[np.ix_(rows, cols)]
            out[j, i] = (-1) ** (i + j) * np.linalg.det(minor)
    return out


def oracle_invariants(m):
    """(i1, i2, i3, i4) with det(m - x), expanded as x^4 - i1 x^3 + i2 x^2 - i3 x + i4."""
    p = np.poly(np.asarray(m))
    return -p[1], p[2], -p[3], p[4]


def oracle_combine(alpha, beta, eps=1e-13, max_terms=200_000):
    """Alternating-series reference for the union of two projector ranges.

    Sums until the term magnitude drops below eps; the geometric rate is
    the largest squared principal-angle cosine between the two ranges.
    """
    alpha = np.asarray(alpha)
    beta = np.asarray(beta)
    total = alpha + beta
    ab = alpha @ beta
    ba = beta @ alpha
    left = ab.copy()  # (alpha beta)**k
    right = ba.copy()  # (beta alpha)**k
    for _ in range(max_terms):
        increment = (left @ alpha - left) + (right @ beta - right)
        total = total + increment
        if np.abs(increment).max() < eps:
            return total
        left = left @ ab
        right = right @ ba
    raise RuntimeError("series oracle did not converge; ranges nearly intersect")


def random_projector(dim, rank, rng):
    q, _ = np.linalg.qr(
        rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    )
    basis = q[:, :rank]
    return basis @ basis.conj().T


def random_field(rng, intensity=None, scale=0.05):
    """Random transverse amplitudes; optionally rescaled to a target intensity."""
    amplitudes = {}
    for grid in "ab":
        for j, k in FREE_COMPONENTS:
            amplitudes[f"{grid}_{j}{k}"] = scale * rng.standard_normal()
    f = FieldConfig.from_amplitudes(amplitudes)
    if intensity is not None:
        current = 2.0 * float(np.sum(f.a**2) + np.sum(f.b**2))
        factor = np.sqrt(intensity / current)
        f = FieldConfig(a=f.a * factor, b=f.b * factor)
    return f


def random_params(rng, omega_range=(0.1, 1.0), q_scale=0.4):
    q1, q2, q3, q4 = q_scale * rng.standard_normal(4)
    omega = float(rng.uniform(*omega_range))
    return DimensionlessParams(q1, q2, q3, q4, omega=omega)


def random_dsets(rng, count, scale=1.0):
    return scale * (
        rng.standard_normal((count, 16)) + 1j * rng.standard_normal((count, 16))
    )


def dense_row_gram(f, p, schedule):
    """G = V V^dag for the row blocks of the scheduled sites, in schedule order.

    Row block k of V holds the coupling matrices of row schedule[k] at the
    columns of its 13 stencil neighbors, built straight from v_coupling.
    """
    columns = {}
    entries = []
    for k, n in enumerate(schedule):
        for s in SHIFTS_S13:
            target = tuple(a + b for a, b in zip(n, s))
            j = columns.setdefault(target, len(columns))
            entries.append((k, j, dense_from_dset(v_coupling(n, s, f, p))))
    v = np.zeros((4 * len(schedule), 4 * len(columns)), dtype=complex)
    for k, j, block in entries:
        v[4 * k : 4 * k + 4, 4 * j : 4 * j + 4] = block
    return v @ v.conj().T
