"""Independent dense oracles and generators shared by the test modules.

Everything here avoids the package's fast paths on purpose: the basis
matrices are frozen literals, the adjugate is built from cofactors, the
characteristic coefficients come from numpy's polynomial routine, the
pair-combination reference sums the alternating series directly, and the
row coefficients, the overlap of two rows, their Gram matrix and the
Gram-Cholesky projector are assembled from the coupling coefficients
without the engine's cached tables.  from_dict builds a multispinor
from a {site: amplitudes} dict.  couples reads the coupling rule off
lattice.COUPLING_DIFFS alone, for the tests of that table and of the
Gram pattern built from it.  gram_blocks and dense_factor read
the engine's own output into the form these oracles compare against.
"""

import numpy as np

from estc import DimensionlessParams, FieldConfig
from estc.engine import FieldTables, build_row_gram
from estc.field import FREE_COMPONENTS, v_coupling
from estc.lattice import COUPLING_DIFFS, SHIFTS_S13, gram_pattern, site_sub, window_table
from estc.multispinor import Multispinor

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


# kept beside checks._dense_rows on purpose: this one builds from the frozen literals, that one
# from gamma_matrix, so each is an independent reference for the other
def dense_rows(f, p, schedule, sites):
    """V: row block k holds the coupling matrices of row schedule[k] at its 13 stencil columns.

    Column block j belongs to sites[j]; built straight from v_coupling and
    the frozen basis literals.
    """
    index = {site: j for j, site in enumerate(sites)}
    v = np.zeros((4 * len(schedule), 4 * len(sites)), dtype=complex)
    for k, n in enumerate(schedule):
        for s in SHIFTS_S13:
            j = index[tuple(a + b for a, b in zip(n, s))]
            v[4 * k : 4 * k + 4, 4 * j : 4 * j + 4] = dense_from_dset(v_coupling(n, s, f, p))
    return v


def oracle_overlap(m, n, f, p):
    """Row overlap N(m, n): the sum of V(m, s) V(n, s')^dag over the shared columns m + s = n + s'."""
    out = np.zeros((4, 4), dtype=complex)
    for s in SHIFTS_S13:
        for s2 in SHIFTS_S13:
            if tuple(a + b for a, b in zip(m, s)) == tuple(a + b for a, b in zip(n, s2)):
                vm = dense_from_dset(v_coupling(m, s, f, p))
                vn = dense_from_dset(v_coupling(n, s2, f, p))
                out += vm @ vn.conj().T
    return out


def couples(m, n):
    """True when the rows at m and n can share a column: n - m is a row of COUPLING_DIFFS."""
    return bool((COUPLING_DIFFS == site_sub(n, m)).all(axis=1).any())


def gram_blocks(f, p, schedule):
    """The engine's row Gram blocks of a schedule as {(k, i): N(m_k, m_i)}, one per coupled i <= k."""
    tables = FieldTables(f, p)
    pattern = gram_pattern(np.array(schedule))
    blocks = build_row_gram(tables, tables.zero_shift(schedule), pattern)
    return {(int(k), int(i)): block for k, i, block in zip(pattern.stage, pattern.partner, blocks)}


def dense_row_gram(f, p, schedule):
    """G = V V^dag for the row blocks of the scheduled sites, in schedule order."""
    sites = sorted({tuple(a + b for a, b in zip(n, s)) for n in schedule for s in SHIFTS_S13})
    v = dense_rows(f, p, schedule, sites)
    return v @ v.conj().T


def svd_projector(v):
    """P_ref = Q^dag Q, with the rows of Q the right singular vectors of a full-row-rank V."""
    right = np.linalg.svd(v, full_matrices=False)[2]
    return right.conj().T @ right


def dense_factor(acc):
    """Dense Cholesky factor R of the processed rows' Gram matrix, from the stored slice blocks.

    Slice t, over the rows of its span in the window table, contributes
    its diagonal block R_tt = W_t^-1, with W_t unpacked from its lower
    triangle in np.tril_indices order, and its band panel
    [R_t,t-2 | R_t,t-1]; every other block is zero.
    """
    k = len(acc.schedule)
    r = np.zeros((4 * k, 4 * k), dtype=complex)
    rows = (4 * window_table(acc.window).spans).tolist()
    for (start, stop, low), (packed, band) in zip(rows, acc.slice_factors()):
        inverse = np.zeros((stop - start, stop - start), dtype=complex)
        inverse[np.tril_indices(stop - start)] = packed
        r[start:stop, start:stop] = np.tril(np.linalg.inv(inverse))
        r[start:stop, low:start] = band
    return r


def factored_projector(acc, v):
    """(R^-1 V)^dag (R^-1 V) from the accumulator's factor and a dense V of its processed rows."""
    phi = np.linalg.solve(dense_factor(acc), v)
    return phi.conj().T @ phi


def prefix_projector(acc, k, sites):
    """Dense projector onto the rows of the first k stages, over the given sites.

    The leading 4k x 4k block of a Cholesky factor is the Cholesky factor
    of the leading block of G, so the first k stages of the full run's
    factor give the projector of those stages alone.
    """
    r = dense_factor(acc)[: 4 * k, : 4 * k]
    f, p = acc.tables.field, acc.tables.params
    phi = np.linalg.solve(r, dense_rows(f, p, acc.schedule[:k], sites))
    return phi.conj().T @ phi


def to_vector(c, sites):
    return np.concatenate([c[site] for site in sites])


def from_dict(data):
    """The multispinor with amplitudes data[site], each four numbers, at the sites of a dict, in its order."""
    rows = [np.asarray(value, dtype=complex).reshape(4) for value in data.values()]
    return Multispinor(list(data), np.array(rows, dtype=complex).reshape(-1, 4))


def to_multispinor(x, sites):
    return from_dict({site: x[4 * j : 4 * j + 4] for j, site in enumerate(sites)})
