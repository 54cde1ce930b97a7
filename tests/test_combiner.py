"""Joint-range projector of a pair, checked against the alternating series."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from estc.combiner import combine_pair, range_basis, range_restricted_pseudoinverse
from estc.errors import DegenerateOverlap

from helpers import oracle_combine, random_projector


def pair(seed, dim=None, ranks=None):
    rng = np.random.default_rng(seed)
    dim = dim or int(rng.integers(8, 17))
    if ranks is None:
        hi = max(2, dim // 3)
        ranks = (int(rng.integers(1, hi + 1)), int(rng.integers(1, hi + 1)))
    return random_projector(dim, ranks[0], rng), random_projector(dim, ranks[1], rng)


def test_range_basis_spans_the_projector():
    rng = np.random.default_rng(0)
    p = random_projector(10, 4, rng)
    q = range_basis(p)
    assert q.shape == (10, 4)
    assert np.abs(q.conj().T @ q - np.eye(4)).max() < 1e-12
    assert np.abs(q @ q.conj().T - p).max() < 1e-12


def test_restricted_pseudoinverse_identities():
    rng = np.random.default_rng(1)
    p = random_projector(12, 5, rng)
    h = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    h = h + h.conj().T + 8 * np.eye(12)
    x = p @ h @ p
    y = range_restricted_pseudoinverse(x, p)
    assert np.abs(y @ x - p).max() < 1e-10
    assert np.abs(x @ y - p).max() < 1e-10
    assert np.abs(p @ y - y).max() < 1e-10
    assert np.abs(y @ p - y).max() < 1e-10


def test_restricted_pseudoinverse_rejects_singular_cores():
    rng = np.random.default_rng(2)
    p = random_projector(9, 3, rng)
    smaller = random_projector(9, 2, rng)
    x = p @ smaller @ p  # rank <= 2 on a rank-3 range
    with pytest.raises(DegenerateOverlap):
        range_restricted_pseudoinverse(x, p)
    with pytest.raises(DegenerateOverlap):
        range_restricted_pseudoinverse(np.eye(9), np.zeros((9, 9)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_combined_projector_identities(seed):
    alpha, beta = pair(seed)
    u = combine_pair(alpha, beta)
    assert np.abs(u - u.conj().T).max() < 1e-10
    assert np.abs(u @ u - u).max() < 1e-10
    assert np.abs(u @ alpha - alpha).max() < 1e-10
    assert np.abs(u @ beta - beta).max() < 1e-10
    assert np.abs(alpha @ u - alpha).max() < 1e-10
    expected_rank = np.linalg.matrix_rank(np.hstack([alpha, beta]), tol=1e-8)
    assert np.trace(u).real == pytest.approx(expected_rank, abs=1e-8)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_combined_projector_matches_the_series(seed):
    alpha, beta = pair(seed)
    u = combine_pair(alpha, beta)
    assert np.abs(u - oracle_combine(alpha, beta)).max() < 1e-8


def test_disjoint_supports_reduce_to_the_sum():
    alpha = np.zeros((8, 8), dtype=complex)
    beta = np.zeros((8, 8), dtype=complex)
    alpha[:2, :2] = np.eye(2)
    beta[4:7, 4:7] = np.eye(3)
    u = combine_pair(alpha, beta)
    assert np.abs(u - (alpha + beta)).max() < 1e-12


def test_intersecting_ranges_are_rejected():
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10)))
    v, w, u = q[:, 0:1], q[:, 1:2], q[:, 2:3]
    alpha = v @ v.conj().T + w @ w.conj().T
    beta = v @ v.conj().T + u @ u.conj().T  # shares the direction v
    with pytest.raises(DegenerateOverlap):
        combine_pair(alpha, beta)
    with pytest.raises(DegenerateOverlap):
        combine_pair(alpha, alpha)


def test_nearly_intersecting_ranges_trip_the_rcond_guard():
    rng = np.random.default_rng(4)
    q, _ = np.linalg.qr(rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10)))
    v, w = q[:, 0:1], q[:, 1:2]
    tilted = v + 1e-7 * w
    tilted /= np.linalg.norm(tilted)
    alpha = v @ v.conj().T
    beta = tilted @ tilted.conj().T
    with pytest.raises(DegenerateOverlap):
        combine_pair(alpha, beta)
