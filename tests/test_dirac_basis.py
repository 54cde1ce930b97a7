"""Basis reconstruction and coefficient arithmetic against dense oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from estc import (
    char_invariants,
    dset_adjoint,
    dset_from_matrix,
    dset_inverse,
    dset_multiply,
    dset_square,
    gamma_matrix,
    matrix_from_dset,
    structure_constant,
)
from estc.dirac_basis import FACTOR_TABLE, GAMMA, UNIT_DSET, _PROD, leading_element
from estc.errors import SingularMatrix

from helpers import (
    GAMMA_DENSE,
    dense_from_dset,
    oracle_adjugate,
    oracle_dset,
    oracle_invariants,
    random_dsets,
)

UNITS = (1 + 0j, -1 + 0j, 1j, -1j)

# factors read off the frozen literals by hand-checkable division
FROZEN_FACTORS = (
    (1, 1, 0, 1 + 0j),
    (2, 3, 1, 1j),
    (3, 2, 1, -1j),
    (4, 13, 9, -1j),
    (13, 4, 9, 1j),
    (8, 12, 4, 1j),
    (15, 15, 0, 1 + 0j),
    (5, 10, 15, -1 + 0j),
    (9, 6, 15, 1 + 0j),
    (7, 11, 12, -1j),
)


def dsets(count=8, seed=0, scale=1.0):
    return random_dsets(np.random.default_rng(seed), count, scale)


def test_every_basis_matrix_matches_its_frozen_literal():
    for nu in range(16):
        assert np.array_equal(gamma_matrix(nu), GAMMA_DENSE[nu]), nu
    assert np.array_equal(GAMMA, GAMMA_DENSE)


def test_basis_index_bounds():
    with pytest.raises(ValueError):
        gamma_matrix(16)
    with pytest.raises(ValueError):
        gamma_matrix(-1)


def test_leading_element_is_the_first_row_unit():
    for nu in range(16):
        row = GAMMA_DENSE[nu][0]
        nonzero = row[row != 0]
        assert len(nonzero) == 1
        assert nonzero[0] == leading_element(nu)
        assert leading_element(nu) in UNITS


def test_basis_matrices_are_unitary_and_self_inverse_up_to_unit():
    for nu in range(16):
        g = GAMMA_DENSE[nu]
        assert np.array_equal(g @ g.conj().T, np.eye(4) + 0j)
        square = g @ g
        assert np.array_equal(square, square[0, 0] * np.eye(4))
        assert square[0, 0] in (1 + 0j, -1 + 0j)


def test_all_256_products_close_with_unit_factors():
    for lam in range(16):
        for mu in range(16):
            nu, factor = structure_constant(lam, mu)
            assert nu == lam ^ mu
            assert factor in UNITS
            assert np.array_equal(GAMMA_DENSE[lam] @ GAMMA_DENSE[mu], factor * GAMMA_DENSE[nu])


def test_frozen_structure_constants():
    for lam, mu, nu, factor in FROZEN_FACTORS:
        assert structure_constant(lam, mu) == (nu, factor)


def test_tables_agree_with_structure_constants():
    for lam in range(16):
        for mu in range(16):
            nu, factor = structure_constant(lam, mu)
            assert FACTOR_TABLE[lam, mu] == factor
            assert _PROD[nu, lam, mu] == factor
            assert np.count_nonzero(_PROD[:, lam, mu]) == 1


def test_projection_matches_quarter_trace_oracle():
    rng = np.random.default_rng(1)
    for _ in range(50):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert np.abs(dset_from_matrix(m) - oracle_dset(m)).max() < 1e-13


def test_round_trip_both_ways():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((30, 4, 4)) + 1j * rng.standard_normal((30, 4, 4))
    assert np.abs(matrix_from_dset(dset_from_matrix(m)) - m).max() < 1e-13
    d = random_dsets(rng, 30)
    assert np.abs(dset_from_matrix(matrix_from_dset(d)) - d).max() < 1e-13


def test_hermitian_iff_real_coefficients():
    rng = np.random.default_rng(3)
    for _ in range(25):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = m + m.conj().T
        assert np.abs(dset_from_matrix(h).imag).max() < 1e-13
        d = rng.standard_normal(16)
        built = matrix_from_dset(d)
        assert np.abs(built - built.conj().T).max() < 1e-13


def test_conjugate_transpose_conjugates_the_coefficients():
    d = dsets(seed=4)
    adjoint = dset_from_matrix(np.conj(np.swapaxes(matrix_from_dset(d), -1, -2)))
    assert np.abs(adjoint - np.conj(d)).max() < 1e-13


def test_multiply_matches_dense_products():
    a = dsets(count=40, seed=5)
    b = dsets(count=40, seed=6)
    fast = dense_from_dset(dset_multiply(a, b))
    assert np.abs(fast - dense_from_dset(a) @ dense_from_dset(b)).max() < 1e-12


def test_multiply_unit_and_associativity():
    a = dsets(count=10, seed=7)
    b = dsets(count=10, seed=8)
    c = dsets(count=10, seed=9)
    assert np.abs(dset_multiply(a, np.broadcast_to(UNIT_DSET, a.shape)) - a).max() < 1e-13
    left = dset_multiply(dset_multiply(a, b), c)
    right = dset_multiply(a, dset_multiply(b, c))
    assert np.abs(left - right).max() < 1e-11


def test_square_agrees_with_multiply_and_dense():
    d = dsets(count=40, seed=10)
    squared = dset_square(d)
    assert np.abs(squared - dset_multiply(d, d)).max() < 1e-12
    dense = dense_from_dset(d)
    assert np.abs(dense_from_dset(squared) - dense @ dense).max() < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_invariants_match_the_numpy_characteristic_polynomial(seed):
    d = random_dsets(np.random.default_rng(seed), 1)[0]
    m = dense_from_dset(d)
    i1, i2, i3, i4 = char_invariants(d)
    o1, o2, o3, o4 = oracle_invariants(m)
    scale = max(1.0, float(np.abs(m).max()) ** 4)
    assert abs(i1 - o1) < 1e-10 * scale
    assert abs(i2 - o2) < 1e-10 * scale
    assert abs(i3 - o3) < 1e-10 * scale
    assert abs(i4 - o4) < 1e-10 * scale


def test_determinant_invariant_matches_numpy_det():
    d = dsets(count=50, seed=11)
    i4 = char_invariants(d).i4
    dets = np.linalg.det(dense_from_dset(d))
    assert np.abs(i4 - dets).max() < 1e-10


def test_adjoint_matches_the_cofactor_oracle():
    rng = np.random.default_rng(12)
    for _ in range(25):
        d = random_dsets(rng, 1)[0]
        fast = dense_from_dset(dset_adjoint(d))
        assert np.abs(fast - oracle_adjugate(dense_from_dset(d))).max() < 1e-10


def test_inverse_solves_to_identity_both_sides():
    rng = np.random.default_rng(13)
    d = random_dsets(rng, 30)
    d[..., 0] += 6.0  # push away from singular
    inv = dset_inverse(d)
    eye = np.broadcast_to(UNIT_DSET, d.shape)
    assert np.abs(dset_multiply(inv, d) - eye).max() < 1e-11
    assert np.abs(dset_multiply(d, inv) - eye).max() < 1e-11


def test_inverse_matches_numpy_inverse():
    rng = np.random.default_rng(14)
    d = random_dsets(rng, 20)
    d[..., 0] += 6.0
    fast = dense_from_dset(dset_inverse(d))
    assert np.abs(fast - np.linalg.inv(dense_from_dset(d))).max() < 1e-10


def test_singular_input_raises():
    d = np.zeros(16)
    d[0] = 0.5
    d[1] = 0.5  # projector diag(1, 0, 1, 0): rank 2
    with pytest.raises(SingularMatrix):
        dset_inverse(d)


def test_batch_axes_are_preserved():
    rng = np.random.default_rng(15)
    d = rng.standard_normal((3, 5, 16)) + 1j * rng.standard_normal((3, 5, 16))
    assert dset_multiply(d, d).shape == (3, 5, 16)
    assert dset_square(d).shape == (3, 5, 16)
    assert matrix_from_dset(d).shape == (3, 5, 4, 4)
    assert char_invariants(d).i4.shape == (3, 5)
