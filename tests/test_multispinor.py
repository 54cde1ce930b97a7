"""Sparse amplitude container semantics."""

import numpy as np
import pytest

from estc import Multispinor, random_multispinor


def test_missing_sites_read_as_zero():
    c = Multispinor()
    assert np.array_equal(c[(0, 0, 0, 0)], np.zeros(4))
    assert (0, 0, 0, 0) not in c
    c[(0, 0, 0, 0)] = [1, 2, 3, 4]
    assert (0, 0, 0, 0) in c
    assert np.array_equal(c[(0, 0, 0, 0)], np.array([1, 2, 3, 4], dtype=complex))


def test_values_are_complex_4_vectors():
    c = Multispinor()
    c[(1, 1, 0, 0)] = np.arange(4)
    assert c[(1, 1, 0, 0)].dtype == np.complex128
    with pytest.raises(ValueError):
        c[(1, 1, 0, 0)] = [1, 2, 3]


def test_add_to_accumulates():
    c = Multispinor()
    c.add_to((0, 0, 1, 1), [1, 0, 0, 0])
    c.add_to((0, 0, 1, 1), [0, 1j, 0, 0])
    assert np.array_equal(c[(0, 0, 1, 1)], np.array([1, 1j, 0, 0]))


def test_arithmetic_and_norm():
    a = Multispinor()
    b = Multispinor()
    a[(0, 0, 0, 0)] = [1, 0, 0, 0]
    a[(1, 0, 0, 1)] = [0, 2, 0, 0]
    b[(0, 0, 0, 0)] = [0, 0, 3j, 0]
    total = a + b
    assert np.array_equal(total[(0, 0, 0, 0)], np.array([1, 0, 3j, 0]))
    assert np.array_equal(total[(1, 0, 0, 1)], np.array([0, 2, 0, 0]))
    diff = total - b
    assert (diff - a).norm() == 0.0
    assert a.norm() == pytest.approx(np.sqrt(5))
    scaled = 2.0 * a
    assert scaled.norm() == pytest.approx(2 * np.sqrt(5))
    assert a.sites() == sorted(a.sites())


def test_random_multispinor_is_seed_deterministic():
    sites = [(0, 0, 0, 0), (0, 0, 1, 1), (1, 0, 0, 1)]
    a = random_multispinor(sites, 7)
    b = random_multispinor(sites, 7)
    other = random_multispinor(sites, 8)
    assert (a - b).norm() == 0.0
    assert (a - other).norm() > 0.0
    assert set(a.sites()) == set(sites)


def test_random_multispinor_is_the_sequential_per_site_draw():
    sites = [(0, 0, 0, 0), (0, 0, 1, 1), (1, 0, 0, 1), (0, 0, 0, 0), (2, 0, 0, 0)]
    rng = np.random.default_rng(31)
    expected = {}
    for site in sites:  # a repeated site keeps its place and takes the later draw
        expected[site] = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    c = random_multispinor(iter(sites), 31)
    assert list(c) == list(expected)
    for site, value in expected.items():
        assert c[site].tobytes() == value.tobytes()
    assert random_multispinor([], 31).norm() == 0.0


def test_norm_sums_every_amplitude():
    c = random_multispinor([(0, 0, 0, 0), (1, 1, 0, 0), (0, 0, 2, 0)], 4)
    flat = np.concatenate([c[site] for site in c])
    assert c.norm() == pytest.approx(np.linalg.norm(flat), rel=1e-15)


def test_sites_added_one_at_a_time_keep_their_rows_and_views():
    sites = [(k, k % 2, 0, 0) for k in range(40)]
    c = Multispinor()
    for k, site in enumerate(sites):
        c[site] = np.full(4, k)
        c.add_to(site, [0, 1j, 0, 0])
        # a view taken after the inserts so far writes into c
        c[sites[0]][3] = k
    assert c.support == tuple(sites)
    assert np.array_equal(c.coords(), np.array(sites))
    expected = np.arange(40)[:, None] * np.ones(4) + [0, 1j, 0, 0]
    expected[0, 3] = 39
    assert np.array_equal(c.amplitudes, expected)
    assert all(np.array_equal(c[site], row) for site, row in zip(sites, expected))
    view = c[sites[5]]
    view[:] = -1.0
    assert np.array_equal(c.amplitudes[5], -np.ones(4))
    # the copy owns its rows; adding a site to it leaves c as it was
    copy = c.copy()
    copy[(99, 1, 0, 0)] = np.ones(4)
    copy[sites[1]][:] = 0.0
    assert len(c.amplitudes) == 40 and (99, 1, 0, 0) not in c
    assert np.array_equal(c[sites[1]], expected[1])
