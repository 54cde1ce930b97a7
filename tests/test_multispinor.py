"""Sparse amplitude container semantics."""

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from estc import Window, multispinor, random_multispinor
from estc.multispinor import Multispinor

from helpers import from_dict

SITE_SETS = st.lists(st.tuples(*[st.integers(-2, 2)] * 4), max_size=20, unique=True)


def test_missing_sites_read_as_zero():
    c = from_dict({})
    assert np.array_equal(c[(0, 0, 0, 0)], np.zeros(4))
    assert (0, 0, 0, 0) not in c
    c = from_dict({(0, 0, 0, 0): [1, 2, 3, 4]})
    assert (0, 0, 0, 0) in c
    assert np.array_equal(c[(0, 0, 0, 0)], np.array([1, 2, 3, 4], dtype=complex))
    assert np.array_equal(c[(0, 0, 1, 1)], np.zeros(4))


def test_values_are_complex_4_vectors():
    c = Multispinor([(1, 1, 0, 0)], np.arange(4, dtype=complex).reshape(1, 4))
    assert c[(1, 1, 0, 0)].dtype == np.complex128
    with pytest.raises(ValueError):
        Multispinor([(1, 1, 0, 0)], np.zeros((1, 3), dtype=complex))
    with pytest.raises(ValueError):
        Multispinor([(1, 1, 0, 0)], np.zeros((1, 4)))  # real, not complex
    with pytest.raises(ValueError):
        Multispinor([(1, 1, 0, 0), (0, 0, 0, 0)], np.zeros((1, 4), dtype=complex))


def test_arithmetic_and_norm():
    a = from_dict({(0, 0, 0, 0): [1, 0, 0, 0], (1, 0, 0, 1): [0, 2, 0, 0]})
    b = from_dict({(0, 0, 0, 0): [0, 0, 3j, 0]})
    total = a + b
    assert np.array_equal(total[(0, 0, 0, 0)], np.array([1, 0, 3j, 0]))
    assert np.array_equal(total[(1, 0, 0, 1)], np.array([0, 2, 0, 0]))
    diff = total - b
    assert (diff - a).norm() == 0.0
    assert a.norm() == pytest.approx(np.sqrt(5))
    scaled = 2.0 * a
    assert scaled.norm() == pytest.approx(2 * np.sqrt(5))


def test_a_difference_signs_its_zeros_alike_on_equal_and_other_sites():
    # (-1.0) * b, a complex product, turns the -0.0 of -(0 - 3j) into +0.0
    a = Multispinor([(0, 0, 0, 0)], np.array([[complex(-0.0, 1.0), -0.0, 0.0, 1.0]]))
    b = Multispinor([(0, 0, 0, 0)], np.array([[complex(0.0, -3.0), 0.0, -0.0, 1.0]]))
    wider = Multispinor([(0, 0, 0, 0), (1, 1, 0, 0)], np.concatenate([b.amplitudes, np.ones((1, 4))]))
    want = a.amplitudes - b.amplitudes
    assert (a - b).amplitudes.tobytes() == want.tobytes()
    assert (a - wider).amplitudes[:1].tobytes() == want.tobytes()
    assert np.signbit(want[0, 0].real)


def test_sum_keeps_the_sites_of_the_left_then_the_new_ones_of_the_right():
    a = random_multispinor([(0, 0, 0, 0), (2**62, 0, 0, 0), (1, 1, 0, 0)], 1)
    b = random_multispinor([(3, 1, 0, 0), (1, 1, 0, 0), (-(2**62), 0, 0, 0)], 2)
    total = a + b
    assert list(total) == [(0, 0, 0, 0), (2**62, 0, 0, 0), (1, 1, 0, 0), (3, 1, 0, 0), (-(2**62), 0, 0, 0)]
    for site in total:
        assert np.array_equal(total[site], a[site] + b[site])
    assert list(a + from_dict({})) == list(a) and list(from_dict({}) + b) == list(b)


def test_at_reads_each_site_and_zero_where_absent():
    window = Window(1).points()
    c = random_multispinor(window[::2], 3)
    points = np.array(window, dtype=np.int64)
    moved = points + 2**40
    # sites of c (even rows of points), window sites c lacks (odd rows), sites of c moved 2**40
    sites = np.stack([[points[0], points[1], moved[2]], [moved[4], points[6], points[3]]])
    values = c.at(sites)
    assert values.shape == (2, 3, 4)
    for index in np.ndindex(2, 3):
        assert np.array_equal(values[index], c[tuple(sites[index].tolist())])
    assert [bool(np.any(row)) for row in values.reshape(-1, 4)] == [1, 0, 0, 0, 1, 0]
    assert not np.any(from_dict({}).at(sites))


def test_random_multispinor_is_seed_deterministic():
    sites = [(0, 0, 0, 0), (0, 0, 1, 1), (1, 0, 0, 1)]
    a = random_multispinor(sites, 7)
    b = random_multispinor(sites, 7)
    other = random_multispinor(sites, 8)
    assert (a - b).norm() == 0.0
    assert (a - other).norm() > 0.0
    assert set(a) == set(sites)


def test_random_multispinor_is_the_sequential_per_site_draw():
    sites = [(0, 0, 0, 0), (0, 0, 1, 1), (1, 0, 0, 1), (2, 0, 0, 0)]
    rng = np.random.default_rng(31)
    expected = [rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in sites]
    c = random_multispinor(sites, 31)
    assert list(c) == sites
    for site, value in zip(sites, expected):
        assert c[site].tobytes() == value.tobytes()
    # the sites as an (N, 4) array draw the same bits
    same = random_multispinor(np.array(sites, dtype=np.int64), 31)
    assert same.coords.tobytes() == c.coords.tobytes()
    assert same.amplitudes.tobytes() == c.amplitudes.tobytes()
    assert random_multispinor([], 31).norm() == 0.0


def test_random_multispinor_refuses_a_repeated_site():
    sites = [(0, 0, 0, 0), (0, 0, 1, 1), (1, 0, 0, 1), (0, 0, 0, 0), (2, 0, 0, 0)]
    with pytest.raises(ValueError, match=re.escape("site [0, 0, 0, 0] is listed twice")):
        random_multispinor(sites, 31)


def test_norm_sums_every_amplitude():
    c = random_multispinor([(0, 0, 0, 0), (1, 1, 0, 0), (0, 0, 2, 0)], 4)
    flat = np.concatenate([c[site] for site in c])
    assert c.norm() == pytest.approx(np.linalg.norm(flat), rel=1e-15)


def test_sites_are_one_read_only_array_and_rows_are_views():
    sites = [(k, k % 2, 0, 0) for k in range(40)]
    coords = np.array(sites)
    rows = np.arange(40)[:, None] * np.ones(4, dtype=complex)
    c = Multispinor(coords, rows)
    assert c.coords.dtype == np.int64 and np.array_equal(c.coords, coords)
    assert c.amplitudes is rows
    assert c.support == tuple(sites) and list(c) == sites
    with pytest.raises(ValueError, match="read-only"):
        c.coords[0, 0] = 5
    coords[0, 0] = 5  # a copy: the caller's array stays writable and c keeps its sites
    assert c.coords[0, 0] == 0 and c[sites[0]][0] == 0
    with pytest.raises(TypeError):
        c[(99, 1, 0, 0)] = np.ones(4)  # the sites are fixed
    view = c[sites[5]]
    view[:] = -1.0
    assert np.array_equal(c.amplitudes[5], -np.ones(4))


@settings(max_examples=80, deadline=None)
@given(SITE_SETS, SITE_SETS, st.sampled_from(["equal", "permuted", "subset", "superset"]), st.integers(0, 2**32 - 1))
def test_equal_sites_read_and_add_the_bits_of_the_locate_path(sites, extra, relation, seed):
    rng = np.random.default_rng(seed)
    coords = np.array(sites, dtype=np.int64).reshape(-1, 4)
    new = np.array([site for site in extra if site not in set(sites)], dtype=np.int64).reshape(-1, 4)
    other = {
        "equal": coords.copy(),
        "permuted": coords[rng.permutation(len(coords))],
        "subset": coords[np.sort(rng.permutation(len(coords))[: len(coords) // 2])],
        "superset": np.concatenate([coords, new])[rng.permutation(len(coords) + len(new))],
    }[relation]

    def draw(n):
        return rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))

    a = Multispinor(coords, draw(len(coords)))
    b = Multispinor(other, draw(len(other)))

    def results():
        return a.at(other), a + b, a - b, b + a

    if relation == "equal":
        # the equal-sites paths match no site
        with mock.patch.object(multispinor, "locate", side_effect=AssertionError("locate called")):
            fast = results()
    else:
        fast = results()
    with mock.patch.object(multispinor, "_same_sites", return_value=False):
        reference = results()
    assert fast[0].tobytes() == reference[0].tobytes()
    assert not np.shares_memory(fast[0], a.amplitudes)
    for got, want in zip(fast[1:], reference[1:]):
        assert got.coords.tobytes() == want.coords.tobytes()
        assert got.amplitudes.tobytes() == want.amplitudes.tobytes()
        assert not np.shares_memory(got.amplitudes, a.amplitudes)
        assert not np.shares_memory(got.amplitudes, b.amplitudes)
