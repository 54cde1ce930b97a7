"""Stencil, coupling range, and window enumeration against brute scans."""

import itertools
import re

import numpy as np
import pytest

from estc import (
    SHIFTS_S13,
    lattice,
    Window,
    g4d,
    site_add,
    site_sub,
)
from estc.lattice import in_lattice, make_schedule, window_size

from helpers import couples

FROZEN_SHIFTS = (
    (0, 0, 0, 0),
    (0, 0, -1, -1),
    (0, -1, 0, -1),
    (-1, 0, 0, -1),
    (1, 0, 0, -1),
    (0, 1, 0, -1),
    (0, 0, 1, -1),
    (0, 0, -1, 1),
    (0, -1, 0, 1),
    (-1, 0, 0, 1),
    (1, 0, 0, 1),
    (0, 1, 0, 1),
    (0, 0, 1, 1),
)

# (radius, window size, interior size); sizes counted by the brute scan below
FROZEN_SIZES = (
    (0, 1, 0), (1, 13, 1), (2, 69, 13), (3, 233, 69), (4, 601, 233), (5, 1301, 601),
)


def brute_window(radius, center=(0, 0, 0, 0)):
    out = set()
    span = range(-radius, radius + 1)
    for d in itertools.product(span, span, span, span):
        n = site_add(center, d)
        if in_lattice(n) and g4d(d) <= radius:
            out.add(n)
    return out


def test_stencil_is_the_frozen_table():
    assert SHIFTS_S13 == FROZEN_SHIFTS


def test_stencil_properties():
    assert len(set(SHIFTS_S13)) == 13
    assert SHIFTS_S13[0] == (0, 0, 0, 0)
    for s in SHIFTS_S13[1:]:
        assert g4d(s) == 1
        assert abs(s[3]) == 1
        assert sum(map(abs, s[:3])) == 1
        assert in_lattice(s)
    # every field shift appears with its negative
    assert {tuple(-x for x in s) for s in SHIFTS_S13} == set(SHIFTS_S13)


def test_g4d_frozen_examples():
    assert g4d((0, 0, 0, 0)) == 0
    assert g4d((1, 0, 0, 1)) == 1
    assert g4d((1, 1, 0, 0)) == 2
    assert g4d((2, 1, 0, 3)) == 3
    assert g4d((0, 0, 0, 4)) == 4
    assert g4d((-1, -1, -1, -1)) == 3


def test_in_lattice_is_even_parity():
    assert in_lattice((0, 0, 0, 0))
    assert in_lattice((1, 0, 0, 1))
    assert not in_lattice((1, 0, 0, 0))
    assert not in_lattice((1, 1, 1, 0))


def test_site_arithmetic():
    a, b = (1, -2, 3, 0), (0, 1, 1, -2)
    assert site_add(a, b) == (1, -1, 4, -2)
    assert site_sub(a, b) == (1, -3, 2, 2)
    assert site_sub(site_add(a, b), b) == a


def test_couples_matches_the_brute_column_scan():
    span = range(-3, 4)
    for d in itertools.product(span, span, span, span):
        m = (0, 0, 0, 0)
        n = d
        shared = any(
            site_add(m, s) == site_add(n, s2)
            for s in SHIFTS_S13
            for s2 in SHIFTS_S13
        )
        assert couples(m, n) == shared, d


def test_coupling_diffs_lead_with_the_stencil_then_the_other_differences():
    diffs = lattice.COUPLING_DIFFS
    assert diffs.shape == (69, 4) and diffs.dtype == np.int64
    assert not diffs.flags.writeable
    assert [tuple(d) for d in diffs[:13].tolist()] == list(FROZEN_SHIFTS)
    # the negative of field shift j is field shift 13 - j
    assert np.array_equal(diffs[13 - np.arange(1, 13)], -diffs[1:13])
    every = {site_sub(s, t) for s in FROZEN_SHIFTS for t in FROZEN_SHIFTS}
    assert {tuple(d) for d in diffs.tolist()} == every and len(every) == 69


def test_couples_is_symmetric_and_translation_invariant():
    rng = np.random.default_rng(0)
    for _ in range(200):
        m = tuple(rng.integers(-3, 4, size=4))
        n = tuple(rng.integers(-3, 4, size=4))
        t = tuple(rng.integers(-5, 6, size=4))
        assert couples(m, n) == couples(n, m)
        assert couples(m, n) == couples(site_add(m, t), site_add(n, t))


def test_coupling_distance_bound():
    span = range(-3, 4)
    for d in itertools.product(span, span, span, span):
        if couples((0, 0, 0, 0), d):
            assert g4d(d) <= 2


def test_window_sites_match_the_brute_scan():
    for radius in range(4):
        for center in ((0, 0, 0, 0), (1, 0, -1, 2)):
            points = Window(radius, center).points()
            assert set(points) == brute_window(radius, center)
            assert len(points) == len(set(points))


def test_window_order_is_g4d_then_lexicographic():
    # the largest center a configuration accepts: the int64 sites reach 2**62 + 2
    for radius, center in ((3, (0, 0, 0, 0)), (2, (2**62, 0, 0, 0))):
        points = Window(radius, center).points()
        keys = [(g4d(site_sub(n, center)), n) for n in points]
        assert keys == sorted(keys)
        assert set(points) == brute_window(radius, center)


def test_frozen_window_and_interior_sizes():
    for radius, total, interior in FROZEN_SIZES:
        w = Window(radius)
        assert len(w.points()) == total == window_size(radius)
        assert len(w.interior_points()) == interior == window_size(radius - 1)


def test_window_size_matches_the_brute_scan():
    assert window_size(-1) == 0
    for radius in range(5):
        for center in ((0, 0, 0, 0), (1, 0, -1, 2)):
            assert window_size(radius) == len(brute_window(radius, center))


def test_window_membership_and_validation():
    members = set(Window(2, (0, 0, 1, 1)).points())
    assert (0, 0, 1, 1) in members
    assert (0, 0, 2, 2) in members
    assert (0, 0, 1, 0) not in members  # odd parity
    assert (0, 0, 4, 1) not in members  # too far
    with pytest.raises(ValueError):
        Window(-1)
    with pytest.raises(ValueError):
        Window(2, (0, 0, 0, 1))
    with pytest.raises(ValueError):
        Window(1, (0, 0, 0, 1))
    refused = [
        ((2, (0, 0, 0)), "center"),
        ((2, (1.0, 1.0, 0, 0)), "center"),
        ((2, (0, 0, 0, True)), "center"),
        ((2, "0000"), "center"),
        ((2, 0), "center"),
        ((2, (2**62 + 2, 0, 0, 0)), "center"),
        ((2, (-(2**63), 0, 0, 0)), "center"),
        ((1.5,), "radius"),
        ((True,), "radius"),
        (("2",), "radius"),
    ]
    for args, name in refused:
        with pytest.raises(ValueError, match=f"window {name} .*{re.escape(repr(args[-1]))}"):
            Window(*args)
    w = Window(np.int64(2), [0, 0, np.int64(1), 1])
    assert w == Window(2, (0, 0, 1, 1)) and type(w.radius) is int
    assert w.center == (0, 0, 1, 1) and all(type(n) is int for n in w.center)


def test_interior_means_all_neighbors_inside():
    for w in (Window(2), Window(3, (1, 1, 0, 0))):
        members = set(w.points())
        inside = {n for n in members if all(site_add(n, s) in members for s in SHIFTS_S13)}
        assert set(w.interior_points()) == inside == brute_window(w.radius - 1, w.center)


def test_schedule_is_the_interior_in_time_major_order():
    for w in (Window(2), Window(3, (1, 1, 0, 0))):
        sched = make_schedule(w)
        assert sorted(sched) == sorted(w.interior_points())
        keys = [(n[3], g4d(site_sub(n, w.center)), n) for n in sched]
        assert keys == sorted(keys)
    assert make_schedule(Window(2))[6] == (0, 0, 0, 0)


# slice sizes (t = -r..r, r = R - 1) counted by the brute scan
FROZEN_SLICES = {
    1: [1], 2: [6, 1, 6], 3: [19, 6, 19, 6, 19], 4: [44, 19, 44, 19, 44, 19, 44],
    5: [85, 44] * 4 + [85], 6: [146, 85] * 5 + [146],
}


def test_slice_sizes_match_the_brute_scan():
    for radius, sizes in FROZEN_SLICES.items():
        interior = brute_window(radius - 1)
        counted = [sum(n[3] == t for n in interior) for t in range(1 - radius, radius)]
        assert counted == sizes
        even, odd = lattice.slice_sizes(radius)
        assert sizes == [even if t % 2 == 0 else odd for t in range(1 - radius, radius)]


def test_schedule_rejects_windows_without_interior():
    with pytest.raises(ValueError):
        make_schedule(Window(0))


def test_schedule_refuses_windows_past_the_byte_budget():
    assert lattice.MAX_FACTOR_BYTES == 499_500 * 256
    assert lattice.factor_bytes(6) == 87_488_800 <= lattice.MAX_FACTOR_BYTES
    assert len(make_schedule(Window(6))) == 1301
    refusal = "2493 stages and a band factor of 277115168 bytes, more than the limit of 127872000"
    with pytest.raises(ValueError, match=refusal):
        make_schedule(Window(7))
    with pytest.raises(ValueError, match="limit of 127872000 bytes"):
        make_schedule(Window(2**40))


def test_window_sites_are_enumerated_once_and_copied():
    first = Window(3, (1, 0, -1, 2)).points()
    first.append((9, 9, 9, 9))
    builds = lattice._window_table.cache_info().misses
    # a list or numpy-integer center names the same window and shares its table
    again = Window(3, [1, 0, np.int64(-1), 2]).points()
    assert lattice._window_table.cache_info().misses == builds
    assert again == first[:-1] and again is not first


@pytest.mark.parametrize("radius, center", [(1, (0, 0, 0, 0)), (2, (0, 0, 0, 0)), (3, (1, 0, -1, 2))])
def test_layout_neighbor_table_matches_the_brute_scan(radius, center):
    window = Window(radius, center)
    layout = lattice.window_table(window)
    points = window.points()
    assert list(layout.sites) == points
    for i, n in enumerate(points):
        assert tuple(layout.coords[i]) == n
    for k, i in enumerate(layout.schedule):
        for s, shift in enumerate(SHIFTS_S13):
            assert layout.stencil[k, s] == points.index(site_add(points[i], shift))
    assert (layout.stencil >= 0).all()  # every scheduled stencil lies in the window
    interior = window.interior_points()
    assert [points[i] for i in layout.schedule] == sorted(interior, key=lambda n: n[3])
    assert make_schedule(window) == sorted(interior, key=lambda n: n[3])


def test_layout_is_cached_and_read_only():
    table = lattice.window_table(Window(3, (1, 0, -1, 2)))
    assert lattice.window_table(Window(3, (1, 0, -1, 2))) is table
    arrays = [value for value in vars(table).values() if isinstance(value, np.ndarray)]
    assert len(arrays) == 9
    for array in (*arrays, lattice.SHIFT_ARRAY):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


@pytest.mark.parametrize("radius", range(1, 7))
def test_the_stencils_reach_every_window_site(radius):
    # the projection's sorted reduction has one run per window site, in window order
    table = lattice.window_table(Window(radius, (1, 0, -1, 2)))
    assert np.array_equal(np.unique(table.stencil), np.arange(len(table.coords)))
    assert len(table.scatter_first) == len(table.coords) == lattice.window_size(radius)


def test_locate_matches_a_dict_lookup():
    rng = np.random.default_rng(3)
    points = np.unique(rng.integers(-3, 4, size=(60, 4)), axis=0)
    rng.shuffle(points)
    queries = rng.integers(-4, 5, size=(7, 9, 4))
    # the same lookup with about half the points and queries 2**40 away on every axis
    far = points + 2**40 * rng.integers(0, 2, size=(len(points), 1))
    far_queries = queries + 2**40 * rng.integers(0, 2, size=(7, 9, 1))
    far_queries[0, :3] = far[:3]
    # the same lookup with sites listed up to three times: each resolves to its first row
    repeated = np.concatenate([points, points[::2], points[::-3]])
    repeated_queries = queries.copy()
    repeated_queries[0] = repeated[-9:]
    cases = ((points, queries), (far, far_queries), (repeated, repeated_queries))
    for points, queries in cases:
        index = {}
        for i, p in enumerate(points.tolist()):
            index.setdefault(tuple(p), i)
        got = lattice.locate(points, queries)
        assert got.shape == (7, 9)
        expected = [[index.get(tuple(q), -1) for q in row] for row in queries.tolist()]
        assert got.tolist() == expected
        assert (got >= 0).any() and (got == -1).any()
        assert lattice.locate(points[:0], queries).tolist() == [[-1] * 9] * 7
        assert lattice.locate(points, queries[:0]).shape == (0, 9)
