"""Stencil, coupling range, and window enumeration against brute scans."""

import itertools

import numpy as np
import pytest

from estc import (
    SHIFTS_S13,
    Window,
    couples,
    g4d,
    in_lattice,
    make_schedule,
    shifts_s13,
    site_add,
    site_sub,
    window_points,
    window_size,
)

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
    assert shifts_s13() == FROZEN_SHIFTS


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


def test_window_points_match_the_brute_scan():
    for radius in range(4):
        for center in ((0, 0, 0, 0), (1, 0, -1, 2)):
            points = window_points(radius, center)
            assert set(points) == brute_window(radius, center)
            assert len(points) == len(set(points))


def test_window_order_is_g4d_then_lexicographic():
    center = (0, 0, 0, 0)
    points = window_points(3, center)
    keys = [(g4d(site_sub(n, center)), n) for n in points]
    assert keys == sorted(keys)


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
    w = Window(2, (0, 0, 1, 1))
    assert (0, 0, 1, 1) in w
    assert (0, 0, 2, 2) in w
    assert (0, 0, 1, 0) not in w  # odd parity
    assert (0, 0, 4, 1) not in w  # too far
    with pytest.raises(ValueError):
        Window(-1)
    with pytest.raises(ValueError):
        Window(2, (0, 0, 0, 1))
    with pytest.raises(ValueError):
        window_points(1, (0, 0, 0, 1))


def test_interior_means_all_neighbors_inside():
    for w in (Window(2), Window(3, (1, 1, 0, 0))):
        for n in w.points():
            assert w.interior(n) == all(site_add(n, s) in w for s in SHIFTS_S13)
        assert set(w.interior_points()) == brute_window(w.radius - 1, w.center)


def test_schedule_is_the_interior_in_window_order():
    w = Window(2)
    sched = make_schedule(w)
    assert sched == w.interior_points()
    assert sched[0] == (0, 0, 0, 0)
    assert len(sched) == 13
    keys = [(g4d(n), n) for n in sched]
    assert keys == sorted(keys)


def test_schedule_rejects_windows_without_interior():
    with pytest.raises(ValueError):
        make_schedule(Window(0))


def test_schedule_refuses_windows_past_the_stage_limit():
    assert len(make_schedule(Window(5))) == 601
    with pytest.raises(ValueError, match="1301 stages, more than the limit of 1000"):
        make_schedule(Window(6))
    with pytest.raises(ValueError, match="limit of 1000"):
        make_schedule(Window(2**40))
