"""Wave couplings, row Gram matrix, and overlaps against dense oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from estc import (
    DimensionlessParams,
    FieldConfig,
    SHIFTS_S13,
    a_matrix,
    char_invariants,
    det_l,
    field_intensity,
    l_matrix,
    matrix_from_dset,
    site_add,
    site_sub,
    v_coupling,
    w_vector,
)
from estc import ProjectorAccumulator, Window, lattice
from estc.engine import FieldTables, build_row_gram
from estc.errors import ShiftNotInS13, TransversalityViolation, ZeroField
from estc.field import (
    CONSTRAINED_COMPONENTS,
    FREE_COMPONENTS,
    validate_field,
    validate_params,
    zero_shift_dsets,
)
from estc.lattice import gram_pattern, make_schedule

from helpers import couples, gram_blocks, oracle_overlap, random_field, random_params

PARAMS = DimensionlessParams(0.1, 0.2, 0.3, 0.15, omega=0.5)
FIELD = FieldConfig.from_amplitudes(
    {"a_12": 0.05, "a_13": -0.02, "b_21": 0.03, "b_31": 0.04, "a_62": 0.03, "b_43": -0.01}
)


def dense_v(n, s, f, p):
    return matrix_from_dset(v_coupling(n, s, f, p))


def test_free_and_constrained_components_partition_the_grid():
    assert set(CONSTRAINED_COMPONENTS) == {(1, 1), (2, 2), (3, 3), (4, 1), (5, 2), (6, 3)}
    assert len(FREE_COMPONENTS) == 12
    assert set(FREE_COMPONENTS) | set(CONSTRAINED_COMPONENTS) == {
        (j, k) for j in range(1, 7) for k in range(1, 4)
    }


def test_w_vector_frozen_example():
    w = w_vector((1, 0, -1, 2), PARAMS)
    assert np.allclose(w, [0.6, 0.2, -0.2, 1.15], atol=1e-15)


def test_zero_shift_coupling_frozen_coefficients():
    d = v_coupling((1, 0, -1, 2), (0, 0, 0, 0), FIELD, PARAMS)
    expected = np.zeros(16, dtype=complex)
    expected[0] = 1.0
    expected[4] = -1.15
    expected[13] = -0.2j  # third spatial component
    expected[14] = 0.6j  # first
    expected[15] = 0.2j  # second
    assert np.abs(d - expected).max() < 1e-15


def test_field_shift_coupling_frozen_coefficients():
    f = FieldConfig.from_amplitudes({"a_31": 0.05, "b_31": 0.02, "a_32": -0.03, "b_32": 0.07})
    # wave 3 runs along +e_3: it feeds the (0,0,-1,-1) and (0,0,1,1) shifts
    d = v_coupling((0, 0, 0, 0), (0, 0, -1, -1), f, PARAMS)
    assert d[14] == -0.05j + 0.02
    assert d[15] == 0.03j + 0.07
    assert np.abs(d[[0, 4, 13]]).max() == 0.0
    d = v_coupling((0, 0, 0, 0), (0, 0, 1, 1), f, PARAMS)
    assert d[14] == -0.05j - 0.02
    assert d[15] == 0.03j - 0.07
    # the counter-propagating wave 6 feeds the two mixed shifts
    f6 = FieldConfig.from_amplitudes({"a_61": 0.04})
    d = v_coupling((0, 0, 0, 0), (0, 0, 1, -1), f6, PARAMS)
    assert d[14] == -0.04j
    d = v_coupling((0, 0, 0, 0), (0, 0, -1, 1), f6, PARAMS)
    assert d[14] == -0.04j


def test_field_shift_couplings_are_site_independent():
    for s in SHIFTS_S13[1:]:
        d0 = v_coupling((0, 0, 0, 0), s, FIELD, PARAMS)
        d1 = v_coupling((2, -1, 0, 1), s, FIELD, PARAMS)
        assert np.array_equal(d0, d1)


def test_unknown_shift_raises():
    with pytest.raises(ShiftNotInS13):
        v_coupling((0, 0, 0, 0), (1, 1, 0, 0), FIELD, PARAMS)


def test_validation_rejects_longitudinal_components():
    for j, k in CONSTRAINED_COMPONENTS:
        f = FieldConfig.from_amplitudes({f"a_{j}{k}": 0.1})
        with pytest.raises(TransversalityViolation):
            validate_field(f)
    with pytest.raises(ZeroField):
        validate_field(FieldConfig.from_amplitudes({}))
    with pytest.raises(ValueError):
        validate_params(DimensionlessParams(omega=0.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_validation_rejects_non_finite_numbers(bad):
    with pytest.raises(ValueError):
        validate_field(FieldConfig.from_amplitudes({"a_12": 0.1, "b_43": bad}))
    for name in ("q1", "q2", "q3", "q4", "omega"):
        with pytest.raises(ValueError):
            validate_params(DimensionlessParams(**{name: bad}))


def test_validation_rejects_an_overflowing_intensity():
    with pytest.raises(ValueError):
        validate_field(FieldConfig.from_amplitudes({"a_12": 1e308}))


def test_field_tables_validate_the_field_once_and_the_parameters_each_time(monkeypatch):
    from estc import engine

    FieldTables(FIELD, PARAMS)
    calls = []
    monkeypatch.setattr(engine, "validate_field", lambda f: calls.append(f))
    moved = DimensionlessParams(0.3, -0.1, 0.0, 0.2, omega=PARAMS.omega)
    assert FieldTables(FIELD, moved).params is moved and calls == []
    for bad in (DimensionlessParams(omega=0.0), DimensionlessParams(q2=np.inf)):
        with pytest.raises(ValueError):
            FieldTables(FIELD, bad)
    monkeypatch.undo()
    # a field that fails is refused at every point, before its parameters
    for _ in range(2):
        with pytest.raises(ZeroField):
            FieldTables(FieldConfig.from_amplitudes({}), DimensionlessParams(omega=0.0))
        with pytest.raises(TransversalityViolation):
            FieldTables(FieldConfig.from_amplitudes({"a_11": 0.1}), PARAMS)


def test_intensity_counts_every_free_amplitude_twice():
    f = FieldConfig.from_amplitudes({"b_62": 0.2})
    assert field_intensity(f) == pytest.approx(2 * 0.2**2, abs=1e-15)
    # the (2,2) slot is longitudinal and cannot contribute
    assert (2, 2) in CONSTRAINED_COMPONENTS
    total = sum(
        FIELD.a[j - 1, k - 1] ** 2 + FIELD.b[j - 1, k - 1] ** 2 for j, k in FREE_COMPONENTS
    )
    assert field_intensity(FIELD) == pytest.approx(2 * total, abs=1e-15)


def test_amplitude_dict_round_trip():
    d = FIELD.amplitude_dict()
    assert FieldConfig.from_amplitudes(d) == FIELD
    assert list(d) == sorted(d, key=lambda k: (k[0], k[2:]))
    with pytest.raises(KeyError):
        FieldConfig.from_amplitudes({"c_12": 0.1})
    with pytest.raises(KeyError):
        FieldConfig.from_amplitudes({"a_74": 0.1})


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_gram_matrix_equals_the_coupling_sum(seed):
    rng = np.random.default_rng(seed)
    f = random_field(rng)
    p = random_params(rng)
    n = tuple(rng.integers(-2, 3, size=4))
    stack = np.stack([dense_v(n, s, f, p) for s in SHIFTS_S13])
    gram = np.einsum("sij,skj->ik", stack, stack.conj())
    d = l_matrix(n, f, p)
    assert d.dtype == np.float64  # Hermitian data stays a real dset
    assert np.abs(matrix_from_dset(d) - gram).max() < 1e-12
    assert np.abs(d[[1, 2, 3, 5, 6, 7, 8, 12, 13, 14, 15]]).max() == 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_closed_form_inverse_and_reduced_determinant(seed):
    rng = np.random.default_rng(seed)
    f = random_field(rng)
    p = random_params(rng)
    n = tuple(rng.integers(-2, 3, size=4))
    l_dense = matrix_from_dset(l_matrix(n, f, p))
    a_dense = matrix_from_dset(a_matrix(n, f, p))
    assert np.abs(a_dense @ l_dense - np.eye(4)).max() < 1e-12
    assert np.abs(a_dense - np.linalg.inv(l_dense)).max() < 1e-12
    det = det_l(n, f, p)
    assert det > 0.0
    # two double eigenvalues: the dense determinant is the square
    assert np.linalg.det(l_dense).real == pytest.approx(det * det, rel=1e-12)
    assert char_invariants(l_matrix(n, f, p)).i4 == pytest.approx(det * det, rel=1e-12)


def test_gram_eigenvalues_come_in_two_pairs():
    vals = np.linalg.eigvalsh(matrix_from_dset(l_matrix((1, 0, 1, 0), FIELD, PARAMS)))
    assert vals[0] == pytest.approx(vals[1], rel=1e-12)
    assert vals[2] == pytest.approx(vals[3], rel=1e-12)
    assert vals[0] * vals[2] == pytest.approx(det_l((1, 0, 1, 0), FIELD, PARAMS), rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_overlaps_match_the_brute_column_scan(seed):
    rng = np.random.default_rng(seed)
    f = random_field(rng)
    p = random_params(rng)
    m = tuple(int(x) for x in rng.integers(-2, 3, size=4))
    d = tuple(int(x) for x in rng.integers(-2, 3, size=4))
    # the engine's block N(n, m) from the schedule [m, n], and N(m, n) from [n, m];
    # one site and its diagonal block when d = 0, no block when the rows share no column
    pair = list(dict.fromkeys([m, site_add(m, d)]))
    key, zero = (len(pair) - 1, 0), np.zeros((4, 4))
    fast = gram_blocks(f, p, pair).get(key, zero)
    assert np.abs(fast - oracle_overlap(pair[-1], pair[0], f, p)).max() < 1e-13
    assert np.abs(gram_blocks(f, p, pair[::-1]).get(key, zero) - fast.conj().T).max() == 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_table_overlaps_match_the_brute_column_scan(seed):
    rng = np.random.default_rng(seed)
    f = random_field(rng)
    p = random_params(rng)
    m = tuple(int(x) for x in rng.integers(-2, 3, size=4))
    near = sorted({site_add(m, site_sub(s, t)) for s in SHIFTS_S13 for t in SHIFTS_S13})
    # differences up to 3 per axis reach well beyond coupling distance 2
    far = [site_add(m, tuple(int(x) for x in rng.integers(-3, 4, size=4))) for _ in range(6)]
    picked = [m] + [near[i] for i in rng.integers(0, len(near), size=6)] + far
    schedule = list(dict.fromkeys(picked))
    k = len(schedule)
    tables = FieldTables(f, p)
    pattern = gram_pattern(np.array(schedule))
    blocks = build_row_gram(tables, tables.zero_shift(schedule), pattern)
    assert pattern.stage_ptr[0] == 0 and pattern.stage_ptr[k] == len(blocks)
    for a, x in enumerate(schedule):
        span = slice(pattern.stage_ptr[a], pattern.stage_ptr[a + 1])
        partners = pattern.partner[span].tolist()
        # one block per coupled partner b <= a, ascending, none for the others
        assert partners == [b for b in range(a + 1) if couples(x, schedule[b])]
        assert (pattern.stage[span] == a).all()
        # the field-shift blocks, each with the index of its shift among the twelve
        diffs = {block: site_sub(schedule[b], x) for block, b in zip(range(span.start, span.stop), partners)}
        shifts = {block: SHIFTS_S13.index(d) - 1 for block, d in diffs.items() if d in SHIFTS_S13[1:]}
        mine = (pattern.near >= span.start) & (pattern.near < span.stop)
        assert dict(zip(pattern.near[mine].tolist(), pattern.shift[mine].tolist())) == shifts
        for b, block in zip(partners, blocks[span]):
            assert np.abs(block - oracle_overlap(x, schedule[b], f, p)).max() < 1e-13
        for b in range(a + 1):
            if b not in partners:
                assert not oracle_overlap(x, schedule[b], f, p).any()


def per_site_rows(sites, f, p):
    """(len(sites), 13, 4, 4) coupling matrices of each row, straight from v_coupling."""
    return np.array(
        [[matrix_from_dset(v_coupling(n, s, f, p)) for s in SHIFTS_S13] for n in sites]
    )


def all_pairs_row_gram(rows, stencil):
    """The row Gram blocks with every matched product formed from the rows.

    The reference for the closed form of build_row_gram: one einsum over
    all matches V_k[s] V_i[t]^dag with i <= k of the per-site stack rows,
    in (k, s, t) order, then a stable sort by (k, i) and a sum over each
    run.
    """
    stages = len(stencil)
    owner = np.full((stencil.max() + 1, 13), -1, dtype=np.intp)
    owner[stencil, np.arange(13)] = np.arange(stages)[:, None]
    partner = owner[stencil]
    k, s, t = np.nonzero((partner >= 0) & (partner <= np.arange(stages)[:, None, None]))
    i = partner[k, s, t]
    products = np.einsum("pab,pcb->pac", rows[k, s], rows[i, t].conj())
    key = k * stages + i
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    blocks = np.add.reduceat(products[order], first, axis=0)
    stage_ptr = np.searchsorted(key[first] // stages, np.arange(stages + 1))
    return stage_ptr, key[first] % stages, blocks


@pytest.mark.parametrize("radius, center", [(2, (0, 0, 0, 0)), (3, (1, 0, -1, 2))])
def test_row_gram_in_closed_form_is_the_all_pairs_sum(radius, center):
    rng = np.random.default_rng(radius)
    window = Window(radius, center)
    schedule = make_schedule(window)
    points = window.points()
    index = {site: j for j, site in enumerate(points)}
    stencil = np.array([[index[site_add(n, s)] for s in SHIFTS_S13] for n in schedule])
    pattern = gram_pattern(np.array(schedule))
    for _ in range(3):
        f, p = random_field(rng), random_params(rng)
        tables = FieldTables(f, p)
        gram = build_row_gram(tables, tables.zero_shift(schedule), pattern)
        stage_ptr, partner, blocks = all_pairs_row_gram(per_site_rows(schedule, f, p), stencil)
        assert np.array_equal(pattern.stage_ptr, stage_ptr)
        assert np.array_equal(pattern.partner, partner)
        # the same products, summed in another order: equal to a few rounding steps
        eps = np.finfo(float).eps
        assert np.abs(gram - blocks).max() <= 4 * eps * np.abs(blocks).max()
        owner = np.repeat(np.arange(len(schedule)), np.diff(pattern.stage_ptr))
        for k, i, block in zip(owner, pattern.partner, gram):
            assert np.abs(block - oracle_overlap(schedule[k], schedule[i], f, p)).max() < 1e-13


def test_field_overlap_of_the_zero_difference_is_the_intensity():
    # C_0 = sum_s F_s F_s^dag is the I_A of l_matrix's closed form times the identity
    rng = np.random.default_rng(11)
    for _ in range(200):
        f = random_field(rng)
        intensity = field_intensity(f)
        c0 = FieldTables(f, DimensionlessParams()).field_overlap[0]
        assert np.abs(c0 - intensity * np.eye(4)).max() <= 1e-14 * intensity


def test_field_overlap_vanishes_on_the_field_shifts():
    # two field shifts never differ by a field shift: their time steps are +-1 each
    overlap = FieldTables(FIELD, PARAMS).field_overlap
    assert overlap.shape == (69, 4, 4)
    assert not overlap[1:13].any()


def test_row_gram_off_the_near_differences_is_the_field_overlap():
    # only the zero-shift blocks carry q, and they enter the blocks with d = 0..12 alone;
    # a field with every wave present, so that no F_s vanishes
    f = random_field(np.random.default_rng(5))
    window = Window(3, (1, 0, -1, 2))
    moved = DimensionlessParams(-0.2, 0.05, 0.1, 0.3, omega=PARAMS.omega)
    first, second = (ProjectorAccumulator(f, p, window) for p in (PARAMS, moved))
    diff = lattice.window_table(window).pattern.diff
    overlap = first.tables.field_overlap
    far = diff >= 13
    assert far.any() and (~far).any()
    for acc in (first, second):
        assert acc.gram[far].tobytes() == overlap[diff[far]].tobytes()
    assert (first.gram[~far] != second.gram[~far]).any(axis=(1, 2)).all()


def test_table_rows_are_the_per_site_coupling_stack():
    rng = np.random.default_rng(7)
    sites = Window(3, (1, 0, -1, 2)).points()
    for _ in range(4):
        f, p = random_field(rng), random_params(rng)
        expected = per_site_rows(sites, f, p)
        tables = FieldTables(f, p)
        assert np.array_equal(tables.zero_shift(sites), expected[:, 0])
        # the twelve field-shift matrices are every row's, at any site
        assert np.array_equal(
            np.broadcast_to(tables.field_v, expected[:, 1:].shape), expected[:, 1:]
        )
        # one zero-shift formula: v_coupling reads its row of the vectorized dsets
        assert np.array_equal(
            zero_shift_dsets(sites, p),
            np.array([v_coupling(n, (0, 0, 0, 0), f, p) for n in sites]),
        )
    assert FieldTables(f, p).zero_shift([]).shape == (0, 4, 4)


def test_overlap_diagonal_is_the_gram_matrix():
    n = (0, -1, 0, 1)
    fast = gram_blocks(FIELD, PARAMS, [n])[(0, 0)]
    assert np.abs(fast - matrix_from_dset(l_matrix(n, FIELD, PARAMS))).max() < 1e-13


def test_overlap_vanishes_beyond_coupling_distance():
    m = (0, 0, 0, 0)
    for d in ((3, 0, 0, 1), (0, 0, 0, 4), (2, 1, 0, 3), (1, 1, 1, 1)):
        # the engine keeps no block for the pair, and the rows share no column
        assert gram_blocks(FIELD, PARAMS, [m, d]).keys() == {(0, 0), (1, 1)}
        assert not oracle_overlap(m, d, FIELD, PARAMS).any()
