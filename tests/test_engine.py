"""The slice band factor and the accumulated projector against dense oracles."""

import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from estc import (
    DimensionlessParams,
    FieldConfig,
    ProjectorAccumulator,
    SHIFTS_S13,
    StageSingular,
    Window,
    dset_from_matrix,
    g4d,
    matrix_from_dset,
    parse_config,
    random_multispinor,
    site_add,
    site_sub,
    v_coupling,
)
import estc.multispinor
from estc import cli, engine, lattice
from estc.combiner import combine_pair
from estc.engine import FieldTables, residual_table
from estc.errors import ConfigError
from estc.field import a_matrix
from estc.io import RunReport, read_operator, stages_csv, write_operator
from estc.multispinor import Multispinor

from helpers import (
    dense_factor,
    dense_from_dset,
    dense_row_gram,
    dense_rows,
    factored_projector,
    from_dict,
    oracle_overlap,
    prefix_projector,
    random_field,
    random_params,
    svd_projector,
    to_multispinor,
    to_vector,
)

SAMPLE_CONFIG = Path(__file__).resolve().parent.parent / "demos" / "sample_config.txt"

FIELD = FieldConfig.from_amplitudes(
    {"a_12": 0.05, "a_13": -0.02, "b_21": 0.03, "b_31": 0.04, "a_62": 0.03, "b_43": -0.01}
)
PARAMS = DimensionlessParams(0.1, 0.2, 0.3, 0.15, omega=0.5)


def fresh_accumulator(radius=2, **kwargs):
    return ProjectorAccumulator(FIELD, PARAMS, Window(radius), **kwargs)


def eigenprojector(matrix, tol=1e-6):
    # orthogonal projector onto the span of a PSD operator's range
    values, vectors = np.linalg.eigh(matrix)
    q = vectors[:, values > tol]
    return q @ q.conj().T


def bare_projector(n, f, p, sites):
    """Single-row projector P(n) = V_n^dag a(n) V_n, dense over the given sites."""
    v = dense_rows(f, p, [n], sites)
    a = np.linalg.inv(v @ v.conj().T)
    return v.conj().T @ a @ v


def applied_matrix(acc, sites):
    """Dense matrix of acc.apply_projector, one unit vector at a time."""
    eye = np.eye(4 * len(sites), dtype=complex)
    columns = [to_vector(acc.apply_projector(to_multispinor(e, sites)), sites) for e in eye]
    return np.stack(columns, axis=1)


def test_bare_block_structure():
    tables = FieldTables(FIELD, PARAMS)
    n = (0, 0, 0, 0)
    support = sorted(site_add(n, s) for s in SHIFTS_S13)
    v = np.zeros((4, 4 * len(support)), dtype=complex)
    row = np.concatenate([tables.zero_shift([n]), tables.field_v])
    for i, s in enumerate(SHIFTS_S13):
        j = support.index(site_add(n, s))
        v[:, 4 * j : 4 * j + 4] = row[i]
    dense = v.conj().T @ matrix_from_dset(a_matrix(n, FIELD, PARAMS)) @ v
    assert np.abs(dense - bare_projector(n, FIELD, PARAMS, support)).max() < 1e-12
    assert np.abs(dense - dense.conj().T).max() < 1e-12
    assert np.abs(dense @ dense - dense).max() < 1e-12
    assert np.trace(dense).real == pytest.approx(4.0, abs=1e-12)


def test_first_stage_is_the_bare_block():
    # the window of radius 1 schedules one site
    acc = fresh_accumulator(radius=1).run()
    assert len(acc.schedule) == 1
    m0 = acc.schedule[0]
    # the first pivot R_00 R_00^dag is the row Gram matrix L(m0), its core a(m0)
    r = dense_factor(acc)
    assert r.shape == (4, 4)
    core = np.linalg.inv(r @ r.conj().T)
    assert np.abs(core - matrix_from_dset(a_matrix(m0, FIELD, PARAMS))).max() < 1e-12
    sites = acc.window.points()
    expected = bare_projector(m0, FIELD, PARAMS, sites)
    assert np.abs(applied_matrix(acc, sites) - expected).max() < 1e-12
    support = {site_add(m0, s) for s in SHIFTS_S13}
    assert set(acc.apply_projector(random_multispinor(sites, 1))) == support


def test_first_coupling_matches_its_closed_form():
    acc = fresh_accumulator()
    m0 = acc.schedule[0]
    # the first stage whose row overlaps the row of m0 on this field
    k = next(
        k
        for k, m in enumerate(acc.schedule)
        if np.abs(oracle_overlap(m, m0, FIELD, PARAMS)).max() > 1e-3
    )
    acc.run()
    expected = oracle_overlap(acc.schedule[k], m0, FIELD, PARAMS) @ matrix_from_dset(
        a_matrix(m0, FIELD, PARAMS)
    )
    # the block LDL^dag factor U = R blockdiag(R_kk)^-1 holds C_k0 = N(m_k, m0) A_0 at (k, 0)
    r = dense_factor(acc)
    coupling = r[4 * k : 4 * k + 4, 0:4] @ np.linalg.inv(r[0:4, 0:4])
    assert np.abs(coupling - expected).max() < 1e-12


@pytest.fixture(scope="module")
def radius_2_run():
    return fresh_accumulator().run()


@pytest.mark.parametrize("k", range(1, 13))
def test_each_stage_matches_the_pair_combination(k, radius_2_run):
    # the paper's pair formula: P_{<=k} combines P_{<k} with the bare block of m_k;
    # the projector of the first k stages comes from the leading block of the factor
    acc = radius_2_run
    assert len(acc.schedule) == 13
    sites = acc.window.points()
    alpha = prefix_projector(acc, k, sites)
    beta = bare_projector(acc.schedule[k], FIELD, PARAMS, sites)
    after = prefix_projector(acc, k + 1, sites) if k < 12 else applied_matrix(acc, sites)
    assert np.abs(after - combine_pair(alpha, beta)).max() < 1e-9


def test_accumulated_projector_matches_the_dense_span_oracle():
    acc = fresh_accumulator().run()
    sites = acc.window.points()
    stacked = sum(bare_projector(n, FIELD, PARAMS, sites) for n in acc.schedule)
    expected = eigenprojector(stacked)
    assert np.abs(applied_matrix(acc, sites) - expected).max() < 1e-8


def test_stage_blocks_satisfy_the_projector_identities():
    acc = fresh_accumulator().run()
    assert len(acc.schedule) == 13
    sites = acc.window.points()
    k = len(acc.schedule)
    v = dense_rows(FIELD, PARAMS, acc.schedule, sites)
    phi = np.linalg.solve(dense_factor(acc), v).reshape(k, 4, -1)
    total = 0.0
    for row in phi:
        dense = row.conj().T @ row
        assert np.abs(dense - dense.conj().T).max() < 1e-10
        assert np.abs(dense @ dense - dense).max() < 1e-9
        assert np.trace(dense).real == pytest.approx(4.0, abs=1e-9)
        total += np.trace(dense).real
    for i in range(k):
        for j in range(i + 1, k):
            cross = phi[i] @ phi[j].conj().T
            assert np.abs(cross).max() < 1e-9, (i, j)
    assert total == pytest.approx(4.0 * k, abs=1e-9)


def test_projector_absorbs_every_processed_bare_block():
    acc = fresh_accumulator().run()
    sites = acc.window.points()
    x = to_vector(random_multispinor(sites, 11), sites)
    for n in acc.processed_sites():
        image = bare_projector(n, FIELD, PARAMS, sites) @ x
        absorbed = to_vector(acc.apply_projector(to_multispinor(image, sites)), sites)
        assert np.linalg.norm(absorbed - image) < 1e-9 * max(np.linalg.norm(image), 1.0)


def test_fundamental_map_solves_processed_rows_and_is_complementary():
    acc = fresh_accumulator().run()
    c = random_multispinor(acc.window.points(), 12)
    solution = acc.apply_fundamental(c)
    scale = c.norm()
    for n, value in residual_table(solution, acc.tables, acc.processed_sites()):
        assert value < 1e-10 * scale, n
    # projecting the complement returns (numerically) nothing
    assert acc.apply_projector(solution).norm() < 1e-10 * scale
    # idempotence of the complement
    again = acc.apply_fundamental(solution)
    assert (again - solution).norm() < 1e-10 * scale


def test_block_apply_matches_its_dense_matrix():
    acc = fresh_accumulator().run()
    sites = acc.window.points()
    c = random_multispinor(sites, 13)
    dense = factored_projector(acc, dense_rows(FIELD, PARAMS, acc.processed_sites(), sites))
    applied = acc.apply_projector(c)
    assert np.abs(dense @ to_vector(c, sites) - to_vector(applied, sites)).max() < 1e-10


@pytest.mark.parametrize("radius", [2, 3])
def test_factored_apply_matches_the_svd_projector(radius):
    cfg = parse_config(SAMPLE_CONFIG.read_text())
    acc = ProjectorAccumulator(cfg.field, cfg.params, Window(radius, cfg.n_ref)).run()
    sites = acc.window.points()
    v = dense_rows(cfg.field, cfg.params, acc.schedule, sites)
    c = random_multispinor(sites, 21)
    x = to_vector(c, sites)
    got = to_vector(acc.apply_projector(c), sites)
    assert np.linalg.norm(got - svd_projector(v) @ x) <= 1e-9 * np.linalg.norm(x)


@pytest.mark.parametrize("radius", [2, 3, 4])
def test_the_rows_of_the_adjoint_are_the_row_gram_and_the_residual_table(radius):
    cfg = parse_config(SAMPLE_CONFIG.read_text())
    acc = ProjectorAccumulator(cfg.field, cfg.params, Window(radius, cfg.n_ref)).run()
    table = lattice.window_table(acc.window)
    rng = np.random.default_rng(radius)
    u = rng.standard_normal((len(acc.schedule), 4)) + 1j * rng.standard_normal((len(acc.schedule), 4))
    # G u from the lower Gram blocks G_ki and their mirrored upper blocks G_ki^dag
    stage, partner, gram = table.pattern.stage, table.pattern.partner, acc.gram
    expected = np.zeros_like(u)
    np.add.at(expected, stage, np.einsum("bij,bj->bi", gram, u[partner]))
    upper = stage != partner
    mirrored = np.einsum("bji,bj->bi", gram[upper].conj(), u[stage[upper]])
    np.add.at(expected, partner[upper], mirrored)
    image = acc.adjoint(u)
    assert image.shape == table.coords.shape
    got = acc.rows(image)
    assert got.shape == u.shape
    assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected)
    # on a solution, the row norms are the residual table over the schedule, bit for bit
    solution = acc.apply_fundamental(random_multispinor(table.coords, cfg.seed))
    norms = np.linalg.norm(acc.rows(solution.at(table.coords)), axis=1)
    table_norms = [value for _, value in residual_table(solution, acc.tables, acc.schedule)]
    assert np.array_equal(norms, table_norms)


def test_residual_table_is_the_row_norm():
    tables = FieldTables(FIELD, PARAMS)
    c = random_multispinor(Window(2).points(), 14)
    n = (0, 0, 0, 0)
    row = np.zeros(4, dtype=complex)
    for s in SHIFTS_S13:
        row += dense_from_dset(v_coupling(n, s, FIELD, PARAMS)) @ c[site_add(n, s)]
    assert residual_table(c, tables, [n])[0][1] == pytest.approx(
        np.linalg.norm(row), rel=1e-12
    )


def test_residual_table_matches_the_dense_rows():
    sites = Window(3).points()
    c = random_multispinor(Window(2).points(), 15)
    # rows on the rim of the R=3 window reach past it, and the R=2 rows
    # past the R=2 support of c: both read zeros there
    members, interior = set(sites), set(Window(3).interior_points())
    rows = [n for n in sites if n not in interior][:40] + Window(2).points()
    assert any(site_add(n, s) not in members for n in rows for s in SHIFTS_S13)
    columns = sorted({site_add(n, s) for n in rows for s in SHIFTS_S13})
    dense = dense_rows(FIELD, PARAMS, rows, columns) @ to_vector(c, columns)
    expected = np.linalg.norm(dense.reshape(-1, 4), axis=1)
    got = residual_table(c, FieldTables(FIELD, PARAMS), rows)
    assert [n for n, _ in got] == rows
    assert np.array([value for _, value in got]) == pytest.approx(expected, rel=1e-12)
    assert residual_table(c, FieldTables(FIELD, PARAMS), []) == []


def test_residual_table_takes_sites_far_apart():
    tables = FieldTables(FIELD, PARAMS)
    near, far = (0, 0, 0, 0), (2**20,) * 4
    c = random_multispinor(Window(2).points() + Window(2, far).points(), 17)
    got = residual_table(c, tables, [near, far])
    assert [n for n, _ in got] == [near, far]
    alone = [residual_table(c, tables, [n])[0][1] for n in (near, far)]
    assert [value for _, value in got] == pytest.approx(alone, rel=1e-12)
    assert min(alone) > 0


def test_residual_table_reads_sites_outside_the_window_and_missing_sites():
    tables = FieldTables(FIELD, PARAMS)
    rows = Window(2).points()
    # every other site of a wider window, and one far from every row
    c = random_multispinor(Window(3).points()[::2], 16) + from_dict({(40, 0, 0, 0): [1, 1, 1, 1]})
    assert any(site_add(n, s) not in c for n in rows for s in SHIFTS_S13)
    # the per-site gather, then the same row sums: equal to the last bit
    x = np.array([[c[site_add(n, s)] for s in SHIFTS_S13] for n in rows])
    expected = np.linalg.norm(tables.row_sums(tables.zero_shift(rows), x), axis=1)
    got = residual_table(c, tables, rows)
    assert [n for n, _ in got] == rows
    assert [value for _, value in got] == expected.tolist()
    empty = residual_table(from_dict({}), tables, rows)
    assert [value for _, value in empty] == [0.0] * len(rows)


def test_oversized_window_is_refused_before_enumeration(tmp_path, monkeypatch, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("R = 2\na_12 = 0.05\nb_31 = 0.04\n")
    assert cli.main(["build", "--config", str(config), "--out", str(tmp_path / "op")]) == 0
    operator = str(tmp_path / "op" / "operator.json")
    capsys.readouterr()

    def refuse(*args):
        raise AssertionError("the window was enumerated")

    # the band factor of R = 2 takes one byte more than the lowered limit
    monkeypatch.setattr(lattice, "MAX_FACTOR_BYTES", lattice.factor_bytes(2) - 1)
    monkeypatch.setattr(lattice, "_window_table", refuse)
    refusal = "13 stages and a band factor of 22048 bytes, more than the limit of 22047 bytes"
    with pytest.raises(ValueError, match=refusal):
        fresh_accumulator()
    for argv in (
        ["build", "--config", str(config), "--out", str(tmp_path / "x")],
        ["apply", "--config", str(config), "--operator", operator, "--out", str(tmp_path / "y")],
        ["export", "--operator", operator, "--out", str(tmp_path / "z.json")],
    ):
        assert cli.main(argv) == 1
        assert refusal in capsys.readouterr().err


def test_resonant_site_trips_the_stage_guard(tmp_path):
    # nearly zero field with one site exactly on shell: w4(0,0,0,2) = 1,
    # spatial w = 0, so the row Gram matrix has an eigenvalue of order I_A
    faint = FieldConfig.from_amplitudes({"a_12": 1e-13, "b_31": 1e-13})
    params = DimensionlessParams(0.0, 0.0, 0.0, 0.1, omega=0.45)
    acc = ProjectorAccumulator(faint, params, Window(3))
    target = (0, 0, 0, 2)
    assert target in acc.schedule
    with pytest.raises(StageSingular) as err:
        acc.run()
    assert err.value.site == target
    assert err.value.stage == acc.schedule.index(target)
    assert err.value.rcond < 1e-10
    check_holds_no_factors(acc, tmp_path)
    with pytest.raises(ValueError, match="runs once"):
        acc.run()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_gram_trips_the_stage_guard(bad, monkeypatch, tmp_path):
    target = lattice.make_schedule(Window(2))[3]
    real = engine.FieldTables.zero_shift

    def poisoned(self, sites):
        out = real(self, sites)
        out[(np.asarray(sites) == target).all(axis=1), 0, 0] = bad
        return out

    monkeypatch.setattr(engine.FieldTables, "zero_shift", poisoned)
    acc = fresh_accumulator()
    with pytest.raises(StageSingular) as err:
        acc.run()
    assert (err.value.stage, err.value.site) == (3, target)
    assert not err.value.rcond >= acc.rcond_min
    check_holds_no_factors(acc, tmp_path)
    with pytest.raises(ValueError, match="runs once"):
        acc.run()


# scalar row 3 of a site becomes the sum of its rows 0 and 1, so the row
# block adds rank 3, not 4: its pivot is singular
DEPENDENT = np.array([[1.0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 1, 0, 0]])


def transform_rows(monkeypatch, schedule, transforms):
    """Patch build_row_gram so that the rows of each stage k in transforms become T_k times them.

    A real row transform T enters the Gram blocks as G -> T G T^dag: block
    (k, i) is multiplied by T_k on the left and by T_i^dag on the right.
    """
    real_gram = engine.build_row_gram

    def transformed(tables, zero, pattern):
        blocks = real_gram(tables, zero, pattern).copy()
        owner = np.repeat(np.arange(len(schedule)), np.diff(pattern.stage_ptr))
        for stage, t in transforms.items():
            blocks[owner == stage] = t @ blocks[owner == stage]
            blocks[pattern.partner == stage] = blocks[pattern.partner == stage] @ t.T
        return blocks

    monkeypatch.setattr(engine, "build_row_gram", transformed)


def test_dependent_mid_slice_row_trips_the_stage_guard(monkeypatch, tmp_path):
    schedule = lattice.make_schedule(Window(3))
    start = lattice.window_table(Window(3)).spans[2, 0]
    stage = start + 9
    assert schedule[stage][3] == schedule[start][3] == schedule[stage + 1][3]
    real_leading = engine.ProjectorAccumulator._leading_factor
    leading_calls = []

    def leading(schur):
        leading_calls.append(schur.shape)
        return real_leading(schur)

    transform_rows(monkeypatch, schedule, {stage: DEPENDENT})
    monkeypatch.setattr(engine.ProjectorAccumulator, "_leading_factor", staticmethod(leading))
    acc = ProjectorAccumulator(FIELD, PARAMS, Window(3))
    with pytest.raises(StageSingular) as err:
        acc.run()
    # the slice's Cholesky failed, not the rcond floor
    assert len(leading_calls) == 1
    assert (err.value.stage, err.value.site) == (stage, schedule[stage])
    assert not err.value.rcond >= acc.rcond_min
    check_holds_no_factors(acc, tmp_path)
    with pytest.raises(ValueError, match="runs once"):
        acc.run()


@pytest.mark.parametrize("later", [False, True])
@pytest.mark.parametrize("scale", [1e-8, 1e-160])
def test_a_stage_below_the_floor_is_named_past_later_slices(scale, later, monkeypatch, tmp_path):
    # scaling scalar row 3 of a slice-1 stage by scale leaves a pivot that
    # the Cholesky accepts, with rcond of order scale^2, below the floor;
    # the slices after it still factor.  With later, a dependent row makes
    # slice 3's Cholesky fail: the slice-1 stage is still the one named.
    window = Window(3)
    schedule = lattice.make_schedule(window)
    starts = lattice.window_table(window).spans[:, 0]
    stage = starts[1] + 2
    dependent = starts[3] + 3
    transforms = {stage: np.diag([1.0, 1.0, 1.0, scale])}
    if later:
        transforms[dependent] = DEPENDENT
    transform_rows(monkeypatch, schedule, transforms)
    acc = ProjectorAccumulator(FIELD, PARAMS, window)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(StageSingular) as err:
            acc.run()
    assert (err.value.stage, err.value.site) == (stage, schedule[stage])
    assert 0.0 < err.value.rcond < acc.rcond_min
    # rconds holds every stage whose pivot the run factored, 0 for the rest
    assert acc.rconds[stage] == err.value.rcond
    if later:
        assert (acc.rconds[:dependent] > 0).all() and not acc.rconds[dependent:].any()
    else:
        assert (acc.rconds > 0).all()
    check_holds_no_factors(acc, tmp_path)


def check_holds_no_factors(acc, tmp_path):
    """An accumulator without a completed run holds no factors: every use of them raises."""
    cfg = parse_config(SAMPLE_CONFIG.read_text())
    c = random_multispinor(acc.window.points(), 8)
    y = np.ones(4 * len(acc.schedule), dtype=complex)
    uses = (
        lambda: acc.apply_projector(c),
        lambda: acc.apply_fundamental(c),
        lambda: acc.solve_lower(y),
        lambda: acc.solve_upper(y),
        acc.slice_factors,
    )
    for use in uses:
        with pytest.raises(ValueError, match="has not completed a run"):
            use()
    path = tmp_path / "operator.json"
    with pytest.raises(ValueError, match="has not completed a run"):
        write_operator(path, acc, cfg)
    assert not path.exists() and not path.with_suffix(".c16").exists()
    # the slices are the one handle on the factors: no store is held beside them
    assert acc.processed_sites() == [] and not hasattr(acc, "factors")


@pytest.mark.parametrize("rcond_min", [np.nan, np.inf, 0.0, -1.0])
def test_a_floor_that_is_not_a_positive_finite_number_is_refused_before_any_work(
    rcond_min, monkeypatch
):
    # nan and inf would fail every stage, 0 and -1 would switch the floor off
    def no_work(*args):
        raise AssertionError("the field tables were built")

    monkeypatch.setattr(engine, "FieldTables", no_work)
    refusal = f"rcond_min must be a positive finite number, not {rcond_min!r}"
    with pytest.raises(ValueError, match=refusal):
        fresh_accumulator(rcond_min=rcond_min)
    # parse_config refuses each of them as a configuration error
    with pytest.raises(ConfigError):
        parse_config(SAMPLE_CONFIG.read_text() + f"rcond_min = {rcond_min!r}\n")


def test_an_accumulator_that_has_not_run_fails_loudly(tmp_path):
    acc = fresh_accumulator()
    assert not acc.rconds.any() and np.isnan(acc.asymmetry).all()
    check_holds_no_factors(acc, tmp_path)
    # it can still run, once
    assert acc.run().processed_sites() == acc.schedule and len(acc.schedule) == 13


def test_slice_cholesky_reads_only_the_lower_triangle(monkeypatch):
    # the slice step leaves the upper blocks of each Schur complement unfilled
    cfg = parse_config(SAMPLE_CONFIG.read_text())
    real_cholesky = np.linalg.cholesky
    seen = []

    def record(a, *args, **kwargs):
        seen.append(a.copy())
        return real_cholesky(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", record)
    ProjectorAccumulator(cfg.field, cfg.params, Window(3, cfg.n_ref)).run()
    monkeypatch.undo()
    schur = seen[2]  # slice 2: both band blocks present
    lower = np.tril(schur)
    complete = lower + np.tril(schur, -1).conj().T
    hidden = lower + np.triu(np.full(schur.shape, np.nan), 1)
    assert np.array_equal(np.linalg.cholesky(hidden), np.linalg.cholesky(complete))


def test_a_point_forms_its_zero_shift_matrices_once(monkeypatch):
    # the Gram and the apply share the accumulator's V(m_k, 0)
    real = engine.FieldTables.zero_shift
    calls = []

    def counted(self, sites):
        calls.append(len(sites))
        return real(self, sites)

    monkeypatch.setattr(engine.FieldTables, "zero_shift", counted)
    ProjectorAccumulator(FIELD, PARAMS, Window(3)).run()
    assert calls == [69]


def test_apply_fundamental_shares_no_buffer_with_its_input():
    acc = fresh_accumulator().run()
    points = acc.window.points()
    # a seed missing some window sites and holding one outside the window
    c = random_multispinor(points[::3], 17) + from_dict({(9, 9, 0, 0): [1, 2, 3, 4]})
    check_apply_fundamental_keeps_its_input(acc, c)


def test_apply_fundamental_on_the_window_sites_shares_no_buffer():
    # the seed covers every window site, so the solution adds none
    acc = fresh_accumulator().run()
    check_apply_fundamental_keeps_its_input(acc, random_multispinor(acc.window.points(), 17))


def check_apply_fundamental_keeps_its_input(acc, c):
    before = {site: c[site].copy() for site in c}
    solution = acc.apply_fundamental(c)
    # site by site: the sites of c in order, then the window sites c lacks in P c's order
    pc = acc.apply_projector(c)
    assert pc.coords.tobytes() == lattice.window_table(acc.window).coords.tobytes()
    reference = [(site, c[site] - pc[site]) for site in c]
    reference += [(site, -pc[site]) for site in pc if site not in c]
    assert list(solution) == [site for site, _ in reference]
    for site, value in reference:
        assert np.array_equal(solution[site], value)
    assert not np.shares_memory(solution.amplitudes, c.amplitudes)
    for site in solution:
        solution[site][:] = 7.0
    assert list(c) == list(before)
    assert all(np.array_equal(c[site], before[site]) for site in before)


def test_second_accumulator_reuses_the_window_tables():
    window = Window(3, (1, 0, -1, 2))
    first = ProjectorAccumulator(FIELD, PARAMS, window).run()
    first.apply_fundamental(random_multispinor(window.points(), 3))
    second = ProjectorAccumulator(FIELD, PARAMS, window)
    points = window.points()
    stencil = [[points.index(site_add(m, s)) for s in SHIFTS_S13] for m in second.schedule]
    table = lattice.window_table(window)
    assert table.stencil.tolist() == stencil
    pattern = lattice.gram_pattern(np.array(second.schedule))
    gram = second.gram
    cached = table.pattern
    assert np.array_equal(cached.stage_ptr, pattern.stage_ptr)
    assert np.array_equal(cached.partner, pattern.partner)
    assert gram.tobytes() == first.gram.tobytes()
    assert second._table.pattern is cached
    for array in (*vars(cached).values(), second.tables.field_overlap, second.tables.field_v):
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = 0


def test_second_point_on_a_field_shares_its_field_tables():
    window = Window(2)
    first = ProjectorAccumulator(FIELD, PARAMS, window)
    moved = DimensionlessParams(-0.2, 0.05, 0.1, 0.3, omega=PARAMS.omega)
    second = ProjectorAccumulator(FIELD, moved, window)
    assert second.tables.field_overlap is first.tables.field_overlap
    # the zero-shift rows still follow q
    assert not np.array_equal(second._zero, first._zero)
    # the field-shift matrices do not
    assert second.tables.field_v is first.tables.field_v
    # a field equal to FIELD but built anew shares them too
    again = FieldConfig(FIELD.a.copy(), FIELD.b.copy())
    assert FieldTables(again, moved).field_overlap is first.tables.field_overlap
    other = FieldConfig.from_amplitudes({"a_12": 0.05})
    assert FieldTables(other, moved).field_overlap is not first.tables.field_overlap


def test_library_point_makes_no_per_site_calls(monkeypatch):
    # one sweep point at R=3: v_coupling only for the twelve field shifts; site_add, the
    # per-site Multispinor accessor and its site tuples never
    from estc import field, multispinor

    shifts, adds, accessed = [], [], []
    real_coupling, real_add = field.v_coupling, lattice.site_add

    def coupling(n, s, f, p):
        shifts.append(s)
        return real_coupling(n, s, f, p)

    def add(a, b):
        adds.append(a)
        return real_add(a, b)

    for module in (engine, field, lattice, multispinor):
        for name, wrapper in (("v_coupling", coupling), ("site_add", add)):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    real_getitem, real_support = Multispinor.__getitem__, Multispinor.support

    def getitem(self, site):
        accessed.append("__getitem__")
        return real_getitem(self, site)

    def support(self):
        accessed.append("support")
        return real_support.fget(self)

    monkeypatch.setattr(Multispinor, "__getitem__", getitem)
    monkeypatch.setattr(Multispinor, "support", property(support))
    # cold window and field caches: building them calls none of these
    lattice._window_table.cache_clear()
    engine._field_tables.cache_clear()
    cfg = parse_config(SAMPLE_CONFIG.read_text())
    params = DimensionlessParams(0.11, -0.07, 0.2, 0.05, omega=cfg.params.omega)
    acc = ProjectorAccumulator(cfg.field, params, Window(3, cfg.n_ref)).run()
    solution = acc.apply_fundamental(random_multispinor(acc.window.points(), 2))
    residual_table(solution, acc.tables, acc.processed_sites())
    assert sorted(shifts) == sorted(SHIFTS_S13[1:])
    assert adds == []
    assert accessed == []


def test_stage_diagnostics_are_recorded():
    acc = fresh_accumulator().run()
    support = lattice.window_table(acc.window).support
    for k in range(len(acc.schedule)):
        assert 0.0 < acc.rconds[k] <= 1.0
        reached = {site_add(m, s) for m in acc.schedule[: k + 1] for s in SHIFTS_S13}
        assert support[k] == len(reached)
        assert acc.asymmetry[k] < 1e-10
    # the last stage's stencils reach the whole window
    assert support[-1] == len(acc.window.points())


def test_stages_csv_is_the_arrays_row_for_row():
    cfg = parse_config(SAMPLE_CONFIG.read_text())
    acc = ProjectorAccumulator(cfg.field, cfg.params, Window(3, cfg.n_ref)).run()
    lines = stages_csv(acc).split("\n")
    assert lines[0] == "stage,n1,n2,n3,n4,g4d,rcond,support,gram_asymmetry"
    assert lines[-1] == "" and len(lines) == 2 + 69
    reached = set()
    for k, line in enumerate(lines[1:-1]):
        m = acc.schedule[k]
        reached |= {site_add(m, s) for s in SHIFTS_S13}
        rcond, asymmetry = float(acc.rconds[k]), float(acc.asymmetry[k])
        row = [k, *m, g4d(site_sub(m, cfg.n_ref)), repr(rcond), len(reached), repr(asymmetry)]
        assert line == ",".join(map(str, row))


def test_a_run_happens_once(tmp_path):
    cfg = parse_config(SAMPLE_CONFIG.read_text())
    window = Window(2, cfg.n_ref)
    acc = ProjectorAccumulator(cfg.field, cfg.params, window).run()
    path = tmp_path / "operator.json"
    write_operator(path, acc, cfg)
    store = path.with_suffix(".c16").read_bytes()
    for built in (acc, read_operator(path, cfg)):
        rconds = built.rconds.copy()
        with pytest.raises(ValueError, match="runs once"):
            built.run()
        # every (packed W_t, band panel), in memory or read back, holds the writer's bits
        parts = [part.tobytes() for pair in built.slice_factors() for part in pair]
        assert b"".join(parts) == store
        assert np.array_equal(built.rconds, rconds)


def test_random_configurations_keep_the_invariants():
    rng = np.random.default_rng(99)
    for _ in range(3):
        f = random_field(rng, intensity=float(rng.uniform(0.02, 0.3)))
        p = random_params(rng)
        acc = ProjectorAccumulator(f, p, Window(2)).run()
        sites = acc.window.points()
        dense = factored_projector(acc, dense_rows(f, p, acc.schedule, sites))
        assert np.trace(dense).real == pytest.approx(4.0 * len(acc.schedule), abs=1e-8)
        c = random_multispinor(sites, int(rng.integers(0, 1000)))
        solution = acc.apply_fundamental(c)
        worst = max(v for _, v in residual_table(solution, acc.tables, acc.processed_sites()))
        assert worst < 1e-9 * c.norm()


def slice_factors(monkeypatch, f, p, window):
    """Every lower-triangular matrix the accumulator inverts, recursion blocks included."""
    factors = []
    real = engine.tril_inverse

    def record(r):
        factors.append(r.copy())
        return real(r)

    with monkeypatch.context() as patch:
        patch.setattr(engine, "tril_inverse", record)
        ProjectorAccumulator(f, p, window).run()
    return factors


def check_tril_inverse(r):
    w = engine.tril_inverse(r)
    assert not np.triu(w, 1).any()
    assert np.abs(w @ r - np.eye(len(r))).max() < 1e-12
    reference = np.tril(np.linalg.inv(r))
    assert np.abs(w - reference).max() <= 1e-13 * np.abs(reference).max()


@pytest.mark.parametrize("radius", [2, 3, 4])
def test_tril_inverse_inverts_the_slice_factors_of_the_sample_field(radius, monkeypatch):
    cfg = parse_config(SAMPLE_CONFIG.read_text())
    factors = slice_factors(monkeypatch, cfg.field, cfg.params, Window(radius, cfg.n_ref))
    assert max(len(r) for r in factors) > (engine.TRIL_BLOCK if radius > 2 else 0)
    for r in factors:
        check_tril_inverse(r)


def test_tril_inverse_inverts_the_slice_factors_of_random_fields(monkeypatch):
    rng = np.random.default_rng(2024)
    for i in range(20):
        f = random_field(rng, intensity=float(rng.uniform(0.02, 0.3)))
        p = random_params(rng)
        try:
            factors = slice_factors(monkeypatch, f, p, Window(2 + i % 3))
        except StageSingular:
            continue
        for r in factors:
            check_tril_inverse(r)


def test_tril_inverse_on_sizes_off_the_block_size():
    rng = np.random.default_rng(11)
    block = engine.TRIL_BLOCK
    for rows in (4, 8, block - 4, block, block + 4, 2 * block - 4, 2 * block + 12, 5 * block + 4):
        a = rng.standard_normal((rows, rows)) + 1j * rng.standard_normal((rows, rows))
        check_tril_inverse(np.linalg.cholesky(a @ a.conj().T + rows * np.eye(rows)))


def factor_identity_error(acc, gram):
    """max |R - chol(G)| relative to max |G|^(1/2), times the worst stage rcond.

    The Cholesky factor is unique, so the stored band factor must be the
    dense one of numpy, zero beyond two slices included.  The error grows
    with the conditioning of the pivots, so it is scaled by the worst
    stage rcond.
    """
    r = dense_factor(acc)
    reference = np.linalg.cholesky(gram)
    worst_rcond = acc.rconds.min()
    return float(np.abs(r - reference).max() / np.sqrt(np.abs(gram).max())) * worst_rcond


def rcond_error(acc, gram):
    """max |rconds[k] - oracle_k| over the stages, the oracle from numpy's dense Cholesky of G.

    The squared singular values of R_kk are the eigenvalues of the pivot
    R_kk R_kk^dag, so the oracle rcond is (s_min / s_max)^2.  Over 1,500
    random fields at R = 2 and the sample field at R = 2 and 3 the error
    stayed below 4e-15.
    """
    k = len(acc.schedule)
    r = np.linalg.cholesky(gram)
    s = np.linalg.svd(r.reshape(k, 4, k, 4)[np.arange(k), :, np.arange(k)], compute_uv=False)
    return float(np.abs(acc.rconds - (s[:, -1] / s[:, 0]) ** 2).max())


@pytest.mark.parametrize("radius", [2, 3])
def test_rconds_are_the_dense_factor_pivot_ratios_on_the_sample_field(radius):
    cfg = parse_config(SAMPLE_CONFIG.read_text())
    acc = ProjectorAccumulator(cfg.field, cfg.params, Window(radius, cfg.n_ref)).run()
    assert rcond_error(acc, dense_row_gram(cfg.field, cfg.params, acc.schedule)) < 1e-13


def test_a_run_checks_the_pivots_once_and_keeps_each_w_dense(monkeypatch):
    # the slice step only factors and a completed run computes no build record: the bounds
    # accept its pivots without an rcond pass, the asymmetry waits for its first read, a
    # second accumulator on the field does not validate the field again, no W_t the run
    # has just inverted is unpacked and the inversion's leaves get no masked copy
    names = ("_pivot_rconds", "dset_from_matrix", "validate_field", "unpack_lower", "tril")
    calls = dict.fromkeys(names, 0)

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    ProjectorAccumulator(FIELD, PARAMS, Window(3))
    for name in names:
        module = np if name == "tril" else engine
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    acc = ProjectorAccumulator(FIELD, PARAMS, Window(3)).run()
    assert calls == dict.fromkeys(calls, 0)
    # the first rconds read makes the one rcond pass; a second makes none
    first = acc.rconds
    assert calls["_pivot_rconds"] == 1
    assert acc.rconds is first and calls["_pivot_rconds"] == 1
    assert calls["unpack_lower"] == 0 and calls["tril"] == 0


@st.composite
def lower_pivots(draw):
    """A 4x4 lower-triangular pivot with a positive diagonal, as a Cholesky gives it.

    Its scale runs over 300 decades and its diagonal spreads over up to
    20, which makes it near singular; one entry may be made non-finite.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    r = np.tril(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    np.fill_diagonal(r, 10.0 ** -rng.uniform(0, draw(st.floats(0, 20)), 4))
    r *= 10.0 ** draw(st.floats(-150, 150))
    poison = draw(st.sampled_from([None, np.nan, np.inf, -np.inf]))
    if poison is not None:
        row = int(rng.integers(0, 4))
        r[row, int(rng.integers(0, row + 1))] = poison
    return r


@settings(max_examples=200, deadline=None)
@given(lower_pivots(), st.integers(0, 12), st.floats(-300, np.log10(0.5)))
def test_the_pivot_bounds_gate_decides_where_the_exact_check_does(r, stage, log_rcond_min):
    try:
        inverse = engine.tril_inverse(r)
    except np.linalg.LinAlgError:  # a non-finite pivot may not invert
        inverse = np.full((4, 4), np.nan)
    bound = engine._pivot_bounds(r[None], inverse[None])[0]
    rcond = engine._pivot_rconds(r[None])[0]
    # the bound never exceeds the rcond, but for the rounding of eigvalsh, which places the
    # smallest eigenvalue within a few u of the largest (1.3 u over 100,000 such pivots)
    assert not bound > rcond + 8 * np.finfo(float).eps
    # the pivot among twelve sound ones of a 13-stage run: the gate that may accept by the
    # bounds takes the decision, and leaves the record, of the check of every rcond
    pivots, inverses = np.tile(np.eye(4, dtype=complex), (2, 13, 1, 1))
    pivots[stage], inverses[stage] = r, inverse
    outcomes = []
    for check, args in (("_gate", (pivots, inverses)), ("_check_pivots", (pivots,))):
        acc = fresh_accumulator(2, rcond_min=10.0**log_rcond_min)
        try:
            getattr(acc, check)(*args)
            outcome = None
        except StageSingular as err:
            outcome = (err.stage, err.site, repr(err.rcond))
        outcomes.append((outcome, acc.rconds.tobytes()))
    assert outcomes[0] == outcomes[1]
    if not np.isfinite(r).all():
        assert outcomes[1][0] == (stage, fresh_accumulator().schedule[stage], "nan")


def test_the_gate_checks_every_rcond_where_the_bounds_fall_short(monkeypatch):
    # on the sample field at R = 2 the smallest bound is 1.14e-2 and the worst rcond 4.99e-2
    # (stage 9), so a floor of 0.04 passes, and one of 0.06 fails, by the exact check
    cfg = parse_config(SAMPLE_CONFIG.read_text())
    window = Window(2, cfg.n_ref)
    calls = []
    real = engine._pivot_rconds
    monkeypatch.setattr(engine, "_pivot_rconds", lambda diagonal: calls.append(1) or real(diagonal))
    bounded = ProjectorAccumulator(cfg.field, cfg.params, window).run()
    assert calls == []
    exact = ProjectorAccumulator(cfg.field, cfg.params, window, rcond_min=0.04).run()
    assert calls == [1]
    # the bounds, from each W_kk and its inverse R_kk
    slices = exact.slice_factors()
    inverses = np.concatenate([engine._blocks(engine.unpack_lower(w, b.shape[0])) for w, b in slices])
    bounds = engine._pivot_bounds(np.linalg.inv(inverses), inverses)
    assert 1.1e-2 < bounds.min() < 1.2e-2 and 4.9e-2 < exact.rconds.min() < 5e-2
    assert int(np.argmin(exact.rconds)) == 9
    assert np.array_equal(bounded.rconds, exact.rconds)
    with pytest.raises(StageSingular) as err:
        ProjectorAccumulator(cfg.field, cfg.params, window, rcond_min=0.06).run()
    assert (err.value.stage, err.value.site) == (9, bounded.schedule[9])
    assert err.value.rcond == bounded.rconds[9]


def test_asymmetry_is_computed_one_slice_span_at_a_time(monkeypatch):
    # the record the slice step used to fill: each slice's Schur diagonal blocks, through
    # dset_from_matrix in a call of their own; a call over the whole schedule rounds
    # differently (stage 6 of R = 2 then reads 1.7e-18, not 0.0)
    cfg = parse_config(SAMPLE_CONFIG.read_text())
    complements = []
    real = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: complements.append(a.copy()) or real(a))
    acc = ProjectorAccumulator(cfg.field, cfg.params, Window(2, cfg.n_ref)).run()
    monkeypatch.undo()
    assert len(complements) == len(lattice.window_table(acc.window).spans)
    reference = np.concatenate([
        np.abs(dset_from_matrix(engine._blocks(schur)).imag).max(axis=1) for schur in complements
    ])
    assert np.array_equal(acc.asymmetry, reference)
    assert acc.asymmetry[6] == 0.0
    assert acc.asymmetry is acc.asymmetry


def test_a_window_plans_each_slice_once_and_read_only():
    for radius in range(1, 7):
        check_slice_layout(radius)


def check_slice_layout(radius):
    """The spans, factor slices and plans of the window of a radius agree with the schedule."""
    table = lattice.window_table(Window(radius))
    assert lattice.window_table(Window(radius, (0, 0, 0, 0))).plans is table.plans
    # the spans tile the time-major schedule, one per run of equal n4, and each band
    # reaches back to the start of slice t - 2
    n4 = table.coords[table.schedule, 3].tolist()
    starts = [k for k in range(len(n4)) if k == 0 or n4[k] != n4[k - 1]]
    ends = starts[1:] + [len(n4)]
    spans = table.spans.tolist()
    assert spans == [[starts[t], ends[t], starts[max(t - 2, 0)]] for t in range(len(starts))]
    even, odd = lattice.slice_sizes(radius)
    assert [stop - start for start, stop, _ in spans] == [
        even if t % 2 == 0 else odd for t in range(1 - radius, radius)
    ]
    assert table.factor_bounds[-1] * 16 == lattice.factor_bytes(radius)
    # each slice of the store has the shapes of its span: W_t packed, then the (4n, 4m) band
    slices = engine.FactorSlices(table, lambda start, stop: np.zeros(stop - start, dtype=complex))
    assert len(slices) == len(spans)
    couplings = 0
    for (start, stop, low), (packed, band) in zip(spans, slices):
        n, m = stop - start, start - low
        assert packed.shape == (2 * n * (4 * n + 1),) and band.shape == (4 * n, 4 * m)
        couplings += n * (n - 1) // 2 + n * m
    assert table.coupling_count == couplings

    pattern = table.pattern
    assert len(table.plans) == len(spans)
    for (start, stop, low), plan in zip(spans, table.plans):
        # every block of the slice's rows, once: the band ones before start, the rest on or
        # below the diagonal of G_tt
        blocks = np.sort(np.concatenate([plan.band, plan.diag]))
        assert np.array_equal(blocks, np.arange(pattern.stage_ptr[start], pattern.stage_ptr[stop]))
        assert np.array_equal(plan.band_rows, pattern.stage[plan.band] - start)
        assert np.array_equal(plan.band_cols, pattern.partner[plan.band] - low)
        assert np.array_equal(plan.diag_rows, pattern.stage[plan.diag] - start)
        assert np.array_equal(plan.diag_cols, pattern.partner[plan.diag] - start)
        assert (plan.band_cols >= 0).all() and (plan.band_cols < start - low).all()
        assert (plan.diag_cols >= 0).all() and (plan.diag_cols <= plan.diag_rows).all()
        for array in (value for value in vars(plan).values() if isinstance(value, np.ndarray)):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0


def test_a_second_run_on_a_window_plans_nothing_and_allocates_no_slice_panel(monkeypatch):
    window = Window(3)
    ProjectorAccumulator(FIELD, PARAMS, window).run()
    calls = {"gram_pattern": 0, "slice_plans": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(lattice, name, counted(name, getattr(lattice, name)))
    acc = ProjectorAccumulator(FIELD, PARAMS, window)
    shapes = []
    zeros = np.zeros

    def recorded(shape, *args, **kwargs):
        shapes.append(shape)
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", recorded)
    acc.run()
    assert calls == {"gram_pattern": 0, "slice_plans": 0}
    # one dense buffer per slice, its (4n, 4n) Schur complement: the band is built in the store
    spans = lattice.window_table(window).spans.tolist()
    assert shapes == [(4 * (stop - start),) * 2 for start, stop, _ in spans]


def test_the_cli_gate_looks_up_no_site_and_forms_no_zero_shift_matrix(monkeypatch):
    cfg = parse_config(SAMPLE_CONFIG.read_text())
    window = Window(3, cfg.n_ref)
    acc = ProjectorAccumulator(cfg.field, cfg.params, window).run()
    seed = random_multispinor(lattice.window_table(window).coords, cfg.seed)
    calls = {"locate": 0, "zero_shift": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for module in (engine, lattice, estc.multispinor):
        monkeypatch.setattr(module, "locate", counted("locate", lattice.locate))
    monkeypatch.setattr(FieldTables, "zero_shift", counted("zero_shift", FieldTables.zero_shift))
    report = RunReport("gate")
    solution, norms = cli._gate_processed_rows(report, acc, seed, cfg.residual_tol)
    assert calls == {"locate": 0, "zero_shift": 0}
    # norms[j] is the residual of interior site j, in window order, to the last bit
    rows = list(zip(lattice.window_table(window).sites, norms.tolist()))
    assert len(norms) == len(acc.schedule)
    assert report.ok and rows == residual_table(solution, acc.tables, window.interior_points())


def test_a_built_store_hands_out_its_views_and_a_restored_one_reads_each_index(tmp_path):
    cfg = parse_config(SAMPLE_CONFIG.read_text())
    acc = ProjectorAccumulator(cfg.field, cfg.params, Window(cfg.radius, cfg.n_ref)).run()
    path = tmp_path / "operator.json"
    write_operator(path, acc, cfg)
    built, restored = acc.slice_factors(), read_operator(path, cfg).slice_factors()
    # the views of one store of the factor file's size
    store = built[0][0].base
    assert store.size == lattice.factor_bytes(cfg.radius) // 16
    for t in range(len(built)):
        assert all(a is b for a, b in zip(built[t], built[t]))
        assert all(part.base is store for part in built[t])
        first, again = restored[t], restored[t]
        assert all(a is not b and a.tobytes() == b.tobytes() for a, b in zip(first, again))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(first, built[t]))


def test_from_factors_refuses_rconds_or_a_store_that_do_not_fit_the_window():
    acc = fresh_accumulator(2).run()
    factors, rconds = acc.slice_factors(), acc.rconds
    restored = ProjectorAccumulator.from_factors(FIELD, PARAMS, acc.window, factors, rconds)
    assert np.array_equal(restored.rconds, rconds)
    with pytest.raises(ValueError, match="has 13 rconds and .*, not 12 and"):
        ProjectorAccumulator.from_factors(FIELD, PARAMS, acc.window, factors, rconds[:-1])
    # the slices of the radius 3 window against the 13 stages of radius 2
    other = engine.FactorSlices(
        lattice.window_table(Window(3)), lambda start, stop: np.zeros(stop - start, dtype=complex)
    )
    count = int(lattice.window_table(acc.window).factor_bounds[-1])
    with pytest.raises(ValueError, match=f"{count} complex numbers, not 13 and {other.bounds[-1]}"):
        ProjectorAccumulator.from_factors(FIELD, PARAMS, acc.window, other, rconds)


def test_factor_diagonalizes_the_dense_row_gram_on_the_sample_field():
    cfg = parse_config(SAMPLE_CONFIG.read_text())
    acc = ProjectorAccumulator(cfg.field, cfg.params, Window(3, cfg.n_ref)).run()
    assert len(acc.schedule) == 69
    for packed, band in acc.slice_factors():
        inverse = engine.unpack_lower(packed, band.shape[0])
        assert np.array_equal(inverse, np.tril(inverse))
        assert (np.diag(inverse).real > 0).all()
        assert np.abs(np.diag(inverse).imag).max() < 1e-15 * np.abs(np.diag(inverse)).max()
    r = dense_factor(acc)
    gram = dense_row_gram(cfg.field, cfg.params, acc.schedule)
    assert factor_identity_error(acc, gram) < 1e-12
    # R^-1 G R^-dag = I: the factor diagonalizes the row Gram matrix
    phi = np.linalg.solve(r, np.linalg.solve(r, gram).conj().T)
    assert np.abs(phi - np.eye(len(phi))).max() < 1e-12


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_factor_diagonalizes_the_dense_row_gram_on_random_fields(seed):
    rng = np.random.default_rng(seed)
    f = random_field(rng, intensity=float(rng.uniform(0.02, 0.3)))
    p = random_params(rng)
    acc = ProjectorAccumulator(f, p, Window(2))
    try:
        acc.run()
    except StageSingular:
        assume(False)
    gram = dense_row_gram(f, p, acc.schedule)
    assert factor_identity_error(acc, gram) < 1e-12
    assert rcond_error(acc, gram) < 1e-13


def processed_row_residual(acc, v, c):
    """Worst processed-row norm of V (c - P c) over the seed norm, with V the dense rows."""
    sites = acc.window.points()
    solution = to_vector(acc.apply_fundamental(c), sites)
    rows = np.linalg.norm((v @ solution).reshape(-1, 4), axis=1)
    return float(rows.max()) / c.norm()


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_processed_rows_are_solved_to_rounding_on_random_fields(seed):
    # 1,000 random fields gave at most 1.3e-14 and 1.0e-13 (medians 1.3e-15
    # and 3.6e-15); a closed-form adjugate core inversion gives medians of
    # 2.8e-13 and 2.0e-13 and reaches 3.4e-12 and 1.5e-12 on 100 fields
    rng = np.random.default_rng(seed)
    f = random_field(rng)
    p = random_params(rng)
    acc = ProjectorAccumulator(f, p, Window(3))
    try:
        acc.run()
    except StageSingular:
        assume(False)
    sites = acc.window.points()
    v = dense_rows(f, p, acc.schedule, sites)
    c = random_multispinor(sites, int(rng.integers(2**31)))
    assert processed_row_residual(acc, v, c) <= 1e-13
    x = to_vector(c, sites)
    got = to_vector(acc.apply_projector(c), sites)
    assert np.linalg.norm(got - svd_projector(v) @ x) <= 1e-12 * np.linalg.norm(x)


def test_processed_rows_are_solved_to_rounding_at_radius_4():
    cfg = parse_config(SAMPLE_CONFIG.read_text())
    acc = ProjectorAccumulator(cfg.field, cfg.params, Window(4, cfg.n_ref)).run()
    assert len(acc.schedule) == 233
    sites = acc.window.points()
    v = dense_rows(cfg.field, cfg.params, acc.schedule, sites)
    c = random_multispinor(sites, cfg.seed)
    assert processed_row_residual(acc, v, c) <= 1e-13
