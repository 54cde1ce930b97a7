"""Stage recurrences and the accumulated projector against dense oracles."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from estc import (
    DimensionlessParams,
    FieldConfig,
    FieldTables,
    ProjectorAccumulator,
    SHIFTS_S13,
    StageSingular,
    Window,
    combine_pair,
    matrix_from_dset,
    n_overlap,
    parse_config,
    random_multispinor,
    residual_table,
    site_add,
    v_coupling,
)
from estc import cli, engine, lattice
from estc.field import a_matrix

from helpers import (
    dense_from_dset,
    dense_row_gram,
    dense_rows,
    factored_projector,
    gram_cholesky_projector,
    random_field,
    random_params,
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
    for i, s in enumerate(SHIFTS_S13):
        j = support.index(site_add(n, s))
        v[:, 4 * j : 4 * j + 4] = tables.rows([n])[0][i]
    dense = v.conj().T @ matrix_from_dset(a_matrix(n, FIELD, PARAMS)) @ v
    assert np.abs(dense - bare_projector(n, FIELD, PARAMS, support)).max() < 1e-12
    assert np.abs(dense - dense.conj().T).max() < 1e-12
    assert np.abs(dense @ dense - dense).max() < 1e-12
    assert np.trace(dense).real == pytest.approx(4.0, abs=1e-12)


def test_first_stage_is_the_bare_block():
    acc = fresh_accumulator()
    acc.run(stages=1)
    m0 = acc.schedule[0]
    assert np.array_equal(acc.factor[:4, :4], np.eye(4))
    assert np.array_equal(acc.core_dsets[0], a_matrix(m0, FIELD, PARAMS))
    assert np.array_equal(acc.cores[0], matrix_from_dset(a_matrix(m0, FIELD, PARAMS)))
    sites = acc.window.points()
    expected = bare_projector(m0, FIELD, PARAMS, sites)
    assert np.abs(applied_matrix(acc, sites) - expected).max() < 1e-12
    support = {site_add(m0, s) for s in SHIFTS_S13}
    assert set(acc.apply_projector(random_multispinor(sites, 1)).sites()) == support


def test_first_coupling_matches_its_closed_form():
    acc = fresh_accumulator()
    acc.run(stages=2)
    m0, m1 = acc.schedule[:2]
    expected = n_overlap(m1, m0, FIELD, PARAMS) @ matrix_from_dset(a_matrix(m0, FIELD, PARAMS))
    # the factor stores L = I - C, so C_10 is minus its (1, 0) block
    assert np.abs(-acc.factor[4:8, 0:4] - expected).max() < 1e-12


def test_two_stages_match_the_pair_combination():
    acc = fresh_accumulator()
    sites = acc.window.points()
    acc.run(stages=1)
    alpha = applied_matrix(acc, sites)
    acc.run(stages=2)
    beta = bare_projector(acc.schedule[1], FIELD, PARAMS, sites)
    assert np.abs(applied_matrix(acc, sites) - combine_pair(alpha, beta)).max() < 1e-9


def test_accumulated_projector_matches_the_dense_span_oracle():
    acc = fresh_accumulator().run()
    sites = acc.window.points()
    stacked = sum(bare_projector(n, FIELD, PARAMS, sites) for n in acc.schedule)
    expected = eigenprojector(stacked)
    assert np.abs(applied_matrix(acc, sites) - expected).max() < 1e-8


def test_stage_blocks_satisfy_the_projector_identities():
    acc = fresh_accumulator().run()
    assert acc.stages_done == 13
    assert acc.core_dsets.dtype == np.float64
    sites = acc.window.points()
    k = acc.stages_done
    phi = (acc.factor @ dense_rows(FIELD, PARAMS, acc.schedule, sites)).reshape(k, 4, -1)
    for row, core in zip(phi, acc.cores):
        dense = row.conj().T @ core @ row
        assert np.abs(dense - dense.conj().T).max() < 1e-10
        assert np.abs(dense @ dense - dense).max() < 1e-9
        assert np.trace(dense).real == pytest.approx(4.0, abs=1e-9)
    for i in range(k):
        for j in range(i + 1, k):
            cross = phi[i] @ phi[j].conj().T
            assert np.abs(cross).max() < 1e-9, (i, j)
    assert acc.trace() == pytest.approx(4.0 * k, abs=1e-9)


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
    acc = fresh_accumulator().run(stages=5)
    sites = acc.window.points()
    c = random_multispinor(sites, 13)
    dense = factored_projector(acc, dense_rows(FIELD, PARAMS, acc.processed_sites(), sites))
    applied = acc.apply_projector(c)
    assert np.abs(dense @ to_vector(c, sites) - to_vector(applied, sites)).max() < 1e-10


@pytest.mark.parametrize("radius", [2, 3])
def test_factored_apply_matches_the_gram_cholesky_projector(radius):
    cfg = parse_config(SAMPLE_CONFIG.read_text())
    acc = ProjectorAccumulator(cfg.field, cfg.params, Window(radius, cfg.n_ref)).run()
    sites = acc.window.points()
    v = dense_rows(cfg.field, cfg.params, acc.schedule, sites)
    c = random_multispinor(sites, 21)
    x = to_vector(c, sites)
    got = to_vector(acc.apply_projector(c), sites)
    assert np.linalg.norm(got - gram_cholesky_projector(v) @ x) <= 1e-9 * np.linalg.norm(x)


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
    rows = [n for n in sites if not Window(3).interior(n)][:40] + Window(2).points()
    assert any(site_add(n, s) not in Window(3) for n in rows for s in SHIFTS_S13)
    columns = sorted({site_add(n, s) for n in rows for s in SHIFTS_S13})
    dense = dense_rows(FIELD, PARAMS, rows, columns) @ to_vector(c, columns)
    expected = np.linalg.norm(dense.reshape(-1, 4), axis=1)
    got = residual_table(c, FieldTables(FIELD, PARAMS), rows)
    assert [n for n, _ in got] == rows
    assert np.array([value for _, value in got]) == pytest.approx(expected, rel=1e-12)
    assert residual_table(c, FieldTables(FIELD, PARAMS), []) == []


def test_oversized_window_is_refused_before_enumeration(tmp_path, monkeypatch, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("R = 2\na_12 = 0.05\nb_31 = 0.04\n")
    assert cli.main(["build", "--config", str(config), "--out", str(tmp_path / "op")]) == 0
    operator = str(tmp_path / "op" / "operator.json")
    capsys.readouterr()

    def refuse(*args):
        raise AssertionError("the window was enumerated")

    # R = 2 schedules 13 stages, one more than the lowered limit
    monkeypatch.setattr(lattice, "MAX_STAGES", 12)
    monkeypatch.setattr(lattice, "window_points", refuse)
    refusal = "13 stages, more than the limit of 12"
    with pytest.raises(ValueError, match=refusal):
        fresh_accumulator()
    for argv in (
        ["build", "--config", str(config), "--out", str(tmp_path / "x")],
        ["apply", "--config", str(config), "--operator", operator, "--out", str(tmp_path / "y")],
        ["export", "--operator", operator, "--out", str(tmp_path / "z.json")],
    ):
        assert cli.main(argv) == 1
        assert refusal in capsys.readouterr().err


def test_resonant_site_trips_the_stage_guard():
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
    # every earlier stage went through
    assert acc.stages_done == acc.schedule.index(target)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_gram_trips_the_stage_guard(bad, monkeypatch):
    acc = fresh_accumulator()
    target = acc.schedule[3]
    real = engine.l_matrix

    def poisoned(n, f, p):
        out = real(n, f, p)
        if n == target:
            out[0] = bad
        return out

    monkeypatch.setattr(engine, "l_matrix", poisoned)
    with pytest.raises(StageSingular) as err:
        acc.run()
    assert (err.value.stage, err.value.site) == (3, target)
    assert not err.value.rcond >= acc.rcond_min
    assert acc.stages_done == 3
    assert np.isfinite(acc.cores).all()


def test_stage_diagnostics_are_recorded():
    acc = fresh_accumulator().run(stages=3)
    assert [d.stage for d in acc.diagnostics] == [0, 1, 2]
    for k, diag in enumerate(acc.diagnostics):
        assert diag.site == acc.schedule[k]
        assert 0.0 < diag.rcond <= 1.0
        assert diag.rcond == acc.rconds[k]
        support = {site_add(m, s) for m in acc.schedule[: k + 1] for s in SHIFTS_S13}
        assert diag.support_size == len(support)
        assert diag.gram_asymmetry < 1e-10
        phases = (diag.gather_s, diag.coupling_s, diag.inversion_s, diag.assembly_s)
        assert min(phases) >= 0.0
        assert sum(phases) == pytest.approx(diag.elapsed, rel=1e-9, abs=1e-12)


def test_random_configurations_keep_the_invariants():
    rng = np.random.default_rng(99)
    for _ in range(3):
        f = random_field(rng, intensity=float(rng.uniform(0.02, 0.3)))
        p = random_params(rng)
        acc = ProjectorAccumulator(f, p, Window(2)).run()
        assert acc.trace() == pytest.approx(4.0 * acc.stages_done, abs=1e-8)
        c = random_multispinor(acc.window.points(), int(rng.integers(0, 1000)))
        solution = acc.apply_fundamental(c)
        worst = max(v for _, v in residual_table(solution, acc.tables, acc.processed_sites()))
        assert worst < 1e-9 * c.norm()


def factor_identity_error(acc, gram):
    """max |L G L^dag - blockdiag(A_k^-1)| relative to max |G|, times the worst rcond.

    The 4x4 pivot inversions lose digits in proportion to the condition of
    the deflated Gram matrices, so the error is scaled by the worst stage
    rcond; 400 random R=2 fields gave at most 8e-14 for the scaled error.
    """
    lower = acc.factor
    pivots = np.linalg.inv(acc.cores)
    expected = np.zeros_like(gram)
    for k, pivot in enumerate(pivots):
        expected[4 * k : 4 * k + 4, 4 * k : 4 * k + 4] = pivot
    got = lower @ gram @ lower.conj().T
    worst_rcond = min(diag.rcond for diag in acc.diagnostics)
    return float(np.abs(got - expected).max() / np.abs(gram).max()) * worst_rcond


def test_factor_diagonalizes_the_dense_row_gram_on_the_sample_field():
    cfg = parse_config(SAMPLE_CONFIG.read_text())
    acc = ProjectorAccumulator(cfg.field, cfg.params, Window(3, cfg.n_ref)).run()
    assert acc.stages_done == 69
    lower = acc.factor
    assert np.array_equal(np.triu(lower, 1), np.zeros_like(lower))
    assert np.array_equal(np.diag(lower), np.ones(lower.shape[0]))
    gram = dense_row_gram(cfg.field, cfg.params, acc.schedule)
    assert factor_identity_error(acc, gram) < 1e-12


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
    assert np.linalg.norm(got - gram_cholesky_projector(v) @ x) <= 1e-12 * np.linalg.norm(x)


def test_processed_rows_are_solved_to_rounding_at_radius_4():
    cfg = parse_config(SAMPLE_CONFIG.read_text())
    acc = ProjectorAccumulator(cfg.field, cfg.params, Window(4, cfg.n_ref)).run()
    assert acc.stages_done == 233
    sites = acc.window.points()
    v = dense_rows(cfg.field, cfg.params, acc.schedule, sites)
    c = random_multispinor(sites, cfg.seed)
    assert processed_row_residual(acc, v, c) <= 1e-13
