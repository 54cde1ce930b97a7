"""Stage recurrences and the accumulated projector against dense oracles."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from estc import (
    CouplingLimitExceeded,
    DimensionlessParams,
    FieldConfig,
    FieldTables,
    Multispinor,
    NotInterior,
    ProjectorAccumulator,
    SHIFTS_S13,
    StageSingular,
    Window,
    bare_block,
    combine_pair,
    dense_operator,
    matrix_from_dset,
    parse_config,
    random_multispinor,
    residual,
    residual_table,
    site_add,
)

from helpers import dense_row_gram, random_field, random_params

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


def test_bare_block_structure():
    tables = FieldTables(FIELD, PARAMS)
    n = (0, 0, 0, 0)
    block = bare_block(n, tables)
    assert block.support() == sorted(site_add(n, s) for s in SHIFTS_S13)
    stack = tables.v_stack(n)
    for i, s in enumerate(SHIFTS_S13):
        assert np.array_equal(block.phi[site_add(n, s)], stack[i])
    assert np.array_equal(block.core, matrix_from_dset(tables.a_dset(n)))
    dense = dense_operator([block], block.support())
    assert np.abs(dense - dense.conj().T).max() < 1e-12
    assert np.abs(dense @ dense - dense).max() < 1e-12
    assert block.trace() == pytest.approx(4.0, abs=1e-12)


def test_bare_block_requires_interior_site():
    tables = FieldTables(FIELD, PARAMS)
    with pytest.raises(NotInterior):
        bare_block((0, 0, 1, 1), tables, window=Window(1))
    assert bare_block((0, 0, 0, 0), tables, window=Window(1)).site == (0, 0, 0, 0)


def test_first_stage_is_the_bare_block():
    acc = fresh_accumulator()
    acc.run(stages=1)
    block = acc.blocks[0]
    bare = bare_block(acc.schedule[0], acc.tables)
    assert set(block.phi) == set(bare.phi)
    for site in bare.phi:
        assert np.abs(block.phi[site] - bare.phi[site]).max() == 0.0
    assert np.abs(block.core_dset - bare.core_dset).max() == 0.0


def test_first_coupling_matches_its_closed_form():
    acc = fresh_accumulator()
    acc.run(stages=2)
    m0, m1 = acc.schedule[:2]
    expected = acc.tables.overlap(m1, m0) @ matrix_from_dset(acc.tables.a_dset(m0))
    # the factor stores L = I - C, so C_10 is minus its (1, 0) block
    assert np.abs(-acc.factor[4:8, 0:4] - expected).max() < 1e-12


def test_two_stages_match_the_pair_combination():
    acc = fresh_accumulator()
    acc.run(stages=2)
    sites = acc.window.points()
    alpha = dense_operator(acc.blocks[:1], sites)
    bare1 = bare_block(acc.schedule[1], acc.tables)
    beta = dense_operator([bare1], sites)
    assert np.abs(dense_operator(acc.blocks, sites) - combine_pair(alpha, beta)).max() < 1e-9


def test_accumulated_projector_matches_the_dense_span_oracle():
    acc = fresh_accumulator().run()
    sites = acc.window.points()
    stacked = np.zeros((4 * len(sites), 4 * len(sites)), dtype=complex)
    for n in acc.schedule:
        stacked += dense_operator([bare_block(n, acc.tables)], sites)
    expected = eigenprojector(stacked)
    got = dense_operator(acc.blocks, sites)
    assert np.abs(got - expected).max() < 1e-8


def test_stage_blocks_satisfy_the_projector_identities():
    acc = fresh_accumulator().run()
    assert acc.stages_done == 13
    for block in acc.blocks:
        assert block.core_dset.dtype == np.float64
        dense = dense_operator([block], block.support())
        assert np.abs(dense - dense.conj().T).max() < 1e-10
        assert np.abs(dense @ dense - dense).max() < 1e-9
        assert np.trace(dense).real == pytest.approx(4.0, abs=1e-9)
    for i in range(acc.stages_done):
        for j in range(i + 1, acc.stages_done):
            left, right = acc.blocks[i], acc.blocks[j]
            shared = set(left.phi) & set(right.phi)
            if not shared:
                continue
            cross = sum(left.phi[s] @ right.phi[s].conj().T for s in shared)
            assert np.abs(cross).max() < 1e-9, (i, j)
    assert acc.trace() == pytest.approx(4.0 * acc.stages_done, abs=1e-9)


def test_projector_absorbs_every_processed_bare_block():
    acc = fresh_accumulator().run()
    c = random_multispinor(acc.window.points(), 11)
    for n in acc.processed_sites():
        image = bare_block(n, acc.tables).apply(c)
        absorbed = acc.apply_projector(image)
        assert (absorbed - image).norm() < 1e-9 * max(image.norm(), 1.0)


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
    vec = np.concatenate([c[n] for n in sites])
    dense = dense_operator(acc.blocks, sites)
    applied = acc.apply_projector(c)
    stacked = np.concatenate([applied[n] for n in sites])
    assert np.abs(dense @ vec - stacked).max() < 1e-10


def test_component_blocks_tile_the_dense_matrix():
    acc = fresh_accumulator().run(stages=4)
    sites = acc.window.points()
    dense = dense_operator(acc.blocks, sites)
    rng = np.random.default_rng(0)
    for _ in range(40):
        i, j = rng.integers(0, len(sites), size=2)
        tile = sum(block.component(sites[i], sites[j]) for block in acc.blocks)
        assert np.abs(dense[4 * i : 4 * i + 4, 4 * j : 4 * j + 4] - tile).max() < 1e-12


def test_residual_is_the_row_norm_and_guards_the_window():
    tables = FieldTables(FIELD, PARAMS)
    c = random_multispinor(Window(2).points(), 14)
    n = (0, 0, 0, 0)
    row = np.zeros(4, dtype=complex)
    for i, s in enumerate(SHIFTS_S13):
        row += tables.v_stack(n)[i] @ c[site_add(n, s)]
    assert residual(c, n, FIELD, PARAMS) == pytest.approx(np.linalg.norm(row), rel=1e-12)
    assert residual_table(c, tables, [n])[0][1] == pytest.approx(
        np.linalg.norm(row), rel=1e-12
    )
    with pytest.raises(NotInterior):
        residual(c, (0, 0, 1, 1), FIELD, PARAMS, window=Window(1))


def test_schedule_validation():
    with pytest.raises(NotInterior):
        ProjectorAccumulator(FIELD, PARAMS, Window(2), schedule=[(0, 0, 0, 2)])
    with pytest.raises(ValueError):
        ProjectorAccumulator(
            FIELD, PARAMS, Window(2), schedule=[(0, 0, 0, 0), (0, 0, 0, 0)]
        )


def test_coupling_cap_aborts_the_run():
    acc = fresh_accumulator(max_couplings=5)
    with pytest.raises(CouplingLimitExceeded):
        acc.run()


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


def test_stage_diagnostics_are_recorded():
    acc = fresh_accumulator().run(stages=3)
    assert [d.stage for d in acc.diagnostics] == [0, 1, 2]
    for diag, block in zip(acc.diagnostics, acc.blocks):
        assert diag.site == block.site
        assert 0.0 < diag.rcond <= 1.0
        assert diag.support_size == len(block.phi)
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
