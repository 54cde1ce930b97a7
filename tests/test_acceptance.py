"""Acceptance suite: eight go/no-go checks with pinned tolerances.

Each test prints exactly one "criterion N: PASS/FAIL ..." line with the
observed worst-case numbers, then asserts.  Run with -s to see the lines
for passing criteria too.
"""

import time

import numpy as np

from estc import (
    ProjectorAccumulator,
    SHIFTS_S13,
    Window,
    a_matrix,
    char_invariants,
    dset_adjoint,
    dset_inverse,
    dset_multiply,
    dset_square,
    det_l,
    g4d,
    gamma_matrix,
    l_matrix,
    matrix_from_dset,
    parse_config,
    random_multispinor,
    site_add,
    structure_constant,
    v_coupling,
)
from estc.combiner import combine_pair, range_restricted_pseudoinverse
from estc.dirac_basis import UNIT_DSET
from estc.engine import residual_table
from estc.errors import DegenerateOverlap
from estc.io import factor_path, read_operator, write_operator

from helpers import (
    GAMMA_DENSE,
    dense_factor,
    dense_from_dset,
    dense_row_gram,
    dense_rows,
    gram_blocks,
    oracle_combine,
    random_field,
    random_params,
    random_projector,
)

TOL_PRODUCT = 1e-12  # criterion 2
TOL_INVARIANTS = 1e-10  # criterion 3
TOL_FIELD = 1e-12  # criterion 4
TOL_OVERLAP_HERM = 1e-14  # criterion 4
TOL_SERIES = 1e-8  # criterion 5
TOL_IDENTITIES = 1e-10  # criterion 5
TOL_BLOCKS = 1e-8  # criterion 6
TOL_TRACE = 1e-6  # criterion 6
TOL_RESIDUAL = 1e-8  # criterion 7, relative to the seed norm
TOL_ROUND_TRIP = 1e-12  # criterion 8
BUDGET_BASIS = 1.0  # seconds, criterion 1
BUDGET_ENGINE = 300.0  # seconds, criterion 6

ACCEPT_CONFIG = """\
q1 = 0.08
q2 = -0.13
q3 = 0.21
q4 = 0.17
Omega = 0.55
R = 3
seed = 1
a_12 = 0.07
a_13 = -0.03
b_21 = 0.05
b_23 = 0.02
a_31 = -0.04
b_32 = 0.06
a_43 = 0.03
b_42 = -0.05
a_51 = 0.04
b_53 = -0.02
a_61 = 0.05
b_62 = 0.03
"""


def _line(num: int, ok: bool, detail: str) -> bool:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} {detail}", flush=True)
    return ok


def _random_site(rng, span=3):
    while True:
        n = tuple(int(x) for x in rng.integers(-span, span + 1, size=4))
        if sum(n) % 2 == 0:
            return n


def _geometric_sum(m, eps=1e-13, max_terms=200_000):
    """sum_{k>=1} m**k, summed until the term drops below eps."""
    total = np.zeros_like(m)
    term = m.copy()
    for _ in range(max_terms):
        total = total + term
        if np.abs(term).max() < eps:
            return total
        term = term @ m
    raise RuntimeError("geometric series did not converge")


def test_criterion_1_basis_exactness():
    started = time.perf_counter()
    exact_matrices = all(
        np.array_equal(gamma_matrix(nu), GAMMA_DENSE[nu]) for nu in range(16)
    )
    exact_products = all(
        np.array_equal(
            GAMMA_DENSE[lam] @ GAMMA_DENSE[mu],
            structure_constant(lam, mu)[1] * GAMMA_DENSE[structure_constant(lam, mu)[0]],
        )
        for lam in range(16)
        for mu in range(16)
    )
    elapsed = time.perf_counter() - started
    ok = exact_matrices and exact_products and elapsed < BUDGET_BASIS
    assert _line(
        1,
        ok,
        f"16 basis matrices and 256 structure constants exact, {elapsed:.3f}s < {BUDGET_BASIS}s",
    )


def test_criterion_2_product_oracle():
    rng = np.random.default_rng(2026_08_14)
    a = rng.standard_normal((10_000, 16)) + 1j * rng.standard_normal((10_000, 16))
    b = rng.standard_normal((10_000, 16)) + 1j * rng.standard_normal((10_000, 16))
    dense_ref = dense_from_dset(a) @ dense_from_dset(b)
    product = dset_multiply(a, b)
    product_err = float(np.abs(dense_from_dset(product) - dense_ref).max()) / float(
        np.abs(dense_ref).max()
    )
    square = dset_multiply(a, a)
    square_err = float(np.abs(dset_square(a) - square).max()) / float(np.abs(square).max())
    ok = product_err <= TOL_PRODUCT and square_err <= TOL_PRODUCT
    assert _line(
        2,
        ok,
        f"10^4 pairs: product err {product_err:.2e}, closed-form square err "
        f"{square_err:.2e} <= {TOL_PRODUCT}",
    )


def test_criterion_3_characteristic_invariants():
    rng = np.random.default_rng(3)
    d = rng.standard_normal((1000, 16)) + 1j * rng.standard_normal((1000, 16))
    m = dense_from_dset(d)
    inv = char_invariants(d)
    trace = np.trace(m, axis1=-2, axis2=-1)
    det = np.linalg.det(m)
    trace_err = float(np.max(np.abs(inv.i1 - trace) / np.maximum(1.0, np.abs(trace))))
    det_err = float(np.max(np.abs(inv.i4 - det) / np.maximum(1.0, np.abs(det))))

    unit = inv.i4[:, None] * UNIT_DSET
    scale = np.maximum(1.0, np.abs(inv.i4))
    adj = dset_adjoint(d)
    adj_err = max(
        float(np.max(np.abs(dset_multiply(d, adj) - unit).max(axis=1) / scale)),
        float(np.max(np.abs(dset_multiply(adj, d) - unit).max(axis=1) / scale)),
    )

    d_reg = d.copy()
    d_reg[:, 0] += 6.0  # shift the spectrum away from zero so all inverses exist
    inv_d = dset_inverse(d_reg)
    inverse_err = max(
        float(np.abs(dset_multiply(inv_d, d_reg) - UNIT_DSET).max()),
        float(np.abs(dset_multiply(d_reg, inv_d) - UNIT_DSET).max()),
    )
    ok = all(
        err <= TOL_INVARIANTS for err in (trace_err, det_err, adj_err, inverse_err)
    )
    assert _line(
        3,
        ok,
        f"10^3 matrices: trace {trace_err:.2e}, det {det_err:.2e}, adjugate "
        f"{adj_err:.2e}, inverse {inverse_err:.2e} <= {TOL_INVARIANTS}",
    )


def test_criterion_4_field_model_cross_validation():
    rng = np.random.default_rng(4)
    far_shifts = ((3, 0, 1, 0), (0, 4, 0, 0), (2, 2, 0, 0), (1, 2, 1, 2))
    assert all(g4d(s) > 2 and sum(s) % 2 == 0 for s in far_shifts)
    gram_err = inverse_err = det_err = block_err = herm_err = far_err = 0.0
    det_positive = True
    for _ in range(100):
        f = random_field(rng, intensity=float(rng.uniform(0.005, 0.5)))
        p = random_params(rng)
        n = _random_site(rng)

        stack = np.stack([matrix_from_dset(v_coupling(n, s, f, p)) for s in SHIFTS_S13])
        gram = np.einsum("sij,skj->ik", stack, stack.conj())
        l_dense = matrix_from_dset(l_matrix(n, f, p))
        gram_err = max(gram_err, float(np.abs(gram - l_dense).max()))
        inverse_err = max(
            inverse_err,
            float(np.abs(matrix_from_dset(a_matrix(n, f, p)) @ l_dense - np.eye(4)).max()),
        )

        # the Gram matrix has two double eigenvalues, so its dense
        # determinant is the square of the closed-form reduced determinant
        reduced = det_l(n, f, p)
        det_positive = det_positive and reduced > 0.0
        dense_det = np.linalg.det(l_dense).real
        det_err = max(det_err, abs(reduced * reduced - dense_det) / abs(dense_det))

        # the engine's Gram block of a pair, from both schedule orders, against the
        # dense G = V V^dag; a pair at distance 0 is one site and its diagonal block
        pair = list(dict.fromkeys([n, site_add(n, _random_site(rng, span=2))]))
        last = len(pair) - 1
        forward = gram_blocks(f, p, pair).get((last, 0), np.zeros((4, 4)))
        backward = gram_blocks(f, p, pair[::-1]).get((last, 0), np.zeros((4, 4)))
        dense = dense_row_gram(f, p, pair)[4 * last :, :4]
        block_err = max(block_err, float(np.abs(forward - dense).max()))
        herm_err = max(herm_err, float(np.abs(backward - forward.conj().T).max()))
        # rows beyond coupling distance 2 share no column: the engine keeps no block
        # for them, and their dense block is exactly zero
        far = [n] + [site_add(n, s) for s in far_shifts]
        if any(i == 0 < k for k, i in gram_blocks(f, p, far)):
            far_err = np.inf
        far_err = max(far_err, float(np.abs(dense_row_gram(f, p, far)[4:, :4]).max()))
    ok = (
        gram_err <= TOL_FIELD
        and inverse_err <= TOL_FIELD
        and det_err <= TOL_FIELD
        and det_positive
        and block_err <= TOL_FIELD
        and herm_err <= TOL_OVERLAP_HERM
        and far_err == 0.0
    )
    assert _line(
        4,
        ok,
        f"100 configs: gram {gram_err:.2e}, inverse {inverse_err:.2e}, squared "
        f"reduced det {det_err:.2e}, engine Gram blocks {block_err:.2e} <= {TOL_FIELD} "
        f"(positive: {det_positive}), overlap hermiticity {herm_err:.2e} <= {TOL_OVERLAP_HERM}, "
        f"beyond-range {far_err:.1e}",
    )


def test_criterion_5_generic_combiner():
    rng = np.random.default_rng(5)
    series_err = identity_err = 0.0
    for _ in range(200):
        dim = int(rng.integers(8, 17))
        hi = max(2, dim // 3)
        alpha = random_projector(dim, int(rng.integers(1, hi + 1)), rng)
        beta = random_projector(dim, int(rng.integers(1, hi + 1)), rng)
        a = combine_pair(alpha, beta)
        series_err = max(series_err, float(np.abs(a - oracle_combine(alpha, beta)).max()))

        x = beta - beta @ alpha @ beta
        gamma = range_restricted_pseudoinverse(x, beta)
        delta = a - alpha
        checks = [
            gamma @ x - beta,
            x @ gamma - beta,
            beta @ gamma - gamma,
            gamma @ beta - gamma,
            _geometric_sum(beta @ alpha) - gamma @ alpha,
            beta + _geometric_sum(beta @ alpha @ beta) - gamma,
            a - a.conj().T,
            a @ a - a,
            alpha @ a - alpha,
            a @ alpha - alpha,
            beta @ a - beta,
            a @ beta - beta,
            beta @ alpha @ gamma - (gamma - beta),
            gamma @ alpha @ beta - (gamma - beta),
            alpha @ delta,
            delta @ alpha,
            beta @ delta - (beta - beta @ alpha),
            delta @ beta - (beta - alpha @ beta),
            delta @ a - delta,
            a @ delta - delta,
        ]
        identity_err = max(identity_err, max(float(np.abs(c).max()) for c in checks))
        identity_err = max(
            identity_err, abs(np.trace(a) - np.trace(alpha) - np.trace(beta))
        )

    # intersecting ranges must raise, never silently regularize
    q, _ = np.linalg.qr(rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10)))
    v, w, u = q[:, 0:1], q[:, 1:2], q[:, 2:3]
    shared = v @ v.conj().T
    tilted = v + 1e-8 * w
    tilted = tilted / np.linalg.norm(tilted)
    degenerate_cases = (
        (shared + w @ w.conj().T, shared + u @ u.conj().T),
        (shared, shared),
        (shared, tilted @ tilted.conj().T),
    )
    detected = 0
    for alpha, beta in degenerate_cases:
        try:
            combine_pair(alpha, beta)
        except DegenerateOverlap:
            detected += 1
    ok = (
        series_err <= TOL_SERIES
        and identity_err <= TOL_IDENTITIES
        and detected == len(degenerate_cases)
    )
    assert _line(
        5,
        ok,
        f"200 pairs dims 8-16: series {series_err:.2e} <= {TOL_SERIES}, identities "
        f"{identity_err:.2e} <= {TOL_IDENTITIES}, degenerate detected "
        f"{detected}/{len(degenerate_cases)}",
    )


def _row_stack(acc):
    """(stages, 4, 4 * window size) row coefficients Phi_k = (L V)_k and the cores A_k.

    L = blockdiag(R_kk) R^-1 and A_k = (R_kk R_kk^dag)^-1 are the block
    LDL^dag factors of the engine's band Cholesky factor R; V is rebuilt
    from v_coupling and the frozen basis literals.
    """
    sites = acc.window.points()
    index = {site: i for i, site in enumerate(sites)}
    k = len(acc.schedule)
    rows = dense_rows(acc.tables.field, acc.tables.params, acc.processed_sites(), sites)
    r = dense_factor(acc)
    pivots = r.reshape(k, 4, k, 4)[np.arange(k), :, np.arange(k)]
    phi = pivots @ np.linalg.solve(r, rows).reshape(k, 4, -1)
    return sites, index, phi, np.linalg.inv(pivots @ pivots.conj().transpose(0, 2, 1))


def test_criterion_6_engine_invariants_at_desk_scale():
    started = time.perf_counter()
    rng = np.random.default_rng(6)
    f = random_field(rng, intensity=float(rng.uniform(0.01, 0.5)))
    p = random_params(rng, omega_range=(0.1, 1.0))
    acc = ProjectorAccumulator(f, p, Window(3)).run()
    stages = len(acc.schedule)

    sites, index, phi, cores = _row_stack(acc)
    gram = np.einsum("kap,kbp->kab", phi, phi.conj())
    sigma = np.linalg.svd(phi, compute_uv=False)[:, 0]

    # per-block identities, bounded through rho = Phi^dag core Phi
    herm_err = float(
        np.max(
            sigma**2
            * np.linalg.svd(cores - cores.conj().transpose(0, 2, 1), compute_uv=False)[:, 0]
        )
    )
    residual_core = (cores @ gram - np.eye(4)) @ cores
    idem_err = float(
        np.max(sigma**2 * np.linalg.svd(residual_core, compute_uv=False)[:, 0])
    )
    block_traces = np.einsum("kab,kba->k", cores, gram).real
    trace_err = float(np.abs(block_traces - 4.0).max())

    # pairwise products rho_k rho_l, bounded through the cross Gram matrices
    cross = np.einsum("kap,lbp->klab", phi, phi.conj())
    sandwiched = np.einsum("kab,klbc,lcd->klad", cores, cross, cores)
    pair_bound = (
        sigma[:, None] * np.linalg.svd(sandwiched, compute_uv=False)[..., 0] * sigma[None, :]
    )
    pair_bound[np.diag_indices(stages)] = 0.0
    orth_err = float(pair_bound.max())

    # dense confirmation: the accumulated sum and a block subsample
    weighted = np.einsum("kap,kab->kbp", phi.conj(), cores)
    dense_sum = weighted.reshape(4 * stages, -1).T @ phi.reshape(4 * stages, -1)
    herm_err = max(herm_err, float(np.abs(dense_sum - dense_sum.conj().T).max()))
    idem_err = max(idem_err, float(np.abs(dense_sum @ dense_sum - dense_sum).max()))
    total_trace_err = abs(float(np.trace(dense_sum).real) - 4.0 * stages)
    for k in (0, stages // 2, stages - 1):
        dense_block = weighted[k].T @ phi[k]
        herm_err = max(herm_err, float(np.abs(dense_block - dense_block.conj().T).max()))
        idem_err = max(
            idem_err, float(np.abs(dense_block @ dense_block - dense_block).max())
        )
        trace_err = max(trace_err, abs(float(np.trace(dense_block).real) - 4.0))

    # absorption: every processed bare row block is a fixed point of the sum
    absorb_err = 0.0
    for n in acc.processed_sites():
        rows = np.zeros((4, 4 * len(sites)), dtype=complex)
        for s in SHIFTS_S13:
            j = index[site_add(n, s)]
            rows[:, 4 * j : 4 * j + 4] = matrix_from_dset(v_coupling(n, s, f, p))
        drift = rows @ dense_sum - rows
        left = rows.conj().T @ matrix_from_dset(a_matrix(n, f, p))
        absorb_err = max(absorb_err, float(np.abs(left @ drift).max()))

    elapsed = time.perf_counter() - started
    ok = (
        stages == 69
        and herm_err <= TOL_BLOCKS
        and idem_err <= TOL_BLOCKS
        and trace_err <= TOL_BLOCKS
        and orth_err <= TOL_BLOCKS
        and total_trace_err <= TOL_TRACE
        and absorb_err <= TOL_BLOCKS
        and elapsed <= BUDGET_ENGINE
    )
    assert _line(
        6,
        ok,
        f"{stages} stages: hermiticity {herm_err:.2e}, idempotency {idem_err:.2e}, "
        f"block trace {trace_err:.2e}, orthogonality {orth_err:.2e}, absorption "
        f"{absorb_err:.2e} <= {TOL_BLOCKS}, total trace {total_trace_err:.2e} <= "
        f"{TOL_TRACE}, {elapsed:.1f}s <= {BUDGET_ENGINE:.0f}s",
    )


def test_criterion_7_fundamental_solution_residuals():
    rng = np.random.default_rng(7)
    f = random_field(rng, intensity=float(rng.uniform(0.05, 0.3)))
    p = random_params(rng, omega_range=(0.1, 1.0))
    wide = Window(3)
    acc_wide = ProjectorAccumulator(f, p, wide).run()
    acc_narrow = ProjectorAccumulator(f, p, Window(2)).run()
    narrow_processed = set(acc_narrow.processed_sites())
    eval_sites = [n for n in wide.interior_points() if n not in narrow_processed]

    worst = 0.0
    medians_narrow = []
    medians_wide = []
    for seed in range(10):
        c0 = random_multispinor(wide.points(), seed)
        norm0 = c0.norm()
        solution_wide = acc_wide.apply_fundamental(c0)
        processed = residual_table(
            solution_wide, acc_wide.tables, acc_wide.processed_sites()
        )
        worst = max(worst, max(value for _, value in processed) / norm0)

        solution_narrow = acc_narrow.apply_fundamental(c0)
        medians_narrow.append(
            np.median(
                [v for _, v in residual_table(solution_narrow, acc_wide.tables, eval_sites)]
            )
        )
        medians_wide.append(
            np.median(
                [v for _, v in residual_table(solution_wide, acc_wide.tables, eval_sites)]
            )
        )
    shrinks = all(w < n for n, w in zip(medians_narrow, medians_wide))
    ok = worst <= TOL_RESIDUAL and shrinks
    assert _line(
        7,
        ok,
        f"10 seeds: processed residual {worst:.2e} <= {TOL_RESIDUAL} of seed norm; "
        f"median residual on the {len(eval_sites)} interior sites beyond the smaller "
        f"run {np.median(medians_narrow):.3e} -> {np.median(medians_wide):.3e} "
        f"(shrinks for all seeds: {shrinks})",
    )


def test_criterion_8_determinism_and_round_trip(tmp_path):
    cfg = parse_config(ACCEPT_CONFIG)
    window = Window(cfg.radius, cfg.n_ref)

    def fresh_dump(name):
        acc = ProjectorAccumulator(
            cfg.field, cfg.params, window, rcond_min=cfg.rcond_min
        ).run()
        header = tmp_path / name / "operator.json"
        header.parent.mkdir()
        write_operator(header, acc, cfg)
        return acc, header, (header.read_bytes(), factor_path(header).read_bytes())

    acc, header, dump = fresh_dump("first")
    _, _, dump_again = fresh_dump("second")
    identical = dump == dump_again

    restored = read_operator(header, cfg)
    c0 = random_multispinor(window.points(), cfg.seed)
    solution = acc.apply_fundamental(c0)
    drift = solution - restored.apply_fundamental(c0)
    round_trip_err = max(
        (float(np.abs(drift[site]).max()) for site in drift), default=0.0
    )
    ok = identical and round_trip_err <= TOL_ROUND_TRIP
    assert _line(
        8,
        ok,
        f"independent builds byte-identical: {identical}; dump round-trip apply "
        f"drift {round_trip_err:.2e} <= {TOL_ROUND_TRIP}",
    )
