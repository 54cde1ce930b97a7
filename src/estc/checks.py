"""Built-in validation suite behind the verify command.

Every check compares a fast-path computation against an independently
rebuilt dense reference; the projector's references are an SVD of the
dense row coefficients and the paper's own recursion, the per-site
projectors P(n) = V(n)^dag a(n) V(n) joined pairwise by the closed-form
pair combination, and neither shares a factorization with the engine.
The stage lines read off one Gram Phi Phi^dag, Phi = R^-1 V, with no
dense P; "idempotent" is the spectral norm of rho_k^2 - rho_k.  Basis
tables are cross-checked against matrices reconstructed from scratch, so a
corrupted product or factor table is caught even when both fast paths
agree with each other.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from . import dirac_basis
from .config import RunConfig
from .dirac_basis import (
    char_invariants,
    dset_from_matrix,
    dset_inverse,
    dset_multiply,
    dset_square,
    gamma_matrix,
)
from .engine import ProjectorAccumulator
from .field import a_matrix, det_l, field_intensity, l_matrix, v_coupling
from .io import RunReport
from .lattice import SHIFTS_S13, Site, Window, site_add, window_table
from .multispinor import random_multispinor


def _fresh_gammas() -> np.ndarray:
    return np.stack([gamma_matrix(nu) for nu in range(16)])


def _dense(d: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    return np.einsum("...n,nij->...ij", d, gammas)


def check_basis(report: RunReport) -> None:
    gammas = _fresh_gammas()
    eye = np.eye(4)

    worst = max(
        float(np.abs(gammas[lam] @ gammas[lam].conj().T - eye).max()) for lam in range(16)
    )
    report.add("basis elements are unitary", worst, 0.0)

    worst = 0.0
    for lam in range(16):
        for mu in range(16):
            ref = gammas[lam] @ gammas[mu]
            fast = dirac_basis.FACTOR_TABLE[lam, mu] * gammas[lam ^ mu]
            worst = max(worst, float(np.abs(ref - fast).max()))
    report.add("factor table reproduces all 256 dense products", worst, 0.0)

    rng = np.random.default_rng(20260814)
    a = rng.standard_normal((64, 16)) + 1j * rng.standard_normal((64, 16))
    b = rng.standard_normal((64, 16)) + 1j * rng.standard_normal((64, 16))
    fast = _dense(dset_multiply(a, b), gammas)
    ref = _dense(a, gammas) @ _dense(b, gammas)
    report.add(
        "coefficient product matches dense product, 64 random pairs",
        float(np.abs(fast - ref).max()),
        1e-12,
    )
    fast = _dense(dset_square(a), gammas)
    ref = _dense(a, gammas) @ _dense(a, gammas)
    report.add(
        "coefficient square matches dense square", float(np.abs(fast - ref).max()), 1e-12
    )

    mats = rng.standard_normal((32, 4, 4)) + 1j * rng.standard_normal((32, 4, 4))
    report.add(
        "coefficient round trip recovers the matrix",
        float(np.abs(_dense(dset_from_matrix(mats), gammas) - mats).max()),
        1e-13,
    )
    report.add(
        "trace invariants match the dense characteristic polynomial",
        max(
            float(abs(char_invariants(dset_from_matrix(m)).i4 - np.linalg.det(m)))
            for m in mats
        ),
        1e-10,
    )

    shifted = mats + 5.0 * eye
    d = dset_from_matrix(shifted)
    resid = _dense(dset_multiply(dset_inverse(d), d), gammas) - eye
    report.add("closed-form inverse solves to identity", float(np.abs(resid).max()), 1e-12)


def check_field(cfg: RunConfig, report: RunReport) -> None:
    f, p = cfg.field, cfg.params
    gammas = _fresh_gammas()

    worst_gram = 0.0
    worst_inverse = 0.0
    worst_det = 0.0
    for n in Window(2, cfg.n_ref).points():
        # the coupling sum from the reference formula, site by site
        stack = _dense(np.stack([v_coupling(n, s, f, p) for s in SHIFTS_S13]), gammas)
        gram = np.einsum("sij,skj->ik", stack, stack.conj())
        gram_dset = l_matrix(n, f, p)
        l_dense = dirac_basis.matrix_from_dset(gram_dset)
        worst_gram = max(worst_gram, float(np.abs(gram - l_dense).max()))
        a_dense = dirac_basis.matrix_from_dset(a_matrix(n, f, p))
        worst_inverse = max(worst_inverse, float(np.abs(a_dense @ l_dense - np.eye(4)).max()))
        det = det_l(n, f, p)
        i4 = char_invariants(gram_dset).i4
        worst_det = max(worst_det, float(abs(i4 - det * det) / max(abs(i4), 1.0)))
    report.add("gram row matrix equals the coupling sum on 69 sites", worst_gram, 1e-12)
    report.add("closed-form gram inverse solves to identity", worst_inverse, 1e-12)
    report.add("reduced determinant squares to the dense determinant", worst_det, 1e-12)


def _dense_rows(cfg: RunConfig, rows: list[Site], sites: list[Site]) -> np.ndarray:
    """Coefficients V of the given rows over the given sites, from v_coupling."""
    gammas = _fresh_gammas()
    index = {site: i for i, site in enumerate(sites)}
    v = np.zeros((4 * len(rows), 4 * len(sites)), dtype=complex)
    for k, n in enumerate(rows):
        for s in SHIFTS_S13:
            j = index[site_add(n, s)]
            v[4 * k : 4 * k + 4, 4 * j : 4 * j + 4] = _dense(
                v_coupling(n, s, cfg.field, cfg.params), gammas
            )
    return v


def check_projector(cfg: RunConfig, report: RunReport) -> None:
    radius = min(cfg.radius, 3)
    window = Window(radius, cfg.n_ref)
    acc = ProjectorAccumulator(
        cfg.field, cfg.params, window, rcond_min=cfg.rcond_min
    ).run()
    stages = len(acc.schedule)
    table = window_table(window)

    # stage k of P = (R^-1 V)^dag (R^-1 V) is rho_k = Phi_k^dag Phi_k, Phi = R^-1 V
    v = _dense_rows(cfg, acc.schedule, window.points())
    # the engine's row Gram blocks against G = V V^dag of the dense rows: equal on
    # the pattern, and every lower block off it zero
    gram = (v @ v.conj().T).reshape(stages, 4, stages, 4).transpose(0, 2, 1, 3)
    owner, partner = table.pattern.stage, table.pattern.partner
    worst = np.abs(acc.gram - gram[owner, partner]).max(initial=0.0)
    outside = np.tri(stages, dtype=bool)
    outside[owner, partner] = False
    worst = max(worst, np.abs(gram[outside]).max(initial=0.0))
    report.add(
        "row Gram blocks match the dense V V^dag",
        float(worst / max(np.abs(gram).max(initial=0.0), 1e-300)),
        1e-13,
    )

    # every stage line reads off the blocks B_kj = Phi_k Phi_j^dag of one Gram Phi Phi^dag:
    # rho_k is idempotent with trace 4 iff B_kk = I, and rho_k rho_j = 0 iff B_kj = 0
    phi = acc.solve_lower(v)
    blocks = (phi @ phi.conj().T).reshape(stages, 4, stages, 4)
    diagonal = blocks[np.arange(stages), :, np.arange(stages)]
    herm = np.abs(diagonal - diagonal.conj().transpose(0, 2, 1)).max()
    report.add("stage blocks are Hermitian", float(herm), 1e-8)
    # rho_k^2 - rho_k = Phi_k^dag (B_kk - I) Phi_k: its spectral norm is the largest
    # |e (1 + e)| over the eigenvalues e of B_kk - I
    e = np.linalg.eigvalsh(diagonal - np.eye(4))
    report.add("stage blocks are idempotent", float(np.abs(e * (1 + e)).max()), 1e-8)
    traces = np.trace(diagonal, axis1=1, axis2=2).real
    report.add("stage blocks have trace 4", float(np.abs(traces - 4.0).max()), 1e-8)

    blocks[np.arange(stages), :, np.arange(stages)] = 0.0
    report.add("distinct stage blocks are mutually orthogonal", float(np.abs(blocks).max()), 1e-8)

    report.add(
        "projector trace equals 4 x stage count", float(abs(traces.sum() - 4.0 * stages)), 1e-6
    )

    # P V^dag = Phi^dag (Phi V^dag): two thin products, no dense P
    bare = v.conj().T
    report.add(
        "projector absorbs every processed row",
        float(np.abs(phi.conj().T @ (phi @ bare) - bare).max() / np.abs(bare).max()),
        1e-8,
    )

    c = random_multispinor(table.coords, cfg.seed)
    scale = c.norm()
    x = c.at(table.coords).ravel()
    # SVD reference: the right singular vectors of V span its row space
    right = np.linalg.svd(v, full_matrices=False)[2]
    reference = right.conj().T @ (right @ x)
    fast = acc.apply_projector(c).at(table.coords).ravel()
    report.add(
        "factored apply matches the SVD projector",
        float(np.linalg.norm(fast - reference)) / max(scale, 1e-300),
        1e-9,
    )

    solution = acc.apply_fundamental(c)
    worst = np.linalg.norm(acc.rows(solution.at(table.coords)), axis=1).max()
    report.add(
        "projected seed solves every processed row",
        worst / max(scale, 1e-300),
        cfg.residual_tol,
    )
    configured = f" (configured R = {cfg.radius})" if cfg.radius > radius else ""
    report.notes.append(
        f"projector run: radius {radius}{configured}, {stages} stages, field intensity "
        f"{field_intensity(cfg.field):.6g}"
    )


def check_paper_recursion(cfg: RunConfig, report: RunReport) -> None:
    """The paper's projector against the factored apply, at radius min(R, 2).

    Each scheduled site n contributes P(n) = V(n)^dag a(n) V(n), with a(n)
    the closed-form inverse of its row Gram matrix; combine_pair joins
    them in schedule order.  Every P(n) lies in the span of the processed
    rows, and combine_pair commutes with a unitary change of basis, so the
    fold runs on that span in the orthonormal basis Q of a QR of V^dag.
    """
    from .combiner import combine_pair  # its one caller: build and apply never load it

    radius = min(cfg.radius, 2)
    window = Window(radius, cfg.n_ref)
    acc = ProjectorAccumulator(
        cfg.field, cfg.params, window, rcond_min=cfg.rcond_min
    ).run()
    rows = acc.schedule
    v = _dense_rows(cfg, rows, window.points())
    q = np.linalg.qr(v.conj().T)[0]
    blocks = (v @ q).reshape(len(rows), 4, -1)  # V(n) Q, stage by stage
    cores = _dense(np.stack([a_matrix(n, cfg.field, cfg.params) for n in rows]), _fresh_gammas())
    folded = reduce(combine_pair, blocks.conj().transpose(0, 2, 1) @ cores @ blocks)

    coords = window_table(window).coords
    c = random_multispinor(coords, cfg.seed)
    x = c.at(coords).ravel()
    fast = acc.apply_projector(c).at(coords).ravel()
    report.add(
        "paper recursion matches the factored apply",
        float(np.linalg.norm(fast - q @ (folded @ (q.conj().T @ x)))) / max(c.norm(), 1e-300),
        1e-9,
    )
    report.notes.append(f"paper recursion: radius {radius}, {len(rows)} stages")


def run_verify(cfg: RunConfig) -> RunReport:
    report = RunReport("validation suite")
    check_basis(report)
    check_field(cfg, report)
    check_projector(cfg, report)
    check_paper_recursion(cfg, report)
    return report
