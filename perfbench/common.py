"""Inputs, the library sweep point and the independent output check.

Shared by the benchmark entry point (run.py), the sweep worker process and the
traced run.  Functions that touch files take the checkout root as an
argument and read or write only inside it.
"""

from __future__ import annotations

import gc
import json
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

SAMPLE_CONFIG = Path("demos") / "sample_config.txt"
BUILD_OUTPUTS = ("operator.json", "stages.csv", "report.txt")
# Window radii: the CLI workloads at R=4 (233 stages), the library sweep at
# R=3 (69 stages).
CLI_RADIUS = 4
SWEEP_RADIUS = 3

# Sweep points draw quasimomentum and quasienergy uniformly from this box.
# A scan of 150 points over the wider box +-0.5 at R=3 found no stage with
# rcond below 3e-3 (the floor is 1e-10), so no point of this box is expected
# to end in StageSingular.
SWEEP_Q_RANGE = 0.25

# Nominal time of one reference_loop(): the gated rate is scaled to a machine
# that runs the loop in this time (about its median on a 2-vCPU x86 VM).
REFERENCE_NOMINAL_S = 0.05
_REF_RNG = np.random.default_rng(12345)
_REF_SMALL = _REF_RNG.standard_normal((4, 4)) + 1j * _REF_RNG.standard_normal((4, 4)) + 4 * np.eye(4)
_REF_RECORDS = [[float(x) for x in row] for row in _REF_RNG.standard_normal((2000, 8))]


def reference_loop() -> float:
    """Wall time of a fixed piece of work that uses no estc code.

    It mixes what estc spends its time on (dict caches keyed by site tuples,
    4x4 complex inverses and products, a JSON round trip), so its time
    follows the machine's speed, which on a shared host drifts by a fifth
    over minutes.  Timed right before each sweep point, it lets the gated
    sweep rate divide that drift out.  No BLAS-threaded product: its time
    depends on thread wake-ups, not on the machine's speed.
    """
    # without the cyclic collector, whose passes would time the caller's heap
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        cache = {}
        for i in range(1500):
            cache[(i % 7, i % 11, i % 13, i)] = _REF_SMALL @ np.linalg.inv(_REF_SMALL)
        json.loads(json.dumps(_REF_RECORDS))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def use_checkout_src(root: Path) -> None:
    """Import estc from the checkout's src/, ahead of any installed copy."""
    src = str(root / "src")
    if sys.path[:1] != [src]:
        sys.path.insert(0, src)


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    parts = [str(root / "src")]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def run_child(root: Path, argv: list[str], log: Path, timeout: float) -> tuple[float, int, float]:
    """Run `python3 argv` in the checkout; returns (wall s, exit code, peak RSS MB).

    The peak RSS is this child's own, from wait4; RUSAGE_CHILDREN would
    report the largest child the benchmark ever waited for.  Linux reports
    at least the parent's own peak at spawn time here.  stdout and
    stderr go to `log`.  A child still running after `timeout` is killed.
    """
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=root, env=child_env(root), stdout=out, stderr=subprocess.STDOUT
        )
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024


def report_ok(out: Path) -> bool:
    """The CLI wrote a report in `out` whose last line is `result: ok`."""
    report = out / "report.txt"
    return report.exists() and report.read_text().rstrip().endswith("result: ok")


def config_text(root: Path, radius: int, seed: int) -> str:
    """The sample field configuration with the window radius and seed replaced."""
    text = (root / SAMPLE_CONFIG).read_text()
    for key, value in (("R", radius), ("seed", seed)):
        text, found = re.subn(rf"(?m)^{key}\s*=.*$", f"{key} = {value}", text)
        if not found:
            text += f"\n{key} = {value}\n"
    return text


def sweep_inputs(seed: int):
    """Endless stream of (q1..q4, spinor seed) for the library sweep."""
    rng = np.random.default_rng([seed, 3])
    while True:
        q = rng.uniform(-SWEEP_Q_RANGE, SWEEP_Q_RANGE, 4)
        yield tuple(float(x) for x in q), int(rng.integers(2**31))


def apply_seeds(seed: int):
    """Endless stream of distinct CLI apply seeds."""
    rng = np.random.default_rng([seed, 2])
    used = set()
    while True:
        value = int(rng.integers(2**31))
        if value not in used:
            used.add(value)
            yield value


def sweep_point(cfg, q, spinor_seed):
    """One point of the README quick start at new quasimomentum values.

    Calls go through module attributes so the traced run can wrap them.
    """
    from estc import engine, field, lattice, multispinor

    params = field.DimensionlessParams(*q, omega=cfg.params.omega)
    window = lattice.Window(cfg.radius, cfg.n_ref)
    acc = engine.ProjectorAccumulator(cfg.field, params, window, rcond_min=cfg.rcond_min).run()
    seed_c = multispinor.random_multispinor(acc.window.points(), spinor_seed)
    solution = acc.apply_fundamental(seed_c)
    engine.residual_table(solution, acc.tables, acc.processed_sites())
    return acc, params, seed_c, solution


def check_solution(cfg, params, seed_c, solution, sites) -> tuple[bool, float]:
    """Independent check of a fundamental solution; returns (ok, residual ratio).

    Recomputes each processed row straight from field.v_coupling, so it
    shares no code with engine.residual_table.  The solution must solve
    every row to residual_tol relative to the seed norm, be nonzero, and be
    orthogonal to what was projected away (seed - solution).
    """
    from estc.dirac_basis import matrix_from_dset
    from estc.field import v_coupling
    from estc.lattice import SHIFTS_S13

    zero = np.zeros(4, dtype=complex)
    amplitudes = {site: np.asarray(solution[site]) for site in solution}
    worst = 0.0
    for n in sites:
        row = np.zeros(4, dtype=complex)
        for s in SHIFTS_S13:
            neighbor = (n[0] + s[0], n[1] + s[1], n[2] + s[2], n[3] + s[3])
            row += matrix_from_dset(v_coupling(n, s, cfg.field, params)) @ amplitudes.get(neighbor, zero)
        worst = max(worst, float(np.linalg.norm(row)))
    seed_sites = list(seed_c)
    if set(seed_sites) != set(amplitudes):
        return False, float("inf")
    x = np.concatenate([np.asarray(seed_c[site]) for site in seed_sites])
    y = np.concatenate([amplitudes[site] for site in seed_sites])
    scale = float(np.linalg.norm(x))
    ratio = worst / scale
    orthogonality = abs(np.vdot(y, x - y)) / scale**2
    nonzero = 1e-6 < float(np.linalg.norm(y)) / scale <= 1.0 + 1e-9
    ok = ratio <= cfg.residual_tol and orthogonality <= cfg.residual_tol and nonzero
    return ok, ratio
