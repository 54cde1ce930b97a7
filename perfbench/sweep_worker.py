"""Child process of the sweep-r3 workload: library sweep points for a time budget.

Run from the checkout root with src/ on PYTHONPATH:

    python3 perfbench/sweep_worker.py --seed 1 --seconds 10 --out sweep.json

Writes one JSON object to --out: the worker's peak RSS, the time of one
reference loop run just before each point, and, per point, its wall time,
whether the independent check passed, and the residual ratio.
A point that raises StageSingular counts as failed and is never redrawn.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from common import SWEEP_RADIUS, check_solution, config_text, reference_loop, sweep_inputs, sweep_point


def peak_rss_mib() -> float | None:
    """This process's own peak RSS (VmHWM), where Linux reports it.

    The parent's wait4 value is at least the parent's own peak when it
    spawned this worker, which can exceed a small worker's peak.
    """
    status = Path("/proc/self/status")
    for line in status.read_text().splitlines() if status.exists() else ():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    return None


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    from estc import StageSingular, Window, parse_config

    cfg = parse_config(config_text(Path.cwd(), SWEEP_RADIUS, args.seed))
    rows = Window(cfg.radius, cfg.n_ref).interior_points()
    points, reference = [], []
    for _ in range(2):  # warm-up, untimed
        reference_loop()
    started = time.perf_counter()
    for q, spinor_seed in sweep_inputs(args.seed):
        if points and time.perf_counter() - started >= args.seconds:
            break
        reference.append(reference_loop())
        t0 = time.perf_counter()
        try:
            _, params, seed_c, solution = sweep_point(cfg, q, spinor_seed)
        except StageSingular as err:
            points.append({"s": time.perf_counter() - t0, "ok": False, "error": str(err)})
            continue
        elapsed = time.perf_counter() - t0
        ok, ratio = check_solution(cfg, params, seed_c, solution, rows)
        points.append({"s": elapsed, "ok": ok, "residual": ratio})
    result = {"peak_rss_mb": peak_rss_mib(), "reference": reference, "points": points}
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
