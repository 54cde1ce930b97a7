"""estc benchmark: CLI build and apply at R=4 and a library sweep at R=3.

Run from the root of a checkout (estc is imported from its src/, never
from an installed copy):

    python3 perfbench/run.py --workload apply-r4 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Workloads (closed loop, one client, operations sent one after another):

  build-r4  one `estc build` process of the sample field at R=4 per operation
  apply-r4  one `estc apply --seed s` process per operation, a new s each time,
            against an R=4 operator built once during set-up
  sweep-r3  one library point per operation in a worker process: a fresh
            ProjectorAccumulator at R=3 on new (q1..q4), apply_fundamental on
            a seed, residual_table

Every operation's output is checked outside the timed region; a miss
counts as failed.  The gated sweep-r3 rate is scaled to nominal machine
speed by a reference loop timed between the points (README.md, "Machine
speed").  `--trace 1` runs the traced in-process passes of
layers.py instead (a fixed amount of work; --seconds does not apply) and
prints per-layer metrics.  The last line of stdout is
one JSON object with `correct`, `attempted`, `failed` and `metrics`; the
lines before it name every metric with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from common import (
    BUILD_OUTPUTS,
    CLI_RADIUS,
    REFERENCE_NOMINAL_S,
    SAMPLE_CONFIG,
    SWEEP_RADIUS,
    apply_seeds,
    check_solution,
    config_text,
    report_ok,
    run_child,
    use_checkout_src,
)

WORKLOADS = ("build-r4", "apply-r4", "sweep-r3")
# The operation time and rate each workload prints under its own names.
OP_NAMES = {"build-r4": "build_s", "apply-r4": "apply_s", "sweep-r3": "point_s"}
RATE_NAMES = {"build-r4": "builds_per_s", "apply-r4": "applies_per_s", "sweep-r3": "sweep_points_per_s"}
WORK_DIR = ".bench_work"
OP_TIMEOUT_S = 150.0
SETUP_REPEATS = 20
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class BenchError(Exception):
    """The benchmark cannot produce a result."""


@dataclass
class Run:
    workload: str
    seed: int
    setup_s: float = 0.0
    attempted: int = 0
    walls: list[float] = field(default_factory=list)  # every operation
    ok_walls: list[float] = field(default_factory=list)  # operations that passed the check
    rss_mb: list[float] = field(default_factory=list)
    reference: list[float] = field(default_factory=list)  # sweep-r3 only: reference_loop() times
    residuals: list[float] = field(default_factory=list)
    operator_mb: float | None = None

    @property
    def failed(self) -> int:
        return self.attempted - len(self.ok_walls)

    @property
    def measured_rate(self) -> float:
        # Work completed per second of operation time, not the per-operation
        # median: on a shared machine it drifts less from run to run.
        return len(self.ok_walls) / sum(self.walls)

    @property
    def speed_factor(self) -> float:
        """Median reference loop time over its nominal time; 1 where none was timed."""
        return statistics.median(self.reference) / REFERENCE_NOMINAL_S if self.reference else 1.0

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        if not self.ok_walls:
            raise BenchError(f"every {self.workload} operation failed its check")
        return {
            "setup_s": (self.setup_s, "s"),
            "ops_per_s": (self.measured_rate * self.speed_factor, "1/s"),
            "peak_rss_mb": (max(self.rss_mb), "MiB"),
        }


def _sha256(path: Path) -> str:
    # in chunks: a child's wait4 peak RSS is at least the parent's own peak
    with open(path, "rb") as f:
        return hashlib.file_digest(f, "sha256").hexdigest()


def probe_setup(root: Path, work: Path) -> float:
    """Median wall time of an interpreter start plus `import estc.cli`.

    Also makes sure a child imports the checkout's own estc.
    """
    src = (root / "src").resolve()
    times = []
    for i in range(SETUP_REPEATS):
        log = work / f"probe{i}.log"
        wall, code, _ = run_child(root, ["-c", "import estc.cli; print(estc.__file__)"], log, OP_TIMEOUT_S)
        imported = log.read_text().strip()
        if code != 0 or not Path(imported).resolve().is_relative_to(src):
            raise BenchError(f"a child process did not import estc from {src}: {imported!r}")
        times.append(wall)
    return statistics.median(times)


def _write_config(root: Path, work: Path, radius: int, seed: int) -> tuple[Path, float]:
    start = time.perf_counter()
    path = work / f"r{radius}.txt"
    path.write_text(config_text(root, radius, seed))
    return path, time.perf_counter() - start


def _build(root: Path, work: Path, cfg_path: Path, out: Path) -> tuple[float, bool, float]:
    argv = ["-m", "estc.cli", "build", "--config", str(cfg_path), "--out", str(out)]
    wall, code, rss = run_child(root, argv, work / "op.log", OP_TIMEOUT_S)
    return wall, code == 0 and report_ok(out), rss


def run_build(root: Path, work: Path, seed: int, seconds: float) -> Run:
    run = Run("build-r4", seed)
    cfg_path, generate_s = _write_config(root, work, CLI_RADIUS, seed)
    run.setup_s = probe_setup(root, work) + generate_s
    reference = None
    start = time.perf_counter()
    # two builds at least, so byte identity within the run is checked
    while run.attempted < 2 or time.perf_counter() - start < seconds:
        out = work / f"build{run.attempted}"
        wall, ok, rss = _build(root, work, cfg_path, out)
        run.attempted += 1
        run.walls.append(wall)
        digests = [_sha256(out / name) for name in BUILD_OUTPUTS] if ok else None
        reference = reference or digests
        if digests is not None and digests == reference:
            run.ok_walls.append(wall)
            run.rss_mb.append(rss)
            run.operator_mb = (out / "operator.json").stat().st_size / 1e6
        shutil.rmtree(out, ignore_errors=True)
    return run


def run_apply(root: Path, work: Path, seed: int, seconds: float) -> Run:
    from estc import EstcError, Window, parse_config, random_multispinor
    from estc.io import read_solution

    run = Run("apply-r4", seed)
    cfg_path, generate_s = _write_config(root, work, CLI_RADIUS, seed)
    operator_dir = work / "operator"
    build_s, ok, _ = _build(root, work, cfg_path, operator_dir)
    if not ok:
        raise BenchError("the set-up build failed; see its report in " + str(work))
    run.setup_s = probe_setup(root, work) + generate_s + build_s
    operator = operator_dir / "operator.json"
    run.operator_mb = operator.stat().st_size / 1e6

    cfg = parse_config(cfg_path.read_text())
    window = Window(cfg.radius, cfg.n_ref)
    points, rows = window.points(), window.interior_points()
    seeds = apply_seeds(seed)
    start = time.perf_counter()
    while run.attempted < 1 or time.perf_counter() - start < seconds:
        spinor_seed = next(seeds)
        out = work / f"apply{run.attempted}"
        argv = ["-m", "estc.cli", "apply", "--config", str(cfg_path), "--operator", str(operator),
                "--out", str(out), "--seed", str(spinor_seed)]
        wall, code, rss = run_child(root, argv, work / "op.log", OP_TIMEOUT_S)
        run.attempted += 1
        run.walls.append(wall)
        ok = code == 0 and report_ok(out)
        if ok:
            try:
                solution = read_solution(out / "solution.json", cfg)
            except (EstcError, OSError, KeyError, ValueError):
                ok = False
        if ok:
            seed_c = random_multispinor(points, spinor_seed)
            ok, ratio = check_solution(cfg, cfg.params, seed_c, solution, rows)
            run.residuals.append(ratio)
        if ok:
            run.ok_walls.append(wall)
            run.rss_mb.append(rss)
        shutil.rmtree(out, ignore_errors=True)
    return run


def run_sweep(root: Path, work: Path, seed: int, seconds: float) -> Run:
    run = Run("sweep-r3", seed)
    _, generate_s = _write_config(root, work, SWEEP_RADIUS, seed)
    run.setup_s = probe_setup(root, work) + generate_s
    result = work / "sweep.json"
    worker = Path(__file__).with_name("sweep_worker.py")
    argv = [str(worker), "--seed", str(seed), "--seconds", str(seconds), "--out", str(result)]
    _, code, rss = run_child(root, argv, work / "sweep.log", OP_TIMEOUT_S + seconds)
    if code != 0:
        raise BenchError(f"the sweep worker exited with {code}: {(work / 'sweep.log').read_text()[-2000:]}")
    data = json.loads(result.read_text())
    points = data["points"]
    run.attempted = len(points)
    run.walls = [point["s"] for point in points]
    run.ok_walls = [point["s"] for point in points if point["ok"]]
    run.residuals = [point["residual"] for point in points if "residual" in point]
    run.rss_mb = [data["peak_rss_mb"] or rss]
    run.reference = data["reference"]
    return run


RUNNERS = {"build-r4": run_build, "apply-r4": run_apply, "sweep-r3": run_sweep}


def tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    for p in TAIL_PERCENTILES:
        if n * (1 - p / 100) >= 10:
            value = statistics.quantiles(samples, n=1000, method="inclusive")[round(p * 10) - 1]
            return f"p{p:g} {value:.4f} s"
    return "no percentile has ten samples beyond it"


def describe_run(run: Run) -> list[str]:
    metrics = run.end_to_end()
    name = OP_NAMES[run.workload]
    lines = [
        f"{run.workload} seed={run.seed}: {run.attempted} attempted, {run.failed} failed",
        f"  setup_s             {run.setup_s:.4f} s",
        f"  {name:<19} median {statistics.median(run.ok_walls):.4f} s, {tail(run.ok_walls)} "
        f"(n={len(run.ok_walls)})",
    ]
    if run.reference:
        lines += [
            f"  {RATE_NAMES[run.workload]:<19} {run.measured_rate:.4f} 1/s as measured",
            f"  reference_loop      median {statistics.median(run.reference):.4f} s (n={len(run.reference)}), "
            f"{run.speed_factor:.3f} x nominal {REFERENCE_NOMINAL_S} s",
            f"  ops_per_s           {metrics['ops_per_s'][0]:.4f} 1/s at nominal machine speed",
        ]
    else:
        lines.append(f"  {RATE_NAMES[run.workload]:<19} {metrics['ops_per_s'][0]:.4f} 1/s")
    lines.append(f"  peak_rss_mb         {metrics['peak_rss_mb'][0]:.1f} MiB (largest child peak)")
    if run.operator_mb is not None:
        lines.append(f"  operator_mb         {run.operator_mb:.3f} MB")
    if run.residuals:
        lines.append(f"  residual_max        {max(run.residuals):.3e} of the seed norm")
    lines.append(f"  failed_frac         {run.failed / run.attempted:g} ({run.failed}/{run.attempted})")
    return lines


def _unit(metric: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_frac", "ratio"), ("_ratio", "ratio")):
        if metric.endswith(suffix):
            return unit
    return "count"


def _git_commit(root: Path) -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    except OSError:
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def environment_lines(root: Path) -> list[str]:
    import estc
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted((root / "src" / "estc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return [
        f"# commit {_git_commit(root)}; src/estc sha256 {digest.hexdigest()[:16]}; estc from {estc.__file__}",
        f"# python {platform.python_version()}; numpy {np.__version__}; blas {blas}; "
        f"nproc {len(os.sched_getaffinity(0))} of {os.cpu_count()}",
    ]


def measure(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> tuple[list[str], dict]:
    work = root / WORK_DIR / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            from layers import traced_run

            metrics, attempted, failed, missing = traced_run(root, work, seed)
            metrics["cli.import_s"] = probe_setup(root, work)
            lines = [f"traced run seed={seed}: {attempted} attempted, {failed} failed"]
            lines += [f"  {name:<40} {value:.6g} {_unit(name)}" for name, value in metrics.items()]
            lines.append("  missing hooks: " + (", ".join(missing) or "none"))
            result = {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()}
        else:
            run = RUNNERS[workload](root, work, seed, seconds)
            lines = describe_run(run)
            attempted, failed = run.attempted, run.failed
            result = {name: {"value": value, "unit": unit} for name, (value, unit) in run.end_to_end().items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return lines, {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM unwinds like an exception, so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    root = Path.cwd()
    for required in (root / "src" / "estc" / "__init__.py", root / SAMPLE_CONFIG):
        if not required.is_file():
            sys.stderr.write(f"error: {required} is missing; run from the root of an estc checkout\n")
            return 2
    use_checkout_src(root)
    print("\n".join(environment_lines(root)))
    # one traced run covers every workload
    workloads = WORKLOADS if args.workload == "all" and not args.trace else (args.workload,)
    try:
        for workload in workloads:
            lines, result = measure(root, workload, args.seed, args.seconds, bool(args.trace))
            print("\n".join(lines))
            print(json.dumps(result), flush=True)
    except BenchError as err:
        sys.stderr.write(f"error: {err}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
