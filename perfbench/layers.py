"""Traced run: per-layer time and counts from hooks on estc's public names.

Each hook replaces one public name where it is looked up at call time
(`estc.cli.write_operator`, `FieldTables.overlap`, ...) with a wrapper that
records a span.  A span nested inside an open span of the same metric is
not recorded again; a span's self time is its duration minus its direct
child spans.  A hook whose target no longer exists is reported as missing
and never fails the run.  End-to-end metrics come from the untraced run in
run.py and depend on none of this.

One traced run covers all three workloads in-process, each as one pass of
operations traced and the same operations untraced, so every per-layer
metric is measured on the workload that exercises it and the tracing
overhead is measured against an untraced copy of the same work.
"""

from __future__ import annotations

import contextlib
import filecmp
import functools
import importlib
import io
import re
import time
from collections import Counter, defaultdict
from itertools import islice
from pathlib import Path

from common import (
    BUILD_OUTPUTS,
    CLI_RADIUS,
    SWEEP_RADIUS,
    apply_seeds,
    check_solution,
    config_text,
    report_ok,
    sweep_inputs,
    sweep_point,
)

# (metric, "module:attribute path") -- targets are looked up where they are
# called, so a refactor that keeps the public name keeps the hook.
HOOKS = (
    ("field.tables", "estc.engine:FieldTables.__init__"),
    ("field.tables", "estc.engine:FieldTables.v_stack"),
    ("field.tables", "estc.engine:FieldTables.l_dset"),
    ("field.tables", "estc.engine:FieldTables.a_dset"),
    ("field.overlap", "estc.engine:FieldTables.overlap"),
    ("dirac_basis.inverse", "estc.engine:dset_inverse"),
    ("dirac_basis.convert", "estc.engine:matrix_from_dset"),
    ("dirac_basis.convert", "estc.engine:dset_from_matrix"),
    ("dirac_basis.convert", "estc.io:matrix_from_dset"),
    ("dirac_basis.convert", "estc.io:dset_from_matrix"),
    ("lattice.schedule", "estc.engine:make_schedule"),
    ("lattice.schedule", "estc.lattice:Window.points"),
    ("engine.run", "estc.engine:ProjectorAccumulator.run"),
    ("engine.stage", "estc.engine:ProjectorAccumulator.stage_step"),
    ("engine.project", "estc.engine:ProjectorAccumulator.apply_projector"),
    ("engine.project", "estc.engine:OperatorBlock.apply"),
    ("engine.residual", "estc.engine:residual_table"),
    ("engine.residual", "estc.cli:residual_table"),
    ("multispinor.seed", "estc.multispinor:random_multispinor"),
    ("multispinor.seed", "estc.cli:random_multispinor"),
    ("io.payload", "estc.io:operator_payload"),
    ("io.write_operator", "estc.cli:write_operator"),
    ("io.parse", "estc.io:read_operator_payload"),
    ("io.read_operator", "estc.cli:read_operator"),
    ("io.solution", "estc.cli:write_solution"),
    ("io.solution", "estc.cli:read_solution"),
    ("io.csv", "estc.cli:residual_csv"),
    ("io.csv", "estc.cli:stages_csv"),
)

# Spans that count towards "stage recurrence plus io" on the CLI passes.
_COVERED = ("engine.stage", "io.write_operator", "io.read_operator", "io.solution", "io.csv")

SWEEP_POINTS = 6


class Tracer:
    """Span totals, self times and call counts of one traced pass."""

    def __init__(self):
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.overlap_keys: set = set()
        self.residual_rows = 0
        self.accumulators: list = []
        self.missing: list[str] = []
        self._open: set[str] = set()
        self._children: list[float] = []
        self._undo: list = []

    @contextlib.contextmanager
    def span(self, metric: str):
        self._open.add(metric)
        self._children.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            children = self._children.pop()
            self._open.discard(metric)
            self.total[metric] += elapsed
            self.self_time[metric] += elapsed - children
            self.calls[metric] += 1
            if self._children:
                self._children[-1] += elapsed

    def _hook(self, metric: str, fn):
        tracer = self

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            if metric in tracer._open:
                return fn(*args, **kwargs)
            with tracer.span(metric):
                result = fn(*args, **kwargs)
            if metric == "field.overlap":
                tracer.overlap_keys.add((id(args[0]), *args[1:3]))
            elif metric == "engine.residual":
                tracer.residual_rows += len(result)
            elif metric == "engine.run":
                tracer.accumulators.append(args[0])
            return result

        return hooked

    def install(self) -> None:
        for metric, target in HOOKS:
            module_name, _, path = target.partition(":")
            *owners, name = path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for attr in owners:
                    owner = getattr(owner, attr)
                original = vars(owner)[name]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(target)
                continue
            if not callable(original):
                self.missing.append(target)
                continue
            setattr(owner, name, self._hook(metric, original))
            self._undo.append((owner, name, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def stage_metrics(self) -> dict[str, float]:
        """engine.* recurrence metrics, from spans and public StageDiagnostics."""
        out = {
            "engine.stage_s": self.total["engine.stage"],
            "engine.stage_self_s": self.self_time["engine.stage"],
            "engine.stages": self.calls["engine.stage"],
        }
        first, last, support = [], [], 0
        for acc in self.accumulators:
            diags = getattr(acc, "diagnostics", [])
            tenth = max(1, len(diags) // 10)
            first += [d.elapsed for d in diags[:tenth]]
            last += [d.elapsed for d in diags[-tenth:]]
            support += sum(d.support_size for d in diags)
        out["engine.stage_first_ms"] = 1e3 * sum(first) / len(first) if first else 0.0
        out["engine.stage_last_ms"] = 1e3 * sum(last) / len(last) if last else 0.0
        out["engine.support_sites"] = support
        return out

    def field_metrics(self) -> dict[str, float]:
        calls = self.calls["field.overlap"]
        return {
            "field.tables_s": self.total["field.tables"],
            "field.overlap_s": self.total["field.overlap"],
            "field.overlap_calls": calls,
            "field.overlap_hit_ratio": 1.0 - len(self.overlap_keys) / calls if calls else 0.0,
        }


def _cli(argv: list[str]) -> int:
    from estc import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def _same_bytes(a: Path, b: Path, names) -> bool:
    return all(filecmp.cmp(a / name, b / name, shallow=False) for name in names)


def _overhead(tracer: Tracer, traced_s: float, untraced_s: float) -> dict[str, float]:
    return {
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
        "trace.spans": sum(tracer.calls.values()),
    }


def _cli_metrics(tracer: Tracer, untraced_s: float) -> dict[str, float]:
    main_s = tracer.total["cli.main"]
    return {
        "cli.main_s": main_s,
        "cli.other_s": tracer.self_time["cli.main"],
        "trace.covered_frac": sum(tracer.total[m] for m in _COVERED) / main_s,
        **_overhead(tracer, main_s, untraced_s),
    }


def _traced_cli(work: Path, name: str, argv: list[str], outputs: tuple[str, ...]):
    """cli.main on argv untraced, then traced; the two runs' outputs must match.

    Returns (tracer, untraced seconds, operations failed, traced output dir).
    """
    plain, traced = work / f"{name}-plain", work / f"{name}-traced"
    untraced_s, rc_plain = _timed(_cli, [*argv, "--out", str(plain)])
    tracer = Tracer()
    with tracer.installed(), tracer.span("cli.main"):
        rc = _cli([*argv, "--out", str(traced)])
    failed = sum(code != 0 or not report_ok(out) for code, out in ((rc_plain, plain), (rc, traced)))
    if not failed and not _same_bytes(plain, traced, outputs):
        failed = 1
    return tracer, untraced_s, failed, traced


def build_pass(work: Path, cfg_path: Path) -> tuple[dict, int, list[str]]:
    """One `estc build` at R=4 through cli.main."""
    tracer, untraced_s, failed, out = _traced_cli(
        work, "build", ["build", "--config", str(cfg_path)], BUILD_OUTPUTS
    )
    metrics = tracer.stage_metrics()
    report = out / "report.txt"
    found = re.search(r"(\d+) stored couplings", report.read_text()) if report.exists() else None
    metrics["engine.couplings"] = int(found.group(1)) if found else 0
    metrics.update(tracer.field_metrics())
    metrics.update(
        {
            "dirac_basis.inverse_s": tracer.total["dirac_basis.inverse"],
            "dirac_basis.inverse_calls": tracer.calls["dirac_basis.inverse"],
            "dirac_basis.convert_s": tracer.total["dirac_basis.convert"],
            "lattice.schedule_s": tracer.total["lattice.schedule"],
            "io.payload_s": tracer.total["io.payload"],
            "io.encode_s": tracer.self_time["io.write_operator"],
            "io.csv_s": tracer.total["io.csv"],
        }
    )
    metrics.update(_cli_metrics(tracer, untraced_s))
    return metrics, failed, tracer.missing


def apply_pass(work: Path, cfg, cfg_path: Path, operator: Path, spinor_seed: int) -> tuple[dict, int, list[str]]:
    """One `estc apply --seed` at R=4 through cli.main."""
    from estc import Window, random_multispinor
    from estc.io import read_solution

    argv = ["apply", "--config", str(cfg_path), "--operator", str(operator), "--seed", str(spinor_seed)]
    tracer, untraced_s, failed, out = _traced_cli(
        work, "apply", argv, ("solution.json", "residual.csv", "report.txt")
    )
    if not failed:
        window = Window(cfg.radius, cfg.n_ref)
        seed_c = random_multispinor(window.points(), spinor_seed)
        solution = read_solution(out / "solution.json", cfg)
        failed = int(not check_solution(cfg, cfg.params, seed_c, solution, window.interior_points())[0])

    metrics = {
        "io.parse_s": tracer.total["io.parse"],
        "io.decode_s": tracer.self_time["io.read_operator"],
        "io.solution_s": tracer.total["io.solution"],
        "io.csv_s": tracer.total["io.csv"],
        "engine.project_s": tracer.total["engine.project"],
        "engine.project_calls": tracer.calls["engine.project"],
        "engine.residual_s": tracer.total["engine.residual"],
        "engine.residual_rows": tracer.residual_rows,
        "multispinor.seed_s": tracer.total["multispinor.seed"],
        "field.tables_s": tracer.total["field.tables"],
        "lattice.schedule_s": tracer.total["lattice.schedule"],
        "dirac_basis.convert_s": tracer.total["dirac_basis.convert"],
    }
    metrics.update(_cli_metrics(tracer, untraced_s))
    return metrics, failed, tracer.missing


def _sweep(cfg, inputs: list) -> list:
    """Sweep points in order; None for a point that ended in StageSingular."""
    from estc import StageSingular

    results = []
    for point in inputs:
        try:
            results.append(sweep_point(cfg, *point))
        except StageSingular:
            results.append(None)
    return results


def sweep_pass(cfg, inputs: list) -> tuple[dict, int, list[str]]:
    """The R=3 library sweep points in-process, untraced and then traced."""
    from estc import Window

    rows = Window(cfg.radius, cfg.n_ref).interior_points()
    untraced_s, results = _timed(_sweep, cfg, inputs)
    tracer = Tracer()
    with tracer.installed():
        traced_s, traced = _timed(_sweep, cfg, inputs)
    failed = sum(
        result is None or not check_solution(cfg, *result[1:], rows)[0] for result in results + traced
    )

    metrics = tracer.stage_metrics()
    metrics.update(tracer.field_metrics())
    metrics.update(
        {
            "dirac_basis.inverse_s": tracer.total["dirac_basis.inverse"],
            "dirac_basis.inverse_calls": tracer.calls["dirac_basis.inverse"],
            "dirac_basis.convert_s": tracer.total["dirac_basis.convert"],
            "lattice.schedule_s": tracer.total["lattice.schedule"],
            "engine.project_s": tracer.total["engine.project"],
            "engine.project_calls": tracer.calls["engine.project"],
            "engine.residual_s": tracer.total["engine.residual"],
            "engine.residual_rows": tracer.residual_rows,
            "multispinor.seed_s": tracer.total["multispinor.seed"],
            **_overhead(tracer, traced_s, untraced_s),
        }
    )
    return metrics, failed, tracer.missing


def traced_run(root: Path, work: Path, seed: int) -> tuple[dict, int, int, list[str]]:
    """All three passes; returns (metrics, attempted, failed, missing hooks)."""
    from estc import parse_config

    work.mkdir(parents=True, exist_ok=True)
    cfg4_path = work / "r4.txt"
    cfg4_path.write_text(config_text(root, CLI_RADIUS, seed))
    cfg4 = parse_config(cfg4_path.read_text())
    cfg3 = parse_config(config_text(root, SWEEP_RADIUS, seed))
    sweep = list(islice(sweep_inputs(seed), SWEEP_POINTS))

    passes = {"build-r4": build_pass(work, cfg4_path)}
    operator = work / "build-traced" / "operator.json"
    passes["apply-r4"] = apply_pass(work, cfg4, cfg4_path, operator, next(apply_seeds(seed)))
    passes["sweep-r3"] = sweep_pass(cfg3, sweep)

    metrics, failed, missing = {}, 0, set()
    for name, (values, pass_failed, pass_missing) in passes.items():
        metrics.update({f"{name}.{key}": value for key, value in values.items()})
        failed += pass_failed
        missing.update(pass_missing)
    attempted = 2 + 2 + 2 * len(sweep)
    return metrics, attempted, failed, sorted(missing)
