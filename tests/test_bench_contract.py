"""The library calls and CLI runs the benchmark makes, checked by its own module.

perfbench/common.py is loaded by file path, so a change that breaks the
calls its sweep point makes, or an apply that fails its independent
check, fails here instead of in a benchmark run.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

from estc import Window, cli, parse_config, random_multispinor
from estc.io import read_solution

ROOT = Path(__file__).resolve().parent.parent


def load_common():
    spec = importlib.util.spec_from_file_location("perfbench_common", ROOT / "perfbench" / "common.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


COMMON = load_common()


# the smallest window, and the radius that the benchmark's sweep points run at
@pytest.mark.parametrize("radius, stages", [(2, 13), (COMMON.SWEEP_RADIUS, 69)])
def test_sweep_point_passes_the_independent_check(radius, stages):
    cfg = parse_config(COMMON.config_text(ROOT, radius, 7))
    q, spinor_seed = next(COMMON.sweep_inputs(7))
    acc, params, seed_c, solution = COMMON.sweep_point(cfg, q, spinor_seed)
    assert len(acc.schedule) == stages
    ok, ratio = COMMON.check_solution(cfg, params, seed_c, solution, acc.processed_sites())
    assert ok, ratio


# the smallest window, and the radius that the benchmark's CLI applies run at
@pytest.mark.parametrize("radius", [2, COMMON.CLI_RADIUS])
def test_cli_apply_passes_the_independent_check(radius, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(COMMON.config_text(ROOT, radius, 7))
    cfg = parse_config(config.read_text())
    operator = tmp_path / "operator"
    seed = next(COMMON.apply_seeds(7))
    out = tmp_path / "apply"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["build", "--config", str(config), "--out", str(operator)]) == 0
        assert cli.main(["apply", "--config", str(config), "--operator",
                         str(operator / "operator.json"), "--out", str(out),
                         "--seed", str(seed)]) == 0
    assert COMMON.report_ok(out)
    window = Window(cfg.radius, cfg.n_ref)
    solution = read_solution(out / "solution.json", cfg)
    seed_c = random_multispinor(window.points(), seed)
    ok, ratio = COMMON.check_solution(cfg, cfg.params, seed_c, solution, window.interior_points())
    assert ok, ratio
