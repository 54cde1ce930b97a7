"""The library calls the benchmark makes, run through its own module.

perfbench/common.py is loaded by file path, so a change that breaks the
calls its sweep point makes fails here instead of in a benchmark run.
"""

import importlib.util
from pathlib import Path

from estc import parse_config

ROOT = Path(__file__).resolve().parent.parent


def load_common():
    spec = importlib.util.spec_from_file_location("perfbench_common", ROOT / "perfbench" / "common.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_point_passes_the_independent_check():
    common = load_common()
    cfg = parse_config(common.config_text(ROOT, 2, 7))
    q, spinor_seed = next(common.sweep_inputs(7))
    acc, params, seed_c, solution = common.sweep_point(cfg, q, spinor_seed)
    assert acc.stages_done == 13
    ok, ratio = common.check_solution(cfg, params, seed_c, solution, acc.processed_sites())
    assert ok, ratio
