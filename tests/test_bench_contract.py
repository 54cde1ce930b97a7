"""The library calls the benchmark makes, run through its own module.

perfbench/common.py is loaded by file path, so a change that breaks the
calls its sweep point makes fails here instead of in a benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

from estc import parse_config

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
    assert acc.stages_done == stages
    ok, ratio = COMMON.check_solution(cfg, params, seed_c, solution, acc.processed_sites())
    assert ok, ratio
