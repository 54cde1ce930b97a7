"""
Building the projection onto the solution subspace
==================================================

The solver truncates the lattice to a window, schedules every interior
site, and accumulates the projector onto the processed equation rows one
time slice of rank-4 stages at a time.  Subtracting that projector from any seed
amplitude set solves all processed rows at once; rows near the window
edge keep a residual that shrinks as the window grows.
"""

from pathlib import Path

import numpy as np

from estc import (
    ProjectorAccumulator,
    Window,
    parse_config,
    random_multispinor,
    residual_table,
    site_sub,
    g4d,
)

config_text = (Path(__file__).parent / "sample_config.txt").read_text()
cfg = parse_config(config_text)
print("window radius:", cfg.radius)

# Time slice by time slice, the row Gram matrix of the scheduled sites is
# factored by one Cholesky of the slice's Schur complement; each site is
# one stage, and the conditioning of its 4x4 pivot is recorded.
acc = ProjectorAccumulator(cfg.field, cfg.params, Window(cfg.radius, cfg.n_ref)).run()
print("stages processed:", acc.stages_done)
worst = int(np.argmin(acc.rconds))
print(f"worst stage rcond {acc.rconds[worst]:.3e} at site {acc.schedule[worst]}")

# The complement of the accumulated projector maps a random seed onto the
# solution subspace: every processed row evaluates to (numerical) zero.
c0 = random_multispinor(acc.window.points(), cfg.seed)
solution = acc.apply_fundamental(c0)
processed = residual_table(solution, acc.tables, acc.processed_sites())
print("worst processed-row residual:", max(value for _, value in processed))

# Rows the run did not process measure the truncation error.  Applying
# operators built on growing windows to one seed shows the solved region
# pushing outward ring by ring.
wide = Window(cfg.radius + 1, cfg.n_ref)
seed = random_multispinor(wide.points(), cfg.seed)
eval_sites = wide.interior_points()
for radius in (cfg.radius, cfg.radius + 1):
    run = ProjectorAccumulator(cfg.field, cfg.params, Window(radius, cfg.n_ref)).run()
    sol = run.apply_fundamental(seed)
    by_ring: dict[int, list[float]] = {}
    for site, value in residual_table(sol, run.tables, eval_sites):
        by_ring.setdefault(g4d(site_sub(site, cfg.n_ref)), []).append(value)
    print(f"operator built at R = {radius}: median row residual by ring:")
    for ring in sorted(by_ring):
        print(f"  g4d = {ring}: {np.median(by_ring[ring]):.3e}  ({len(by_ring[ring])} sites)")
