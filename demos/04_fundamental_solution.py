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
    window_table,
)

config_text = (Path(__file__).parent / "sample_config.txt").read_text()
cfg = parse_config(config_text)
print("window radius:", cfg.radius)

# Time slice by time slice, the row Gram matrix of the scheduled sites is
# factored by one Cholesky of the slice's Schur complement; each site is
# one stage, and the conditioning of its 4x4 pivot is recorded.
acc = ProjectorAccumulator(cfg.field, cfg.params, Window(cfg.radius, cfg.n_ref)).run()
print("stages processed:", len(acc.schedule))
worst = int(np.argmin(acc.rconds))
print(f"worst stage rcond {acc.rconds[worst]:.3e} at site {acc.schedule[worst]}")

# The complement of the accumulated projector maps a random seed onto the
# solution subspace: every processed row evaluates to (numerical) zero.
# acc.rows(x) is V x, the rows of the schedule, for x the amplitudes on the
# window sites.
coords = window_table(acc.window).coords
solution = acc.apply_fundamental(random_multispinor(coords, cfg.seed))
processed = np.linalg.norm(acc.rows(solution.at(coords)), axis=1)
print("worst processed-row residual:", float(processed.max()))

# Rows the run did not process measure the truncation error.  Applying
# operators built on growing windows to one seed shows the solved region
# pushing outward ring by ring: both are read through the rows of the
# wider window, whose schedule is every site with g4d <= R; the window
# table holds the ring g4d(n - n_ref) of each of its sites.
wide = ProjectorAccumulator(cfg.field, cfg.params, Window(cfg.radius + 1, cfg.n_ref)).run()
table = window_table(wide.window)
seed = random_multispinor(table.coords, cfg.seed)
rings = table.rings[table.schedule]
for run in (acc, wide):
    residuals = np.linalg.norm(wide.rows(run.apply_fundamental(seed).at(table.coords)), axis=1)
    print(f"operator built at R = {run.window.radius}: median row residual by ring:")
    for ring in np.unique(rings).tolist():
        values = residuals[rings == ring]
        print(f"  g4d = {ring}: {np.median(values):.3e}  ({len(values)} sites)")
