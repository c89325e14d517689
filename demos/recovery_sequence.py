"""Bend a plate onto a cylinder and watch the 3D energy find its limit.

A recovery deformation is built from the target isometry, the cell
corrector of the bending load the isometry imposes, and a thickness h. As h
shrinks, the scaled 3D energy of that deformation falls towards the
homogenized bending energy from above.  The gap is the price of the finite
thickness alone: it is O(h^2), so each halving of h cuts it by about 4, and
it closes on the cell solve's own discrete limit.  Each energy is evaluated
on one cell, however many periods the plate holds.
"""

import time

import numpy as np

from platecell import (CellCorrectorSource, PhaseGrid, RVEGrid,
                       RecoveryConfig, build_recovery, cylinder_isometry,
                       evaluate_scaled_energy, flat_isometry, limit_energy,
                       material_table, recovery_gaps)


def main():
    grid = RVEGrid(4, 4, 6, 1.0, 1.0)
    ids = (np.add.outer(np.arange(4), np.arange(4)) % 2).astype(int)
    src = CellCorrectorSource(
        grid, PhaseGrid(4, 4, 1.0, ids),
        material_table([(0, 1.0, 1.0), (1, 5.0, 5.0)]), tol=1e-10)
    cfg = RecoveryConfig(h_schedule=[0.2, 0.1, 0.05, 0.025])  # gamma: the grid's

    t0 = time.perf_counter()
    out = recovery_gaps(build_recovery(cylinder_isometry(1.0), cfg, src))
    print("cylinder of radius 1, checkerboard of contrast 5 "
          "(limit energy %.6f):" % out["limit"])
    print("  h        scaled energy   relative gap   gap ratio")
    previous = None
    for h, e, g in zip(out["h_schedule"], out["scaled"], out["gaps"]):
        ratio = "" if previous is None else "%.3f" % (previous / g)
        print(("  %.3f    %.6f        %.3e      %s" % (h, e, g, ratio))
              .rstrip())
        previous = g
    print("  (%.2fs)" % (time.perf_counter() - t0))

    # a flat target costs nothing at any thickness
    flat = build_recovery(flat_isometry(), cfg, src)
    print("\nflat target: scaled energy %.1f, limit %.1f"
          % (evaluate_scaled_energy(flat.sampler(0.2)),
             limit_energy(src.effective(), flat_isometry())))


if __name__ == "__main__":
    main()
