"""Bend a plate onto a cylinder and watch the 3D energy find its limit.

A recovery deformation is built from the target isometry, the corrector
cell fields, and a thickness parameter h. As h shrinks, the scaled 3D
energy of that deformation falls towards the limiting bending energy from
above; the gap is the price of the finite thickness plus a fixed share from
the cutoff collars, where the corrector is switched off near patch
boundaries.
"""

import time

import numpy as np

from platecell import (CellCorrectorSource, PhaseGrid, RVEGrid,
                       RecoveryConfig, build_recovery, cylinder_isometry,
                       evaluate_scaled_energy, flat_isometry, limit_energy,
                       material_table, recovery_gaps)


def main():
    grid = RVEGrid(4, 4, 6, 1.0, 1.0)
    src = CellCorrectorSource(
        grid, PhaseGrid(4, 4, 1.0, np.zeros((4, 4), dtype=int)),
        material_table([(0, 1.0, 1.0)]), tol=1e-10)
    cfg = RecoveryConfig(gamma=1.0, patch_size=0.25,
                         h_schedule=[0.4, 0.2, 0.1, 0.05])

    t0 = time.perf_counter()
    out = recovery_gaps(build_recovery(cylinder_isometry(1.0), cfg, src))
    print("cylinder of radius 1, single phase (limit energy %.6f):"
          % out["limit"])
    print("  h       scaled energy   relative gap")
    for h, e, g in zip(out["h_schedule"], out["scaled"], out["gaps"]):
        print("  %.2f    %.6f        %.4f" % (h, e, g))
    print("  (%.1fs)" % (time.perf_counter() - t0))

    # a flat target costs nothing at any thickness
    flat = build_recovery(flat_isometry(), cfg, src)
    print("\nflat target: scaled energy %.1f, limit %.1f"
          % (evaluate_scaled_energy(flat.sampler(0.2)),
             limit_energy(src.effective(), flat_isometry())))


if __name__ == "__main__":
    main()
