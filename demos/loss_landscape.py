#!/usr/bin/env python3
"""Binary margin-loss profiles across temperature pairs.

For each pair the script samples the loss on a margin grid, reports the
bound (t1 < 1 caps the loss at 1/(1-t1)), and classifies the curvature
regime, locating inflection points for the quasi-convex pairs.

Run: python demos/loss_landscape.py
"""

import numpy as np

from ttlr import TemperaturePair, curvature_report, margin_losses

PAIRS = [(1.0, 1.0), (0.6, 1.0), (1.3, 1.0), (0.6, 1.6), (1.3, 1.6), (0.7, 0.7)]
GRID = np.array([-8.0, -4.0, -2.0, 0.0, 2.0, 4.0])


def profile(t1, t2):
    temps = TemperaturePair(t1, t2)
    vals = margin_losses(GRID, temps)
    rep = curvature_report(temps, lo=-15.0, hi=8.0)
    return vals, rep


def main():
    print("margin grid:", GRID.tolist())
    for t1, t2 in PAIRS:
        vals, rep = profile(t1, t2)
        cap = f"cap {1.0 / (1.0 - t1):.4f}" if t1 < 1 else "unbounded"
        line = "  ".join(f"{v:8.4f}" for v in vals)
        print(f"\n(t1={t1}, t2={t2})  {cap}  regime={rep.regime}")
        print(f"  loss: {line}")
        if rep.inflection_points:
            pts = ", ".join(f"{a:.6f}" for a in rep.inflection_points)
            print(f"  inflection at margin(s): {pts}")


if __name__ == "__main__":
    main()
