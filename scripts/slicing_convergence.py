#!/usr/bin/env python3
"""Convergence study of the sliced path-integral propagator.

Prints the error of the N-slice oscillator kernel against the flow kernel
at a sample point, together with the fitted convergence order, before and
after the caustic at t = pi, and checks that the free-particle kernel is
reproduced to rounding at every slice count.

Usage:
    python3 scripts/slicing_convergence.py
"""

import sys

import numpy as np

from tomoprop.greens import FREE, OSCILLATOR, GreenFunction


def main() -> int:
    x, y = 1.0, 0.0
    counts = [8, 16, 32, 64, 128, 256, 512]
    for t in (1.0, 4.0):
        exact = GreenFunction.oscillator()(x, y, t)
        errs = []
        print(f"oscillator kernel at (x, y, t) = ({x}, {y}, {t})")
        for n in counts:
            if t / n >= 0.5:  # the slice width's stability bound
                continue
            err = abs(GreenFunction.sliced(OSCILLATOR, n)(x, y, t) - exact)
            errs.append((n, err))
            print(f"  N = {n:4d}  error = {err:.6e}")
        slope = -np.polyfit(*np.log(errs).T, 1)[0]
        print(f"fitted order: {slope:.3f} (expected 1.0 from the endpoint potential rule)")

    free = GreenFunction.free()
    worst = 0.0
    for n in (1, 3, 5, 50, 500):
        tt = 0.45 if n == 1 else 1.0
        worst = max(worst, abs(GreenFunction.sliced(FREE, n)(0.7, -0.3, tt) - free(0.7, -0.3, tt)))
    print(f"free-particle slicing max error over N in {{1, 3, 5, 50, 500}}: {worst:.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
