#!/usr/bin/env python3
"""Cross-validate the evolution routes on a Gaussian packet.

Evolves the same initial tomogram by frame pullback, by the quantum
propagator, and by transport characteristics, and prints the pairwise
L-inf / L2 discrepancies.  Writes the evolved tomograms next to the
chosen output prefix for plotting.

Usage:
    python3 scripts/route_comparison.py --potential harmonic --t 0.7 -o /tmp/routes
"""

import argparse
import sys
from pathlib import Path

from tomoprop import io as tio
from tomoprop.cli import parse_potential
from tomoprop.greens import GreenFunction
from tomoprop.propagator import compare_tomograms, evolve_pullback, evolve_via_green
from tomoprop.states import make_state
from tomoprop.tomography import tomogram_from_wavefunction
from tomoprop.transport import reduce_evolution_equation, solve_characteristics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--state", default="gaussian:1,0.5,1")
    parser.add_argument("--potential", default="harmonic")
    parser.add_argument("--t", type=float, default=0.7)
    parser.add_argument("--theta-count", type=int, default=180)
    parser.add_argument("-o", "--output", default="routes")
    args = parser.parse_args()

    potential = parse_potential(args.potential)
    psi = make_state(args.state)
    tomo = tomogram_from_wavefunction(psi, theta_count=args.theta_count)

    results = {
        "pullback": evolve_pullback(tomo, potential, args.t),
        "green": evolve_via_green(tomo, GreenFunction.for_potential(potential), args.t),
        "pde": solve_characteristics(reduce_evolution_equation(potential), tomo, args.t),
    }

    prefix = Path(args.output)
    for name, evolved in results.items():
        tio.write_tomogram(
            prefix.with_name(f"{prefix.name}_{name}.csv"),
            evolved,
            {"route": name, "state": args.state, "potential": args.potential, "t": args.t},
        )

    names = sorted(results)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            rep = compare_tomograms(results[a], results[b])
            print(f"{a} vs {b}: linf={rep.linf:.3e}  l2={rep.l2:.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
