"""Probability-representation toolkit for quantum states.

Maps wavefunctions to symplectic tomograms, inverts the map back to
density matrices, and evolves tomograms in time through four
cross-validating routes: exact frame pullbacks, quantum propagators,
sliced path integrals with a quasiclassical approximation, and the
characteristic flow of the tomographic transport equation.
"""

from .errors import (
    CausticError,
    InvalidFrameError,
    InvalidInputError,
    NumericalDomainError,
    SingularTimeError,
    TomopropError,
    UnsupportedPotentialError,
    UnsupportedStateError,
)
from .greens import (
    FREE,
    OSCILLATOR,
    GreenFunction,
    Potential,
    classical_flow,
)
from .grids import UniformGrid, integrate_samples, trapezoid_weights
from .propagator import (
    ComparisonReport,
    KernelFourierQuery,
    compare_tomograms,
    evolve_pullback,
    evolve_via_green,
    kernel_fourier,
)
from .states import (
    DensityMatrix,
    GaussianPacket,
    HarmonicEigenstate,
    Superposition,
    WaveFunction,
    density_from_wavefunction,
    evolve_wavefunction,
    hermite_functions,
    make_state,
    parse_state_spec,
)
from .tomography import (
    CONVENTION_VERSION,
    Tomogram,
    angle_grid,
    density_from_tomogram,
    optical_slice,
    tomogram_from_density,
    tomogram_from_wavefunction,
    tomogram_moments,
)
from .transport import (
    TransportPDE,
    characteristic_flow,
    reduce_evolution_equation,
    solve_characteristics,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
