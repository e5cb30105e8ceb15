"""Thermal-operations compiler and Gibbs-catalysis simulator."""

from .channels import (
    CatalysisVerdict,
    ChannelSpec,
    apply_TO,
    beta_swap,
    classify_catalysis,
    run_gc_eto,
    thermalize,
)
from .compiler import (
    GeneratorCombination,
    compile_approximate,
    compile_bch,
    compile_exact,
    compile_nested,
    compile_trotter,
    reconstruct,
)
from .cooling import (
    build_cooling_catalyst,
    build_cooling_instance,
    build_cooling_sequence,
    run_cooling,
    run_cooling_dense,
)
from .gates import GateSequence, GateStep
from .generators import ElementaryGenerator, enumerate_basis, lie_closure, rank2_basis
from .linalg import expm_skew, kron, partial_trace, trace_distance
from .majorization import (
    ThermoCurve,
    eto_reach_search,
    max_ground_population_TO,
    thermo_curve,
    thermo_majorizes,
)
from .thermal import (
    DiagonalState,
    EnergyBlocks,
    Spectrum,
    energy_blocks,
    gibbs_state,
    is_energy_preserving,
    random_energy_preserving_unitary,
)

__version__ = "0.1.0"
