"""Block-partitioned QCA simulation, causal posets, slice topology, and
information-distance geometry."""

from .statealg import (
    DensityMatrix,
    InvariantError,
    StateVector,
    apply_unitary,
    basis_state,
    fidelity,
    hermitian_eigenvalues,
    partial_trace,
    ppt_separable_2q,
    product_state,
    pure_density,
    tensor,
    von_neumann_entropy,
)
from .infogeo import (
    DistanceField,
    SweepCurve,
    block_structure_report,
    distance_field,
    info_distance,
    mutual_information,
    pure_family_sweep,
    site_entropies,
    werner_null_crossing,
    werner_state,
    werner_sweep,
)
from .qca import (
    PI3_RULE,
    PULSE_RULE,
    QcaConfig,
    RunTrace,
    UpdateRule,
    ghz_experiment,
    global_update,
    initial_state,
    occupation_probabilities,
    pi3_experiment,
    propagate_experiment,
    run,
    species_update,
    x_pulse_rule,
)
from .causal import (
    AntiChain,
    CausalPoset,
    Gate,
    ThickenedAntiChain,
    Wire,
    build_poset,
    foliate,
    slice_antichain,
    thicken,
)
from .topo import (
    SimplicialComplex,
    betti,
    boundary_rank,
    shadow_complex,
    stable_complex,
    unitary_shadow_complex,
)

__version__ = "0.1.0"
