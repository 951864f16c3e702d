"""Correlation-tensor entanglement identifiers for pairs of two-mode boson
ensembles: generator bases, state families, witness quantities, brute-force
verifiers, and parameter sweeps."""

from .basis import (
    build_gellmann,
    gellmann_basis,
    gm_index,
    schwinger_ops,
    spin_gellmann_decomposition,
    verify_gellmann_from_spin,
)
from .oracle import (
    OracleReport,
    ProductSearchResult,
    pdc_epsilon_average,
    product_overlap_search,
    product_overlap_searches,
    pure_entanglement_oracle,
    reconstruct_density,
    roundtrip_error,
)
from .states import (
    AcStarkOutcome,
    PdcEnsemble,
    PureBipartiteState,
    acstark_coefficients,
    acstark_state,
    bloch_length_closed,
    catalan,
    default_photon_outcomes,
    from_coefficients,
    maximally_entangled,
    pdc_weight,
    spin_coherent,
    szsz_coefficients,
    szsz_state,
)
from .sweep import (
    GridSpec,
    SweepConfig,
    SweepResult,
    run_family,
)
from .witness import (
    CorrelationTensor,
    CriterionReport,
    bloch_vector,
    correlation_tensor,
    epsilon,
    evaluate,
    evaluate_many,
    spin_criterion,
    spin_tensor,
    t_max,
    tensor_norm,
    von_neumann_entropy,
)

__version__ = "0.1.0"
