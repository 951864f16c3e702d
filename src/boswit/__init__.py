"""Correlation-tensor entanglement identifiers for pairs of two-mode boson
ensembles: generator bases, state families, witness quantities, brute-force
verifiers, and parameter sweeps."""

from .basis import (
    gellmann_basis,
    gm_index,
    schwinger_ops,
    spin_gellmann_decomposition,
)
from .oracle import (
    OracleReport,
    ProductSearchResult,
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
    pdc_epsilon_average,
    pdc_weight,
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
    correlation_tensor,
    evaluate,
    evaluate_many,
    spin_tensors,
    tensor_identifiers,
)

__version__ = "0.1.0"
