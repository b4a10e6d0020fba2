"""Deterministic laboratory for feature-collapse metrics of graph message
passing: collapse metrics, normalized propagation simulators, projective
contraction probes, and a reproducible experiment pipeline.
"""

from .errors import (
    AllEdgesSkipped,
    AllSamplesDegenerate,
    ConvergenceFailure,
    DegenerateInput,
    DegenerateSpectrum,
    DisconnectedGraph,
    EigenvectorMismatch,
    InsufficientRuns,
    InvalidParameter,
    IoError,
    LengthMismatch,
    NoEdges,
    NonpositiveColumn,
    NonpositiveEigenvector,
    NonUnitVector,
    OversmoothError,
    ParseError,
    RatioUnderflow,
    SeriesTooShort,
    ShapeMismatch,
    ZeroMatrix,
)
from .experiments import (
    GRID_ROW_NAMES,
    GRID_ROWS,
    DecayVerdict,
    RateReport,
    SynthConfig,
    SynthGrid,
    SynthRow,
    ToyScenario,
    decay_classify,
    metric_series,
    rate_check,
    rate_check_matrix,
    run_grid_cell,
    synth_table,
    toy_scenarios,
)
from .graph import (
    CsrOperator,
    Graph,
    barabasi_albert,
    constant_unit_vector,
    gcn_dominant_eigenvector,
    is_connected,
    read_grf,
    row_stochastic_adjacency,
    sym_norm_adjacency,
    write_grf,
)
from .hilbert import (
    activation_eigenvector_check,
    column_hilbert_radius,
    contraction_ratio,
    hilbert_distance,
)
from .linalg import (
    frobenius_norm,
    power_iteration,
    singular_values,
    spectral_gap,
)
from .metrics import (
    CANONICAL_METRICS,
    MetricReport,
    dirichlet_energy,
    effective_rank,
    mad,
    metric_suite,
    normalized_energies,
    numerical_rank,
    numrank_upper_bound_check,
    projection_energy,
    stable_rank,
)
from .pipeline import (
    CorrelationReport,
    RunManifest,
    correlate,
    format_float,
    load_matrix,
    load_vector,
    pearson,
    read_manifest,
    write_matrix,
    write_report,
)
from .propagate import (
    Activation,
    LayerTrace,
    PropagationConfig,
    WeightScheme,
    gat_attention,
    gcn_layer,
    identity,
    identity_weights,
    leaky_relu,
    rollout,
    tanh,
    uniform_nonneg,
    uniform_signed,
)
from .rng import Xoshiro256pp, splitmix64_stream, subseed

__version__ = "0.1.0"
