"""Covariance-driven shift-invariant graph channel estimation and blind deconvolution.

The library recovers an unknown channel that is diagonal in a graph's spectral
basis from noisy filtered observations of a nonstationary source whose
spectral covariance the observer knows, then inverts the channel on the
recoverable support. Recovery is exact up to one sign per connected component
of the observation graph.
"""

from .channel import (
    apply_channel,
    operator_norm,
    pseudo_inverse,
    random_channel,
    stationarity_residual,
)
from .covariance import (
    BoundCheck,
    build_observation_graph,
    build_source_graph,
    concentration_bound,
    empirical_covariance,
    validate_bound_monte_carlo,
)
from .deconv import (
    DeconvolutionResult,
    DiagnosticMatrices,
    GapSummary,
    align_component_signs,
    blind_deconvolve,
    covariance_diagnostics,
    reconstructed_covariance,
    summarize_gap,
)
from .errors import (
    DegenerateSpectrum,
    FileFormatError,
    GraphDeconvError,
    IsolatedVertex,
    NearZeroResponse,
    NonpositiveVariance,
)
from .estimation import (
    ChannelEstimate,
    Component,
    assign_signs,
    estimate_channel,
    estimate_magnitudes,
    sign_consistency_report,
)
from .io import RawDataset, center_dataset, load_raw_dataset
from .simulate import (
    SimulationConfig,
    SimulationResult,
    run_simulation,
    synthetic_source,
    transmit,
    variance_profile,
    write_bundle,
)
from .spectral import (
    Graph,
    SignalEnsemble,
    SpectralBasis,
    build_radius_graph,
    eigendecompose,
    gft,
    igft,
    laplacian,
)

__version__ = "0.1.0"
