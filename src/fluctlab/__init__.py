"""Seeded autoencoder training runs on synthetic 2D shapes, with full
per-epoch capture and per-neuron fluctuation analysis."""

from .analysis import (
    ANALYSIS_CHANNELS,
    FluctuationReport,
    analyze_run,
    detect_inactive,
    histogram,
    neuron_delta_series,
    spread,
    spread_of_spread,
)
from .figures import (
    ReconstructionResult,
    fluctuation_table,
    hist_svg,
    reconstruct,
    scatter_svg,
)
from .net import (
    ArchitectureSpec,
    ForwardTrace,
    NetworkState,
    backward,
    forward,
    init,
    mse,
)
from .rng import SplitMix64
from .runfile import (
    RunAccessor,
    RunManifest,
    RunWriter,
    standardize_channel,
    write_run,
)
from .shapes import ShapeKind, export_csv, generate, normalize_to_unit_box
from .train import (
    EpochSnapshot,
    OptimizerState,
    RunConfig,
    adam_step,
    train,
)

__version__ = "0.1.0"
