"""Polarization-encoded BB84 over dispersive fiber: simulation and analysis.

The package splits along the physical chain: :mod:`fiberqkd.polarization`
for sphere arithmetic and the four-state encoder, :mod:`fiberqkd.channel`
for loss and polarization mode dispersion, :mod:`fiberqkd.emitter` for
source statistics and correlation histograms, :mod:`fiberqkd.protocol` for
the slot-level session engine, :mod:`fiberqkd.keyrate` for finite-key
analysis, and :mod:`fiberqkd.config` plus :mod:`fiberqkd.cli` for scenarios
and the command line.
"""

from .channel import (
    ArcFit,
    FiberChannel,
    FiberSegment,
    PmdVector,
    TrajectoryPoint,
    align_first_order_axis,
    delta_omega,
    estimate_dgd,
    first_order_pmd,
    fit_arc,
    qber_from_pmd,
    sweep_trajectory,
    synthesize_channel,
)
from .config import BUNDLED_SCENARIOS, Scenario, load_scenario, planning_inputs
from .emitter import (
    EmitterSpectrum,
    G2Model,
    PhotonStatistics,
    fit_g2_cw,
    g2_of_delay,
    pulsed_g2,
    sample_photon_number,
)
from .errors import FitConvergenceError, PatternExhaustedError, ValidationError
from .keyrate import (
    KeyResult,
    KeyTally,
    OptimizationResult,
    SecurityParams,
    binary_entropy,
    fluctuation_delta,
    gllp_asymptotic_rate,
    leakage_ec,
    load_key_analysis,
    multiphoton_correction,
    optimize_basis_probability,
    planning_rate_function,
    rate_vs_loss_curve,
    secure_key_length,
)
from .polarization import Bb84State, phase_to_state, rotate, stokes_of
from .protocol import (
    AliceSettings,
    DeviceParams,
    PatternSource,
    RateModel,
    SessionConfig,
    SessionResult,
    SiftResult,
    SlotRecord,
    closed_form_rates,
    expected_rates,
    run_session,
    sift,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
