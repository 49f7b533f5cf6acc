"""Simulation and parameter estimation for coherent extinction spectroscopy
of a single two-level emitter."""

from .physics import (
    DriveParams,
    MoleculeParams,
    absorption_cross_section,
    coherent_coupling_penalty,
    coherent_emission_rate,
    incoherent_emission_rate,
    lifetime_from_linewidth,
    linewidth_from_lifetime,
    plane_wave_dip,
    saturation_parameter,
    total_emission_rate,
)
from .spectra import (
    ExtinctionModel,
    FpcParams,
    SpectrumTrace,
    convolve_instrument,
    extinction_spectrum,
    fpc_transmission,
    lorentzian_profile,
    mollow_spectrum,
)
from .polarization import (
    SeparationGeometry,
    separate_components,
    transform_extinction_triple,
)
from .correlation import G2Trace, cross_check_saturation, fit_rabi_from_g2, g2, g2_trace
from .measurement import (
    DetectorParams,
    interference_dip_rate,
    photon_rate_to_power,
    shot_noise_contrast,
    simulate_counts,
    snr_of_detection,
)
from .estimation import (
    FitProblem,
    FitResult,
    Parameter,
    fit_extinction,
    fit_linewidth_vs_power,
    fit_saturation_curves,
    minimize,
)

__version__ = "0.1.0"
