"""Steady-state two-level-system quantities and parameter containers.

Frequency convention: every public linewidth, Rabi frequency and detuning
is a cyclic frequency in MHz on the FWHM scale.  Dynamical rate equations
use angular rates 2*pi*f internally; :func:`cyclic_to_angular` and
:func:`angular_to_cyclic` are the single conversion point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

TWO_PI = 2.0 * math.pi

# hc in W*s*nm, for photon-rate <-> power conversion
H_PLANCK = 6.62607015e-34   # J*s (exact, SI)
C_LIGHT = 2.99792458e8      # m/s (exact)
HC_J_NM = H_PLANCK * C_LIGHT * 1e9  # J*nm


def cyclic_to_angular(f_mhz: float) -> float:
    """MHz (cyclic) -> rad/us (angular)."""
    return TWO_PI * f_mhz


def angular_to_cyclic(w: float) -> float:
    """rad/us (angular) -> MHz (cyclic)."""
    return w / TWO_PI


def normalize_phase(psi: float) -> float:
    """Wrap a phase into (-pi, pi]."""
    psi = math.fmod(psi, TWO_PI)
    if psi > math.pi:
        psi -= TWO_PI
    elif psi <= -math.pi:
        psi += TWO_PI
    return psi


@dataclass(frozen=True)
class MoleculeParams:
    """Emitter constants of the zero-phonon transition.

    gamma0:   natural FWHM linewidth (MHz)
    gamma:    homogeneous FWHM linewidth (MHz), >= gamma0
    lambda21: transition wavelength (nm)
    alpha_dw: Debye-Waller factor in (0, 1]
    alpha_fc: Franck-Condon factor in (0, 1]
    """

    gamma0: float
    gamma: float
    lambda21: float
    alpha_dw: float = 1.0
    alpha_fc: float = 1.0

    def __post_init__(self):
        if not (self.gamma0 > 0 and math.isfinite(self.gamma0)):
            raise ValueError(f"gamma0 must be positive and finite, got {self.gamma0}")
        if self.gamma < self.gamma0:
            raise ValueError(f"gamma ({self.gamma}) must be >= gamma0 ({self.gamma0})")
        if not (self.lambda21 > 0):
            raise ValueError(f"lambda21 must be positive, got {self.lambda21}")
        for name in ("alpha_dw", "alpha_fc"):
            v = getattr(self, name)
            if not (0.0 < v <= 1.0):
                raise ValueError(f"{name} must be in (0, 1], got {v}")

    @property
    def lifetime_ns(self) -> float:
        """Excited-state lifetime implied by the natural linewidth."""
        return lifetime_from_linewidth(self.gamma0)


@dataclass(frozen=True)
class DriveParams:
    """Excitation state of the laser drive.

    rabi:          Rabi frequency (MHz, same FWHM-convention scale as gamma0)
    detuning:      laser detuning from resonance (MHz)
    psi:           interference phase (rad), stored wrapped into (-pi, pi]
    incident_rate: detected incident photon rate (counts/s)
    """

    rabi: float
    detuning: float = 0.0
    psi: float = 0.5 * math.pi
    incident_rate: float = 0.0

    def __post_init__(self):
        if self.rabi < 0:
            raise ValueError(f"rabi must be >= 0, got {self.rabi}")
        if self.incident_rate < 0:
            raise ValueError(f"incident_rate must be >= 0, got {self.incident_rate}")
        object.__setattr__(self, "psi", normalize_phase(self.psi))


def saturation_parameter(mol: MoleculeParams, drive: DriveParams) -> float:
    """S = (gamma*Omega^2 / 2*gamma0) / (Delta^2 + gamma^2/4)."""
    num = mol.gamma * drive.rabi**2 / (2.0 * mol.gamma0)
    den = drive.detuning**2 + mol.gamma**2 / 4.0
    return num / den


def rabi_for_saturation(mol: MoleculeParams, s: float, detuning: float = 0.0) -> float:
    """Rabi frequency (MHz) that produces saturation parameter s at the
    given detuning; inverse of saturation_parameter in Omega."""
    if s < 0:
        raise ValueError(f"saturation parameter must be >= 0, got {s}")
    den = detuning**2 + mol.gamma**2 / 4.0
    return math.sqrt(s * den * 2.0 * mol.gamma0 / mol.gamma)


def total_emission_rate(s: float) -> float:
    """Total emitted-intensity factor S/(1+S), in [0, 1)."""
    if s < 0:
        raise ValueError(f"saturation parameter must be >= 0, got {s}")
    return s / (1.0 + s)


def coherent_emission_rate(s: float) -> float:
    """Coherent (elastic) emitted-intensity factor S/(1+S)^2; peaks at 1/4 for S=1."""
    if s < 0:
        raise ValueError(f"saturation parameter must be >= 0, got {s}")
    return s / (1.0 + s) ** 2


def incoherent_emission_rate(s: float) -> float:
    """Incoherent (inelastic) factor S^2/(1+S)^2 = total - coherent."""
    if s < 0:
        raise ValueError(f"saturation parameter must be >= 0, got {s}")
    return (s / (1.0 + s)) ** 2


def linewidth_from_lifetime(tau_ns: float) -> float:
    """Natural FWHM linewidth (MHz) from an excited-state lifetime (ns)."""
    if tau_ns <= 0:
        raise ValueError(f"lifetime must be positive, got {tau_ns}")
    return 1e3 / (TWO_PI * tau_ns)


def lifetime_from_linewidth(gamma0_mhz: float) -> float:
    """Inverse of linewidth_from_lifetime: MHz -> ns."""
    if gamma0_mhz <= 0:
        raise ValueError(f"gamma0 must be positive, got {gamma0_mhz}")
    return 1e3 / (TWO_PI * gamma0_mhz)


def absorption_cross_section(lambda21_nm: float) -> float:
    """On-resonance absorption cross section 3*lambda^2/(2*pi), in m^2."""
    if lambda21_nm <= 0:
        raise ValueError(f"lambda21 must be positive, got {lambda21_nm}")
    lam_m = lambda21_nm * 1e-9
    return 3.0 * lam_m**2 / TWO_PI


class DipResult(NamedTuple):
    transmission: float
    beyond_weak_coupling: bool


def plane_wave_dip(sigma_m2: float, beam_area_m2: float) -> DipResult:
    """Relative transmission 1 - sigma/F for plane-wave illumination.

    Not clamped: a negative transmission is returned as-is with the
    beyond_weak_coupling flag set, since the weak-field model breaks
    down once the beam area approaches the cross section.
    """
    if beam_area_m2 <= 0:
        raise ValueError(f"beam area must be positive, got {beam_area_m2}")
    if sigma_m2 < 0:
        raise ValueError(f"cross section must be >= 0, got {sigma_m2}")
    t = 1.0 - sigma_m2 / beam_area_m2
    return DipResult(t, t < 0.0)


def coherent_coupling_penalty(mol: MoleculeParams) -> float:
    """Coherent-interaction weakening factor 1/(alpha_DW * alpha_FC)."""
    return 1.0 / (mol.alpha_dw * mol.alpha_fc)
