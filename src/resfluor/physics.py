"""Steady-state two-level-system quantities and the parameter containers
of the emitter, the drive and the detection geometry.

Frequency convention: every public linewidth, Rabi frequency and detuning
is a cyclic frequency in MHz on the FWHM scale.  Dynamical rate equations
use angular rates 2*pi*f internally; :func:`cyclic_to_angular` is the
single conversion point.

Angle convention of the Jones builders: all angles are measured from the
lab y-axis (the laser polarization axis), counterclockwise positive viewed
along propagation.  Jones vectors live in the fixed (x, y) lab basis, where
the laser is the constant (0, 1).

Physical domain: each value a run sets lies in one closed range, checked
once where it enters (the parameter containers, config's schema).  The
ranges span every emitter, drive, cavity and detector by decades; inside
them S <= 2e42, every rate and (1 + S)^2 is finite and Poisson means stay <= 5e18.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi

# closed ranges of the physical domain
LINEWIDTH_MHZ = (1e-9, 1e9)   # gamma0, gamma, and the FPC's FSR and FWHM
RABI_MHZ = (0.0, 1e12)        # fig5's S = 150 at gamma0 = gamma = 1e9 MHz needs 8.7e9
COUNT_RATE = (0.0, 1e15)      # incident_rate, dark_rate (counts/s) and emission scales
QUANTUM_EFFICIENCY = (1e-6, 1.0)
INTEGRATION_S = (1e-9, 1e3)   # counts per pixel stay below numpy's Poisson ceiling, 9.2e18
ANGLE_RAD = (-1e6, 1e6)       # a float resolves these to 1e-10 rad


def require_in(name: str, value: float, bounds: tuple) -> None:
    """ValueError naming name unless value lies in the closed range bounds
    = (lo, hi); nan and +-inf lie in none."""
    lo, hi = bounds
    if not lo <= value <= hi:
        raise ValueError(f"{name} = {value:g} is outside the domain [{lo:g}, {hi:g}]")


def cyclic_to_angular(f_mhz: float) -> float:
    """MHz (cyclic) -> rad/us (angular)."""
    return TWO_PI * f_mhz


class BlochRates(NamedTuple):
    """Angular rates (rad/us) of the resonant optical Bloch equations."""

    g1: float       # population decay Gamma_1 = 2 pi gamma0
    g2: float       # coherence decay Gamma_2 = pi gamma
    gphi: float     # pure dephasing Gamma_2 - Gamma_1/2 = pi (gamma - gamma0)
    a: float        # mean decay (Gamma_1 + Gamma_2)/2, the g2 damping rate
    off_sq: float   # ((Gamma_2 - Gamma_1)/2)^2


def bloch_rates(gamma0: float, gamma: float) -> BlochRates:
    """The BlochRates of natural linewidth gamma0 and homogeneous linewidth
    gamma (cyclic MHz, FWHM); the pure dephasing comes from gamma - gamma0
    itself, so it is exactly 0 for a lifetime-limited emitter."""
    g1 = cyclic_to_angular(gamma0)
    g2 = math.pi * gamma
    return BlochRates(g1, g2, math.pi * (gamma - gamma0), 0.5 * (g1 + g2),
                      (0.5 * (g2 - g1)) ** 2)


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

    gamma0:   natural FWHM linewidth (MHz), in LINEWIDTH_MHZ
    gamma:    homogeneous FWHM linewidth (MHz), in LINEWIDTH_MHZ, >= gamma0

    lambda21 (transition wavelength, nm), alpha_dw (Debye-Waller factor)
    and alpha_fc (Franck-Condon factor) are validated but read by no model
    or command; the configuration no longer sets them.
    """

    gamma0: float
    gamma: float
    lambda21: float = 590.0
    alpha_dw: float = 1.0
    alpha_fc: float = 1.0

    def __post_init__(self):
        require_in("gamma0", self.gamma0, LINEWIDTH_MHZ)
        require_in("gamma", self.gamma, LINEWIDTH_MHZ)
        if self.gamma < self.gamma0:
            raise ValueError(f"gamma ({self.gamma}) must be >= gamma0 ({self.gamma0})")
        if not (self.lambda21 > 0):
            raise ValueError(f"lambda21 must be positive, got {self.lambda21}")
        for name in ("alpha_dw", "alpha_fc"):
            v = getattr(self, name)
            if not (0.0 < v <= 1.0):
                raise ValueError(f"{name} must be in (0, 1], got {v}")


@dataclass(frozen=True)
class DriveParams:
    """Excitation state of the laser drive, which is always on resonance.

    rabi:          Rabi frequency (MHz, FWHM scale as gamma0), in RABI_MHZ
    psi:           interference phase (rad), in ANGLE_RAD, stored in (-pi, pi]
    incident_rate: detected incident photon rate (counts/s), in COUNT_RATE
    """

    rabi: float
    psi: float = 0.5 * math.pi
    incident_rate: float = 0.0

    def __post_init__(self):
        require_in("rabi", self.rabi, RABI_MHZ)
        require_in("psi", self.psi, ANGLE_RAD)
        require_in("incident_rate", self.incident_rate, COUNT_RATE)
        object.__setattr__(self, "psi", normalize_phase(self.psi))


def axis_vector(angle_from_y: float) -> np.ndarray:
    """Real unit Jones vector at the given angle from the y-axis."""
    return np.array([math.sin(angle_from_y), math.cos(angle_from_y)], dtype=complex)


def polarizer_matrix(angle_from_y: float, extinction_ratio: float = 0.0) -> np.ndarray:
    """Projector onto the pass axis, with amplitude leakage
    sqrt(extinction_ratio) along the rejected axis (coherent leakage)."""
    a = axis_vector(angle_from_y)
    b = np.array([a[1], -a[0]], dtype=complex)  # perpendicular axis
    m = np.outer(a, a.conj())
    if extinction_ratio > 0.0:
        m = m + math.sqrt(extinction_ratio) * np.outer(b, b.conj())
    return m


def qwp_matrix(angle_from_y: float) -> np.ndarray:
    """Quarter waveplate, fast axis at the given angle; retardance exactly
    pi/2 (unitary)."""
    a = axis_vector(angle_from_y)
    b = np.array([a[1], -a[0]], dtype=complex)
    return np.outer(a, a.conj()) + 1j * np.outer(b, b.conj())


@dataclass(frozen=True)
class SeparationGeometry:
    """Fixed optical geometry of the component-separation measurement; the
    laser is polarized along the lab y-axis."""

    dipole_angle: float = math.pi / 4.0          # dipole at 45 deg from laser
    polarizer_angle: float = 80.0 * math.pi / 180.0
    polarizer_extinction_ratio: float = 0.0

    def __post_init__(self):
        require_in("dipole_angle", self.dipole_angle, ANGLE_RAD)
        require_in("polarizer_angle", self.polarizer_angle, ANGLE_RAD)
        require_in("polarizer_extinction_ratio", self.polarizer_extinction_ratio, (0.0, 1.0))

    def laser_vector(self) -> np.ndarray:
        return np.array([0.0, 1.0], dtype=complex)

    def chain(self, theta_qwp: float) -> np.ndarray:
        """Jones matrix of the QWP at theta_qwp followed by the polarizer."""
        return (polarizer_matrix(self.polarizer_angle, self.polarizer_extinction_ratio)
                @ qwp_matrix(theta_qwp))


def saturation_parameter(mol: MoleculeParams, drive: DriveParams) -> float:
    """On-resonance S = (gamma*Omega^2 / 2*gamma0) / (gamma^2/4)."""
    return saturation_for_rabi(mol, drive.rabi)


def saturation_for_rabi(mol: MoleculeParams, rabi: float) -> float:
    """saturation_parameter at the Rabi frequency rabi (MHz), a plain float
    that need not lie in RABI_MHZ, such as a fitted one."""
    num = mol.gamma * rabi**2 / (2.0 * mol.gamma0)
    return num / (mol.gamma**2 / 4.0)


def rabi_for_saturation(mol: MoleculeParams, s: float) -> float:
    """Rabi frequency (MHz) that produces saturation parameter s on
    resonance; inverse of saturation_parameter in Omega."""
    if s < 0:
        raise ValueError(f"saturation parameter must be >= 0, got {s}")
    return math.sqrt(s * (mol.gamma**2 / 4.0) * 2.0 * mol.gamma0 / mol.gamma)


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
