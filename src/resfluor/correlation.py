"""Second-order intensity correlation of the driven two-level system.

The closed form follows from the optical Bloch equations at resonance with
population decay 2*pi*gamma0 and coherence decay pi*gamma (angular rates):
starting from the ground state the excited population relaxes as a damped
oscillation, and g2(tau) is that population normalized to its steady state.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .physics import DriveParams, MoleculeParams, cyclic_to_angular, saturation_parameter
from . import estimation
from .estimation import FitOptions, FitProblem, FitResult, Parameter, minimize


@dataclass
class G2Trace:
    """Normalized intensity correlation vs delay (ns).  Delays may be
    negative for symmetric display."""

    delays: np.ndarray
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.delays = np.asarray(self.delays, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.delays.shape != self.values.shape or self.delays.ndim != 1:
            raise ValueError("delays and values must be 1-D arrays of equal length")
        if self.delays.size >= 2 and not np.all(np.diff(self.delays) > 0):
            raise ValueError("delays must be strictly increasing")
        if np.any(self.values < 0) or not np.all(np.isfinite(self.values)):
            raise ValueError("g2 values must be finite and >= 0")

    def to_csv(self) -> str:
        lines = [f"# meta = {json.dumps(self.meta)}", "delay_ns,g2"]
        for t, v in zip(self.delays, self.values):
            lines.append(f"{float(t)!r},{float(v)!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "G2Trace":
        meta = {}
        delays, values = [], []
        header_seen = False
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                if body.startswith("meta ="):
                    meta = json.loads(body.split("=", 1)[1].strip())
                continue
            if not header_seen:
                header_seen = True
                continue
            a, b = line.split(",")
            delays.append(float(a))
            values.append(float(b))
        if not header_seen:
            raise ValueError("CSV g2 trace is missing its header row")
        return cls(np.array(delays), np.array(values), meta)


def _g2_shape(tau_ns, a_rate, mu_sq):
    """1 - exp(-a tau) * (cos + (a/mu) sin) with tau in us internally;
    hyperbolic branch below the oscillation threshold."""
    tau = np.abs(np.asarray(tau_ns, dtype=float)) * 1e-3
    if mu_sq > 1e-18 * a_rate**2:
        mu = math.sqrt(mu_sq)
        damped = np.exp(-a_rate * tau) * (np.cos(mu * tau) + (a_rate / mu) * np.sin(mu * tau))
    elif mu_sq < -1e-18 * a_rate**2:
        # overdamped: two decaying exponentials, written overflow-safe
        nu = math.sqrt(-mu_sq)
        damped = 0.5 * (1.0 + a_rate / nu) * np.exp(-(a_rate - nu) * tau) \
            + 0.5 * (1.0 - a_rate / nu) * np.exp(-(a_rate + nu) * tau)
    else:
        damped = np.exp(-a_rate * tau) * (1.0 + a_rate * tau)
    return 1.0 - damped


def _g2_rates(gamma0: float, gamma: float, rabi: float):
    """Damping rate a and squared oscillation frequency mu^2 (angular, per
    us) of g2 for population decay gamma0, linewidth gamma and Rabi
    frequency rabi (cyclic MHz)."""
    g1 = cyclic_to_angular(gamma0)
    g2r = math.pi * gamma
    w = cyclic_to_angular(rabi)
    return 0.5 * (g1 + g2r), w * w - (0.5 * (g2r - g1)) ** 2


def g2(tau_ns, mol: MoleculeParams, drive: DriveParams):
    """g2 at delay tau (ns); negative delays are mirrored.

    g2(0) = 0, g2(inf) = 1; oscillatory iff the angular Rabi rate exceeds
    |Gamma_1 - Gamma_2|/2 (Gamma_1/4 for a lifetime-limited emitter).
    """
    if drive.detuning != 0.0:
        raise ValueError("g2 requires resonant drive (detuning = 0)")
    out = _g2_shape(tau_ns, *_g2_rates(mol.gamma0, mol.gamma, drive.rabi))
    return out if np.ndim(tau_ns) else float(out)


def g2_trace(delays_ns, mol: MoleculeParams, drive: DriveParams) -> G2Trace:
    vals = g2(np.asarray(delays_ns, dtype=float), mol, drive)
    return G2Trace(
        np.asarray(delays_ns, dtype=float),
        np.clip(vals, 0.0, None),
        meta={"generator": "g2_trace", "rabi": drive.rabi,
              "gamma0": mol.gamma0, "gamma": mol.gamma},
    )


def fit_rabi_from_g2(
    trace: G2Trace,
    mol: MoleculeParams,
    float_gamma0: bool = False,
    opts: Optional[FitOptions] = None,
) -> FitResult:
    """Least-squares fit of the closed form plus amplitude and flat
    background; returns rabi (MHz) with its standard error.

    gamma0 is fixed from the molecule by default (lifetime-derived); pass
    float_gamma0=True to let it vary.
    """
    a0, _ = _g2_rates(mol.gamma0, mol.gamma, 0.0)
    decay_ns = 1e3 / a0
    if trace.delays.max() < 3.0 * decay_ns:
        raise ValueError(
            f"trace too short: spans {trace.delays.max():.3g} ns, "
            f"need >= {3.0 * decay_ns:.3g} ns (three decay times)"
        )

    # oscillation-frequency seed from the first interior maximum, if any
    v = trace.values
    i_max = int(np.argmax(v))
    rabi0 = mol.gamma0
    if 0 < i_max < v.size - 1 and v[i_max] > 1.05 * np.mean(v[-max(3, v.size // 5):]):
        t_first = abs(trace.delays[i_max])
        if t_first > 0:
            rabi0 = max(0.5e3 / t_first, mol.gamma0)  # first max near half a Rabi period

    plateau = float(np.mean(v[-max(3, v.size // 5):]))
    pars = [
        Parameter("rabi", rabi0, lo=0.0),
        Parameter("amplitude", max(plateau, 1e-6), lo=1e-300),
        Parameter("background", 0.0, lo=-1.0),
        Parameter("gamma0", mol.gamma0, lo=1e-12, fixed=not float_gamma0),
    ]

    def residual(p):
        rabi, amp, bg, gam0 = p
        rates = _g2_rates(gam0, max(mol.gamma, gam0), rabi)
        return bg + amp * _g2_shape(trace.delays, *rates) - trace.values

    res = minimize(FitProblem(residual, pars), opts)
    if res.status == "max_iter":
        raise estimation.NotConvergedError("g2 fit did not converge", res)
    return res


def cross_check_saturation(rabi_mhz: float, mol: MoleculeParams) -> float:
    """Saturation parameter for a resonant drive at the given Rabi frequency."""
    return saturation_parameter(mol, DriveParams(rabi=rabi_mhz, detuning=0.0))


def annotate(rabi_mhz: float, mol: MoleculeParams) -> str:
    """Panel-style annotation string for a fitted Rabi frequency."""
    s = cross_check_saturation(rabi_mhz, mol)
    return f"Omega={rabi_mhz:.4g} MHz, S={s:.4g}"
