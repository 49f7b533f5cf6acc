"""Frequency-domain forward models.

Contains the sampled-trace container, the power-broadened Lorentzian, the
extinction (interference) spectrum, the incoherent resonance-fluorescence
spectrum of a resonantly driven two-level system (Mollow triplet), and the
Fabry-Perot instrument response with its convolution.

The Mollow spectrum comes from the 4x4 Bloch Liouvillian through a linear
solve for the steady state and a rational resolvent, with no eigenmodes, so
it stays exact at the exceptional point (Omega = gamma0/4, lifetime limit).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .physics import (
    DriveParams,
    MoleculeParams,
    TWO_PI,
    cyclic_to_angular,
    saturation_parameter,
)


# ---------------------------------------------------------------------------
# Trace container and serialization
# ---------------------------------------------------------------------------

@dataclass
class SpectrumTrace:
    """A sampled function of frequency.

    grid:       strictly increasing frequencies (MHz); freq_kind tags whether
                they are laser detunings, analyzer scan frequencies, ...
    values:     finite samples; value_kind tags the physical meaning
    meta:       provenance (generator name, parameters, seed if stochastic)
    """

    grid: np.ndarray
    values: np.ndarray
    freq_kind: str = "detuning_MHz"
    value_kind: str = "dimensionless"
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.values = self._checked_values(self.grid, self.values, check_grid=True)

    @classmethod
    def _on_checked_grid(cls, grid, values, freq_kind: str, value_kind: str,
                         meta: dict) -> "SpectrumTrace":
        """A trace of this class of values on grid, a float array with the
        shape and bytes of a grid that passed __post_init__'s checks: the
        grid is not checked again; the values get __post_init__'s checks."""
        trace = object.__new__(cls)
        trace.__dict__.update(grid=grid,
                              values=cls._checked_values(grid, values, check_grid=False),
                              freq_kind=freq_kind, value_kind=value_kind, meta=meta)
        return trace

    @staticmethod
    def _checked_values(grid: np.ndarray, values, check_grid: bool) -> np.ndarray:
        """values as a float array, checked to be 1-D, finite and as long as
        the 1-D grid; with check_grid, the grid is checked to be strictly
        increasing and finite too, after the lengths and before the values'
        finiteness.  Both constructors run it, so a subclass adds its own
        checks of the values here."""
        values = np.asarray(values, dtype=float)
        if grid.ndim != 1 or values.ndim != 1:
            raise ValueError("grid and values must be 1-D arrays")
        if grid.size != values.size:
            raise ValueError(f"grid ({grid.size}) and values ({values.size}) length mismatch")
        if check_grid and grid.size >= 2 and not (grid[1:] > grid[:-1]).all():
            raise ValueError("grid must be strictly increasing")
        if not np.isfinite(values).all() or check_grid and not np.isfinite(grid).all():
            raise ValueError("grid and values must be finite")
        return values

    def require_same_units(self, other: "SpectrumTrace"):
        if (self.freq_kind, self.value_kind) != (other.freq_kind, other.value_kind):
            raise ValueError(
                f"unit mismatch: ({self.freq_kind}, {self.value_kind}) vs "
                f"({other.freq_kind}, {other.value_kind})"
            )

    # -- JSON (bit-exact round trip) --

    def to_json(self) -> str:
        return json.dumps(
            {
                "grid": [float(x) for x in self.grid],
                "values": [float(x) for x in self.values],
                "freq_kind": self.freq_kind,
                "value_kind": self.value_kind,
                "meta": self.meta,
            }
        )

    # -- CSV (two columns, '#' meta header) --

    def to_csv(self) -> str:
        return _csv_text({"freq_kind": self.freq_kind, "value_kind": self.value_kind,
                          "meta": self.meta}, "frequency_MHz,value", self.grid, self.values)

    @classmethod
    def from_csv(cls, text: str) -> "SpectrumTrace":
        fields, columns, grid, values = _parse_csv(text)
        if columns == _G2_COLUMNS:
            raise ValueError(f"columns {columns} are a g2 trace's, not a spectrum's")
        return cls(grid, values, **fields)


# '# key = value' comment lines a trace CSV may carry; meta is JSON
_CSV_FIELDS = ("freq_kind", "value_kind", "meta")
# the column-name row of a g2 trace's CSV (correlation.G2Trace)
_G2_COLUMNS = "delay_ns,g2"


def _csv_text(comments: dict, columns: str, x, y) -> str:
    """Two-column CSV: one '# key = value' line per comment (meta as JSON),
    the column-name row, then one exact-repr row per (x, y) pair."""
    lines = [f"# {k} = {json.dumps(v) if k == 'meta' else v}" for k, v in comments.items()]
    lines.append(columns)
    lines.extend(f"{float(a)!r},{float(b)!r}" for a, b in zip(x, y))
    return "\n".join(lines) + "\n"


def _parse_csv(text: str) -> tuple:
    """(fields, columns, x, y) of a _csv_text CSV: fields holds the
    _CSV_FIELDS comments present (meta decoded), columns the first
    non-comment line (the column names), x and y the rows after it.  Blank
    lines and other comments are skipped; a missing column-name row (a first
    line of numbers is a data row, not one) or a malformed row is a
    ValueError."""
    fields, columns, x, y = {}, None, [], []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            for key in _CSV_FIELDS:
                if body.startswith(key + " ="):
                    value = body.split("=", 1)[1].strip()
                    fields[key] = json.loads(value) if key == "meta" else value
            continue
        if columns is None:
            try:
                [float(cell) for cell in line.split(",")]
            except ValueError:
                columns = line
                continue
            break
        a, b = line.split(",")
        x.append(float(a))
        y.append(float(b))
    if columns is None:
        raise ValueError("CSV trace is missing its header row")
    return fields, columns, np.array(x), np.array(y)


# ---------------------------------------------------------------------------
# Extinction model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtinctionModel:
    """Coefficients of the simplified transmission spectrum.

    I_d/I_e = 1 + A*L(nu) - B*L(nu)*(Delta*cos(psi) + gamma/2*sin(psi))
    """

    A: float
    B: float
    psi: float
    mol: MoleculeParams
    drive: DriveParams

    def __post_init__(self):
        if self.A < 0 or self.B < 0:
            raise ValueError("A and B must be non-negative")


def lorentzian_profile(delta, mol: MoleculeParams, rabi: float):
    """Power-broadened Lorentzian L = 1/(Delta^2 + gamma^2/4 + Omega^2*gamma/(2*gamma0)).

    Units MHz^-2; FWHM in Delta is gamma*sqrt(1+S) with S the on-resonance
    saturation parameter.
    """
    if rabi < 0:
        raise ValueError(f"rabi must be >= 0, got {rabi}")
    delta = np.asarray(delta, dtype=float)
    # a detuning past ~1e154 MHz overflows den to inf: L = 0, its limit
    with np.errstate(over="ignore"):
        den = delta**2 + mol.gamma**2 / 4.0 + rabi**2 * mol.gamma / (2.0 * mol.gamma0)
    return 1.0 / den


def extinction_spectrum(model: ExtinctionModel, grid) -> SpectrumTrace:
    """Evaluate the interference transmission spectrum I_d/I_e on a detuning grid."""
    grid = np.asarray(grid, dtype=float)
    L = lorentzian_profile(grid, model.mol, model.drive.rabi)
    shape = grid * math.cos(model.psi) + model.mol.gamma / 2.0 * math.sin(model.psi)
    vals = 1.0 + model.A * L - model.B * L * shape
    return SpectrumTrace(
        grid,
        vals,
        freq_kind="detuning_MHz",
        value_kind="transmission",
        meta={
            "generator": "extinction_spectrum",
            "A": model.A,
            "B": model.B,
            "psi": model.psi,
            "gamma": model.mol.gamma,
            "rabi": model.drive.rabi,
        },
    )


# ---------------------------------------------------------------------------
# Mollow triplet (resonant drive)
# ---------------------------------------------------------------------------

# |g><e| on the basis (g, e); column-stacked vec(X) = (X_gg, X_eg, X_ge, X_ee)
_SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)
_TRACE_ROW = np.array([1, 0, 0, 1], dtype=complex)   # Tr X = row . vec(X)


def _bloch_liouvillian(gamma0_mhz: float, gamma_mhz: float, rabi_mhz: float) -> np.ndarray:
    """Liouvillian of the resonantly driven two-level system, 4x4 on
    column-stacked rho = (rho_gg, rho_eg, rho_ge, rho_ee).

    Angular rates in rad/us: population decay 2*pi*gamma0, total coherence
    decay pi*gamma (pure dephasing makes up the difference).
    """
    g1 = cyclic_to_angular(gamma0_mhz)          # population decay
    g2 = math.pi * gamma_mhz                    # coherence decay
    gphi = g2 - g1 / 2.0                        # pure dephasing (>= 0)
    w = cyclic_to_angular(rabi_mhz)

    sm = _SIGMA_MINUS
    sz = np.array([[-1, 0], [0, 1]], dtype=complex)
    ident = np.eye(2, dtype=complex)
    h = (w / 2.0) * (sm + sm.T)

    def lindblad(a, rate):
        ada = a.conj().T @ a
        return rate * (
            np.kron(a.conj(), a)
            - 0.5 * (np.kron(ident, ada) + np.kron(ada.T, ident))
        )

    liou = -1j * (np.kron(ident, h) - np.kron(h.T, ident))
    liou += lindblad(sm, g1)
    liou += lindblad(sz, gphi / 2.0)
    return liou


def _stationary(mol: MoleculeParams, rabi: float):
    """(L, vec rho_ss): the Liouvillian and its trace-one stationary state,
    from L rho = 0 with the first equation replaced by Tr rho = 1."""
    liou = _bloch_liouvillian(mol.gamma0, mol.gamma, rabi)
    return liou, np.linalg.solve(np.vstack([_TRACE_ROW, liou[1:]]), [1, 0, 0, 0])


def mollow_spectrum(
    mol: MoleculeParams,
    drive: DriveParams,
    grid,
    emission_scale: float = 1.0,
) -> SpectrumTrace:
    """Incoherent emission spectral density vs emission detuning (MHz).

    Normalized so the trace integrates to the
    incoherent emitted-intensity factor (S^2/(1+S)^2 for a lifetime-limited
    emitter) times emission_scale.  Exactly even on symmetric grids.
    """
    if drive.rabi < 0 or mol.gamma <= 0:
        raise ValueError("rabi must be >= 0 and gamma > 0")
    grid = np.asarray(grid, dtype=float)
    # C_inc(tau) = w . exp(L tau) x0 with x0 = vec(s- rho - <s-> rho) and
    # w . vec(X) = Tr[s+ X] = X_ge; the density is 4 Re of its one-sided
    # transform w . (i omega - L)^-1 x0.  x0 is traceless, so deflating the
    # stationary mode, M = L - vec(rho_ss) Tr, leaves the transform unchanged
    # for omega != 0 and makes i omega - M invertible at omega = 0 too.
    liou, rho = _stationary(mol, drive.rabi)
    rho_m = rho.reshape(2, 2, order="F")
    x0 = (_SIGMA_MINUS @ rho_m - rho[1] * rho_m).flatten(order="F")
    m = liou - np.outer(rho, _TRACE_ROW)
    # Faddeev-LeVerrier: q(s) = det(sI - M) and p(s) = w . adj(sI - M) x0,
    # with adj(sI - M) = sum_k B_k s^(3-k), B_0 = I, B_k = M B_k-1 + q_k I
    q, p, b = [1.0], [], np.eye(4)
    for k in range(1, 5):
        p.append((b @ x0)[2])
        mb = m @ b
        q.append(-np.trace(mb) / k)
        b = mb + q[-1] * np.eye(4)

    # the density is even in the emission detuning: evaluating at |grid|
    # makes that exact (bitwise) on symmetric grids
    s_iw = 1j * TWO_PI * np.abs(grid)           # i omega, rad/us
    # past the float range the density is inf or nan: SpectrumTrace rejects it
    with np.errstate(over="ignore", invalid="ignore"):
        resolvent = np.polyval(p, s_iw) / np.polyval(q, s_iw)   # w . (s - M)^-1 x0
        # + 0.0 turns the -0.0 of an undriven emitter (x0 = 0) into +0.0
        vals = 4.0 * emission_scale * resolvent.real + 0.0
    s = saturation_parameter(mol, drive)
    return SpectrumTrace(
        grid,
        vals,
        freq_kind="emission_detuning_MHz",
        value_kind="spectral_density_per_MHz",
        meta={
            "generator": "mollow_spectrum",
            "rabi": drive.rabi,
            "gamma0": mol.gamma0,
            "gamma": mol.gamma,
            "saturation": s,
            "emission_scale": emission_scale,
        },
    )


# ---------------------------------------------------------------------------
# Fabry-Perot instrument
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FpcParams:
    """Scanning Fabry-Perot cavity: free spectral range, instrument FWHM,
    peak transmission."""

    fsr: float
    fwhm: float
    peak_transmission: float = 1.0

    def __post_init__(self):
        if not (0 < self.fwhm < self.fsr):
            raise ValueError(f"need 0 < fwhm < fsr, got fwhm={self.fwhm}, fsr={self.fsr}")
        if not (0 < self.peak_transmission <= 1):
            raise ValueError(f"peak_transmission must be in (0, 1], got {self.peak_transmission}")

    @property
    def finesse_coefficient(self) -> float:
        """Airy coefficient fixed by the FWHM."""
        return 1.0 / math.sin(math.pi * self.fwhm / (2.0 * self.fsr)) ** 2


def fpc_transmission(nu, fpc: FpcParams):
    """Airy transmission T_pk / (1 + F_c sin^2(pi nu / FSR)), periodic in FSR."""
    nu = np.asarray(nu, dtype=float)
    out = fpc.peak_transmission / (
        1.0 + fpc.finesse_coefficient * np.sin(math.pi * nu / fpc.fsr) ** 2
    )
    return out if out.ndim else float(out)


def convolve_instrument(
    emission: SpectrumTrace,
    fpc: FpcParams,
    laser_background_rate: float = 0.0,
    coherent_delta_weight: float = 0.0,
) -> SpectrumTrace:
    """Detected count rate vs FPC scan frequency, on the emission grid.

    The continuous emission density (counts/s per MHz) is convolved with the
    Airy profile by the trapezoid rule; the laser background and the coherent
    (elastic) line enter as delta components at zero detuning, each mapped to
    a scaled Airy lineshape.  The emission grid must be evenly spaced (a
    ValueError otherwise): the kernel is then Toeplitz, and one row of 2N - 1
    Airy values holds all of it, in O(N) memory.
    """
    if laser_background_rate < 0 or coherent_delta_weight < 0:
        raise ValueError("rates must be >= 0")
    g = emission.grid
    n = g.size
    if n < 2:
        raise ValueError("emission trace too short to convolve")
    h = (g[-1] - g[0]) / (n - 1)
    if np.max(np.abs(g - (g[0] + np.arange(n) * h))) > 1e-9 * h:
        raise ValueError("emission grid must be evenly spaced")
    dg = np.diff(g)
    if np.max(dg) > fpc.fwhm / 4.0:
        raise ValueError(
            f"emission grid spacing {np.max(dg):.3g} MHz undersamples the "
            f"instrument (need <= fwhm/4 = {fpc.fwhm / 4.0:.3g} MHz)"
        )
    if g[-1] - g[0] < fpc.fsr:
        raise ValueError("emission grid must span at least one free spectral range")

    # trapezoid weights for the continuous part
    wts = np.zeros_like(g)
    wts[:-1] += dg / 2.0
    wts[1:] += dg / 2.0
    # kernel[i, j] = T((i - j) h): output i is the lag-(N-1) slice of the
    # full convolution of the lag row with the weighted density
    lags = fpc_transmission(np.arange(1 - n, n) * h, fpc)
    cont = np.convolve(lags, emission.values * wts)[n - 1:2 * n - 1]
    line = (laser_background_rate + coherent_delta_weight) * fpc_transmission(g, fpc)
    vals = cont + line
    return SpectrumTrace(
        g,
        vals,
        freq_kind="fpc_scan_MHz",
        value_kind="counts_per_s",
        meta={
            "generator": "convolve_instrument",
            "fsr": fpc.fsr,
            "fwhm": fpc.fwhm,
            "peak_transmission": fpc.peak_transmission,
            "laser_background_rate": laser_background_rate,
            "coherent_delta_weight": coherent_delta_weight,
            "input": emission.meta.get("generator"),
        },
    )
