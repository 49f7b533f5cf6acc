"""Frequency-domain forward models.

Contains the sampled-trace container, the power-broadened Lorentzian, the
extinction (interference) spectrum, the incoherent resonance-fluorescence
spectrum of a resonantly driven two-level system (Mollow triplet), and the
Fabry-Perot instrument response with its convolution.

The Mollow spectrum is Mollow's closed form: one real rational function of
the squared frequency, with coefficients from the resonant Bloch rates that
g2 reads too (physics.bloch_rates).  It has no eigenmodes, so it stays exact
at the exceptional point (Omega = gamma0/4, lifetime limit).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .physics import (
    LINEWIDTH_MHZ,
    TWO_PI,
    DriveParams,
    MoleculeParams,
    bloch_rates,
    cyclic_to_angular,
    require_in,
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
    def from_csv(cls, text: str, freq_kind: str | None = None) -> "SpectrumTrace":
        """The trace of a to_csv text.  A g2 trace's CSV is a ValueError, and
        so, given freq_kind, is a CSV whose freq_kind comment names another
        axis; a CSV without that comment reads as without freq_kind."""
        fields, columns, grid, values = _parse_csv(text)
        if columns == _G2_COLUMNS:
            raise ValueError(f"columns {columns} are a g2 trace's, not a spectrum's")
        if freq_kind is not None and fields.get("freq_kind", freq_kind) != freq_kind:
            raise ValueError(f"freq_kind = {fields['freq_kind']} is not the expected {freq_kind}")
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
    grid = np.asarray(grid, dtype=float)
    g1, g2, gphi, _, _ = bloch_rates(mol.gamma0, mol.gamma)
    w = cyclic_to_angular(drive.rabi)
    # The density is 4 Re of the one-sided transform of C_inc (both sides,
    # and the rate convention 2 rho_ee = S/(1+S)).  By Mollow (1969) it is
    # one real rational function of x = omega^2, with c = Gamma_1 Gamma_2 +
    # w^2: (w^2/c) (n0 + n1 x + 2 gphi x^2) / ((x + Gamma_2^2) ((c - x)^2 +
    # (Gamma_1 + Gamma_2)^2 x)).  Written in gphi, the terms that cancel for
    # a lifetime-limited emitter are exactly 0.  It is homogeneous of degree
    # -1 in the rates and omega, so the rates are taken in units of r =
    # Gamma_1 + Gamma_2 + w; past omega = r the ratio is taken in y =
    # (r/omega)^2 (numerator and denominator times y^3) and its factor y/r
    # as (r/omega)/omega: no power of omega/r leaves the float range.
    r = g1 + g2 + w
    g1, g2, gphi, w = g1 / r, g2 / r, gphi / r, w / r
    w2 = w * w
    c = g1 * g2 + w2
    n0 = g2 * (w2 * (w2 + 2.0 * g1 * (g1 + 2.0 * gphi)) + g1 * g1 * gphi * (g1 + 2.0 * gphi))
    n1 = g1 * w2 + gphi * (2.5 * g1 * g1 - 2.0 * w2) + 2.0 * gphi * gphi * (g1 + gphi)
    s1 = g1 + g2
    # evaluating at |grid| makes the density exactly (bitwise) even on
    # symmetric grids
    omega = TWO_PI * np.abs(grid)
    near = omega <= r
    # the far branch's divisions by omega leave the float range at and near
    # omega = 0, where np.where discards them
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        u = np.where(near, omega / r, r / omega)
        u_over_omega = u / omega
    x = u * u
    num = np.where(near, (n0 + x * (n1 + 2.0 * gphi * x)) / r,
                   (2.0 * gphi + x * (n1 + n0 * x)) * u_over_omega)
    den = np.where(near, (x + g2 * g2) * (np.square(c - x) + s1 * s1 * x),
                   (1.0 + g2 * g2 * x) * (np.square(c * x - 1.0) + s1 * s1 * x))
    # + 0.0 writes every zero as +0.0, also at emission_scale = -0.0
    vals = emission_scale * ((w2 / c) * (num / den)) + 0.0
    return SpectrumTrace(grid, vals, freq_kind="emission_detuning_MHz",
                         value_kind="spectral_density_per_MHz",
                         meta={"generator": "mollow_spectrum", "rabi": drive.rabi,
                               "gamma0": mol.gamma0, "gamma": mol.gamma,
                               "saturation": saturation_parameter(mol, drive),
                               "emission_scale": emission_scale})


# ---------------------------------------------------------------------------
# Fabry-Perot instrument
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FpcParams:
    """Scanning Fabry-Perot cavity: free spectral range and instrument FWHM
    (MHz, each in physics.LINEWIDTH_MHZ), peak transmission."""

    fsr: float
    fwhm: float
    peak_transmission: float = 1.0

    def __post_init__(self):
        require_in("fsr", self.fsr, LINEWIDTH_MHZ)
        require_in("fwhm", self.fwhm, LINEWIDTH_MHZ)
        if not self.fwhm < self.fsr:
            raise ValueError(f"need fwhm < fsr, got fwhm={self.fwhm}, fsr={self.fsr}")
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
