"""Synthetic noisy observations built from the forward models; shared by
the CLI simulate/reproduce commands and by Monte Carlo studies.

A Monte Carlo study draws many seeds from one noiseless model, so the draws
share a small memo of noiseless values: at most MEMO_SIZE entries, keyed by
the frozen model parameters and the shape and bytes of the float grid, each
a private read-only copy.  Keys that compare equal evaluate to the same
values (psi = -0.0 and 0.0 differ only in the sign of a zero that a 1
absorbs), so a draw is the same bits whether its model was remembered or
evaluated.  An entry is stored only once its grid has passed the trace
checks, so a memo hit does not check the grid again; it still checks that
the rate values are finite.  The grid array and the meta of every trace
come from its own call.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .measurement import DetectorParams, RNG_NAME, simulate_counts
from .physics import DriveParams, MoleculeParams
from .spectra import ExtinctionModel, SpectrumTrace, extinction_spectrum

if TYPE_CHECKING:  # correlation loads the fit engine, which no extinction draw needs
    from .correlation import G2Trace

# entries of the noiseless memo: a QWP-angle series draws from five models,
# and the golden Monte Carlo run interleaves seven
MEMO_SIZE = 8
_memo: dict = {}

_NO_PLATEAU = "plateau region has no coincidences; trace unusable"

# a g2 draw counts coincidences: no dark counts, unit efficiency and time
_COINCIDENCE_COUNTER = DetectorParams(dark_rate=0.0, integration_time=1.0)


def _rate_trace(key, grid, evaluate, scale, freq_kind, meta):
    """The counts_per_s trace on grid of scale times the noiseless values
    under key.  On a miss the values are a read-only copy of evaluate()'s,
    kept in place of the oldest entry when the memo is full, but only after
    the trace has passed every check; on a hit the grid has the shape and
    bytes of a grid that passed them, so only the rate values are checked."""
    values = _memo.get(key)
    if values is not None:
        return SpectrumTrace._on_checked_grid(grid, values * scale, freq_kind,
                                              "counts_per_s", meta)
    values = np.array(evaluate(), dtype=float)
    values.flags.writeable = False
    rate = SpectrumTrace(grid, values * scale, freq_kind=freq_kind,
                         value_kind="counts_per_s", meta=meta)
    if len(_memo) >= MEMO_SIZE:
        del _memo[next(iter(_memo))]
    _memo[key] = values
    return rate


def noisy_extinction_trace(
    model: ExtinctionModel,
    grid,
    incident_rate: float,
    det: DetectorParams,
    seed: int,
) -> SpectrumTrace:
    """Shot-noised normalized transmission: Poisson counts per pixel at
    rate incident*I_d/I_e plus dark counts, dark-subtracted and renormalized.
    incident_rate must be positive and finite."""
    if not (math.isfinite(incident_rate) and incident_rate > 0):
        raise ValueError(f"incident_rate must be positive and finite, got {incident_rate}")
    grid = np.asarray(grid, dtype=float)
    rate = _rate_trace((model, grid.shape, grid.tobytes()), grid,
                       lambda: extinction_spectrum(model, grid).values, incident_rate,
                       "detuning_MHz", {"generator": "extinction_spectrum"})
    counts = simulate_counts(rate, det, seed)
    t = det.integration_time
    norm = (counts.values - det.dark_rate * t) / (incident_rate * det.quantum_efficiency * t)
    return SpectrumTrace._on_checked_grid(rate.grid, norm, rate.freq_kind, "transmission", {
        "generator": "noisy_extinction_trace",
        "rng": RNG_NAME,
        "seed": int(seed),
        "incident_rate_cps": incident_rate,
        "integration_time_s": t,
        "A": model.A,
        "B": model.B,
        "psi": model.psi,
        "gamma": model.mol.gamma,
    })


def noisy_g2_trace(
    delays_ns,
    mol: MoleculeParams,
    drive: DriveParams,
    plateau_coincidences: float,
    seed: int,
) -> G2Trace:
    """Coincidence-noised g2: Poisson draws at plateau_coincidences per bin
    on the plateau, renormalized by the plateau mean over the last 20% of
    the delay window (at least 3 delays).  A plateau whose noiseless rates
    are all zero (a one-delay trace at tau = 0, say) is a ValueError before
    any draw."""
    from .correlation import G2Trace, g2

    delays = np.asarray(delays_ns, dtype=float)
    rate = _rate_trace((mol, drive, delays.shape, delays.tobytes()), delays,
                       lambda: g2(delays, mol, drive),
                       plateau_coincidences, "delay_ns", {})
    n_tail = max(3, int(0.2 * delays.size))
    if not rate.values[-n_tail:].any():
        raise ValueError(_NO_PLATEAU)
    counts = simulate_counts(rate, _COINCIDENCE_COUNTER, seed)
    tail = counts.values[-n_tail:]
    plateau = float(np.add.reduce(tail) / tail.size)   # np.mean's bits
    if plateau <= 0:
        raise ValueError(_NO_PLATEAU)
    return G2Trace._on_checked_grid(rate.grid, counts.values / plateau, "delay_ns", "g2", {
        "generator": "noisy_g2_trace",
        "rng": RNG_NAME,
        "seed": int(seed),
        "plateau_coincidences": plateau_coincidences,
        "rabi": drive.rabi,
        "gamma0": mol.gamma0,
        "gamma": mol.gamma,
    })
