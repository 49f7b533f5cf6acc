"""Synthetic noisy observations built from the forward models; shared by
the CLI simulate/reproduce commands and by Monte Carlo studies.

A Monte Carlo study draws many seeds from one noiseless model, so the draws
share a small memo of noiseless values: at most MEMO_SIZE entries, keyed by
the frozen model parameters and the shape and bytes of the float grid, each
a private read-only copy.  Keys that compare equal evaluate to the same
values (psi = -0.0 and 0.0 differ only in the sign of a zero that a 1
absorbs), so a draw is the same bits whether its model was remembered or
evaluated.  The grid array and the meta of every trace come from its own
call.
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


def _noiseless(key, evaluate):
    """The values under key; on a miss, a read-only copy of evaluate()'s,
    kept in place of the oldest entry when the memo is full."""
    values = _memo.get(key)
    if values is None:
        values = np.array(evaluate(), dtype=float)
        values.flags.writeable = False
        if len(_memo) >= MEMO_SIZE:
            del _memo[next(iter(_memo))]
        _memo[key] = values
    return values


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
    values = _noiseless((model, grid.shape, grid.tobytes()),
                        lambda: extinction_spectrum(model, grid).values)
    rate = SpectrumTrace(grid, values * incident_rate, value_kind="counts_per_s",
                         meta={"generator": "extinction_spectrum"})
    counts = simulate_counts(rate, det, seed)
    t = det.integration_time
    norm = (counts.values - det.dark_rate * t) / (incident_rate * det.quantum_efficiency * t)
    return rate._on_grid(norm, "transmission", {
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
    the delay window."""
    from .correlation import G2Trace, g2

    delays = np.asarray(delays_ns, dtype=float)
    values = _noiseless((mol, drive, delays.shape, delays.tobytes()),
                        lambda: np.clip(g2(delays, mol, drive), 0.0, None))
    rate = SpectrumTrace(delays, values * plateau_coincidences, freq_kind="delay_ns",
                         value_kind="counts_per_s")
    det = DetectorParams(dark_rate=0.0, integration_time=1.0)
    counts = simulate_counts(rate, det, seed)
    tail = counts.values[-max(3, int(0.2 * counts.values.size)):]
    plateau = float(np.add.reduce(tail) / tail.size)   # np.mean's bits
    if plateau <= 0:
        raise ValueError("plateau region has no coincidences; trace unusable")
    return G2Trace(
        delays,
        counts.values / plateau,
        meta={
            "generator": "noisy_g2_trace",
            "rng": RNG_NAME,
            "seed": int(seed),
            "plateau_coincidences": plateau_coincidences,
            "rabi": drive.rabi,
            "gamma0": mol.gamma0,
            "gamma": mol.gamma,
        },
    )
