"""Synthetic noisy observations built from the forward models; shared by
the CLI simulate/reproduce commands and by Monte Carlo studies."""

from __future__ import annotations

import math

import numpy as np

from .measurement import DetectorParams, RNG_NAME, simulate_counts
from .physics import DriveParams, MoleculeParams
from .spectra import ExtinctionModel, SpectrumTrace, extinction_spectrum


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
    clean = extinction_spectrum(model, grid)
    rate = clean._on_grid(clean.values * incident_rate, "counts_per_s", clean.meta)
    counts = simulate_counts(rate, det, seed)
    t = det.integration_time
    norm = (counts.values - det.dark_rate * t) / (incident_rate * det.quantum_efficiency * t)
    return clean._on_grid(norm, "transmission", {
        "generator": "noisy_extinction_trace",
        "rng": RNG_NAME,
        "seed": int(seed),
        "incident_rate_cps": incident_rate,
        "integration_time_s": t,
        **{k: clean.meta[k] for k in ("A", "B", "psi", "gamma")},
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
    rate = SpectrumTrace(
        delays,
        np.clip(g2(delays, mol, drive), 0.0, None) * plateau_coincidences,
        freq_kind="delay_ns",
        value_kind="counts_per_s",
    )
    det = DetectorParams(dark_rate=0.0, integration_time=1.0)
    counts = simulate_counts(rate, det, seed)
    tail = max(3, int(0.2 * counts.values.size))
    plateau = float(np.mean(counts.values[-tail:]))
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
