"""Photon-counting statistics, detector model and SNR analysis.

Sampling uses numpy's Philox counter-based generator.  Pixels are taken in
fixed blocks of BLOCK_PIXELS, and block b draws from the Philox stream keyed
by (seed, b) with counter 0 (Salmon et al., SC'11), so the counts depend
only on the rate trace and the seed.  Each thread keeps one Philox and
re-keys it for every block; a fresh Philox(key=(seed, b)) gives the same
stream, but constructing one costs more than a small block's draw.  The
scheme's name, RNG_NAME, is embedded in all stochastic output metadata.
The counts trace shares the rate trace's grid (SpectrumTrace._on_checked_grid).
Power is not calibrated here: S = P / P_sat is one division in config and cli.
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass

import numpy as np

from .physics import COUNT_RATE, INTEGRATION_S, QUANTUM_EFFICIENCY, require_in
from .spectra import SpectrumTrace

RNG_NAME = "numpy-philox4x64 keyed by (seed, block index), 4096-pixel blocks"

# Part of the stream: changing it changes every count, so RNG_NAME too.
BLOCK_PIXELS = 4096

_ZEROS = (0, 0, 0, 0)
_local = threading.local()


def _keyed_generator(seed: int, b: int) -> np.random.Generator:
    """This thread's Generator, its Philox set to the state of a fresh
    Philox(key=(seed, b)): counter 0 and an empty output buffer."""
    gen = getattr(_local, "generator", None)
    if gen is None:
        gen = _local.generator = np.random.Generator(np.random.Philox(0))
    gen.bit_generator.state = {"bit_generator": "Philox",
                               "state": {"counter": _ZEROS, "key": (seed, b)},
                               "buffer": _ZEROS, "buffer_pos": 4,
                               "has_uint32": 0, "uinteger": 0}
    return gen


@dataclass(frozen=True)
class DetectorParams:
    """dark_rate (counts/s) in physics.COUNT_RATE, quantum_efficiency in
    QUANTUM_EFFICIENCY and integration_time (s) in INTEGRATION_S: at a rate
    of at most 4 * COUNT_RATE, as every simulation draws, a mean is <= 5e18."""

    dark_rate: float
    quantum_efficiency: float = 1.0
    integration_time: float = 1.0

    def __post_init__(self):
        require_in("dark_rate", self.dark_rate, COUNT_RATE)
        require_in("quantum_efficiency", self.quantum_efficiency, QUANTUM_EFFICIENCY)
        require_in("integration_time", self.integration_time, INTEGRATION_S)


def simulate_counts(
    rate_trace: SpectrumTrace,
    det: DetectorParams,
    seed: int,
) -> SpectrumTrace:
    """Independent Poisson draw per pixel with mean (rate*qe + dark)*t.

    Block b holds pixels [b*BLOCK_PIXELS, (b+1)*BLOCK_PIXELS) and is drawn
    with one vectorised call on the Philox stream keyed by (seed, b).  The
    partition is fixed, so the counts depend only on the rates and the seed,
    and a block's counts only on its own rates, the seed and b.
    seed must be an integer (a bool or a float is a ValueError, even an
    integral one) in [0, 2**64), the range of one Philox key word.
    """
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    seed = int(seed)
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    rates = rate_trace.values
    if (rates < 0).any():
        raise ValueError("count rates must be >= 0")
    means = (rates * det.quantum_efficiency + det.dark_rate) * det.integration_time

    counts = np.empty(means.size)
    for b, lo in enumerate(range(0, means.size, BLOCK_PIXELS)):
        block = slice(lo, lo + BLOCK_PIXELS)
        counts[block] = _keyed_generator(seed, b).poisson(means[block])

    meta = {
        "generator": "simulate_counts",
        "rng": RNG_NAME,
        "seed": seed,
        "integration_time_s": det.integration_time,
        "dark_rate_cps": det.dark_rate,
        "quantum_efficiency": det.quantum_efficiency,
        "input": rate_trace.meta.get("generator"),
    }
    return SpectrumTrace._on_checked_grid(rate_trace.grid, counts, rate_trace.freq_kind,
                                          "counts", meta)


def interference_dip_rate(incident_rate: float, coherent_molecular_rate: float) -> float:
    """On-resonance dip depth 2*sqrt(incident*coherent), i.e. the
    interference cross term at the intensity level."""
    if incident_rate < 0 or coherent_molecular_rate < 0:
        raise ValueError("rates must be >= 0")
    return 2.0 * math.sqrt(incident_rate * coherent_molecular_rate)


def snr_of_detection(
    dip_rate: float, incident_rate: float, det: DetectorParams, t: float
) -> float:
    """SNR = dip*t / sqrt((incident + dark)*t)."""
    if t <= 0:
        raise ValueError("t must be positive")
    noise = math.sqrt((incident_rate + det.dark_rate) * t)
    return dip_rate * t / noise if noise > 0 else math.inf

