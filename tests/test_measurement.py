import math
import sys
import threading

import numpy as np
import pytest

from resfluor.measurement import (
    BLOCK_PIXELS,
    DetectorParams,
    RNG_NAME,
    interference_dip_rate,
    simulate_counts,
    snr_of_detection,
)
from resfluor.spectra import SpectrumTrace


def _rate_trace(n=2000, rate=1000.0):
    return SpectrumTrace(np.arange(float(n)), np.full(n, rate),
                         freq_kind="pixel_index", value_kind="counts_per_s")


class TestRng:
    def test_block_streams_deterministic_and_independent(self):
        tr = _rate_trace(2 * BLOCK_PIXELS, rate=100.0)
        det = DetectorParams(dark_rate=0.0)
        a = simulate_counts(tr, det, seed=42).values
        assert np.array_equal(a, simulate_counts(tr, det, seed=42).values)
        assert not np.array_equal(a, simulate_counts(tr, det, seed=43).values)
        # constant mean: block 1 draws from its own key, not block 0's
        assert not np.array_equal(a[:BLOCK_PIXELS], a[BLOCK_PIXELS:])

    def test_block_locality(self):
        n = 2 * BLOCK_PIXELS + 3
        tr = SpectrumTrace(np.arange(float(n)), np.linspace(0.0, 5000.0, n),
                           freq_kind="pixel_index", value_kind="counts_per_s")
        head = SpectrumTrace(tr.grid[:BLOCK_PIXELS], tr.values[:BLOCK_PIXELS],
                             freq_kind="pixel_index", value_kind="counts_per_s")
        det = DetectorParams(dark_rate=50.0, integration_time=0.2)
        full = simulate_counts(tr, det, seed=9)
        assert np.array_equal(full.values[:BLOCK_PIXELS],
                              simulate_counts(head, det, seed=9).values)
        assert full.meta["rng"] == RNG_NAME
        assert full.meta["seed"] == 9

    def test_stream_pin(self):
        # A change to the stream must update this pin and RNG_NAME together.
        assert RNG_NAME == ("numpy-philox4x64 keyed by (seed, block index), "
                            "4096-pixel blocks")
        tr = SpectrumTrace(np.arange(8.0), np.geomspace(1.0, 1e4, 8),
                           freq_kind="pixel_index", value_kind="counts_per_s")
        det = DetectorParams(dark_rate=5.0, integration_time=0.5)
        counts = simulate_counts(tr, det, seed=2024).values
        assert counts.tolist() == [7.0, 5.0, 6.0, 20.0, 89.0, 344.0, 1280.0, 5090.0]

    def test_seed_range(self):
        tr = _rate_trace(10)
        det = DetectorParams(dark_rate=0.0)
        for bad in (-1, 1 << 64):
            with pytest.raises(ValueError, match="seed"):
                simulate_counts(tr, det, seed=bad)
        top = simulate_counts(tr, det, seed=(1 << 64) - 1).values
        assert not np.array_equal(top, simulate_counts(tr, det, seed=0).values)

    def test_seed_must_be_an_integer(self):
        # a float or a bool seed used to be truncated: 1.9 and True drew
        # seed 1's stream and recorded "seed": 1
        tr = _rate_trace(10)
        det = DetectorParams(dark_rate=0.0)
        for bad in (1.9, 1.0, np.float64(2.0), True, np.True_, "3"):
            with pytest.raises(ValueError, match="seed must be an integer"):
                simulate_counts(tr, det, seed=bad)
        want = simulate_counts(tr, det, seed=9)
        for seed in (np.uint64(9), np.int32(9)):
            got = simulate_counts(tr, det, seed=seed)
            assert np.array_equal(got.values, want.values)
            assert got.meta == want.meta and type(got.meta["seed"]) is int

    @staticmethod
    def _reference_counts(tr, det, seed):
        """Per-block draws from freshly constructed Philox(key=(seed, b))."""
        means = (tr.values * det.quantum_efficiency + det.dark_rate) * det.integration_time
        return np.concatenate([
            np.random.Generator(np.random.Philox(key=np.array([seed, b], dtype=np.uint64)))
            .poisson(means[lo:lo + BLOCK_PIXELS])
            for b, lo in enumerate(range(0, means.size, BLOCK_PIXELS))])

    def test_counts_match_freshly_keyed_philox_per_block(self):
        n = 2 * BLOCK_PIXELS + 3
        tr = SpectrumTrace(np.arange(float(n)), np.linspace(0.0, 5000.0, n),
                           freq_kind="pixel_index", value_kind="counts_per_s")
        det = DetectorParams(dark_rate=50.0, quantum_efficiency=0.8, integration_time=0.2)
        for seed in (0, 9, (1 << 64) - 1):
            assert np.array_equal(simulate_counts(tr, det, seed).values,
                                  self._reference_counts(tr, det, seed))

    def test_interleaved_and_threaded_calls_match_single_calls(self):
        n = 2 * BLOCK_PIXELS + 3
        tr = SpectrumTrace(np.arange(float(n)), np.linspace(0.0, 5000.0, n),
                           freq_kind="pixel_index", value_kind="counts_per_s")
        head = SpectrumTrace(tr.grid[:5], tr.values[:5],
                             freq_kind="pixel_index", value_kind="counts_per_s")
        det = DetectorParams(dark_rate=50.0, integration_time=0.2)
        want = {s: self._reference_counts(tr, det, s) for s in (3, 4)}
        # a short call between two long ones leaves no state behind
        a = simulate_counts(tr, det, 3).values
        simulate_counts(head, det, 4)
        b = simulate_counts(tr, det, 4).values
        assert np.array_equal(a, want[3]) and np.array_equal(b, want[4])

        # more threads than cores, switching often: each keeps its own stream
        got = {}

        def draw(k):
            got[k] = [simulate_counts(tr, det, 3 + k % 2).values for _ in range(20)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=draw, args=(k,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(got) == list(range(6))
        for k, runs in got.items():
            assert all(np.array_equal(c, want[3 + k % 2]) for c in runs)

    def test_seed_changes_output(self):
        tr = _rate_trace(200)
        det = DetectorParams(dark_rate=0.0)
        a = simulate_counts(tr, det, seed=1)
        b = simulate_counts(tr, det, seed=2)
        assert not np.array_equal(a.values, b.values)


class TestPoissonStatistics:
    def test_mean_and_variance(self):
        # z-test on the sample mean and a loose check on the variance
        rate, t, dark = 800.0, 0.5, 100.0
        tr = _rate_trace(20000, rate)
        det = DetectorParams(dark_rate=dark, integration_time=t)
        c = simulate_counts(tr, det, seed=3).values
        mu = (rate + dark) * t
        z = (c.mean() - mu) / math.sqrt(mu / c.size)
        assert abs(z) < 4.0
        assert c.var() == pytest.approx(mu, rel=0.05)

    def test_quantum_efficiency_scales_signal_not_dark(self):
        tr = _rate_trace(20000, 1000.0)
        det = DetectorParams(dark_rate=200.0, quantum_efficiency=0.5,
                             integration_time=1.0)
        c = simulate_counts(tr, det, seed=4).values
        assert c.mean() == pytest.approx(1000.0 * 0.5 + 200.0, rel=0.01)

    def test_negative_rates_rejected(self):
        tr = SpectrumTrace(np.array([0.0, 1.0]), np.array([10.0, -1.0]),
                           freq_kind="pixel_index", value_kind="counts_per_s")
        with pytest.raises(ValueError):
            simulate_counts(tr, DetectorParams(dark_rate=0.0), seed=0)


class TestBudgets:
    def test_interference_dip_rate(self):
        # 550 cps incident beam against 1.1 cps of coherent scattering
        dip = interference_dip_rate(550.0, 1.1)
        assert dip == pytest.approx(2.0 * math.sqrt(550.0 * 1.1), rel=1e-14)
        assert dip == pytest.approx(49.2, abs=0.05)

    def test_snr_of_detection(self):
        det = DetectorParams(dark_rate=150.0)
        snr = snr_of_detection(49.2, 550.0, det, 4.0)
        assert snr == pytest.approx(49.2 * 4.0 / math.sqrt(700.0 * 4.0), rel=1e-12)
        assert 3.0 < snr < 4.5


def test_detector_validation():
    with pytest.raises(ValueError):
        DetectorParams(dark_rate=-1.0)
    with pytest.raises(ValueError):
        DetectorParams(dark_rate=0.0, quantum_efficiency=0.0)
    with pytest.raises(ValueError):
        DetectorParams(dark_rate=0.0, integration_time=0.0)
    # nan and inf passed here and failed later in the sampler
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match=r"^dark_rate = .* is outside the domain "):
            DetectorParams(dark_rate=bad)
        with pytest.raises(ValueError, match=r"^integration_time = .* is outside the domain "):
            DetectorParams(dark_rate=0.0, integration_time=bad)
