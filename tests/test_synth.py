"""Synthetic noisy traces: the traces derived on a checked grid keep every
value check, and serialize as publicly constructed traces do."""

import math
import warnings

import numpy as np
import pytest

from resfluor import synth
from resfluor.correlation import G2Trace, g2_trace
from resfluor.measurement import DetectorParams, simulate_counts
from resfluor.physics import DriveParams, MoleculeParams
from resfluor.spectra import ExtinctionModel, SpectrumTrace, extinction_spectrum
from resfluor.synth import noisy_extinction_trace, noisy_g2_trace

MOL = MoleculeParams(gamma0=16.4, gamma=17.0)
MODEL = ExtinctionModel(A=0.05, B=0.1, psi=1.0, mol=MOL, drive=DriveParams(rabi=5.0))
GRID = np.linspace(-150.0, 150.0, 201)
DET = DetectorParams(dark_rate=150.0, quantum_efficiency=0.8, integration_time=0.16)
DELAYS = np.linspace(0.0, 400.0, 401)


def _public(tr: SpectrumTrace) -> SpectrumTrace:
    """The same fields, through the public constructor and its full check."""
    return SpectrumTrace(tr.grid.copy(), tr.values.copy(), freq_kind=tr.freq_kind,
                         value_kind=tr.value_kind, meta=dict(tr.meta))


class TestOnGrid:
    @staticmethod
    def _on_grid(base, values, value_kind="x", meta=None):
        return SpectrumTrace._on_checked_grid(base.grid, values, base.freq_kind, value_kind,
                                              {} if meta is None else meta)

    def test_shares_the_grid_and_checks_the_values(self):
        base = extinction_spectrum(MODEL, GRID)
        tr = self._on_grid(base, base.values * 2.0, "counts_per_s", {"tag": 1})
        assert tr.grid is base.grid and tr.freq_kind == base.freq_kind
        assert (tr.value_kind, tr.meta) == ("counts_per_s", {"tag": 1})
        assert tr.to_json() == _public(tr).to_json()
        with pytest.raises(ValueError, match="length mismatch"):
            self._on_grid(base, base.values[:-1])
        with pytest.raises(ValueError, match="1-D"):
            self._on_grid(base, base.values.reshape(1, -1))
        for bad in (math.inf, math.nan):
            values = base.values.copy()
            values[7] = bad
            with pytest.raises(ValueError, match="finite"):
                self._on_grid(base, values)

    def test_does_not_check_the_grid_again(self):
        # the grid passed the checks once; a derived trace only checks its values
        base = extinction_spectrum(MODEL, GRID)
        backwards = GRID[::-1].copy()
        tr = SpectrumTrace._on_checked_grid(backwards, base.values, "detuning_MHz", "x", {})
        assert tr.grid is backwards

    def test_negative_rates_on_a_derived_trace_still_raise(self):
        base = extinction_spectrum(MODEL, GRID)
        with pytest.raises(ValueError, match="count rates"):
            simulate_counts(self._on_grid(base, -base.values, "counts_per_s"), DET, 0)


class TestNoisyExtinction:
    def test_matches_the_composition_of_public_traces(self):
        got = noisy_extinction_trace(MODEL, GRID, 127550.0, DET, 5)
        clean = extinction_spectrum(MODEL, GRID)
        rate = SpectrumTrace(clean.grid, clean.values * 127550.0, freq_kind=clean.freq_kind,
                             value_kind="counts_per_s", meta=clean.meta)
        counts = simulate_counts(rate, DET, 5)
        assert counts.to_json() == _public(counts).to_json()
        t = DET.integration_time
        want = (counts.values - DET.dark_rate * t) / (127550.0 * DET.quantum_efficiency * t)
        assert np.array_equal(got.values, want)
        assert np.array_equal(got.grid, GRID)
        assert (got.freq_kind, got.value_kind) == ("detuning_MHz", "transmission")
        assert got.meta["seed"] == 5 and got.meta["generator"] == "noisy_extinction_trace"
        assert got.to_csv() == _public(got).to_csv()
        assert got.to_json() == _public(got).to_json()

    @pytest.mark.parametrize("rate", [0.0, -1.0, math.inf, math.nan])
    def test_rate_must_be_positive_and_finite(self, rate):
        # a zero rate used to divide by zero (two RuntimeWarnings) and then
        # fail the trace's finiteness check
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="incident_rate"):
                noisy_extinction_trace(MODEL, GRID, rate, DET, 0)

    def test_seed_must_be_an_integer(self):
        for bad in (1.9, True):
            with pytest.raises(ValueError, match="seed must be an integer"):
                noisy_extinction_trace(MODEL, GRID, 127550.0, DET, bad)


class TestNoisyG2:
    def test_matches_the_composition_through_g2_trace(self):
        drive = DriveParams(rabi=50.0)
        got = noisy_g2_trace(DELAYS, MOL, drive, 1e4, 11)
        clean = g2_trace(DELAYS, MOL, drive)
        rate = SpectrumTrace(clean.grid, clean.values * 1e4, freq_kind="delay_ns",
                             value_kind="counts_per_s")
        counts = simulate_counts(rate, DetectorParams(dark_rate=0.0, integration_time=1.0), 11)
        plateau = float(np.mean(counts.values[-80:]))
        assert np.array_equal(got.grid, DELAYS)
        assert np.array_equal(got.values, counts.values / plateau)
        assert got.meta["seed"] == 11 and got.meta["generator"] == "noisy_g2_trace"
        assert got.to_csv() == G2Trace(got.grid.copy(), got.values.copy(),
                                       dict(got.meta)).to_csv()

    def test_seed_must_be_an_integer(self):
        for bad in (1.9, True):
            with pytest.raises(ValueError, match="seed must be an integer"):
                noisy_g2_trace(DELAYS, MOL, DriveParams(rabi=50.0), 1e4, bad)


class TestNoiselessMemo:
    """Repeated draws reuse the noiseless model; each draw stays the bits of
    a draw from an empty memo."""

    @pytest.fixture(autouse=True)
    def empty_memo(self):
        synth._memo.clear()
        yield
        synth._memo.clear()

    @staticmethod
    def _cold(draw):
        synth._memo.clear()
        return draw()

    def test_same_draw_twice_is_byte_identical_and_evaluates_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(synth, "extinction_spectrum",
                            lambda *a: calls.append(a) or extinction_spectrum(*a))
        first = noisy_extinction_trace(MODEL, GRID, 127550.0, DET, 3)
        second = noisy_extinction_trace(MODEL, GRID, 127550.0, DET, 3)
        assert len(calls) == 1
        assert second.to_csv() == first.to_csv() and second.to_json() == first.to_json()
        assert second.grid is GRID
        g2_draw = lambda: noisy_g2_trace(DELAYS, MOL, DriveParams(rabi=50.0), 1e4, 3)  # noqa: E731
        hit = (g2_draw(), g2_draw())
        assert hit[0].to_csv() == hit[1].to_csv() == self._cold(g2_draw).to_csv()

    def test_caller_arrays_mutated_after_a_draw_change_no_later_draw(self):
        grid, delays = GRID.copy(), DELAYS.copy()
        drive = DriveParams(rabi=50.0)
        first = noisy_extinction_trace(MODEL, grid, 127550.0, DET, 4).to_csv()
        g2_first = noisy_g2_trace(delays, MOL, drive, 1e4, 4).to_csv()
        grid *= 2.0
        delays[1:] += 1.0
        again = noisy_extinction_trace(MODEL, GRID.copy(), 127550.0, DET, 4)
        assert again.to_csv() == first
        assert noisy_g2_trace(DELAYS.copy(), MOL, drive, 1e4, 4).to_csv() == g2_first
        # the mutated arrays are other keys: their draws are cold draws
        moved = noisy_extinction_trace(MODEL, grid, 127550.0, DET, 4)
        assert moved.grid is grid
        assert moved.to_csv() == self._cold(
            lambda: noisy_extinction_trace(MODEL, grid.copy(), 127550.0, DET, 4)).to_csv()
        for values in synth._memo.values():
            assert not values.flags.writeable

    def test_a_rejected_grid_of_the_same_bytes_is_another_key(self):
        drive = DriveParams(rabi=50.0)
        for draw in (lambda d: noisy_g2_trace(d, MOL, drive, 1e4, 5),
                     lambda d: noisy_extinction_trace(MODEL, d, 127550.0, DET, 5)):
            with pytest.raises(ValueError, match="1-D"):
                draw(np.linspace(0.0, 400.0, 400).reshape(2, 200))
            flat = draw(np.linspace(0.0, 400.0, 400))
            assert flat.to_csv() == self._cold(
                lambda: draw(np.linspace(0.0, 400.0, 400))).to_csv()

    def test_signed_zero_psi_keeps_its_own_meta(self):
        for first, second in ((-0.0, 0.0), (0.0, -0.0)):
            synth._memo.clear()
            traces = [noisy_extinction_trace(
                ExtinctionModel(A=0.05, B=0.1, psi=psi, mol=MOL, drive=DriveParams(rabi=5.0)),
                GRID, 127550.0, DET, 6) for psi in (first, second)]
            assert len(synth._memo) == 1   # equal models: the second draw hits
            for psi, tr in zip((first, second), traces):
                assert math.copysign(1.0, tr.meta["psi"]) == math.copysign(1.0, psi)
                assert f'"psi": {psi!r}' in tr.to_csv()

    def test_drives_differing_only_in_rabi_draw_differently(self):
        a = noisy_g2_trace(DELAYS, MOL, DriveParams(rabi=50.0), 1e4, 8)
        b = noisy_g2_trace(DELAYS, MOL, DriveParams(rabi=60.0), 1e4, 8)
        assert not np.array_equal(a.values, b.values)
        assert (a.meta["rabi"], b.meta["rabi"]) == (50.0, 60.0)
        assert b.to_csv() == self._cold(
            lambda: noisy_g2_trace(DELAYS, MOL, DriveParams(rabi=60.0), 1e4, 8)).to_csv()

    def test_rejected_grid_leaves_no_entry(self):
        # g2 evaluates on any 1-D delays: the trace check must come first
        with pytest.raises(ValueError, match="grid must be strictly increasing"):
            noisy_g2_trace([0.0, 5.0, 3.0], MOL, DriveParams(rabi=50.0), 1e4, 1)
        assert synth._memo == {}

    def test_dark_plateau_is_rejected_before_the_draw(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("counts drawn for a plateau without coincidences")

        monkeypatch.setattr(synth, "simulate_counts", no_draw)
        for delays, plateau in (([0.0], 1e4), (DELAYS, 0.0)):
            for _ in range(2):   # a memo miss, then a hit
                with pytest.raises(ValueError, match="plateau region has no coincidences"):
                    noisy_g2_trace(delays, MOL, DriveParams(rabi=50.0), plateau, 1)

    def test_a_hit_rejects_what_a_miss_rejects(self):
        drive = DriveParams(rabi=50.0)
        bad_draws = {
            "unsorted delays": lambda: noisy_g2_trace([0.0, 5.0, 3.0], MOL, drive, 1e4, 1),
            "2-D delays": lambda: noisy_g2_trace(DELAYS[:400].reshape(2, 200), MOL, drive,
                                                 1e4, 1),
            "nan coincidences": lambda: noisy_g2_trace(DELAYS, MOL, drive, math.nan, 1),
            "negative coincidences": lambda: noisy_g2_trace(DELAYS, MOL, drive, -1.0, 1),
            "float seed": lambda: noisy_g2_trace(DELAYS, MOL, drive, 1e4, 1.5),
            "reversed grid": lambda: noisy_extinction_trace(MODEL, GRID[::-1], 127550.0,
                                                            DET, 1),
            "non-finite grid": lambda: noisy_extinction_trace(
                MODEL, np.append(GRID, math.nan), 127550.0, DET, 1),
            "zero incident rate": lambda: noisy_extinction_trace(MODEL, GRID, 0.0, DET, 1),
            "seed out of range": lambda: noisy_extinction_trace(MODEL, GRID, 127550.0, DET, -1),
        }

        def rejection(draw):
            with pytest.raises(ValueError) as info:
                draw()
            return type(info.value), str(info.value)

        cold = {name: self._cold(lambda: rejection(draw)) for name, draw in bad_draws.items()}
        synth._memo.clear()
        # the valid draws on these models and grids: every later draw that
        # can reach the memo is a hit
        noisy_g2_trace(DELAYS, MOL, drive, 1e4, 0)
        noisy_extinction_trace(MODEL, GRID, 127550.0, DET, 0)
        entries = list(synth._memo.items())
        assert len(entries) == 2
        for name, draw in bad_draws.items():
            assert rejection(draw) == cold[name], name
        assert [(k, id(v)) for k, v in synth._memo.items()] == [(k, id(v)) for k, v in entries]

    def test_memo_stays_within_its_bound(self):
        models = [ExtinctionModel(A=0.05, B=0.1, psi=0.1 * k, mol=MOL, drive=DriveParams(rabi=5.0))
                  for k in range(synth.MEMO_SIZE + 3)]
        draws = [noisy_extinction_trace(m, GRID, 127550.0, DET, 9).to_csv() for m in models]
        assert len(synth._memo) == synth.MEMO_SIZE
        # the oldest models were dropped and come back as cold draws
        again = [noisy_extinction_trace(m, GRID, 127550.0, DET, 9).to_csv() for m in models]
        assert again == draws
        assert len(synth._memo) == synth.MEMO_SIZE
