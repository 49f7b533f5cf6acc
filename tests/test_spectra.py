import json
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import bloch_stationary_mp, fpc_convolve_dense, mollow_ode, mollow_resolvent_mp
from resfluor.cli import _MOLLOW_GRID_MAX_POINTS, _mollow_grid
from resfluor.physics import (
    DriveParams,
    MoleculeParams,
    incoherent_emission_rate,
    rabi_for_saturation,
    saturation_parameter,
)
from resfluor.spectra import (
    ExtinctionModel,
    FpcParams,
    SpectrumTrace,
    convolve_instrument,
    extinction_spectrum,
    fpc_transmission,
    lorentzian_profile,
    mollow_spectrum,
)

MOL = MoleculeParams(gamma0=16.4, gamma=17.0, lambda21=590.0)
LIFETIME_LIMITED = MoleculeParams(gamma0=16.4, gamma=16.4, lambda21=590.0)
FPC = FpcParams(fsr=356.0, fwhm=14.0, peak_transmission=0.15)


def _trace(n=11):
    return SpectrumTrace(np.linspace(-50, 50, n), np.ones(n),
                         freq_kind="detuning_MHz", value_kind="transmission",
                         meta={"tag": 7})


class TestSpectrumTrace:
    def test_validation(self):
        with pytest.raises(ValueError):
            SpectrumTrace(np.array([0.0, 0.0, 1.0]), np.zeros(3),
                          freq_kind="detuning_MHz", value_kind="x")
        with pytest.raises(ValueError):
            SpectrumTrace(np.array([0.0, 1.0]), np.array([1.0, np.nan]),
                          freq_kind="detuning_MHz", value_kind="x")

    @pytest.mark.parametrize("grid,values,message", [
        ([1.0, 0.0, 2.0], [0.0, math.nan, 0.0], "grid must be strictly increasing"),
        ([[0.0, 1.0]], [math.nan, 0.0], "grid and values must be 1-D arrays"),
        ([1.0, 0.0], [[0.0, 1.0]], "grid and values must be 1-D arrays"),
        ([1.0, 0.0], [math.nan], r"grid \(2\) and values \(1\) length mismatch"),
        ([0.0, math.inf], [0.0, 1.0], "grid and values must be finite"),
        ([0.0, 1.0], [math.inf, 1.0], "grid and values must be finite"),
    ], ids=["order-then-nan", "2d-grid", "2d-values", "length", "inf-grid", "inf-values"])
    def test_first_failing_check_is_reported(self, grid, values, message):
        # the checks run in one order: shapes, lengths, grid order, finiteness
        with pytest.raises(ValueError, match=f"^{message}$"):
            SpectrumTrace(np.array(grid), np.array(values))

    def test_json_round_trip_bit_exact(self):
        tr = _trace()
        tr.values[3] = 1.0 / 3.0
        back = json.loads(tr.to_json())
        assert np.array_equal(np.array(back["grid"]), tr.grid)
        assert np.array_equal(np.array(back["values"]), tr.values)
        assert back["freq_kind"] == tr.freq_kind
        assert back["meta"] == tr.meta

    def test_csv_round_trip_bit_exact(self):
        tr = _trace()
        tr.values[2] = math.pi * 1e-7
        back = SpectrumTrace.from_csv(tr.to_csv())
        assert np.array_equal(back.grid, tr.grid)
        assert np.array_equal(back.values, tr.values)
        assert back.meta == tr.meta

    def test_require_same_units(self):
        a, b = _trace(), _trace()
        a.require_same_units(b)
        c = SpectrumTrace(a.grid, a.values, freq_kind="power_pW", value_kind="transmission")
        with pytest.raises(ValueError):
            a.require_same_units(c)


class TestLineShapes:
    def test_lorentzian_fwhm_power_broadening(self):
        for s in (0.0, 0.5, 4.0):
            rabi = rabi_for_saturation(MOL, s) if s else 0.0
            fwhm = MOL.gamma * math.sqrt(1.0 + s)
            half = lorentzian_profile(fwhm / 2.0, MOL, rabi)
            peak = lorentzian_profile(0.0, MOL, rabi)
            assert half == pytest.approx(peak / 2.0, rel=1e-12)

    def test_extinction_spectrum_pure_dip(self):
        drive = DriveParams(rabi=0.0, psi=math.pi / 2.0)
        l0 = 4.0 / MOL.gamma**2
        model = ExtinctionModel(A=0.0, B=0.2 / (l0 * MOL.gamma / 2.0),
                                psi=math.pi / 2.0, mol=MOL, drive=drive)
        grid = np.linspace(-120, 120, 241)
        tr = extinction_spectrum(model, grid)
        # symmetric dip of depth 0.2 at line center
        assert tr.values.min() == pytest.approx(0.8, rel=1e-12)
        assert np.allclose(tr.values, tr.values[::-1], rtol=0, atol=1e-14)

    def test_extinction_spectrum_dispersive(self):
        drive = DriveParams(rabi=0.0, psi=0.0)
        model = ExtinctionModel(A=0.0, B=0.01, psi=0.0, mol=MOL, drive=drive)
        grid = np.linspace(-120, 120, 241)
        v = extinction_spectrum(model, grid).values
        # odd around the baseline: dip on one side, peak on the other
        assert np.allclose(v - 1.0, -(v[::-1] - 1.0), rtol=0, atol=1e-15)
        assert v[grid > 0].min() < 1.0 < v[grid < 0].max()

    def test_model_validation(self):
        with pytest.raises(ValueError):
            ExtinctionModel(A=-0.1, B=0.0, psi=0.0, mol=MOL, drive=DriveParams(rabi=0.0))


class TestSteadyState:
    def test_against_closed_forms(self):
        for mol in (MOL, LIFETIME_LIMITED):
            for s in (0.05, 1.0, 30.0):
                rabi = rabi_for_saturation(mol, s)
                ree, sm = bloch_stationary_mp(mol.gamma0, mol.gamma, rabi)
                assert ree == pytest.approx(0.5 * s / (1 + s), rel=1e-10)
                # |<s->|^2 = (S Gamma1 / 4 Gamma2) / (1+S)^2
                g1 = 2 * math.pi * mol.gamma0
                g2 = math.pi * mol.gamma
                assert abs(sm) ** 2 == pytest.approx(
                    s * g1 / (4 * g2) / (1 + s) ** 2, rel=1e-10)


class TestMollow:
    def test_even_bitwise_on_symmetric_grid(self):
        drive = DriveParams(rabi=80.0)
        grid = np.linspace(-300, 300, 601)
        v = mollow_spectrum(MOL, drive, grid).values
        assert np.array_equal(v, v[::-1])

    def test_integral_is_incoherent_rate(self):
        s = 6.0
        rabi = rabi_for_saturation(LIFETIME_LIMITED, s)
        drive = DriveParams(rabi=rabi)
        half = 60.0 * rabi
        grid = np.linspace(-half, half, 40001)
        v = mollow_spectrum(LIFETIME_LIMITED, drive, grid).values
        area = np.trapezoid(v, grid)
        assert area == pytest.approx(incoherent_emission_rate(s), rel=1e-3)

    @pytest.mark.parametrize("mol,rabi,half", [
        (MOL, 60.0, 180.0),
        # exceptional point Omega = gamma0/4: the Liouvillian is defective
        (LIFETIME_LIMITED, LIFETIME_LIMITED.gamma0 / 4.0, 120.0),
    ], ids=["dephased", "exceptional-point"])
    def test_matches_ode_oracle_with_dephasing(self, mol, rabi, half):
        grid = np.linspace(-half, half, 25)
        v = mollow_spectrum(mol, DriveParams(rabi=rabi), grid).values
        orc = mollow_ode(grid, mol.gamma0, mol.gamma, rabi)
        assert np.max(np.abs(v - orc)) / np.max(np.abs(orc)) < 2e-10

    @pytest.mark.parametrize("mol,rabi", [
        (LIFETIME_LIMITED, LIFETIME_LIMITED.gamma0 / 4.0),
        (LIFETIME_LIMITED, 1e-4),
        (MOL, 25.0),
        (MOL, 300.0),
        (MoleculeParams(gamma0=16.4, gamma=400.0), 10.0),
    ], ids=["exceptional-point", "faint-lifetime-limited", "criterion-25", "criterion-300",
            "dephased-400"])
    def test_matches_liouvillian_oracle_to_100_ghz(self, mol, rabi):
        # the 4x4 Liouvillian's Faddeev-LeVerrier expansion was 1.5e-7 off at
        # 100 GHz at the exceptional point; for the faint drive it was 77%
        # off at 10 GHz and 77 times the density at 100 GHz
        grid = np.concatenate(([0.0], np.geomspace(1e-2, 1e5, 36)))
        v = mollow_spectrum(mol, DriveParams(rabi=rabi), grid).values
        want = mollow_resolvent_mp(grid, mol.gamma0, mol.gamma, rabi)
        assert np.max(np.abs(v - want) / want) <= 1e-12

    @pytest.mark.parametrize("gamma0,gamma,rabi,freqs", [
        (16.4, 17.0, 25.0, [1e10, 1e100, 1e150]),
        (16.4, 16.4, 4.1, [1e10, 1e40, 1e70]),
        (1e-9, 2e-9, 1e-9, [0.5, 1e3, 1e9]),
        (1e-9, 1e-9, 1e-9, [0.5, 1e3, 1e9]),
    ], ids=["dephased", "lifetime-limited", "tiny-dephased", "tiny-lifetime-limited"])
    def test_far_tail(self, gamma0, gamma, rabi, freqs):
        # at omega >= 1e8 r, r = Gamma_1 + Gamma_2 + w, the density is its
        # leading tail to 1e-16: 2 gphi w^2 / (c omega^2), or
        # Gamma_1 w^4 / (c omega^4) without dephasing (c = Gamma_1 Gamma_2 + w^2).
        # Evaluated in x = (omega / r)^2 alone it used to read 0 once x^3
        # overflowed, and nan once x did
        with mpmath.workdps(40):
            g1, g2 = 2 * mpmath.pi * mpmath.mpf(gamma0), mpmath.pi * mpmath.mpf(gamma)
            gphi = mpmath.pi * (mpmath.mpf(gamma) - mpmath.mpf(gamma0))
            w = 2 * mpmath.pi * mpmath.mpf(rabi)
            c = g1 * g2 + w * w
            omega = [2 * mpmath.pi * mpmath.mpf(f) for f in freqs]
            want = np.array([float(2 * gphi * w * w / (c * om * om) if gphi
                                   else g1 * w ** 4 / (c * om ** 4)) for om in omega])
        v = mollow_spectrum(MoleculeParams(gamma0, gamma), DriveParams(rabi),
                            np.array(freqs)).values
        assert (want >= np.finfo(float).tiny).all()   # normal floats
        assert np.max(np.abs(v - want) / want) <= 1e-12

    def test_rates_below_the_domain_are_a_value_error(self):
        # the far tail was once pinned at rates of 1e-160 MHz; no emitter
        # has them, and the smallest linewidth of the domain reaches the
        # tail at |nu| < 1 MHz (test_far_tail)
        with pytest.raises(ValueError, match=r"^gamma0 = 1e-160 is outside the domain "
                                             r"\[1e-09, 1e\+09\]$"):
            MoleculeParams(1e-160, 1e-160)

    @given(log_gamma0=st.floats(-3.0, 3.0), log_dephasing=st.floats(-6.0, 6.0),
           lifetime_limited=st.booleans(), log_drive=st.floats(-4.0, 2.0),
           freqs=st.lists(st.floats(0.0, 1e5, exclude_min=True), min_size=1, max_size=8,
                          unique=True))
    def test_nonnegative_and_bitwise_even(self, log_gamma0, log_dephasing, lifetime_limited,
                                          log_drive, freqs):
        # gamma0 from 1e-3 to 1e3 MHz, gamma/gamma0 - 1 from 0 to 1e6,
        # Omega from 1e-4 to 1e2 x gamma0/4, |nu| up to 100 GHz
        gamma0 = 10.0 ** log_gamma0
        gamma = gamma0 * (1.0 + (0.0 if lifetime_limited else 10.0 ** log_dephasing))
        rabi = gamma0 / 4.0 * 10.0 ** log_drive
        nu = np.sort(freqs)
        grid = np.concatenate((-nu[::-1], [0.0], nu))
        v = mollow_spectrum(MoleculeParams(gamma0, gamma), DriveParams(rabi), grid).values
        assert (v >= 0.0).all()
        assert np.array_equal(v, v[::-1])

    def test_sidebands_at_rabi(self):
        rabi = 200.0
        grid = np.linspace(-2 * rabi, 2 * rabi, 4001)
        v = mollow_spectrum(LIFETIME_LIMITED, DriveParams(rabi=rabi), grid).values
        pos = grid[grid > rabi / 2]
        vp = v[grid > rabi / 2]
        assert pos[np.argmax(vp)] == pytest.approx(rabi, rel=0.01)

    def test_emission_scale_is_linear(self):
        grid = np.linspace(-100, 100, 51)
        v1 = mollow_spectrum(MOL, DriveParams(rabi=30.0), grid).values
        v2 = mollow_spectrum(MOL, DriveParams(rabi=30.0), grid, emission_scale=250.0).values
        assert np.allclose(v2, 250.0 * v1, rtol=1e-14)


class TestFpc:
    def test_peak_and_periodicity(self):
        assert fpc_transmission(0.0, FPC) == pytest.approx(0.15, rel=1e-14)
        nu = np.linspace(-400, 400, 801)
        a = fpc_transmission(nu, FPC)
        b = fpc_transmission(nu + FPC.fsr, FPC)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_half_maximum_at_fwhm(self):
        assert fpc_transmission(FPC.fwhm / 2.0, FPC) == pytest.approx(0.075, rel=1e-12)
        assert fpc_transmission(-FPC.fwhm / 2.0, FPC) == pytest.approx(0.075, rel=1e-12)

    def test_area_per_fsr_closed_form(self):
        # one period of T_pk / (1 + F sin^2(pi nu / FSR)) integrates to
        # T_pk FSR / sqrt(1 + F)
        nu = np.linspace(-FPC.fsr / 2, FPC.fsr / 2, 200001)
        num = np.trapezoid(fpc_transmission(nu, FPC), nu)
        want = FPC.peak_transmission * FPC.fsr / math.sqrt(1.0 + FPC.finesse_coefficient)
        assert num == pytest.approx(want, rel=1e-8)

    def test_validation(self):
        with pytest.raises(ValueError):
            FpcParams(fsr=10.0, fwhm=20.0)
        with pytest.raises(ValueError):
            FpcParams(fsr=356.0, fwhm=14.0, peak_transmission=1.5)


class TestConvolution:
    def test_conserves_area_per_fsr(self):
        # a narrow emission line integrates, after the instrument, to
        # (line area) * (airy area per FSR) / FSR per scan period
        grid = np.arange(-400.0, 400.0 + 1e-9, 1.0)
        sigma = 3.0  # negligible tails outside the window
        line = np.exp(-grid**2 / (2 * sigma**2)) / (sigma * math.sqrt(2 * math.pi))
        em = SpectrumTrace(grid, line, freq_kind="emission_detuning_MHz",
                           value_kind="spectral_density_per_MHz")
        det = convolve_instrument(em, FPC)
        sel = np.abs(det.grid) <= FPC.fsr / 2.0
        got = np.trapezoid(det.values[sel], det.grid[sel])
        nu = np.linspace(-FPC.fsr / 2, FPC.fsr / 2, 200001)
        want = 1.0 * np.trapezoid(fpc_transmission(nu, FPC), nu)
        assert got == pytest.approx(want, rel=2e-3)

    def test_delta_components_are_scaled_airy(self):
        grid = np.arange(-400.0, 400.0 + 1e-9, 1.0)
        em = SpectrumTrace(grid, np.zeros_like(grid),
                           freq_kind="emission_detuning_MHz",
                           value_kind="spectral_density_per_MHz")
        det = convolve_instrument(em, FPC, laser_background_rate=50.0,
                                  coherent_delta_weight=30.0)
        assert np.allclose(det.values, 80.0 * fpc_transmission(grid, FPC), rtol=1e-14)

    @pytest.mark.parametrize("s", [0.05, 0.5, 2.0, 8.0, 20.0, 60.0, 150.0])
    def test_matches_dense_oracle_on_fig5_panels(self, s):
        drive = DriveParams(rabi=rabi_for_saturation(MOL, s))
        em = mollow_spectrum(MOL, drive, _mollow_grid(FPC, drive.rabi, MOL.gamma),
                             emission_scale=1000.0)
        want = fpc_convolve_dense(em.grid, em.values, FPC.fsr, FPC.fwhm,
                                  FPC.peak_transmission)
        got = convolve_instrument(em, FPC).values
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("shape", ["gaussian", "random"])
    def test_matches_dense_oracle_on_unit_grid(self, shape):
        grid = np.arange(-400.0, 400.0 + 1e-9, 1.0)
        if shape == "gaussian":
            values = np.exp(-grid**2 / 18.0)
        else:
            values = np.random.default_rng(3).uniform(0.0, 1.0, grid.size)
        em = SpectrumTrace(grid, values, freq_kind="emission_detuning_MHz",
                           value_kind="spectral_density_per_MHz")
        want = fpc_convolve_dense(grid, values, FPC.fsr, FPC.fwhm, FPC.peak_transmission)
        got = convolve_instrument(em, FPC).values
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_rejects_unevenly_spaced_grid(self):
        grid = np.arange(-400.0, 400.0 + 1e-9, 1.0)
        grid[300] += 0.1   # still increasing and finely sampled
        em = SpectrumTrace(grid, np.ones_like(grid), freq_kind="emission_detuning_MHz",
                           value_kind="spectral_density_per_MHz")
        with pytest.raises(ValueError, match="evenly spaced"):
            convolve_instrument(em, FPC)

    def test_memory_is_linear_in_grid_size(self):
        # at the CLI's largest grid an N x N kernel would take N^2 * 8 B
        # (~537 MB); the Toeplitz row keeps the peak to a few N-vectors
        n = _MOLLOW_GRID_MAX_POINTS
        grid = np.linspace(-n * FPC.fwhm / 16.0, n * FPC.fwhm / 16.0, n)
        em = SpectrumTrace(grid, np.exp(-grid**2 / 800.0),
                           freq_kind="emission_detuning_MHz",
                           value_kind="spectral_density_per_MHz")
        tracemalloc.start()
        try:
            det = convolve_instrument(em, FPC, laser_background_rate=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert det.values.size == n
        assert peak < 64 * n * 8

    def test_rejects_undersampled_or_short_grid(self):
        coarse = np.arange(-400.0, 400.0 + 1e-9, 10.0)   # > fwhm/4
        em = SpectrumTrace(coarse, np.zeros_like(coarse),
                           freq_kind="emission_detuning_MHz",
                           value_kind="spectral_density_per_MHz")
        with pytest.raises(ValueError):
            convolve_instrument(em, FPC)
        short = np.arange(-100.0, 100.0 + 1e-9, 1.0)     # < one FSR
        em2 = SpectrumTrace(short, np.zeros_like(short),
                            freq_kind="emission_detuning_MHz",
                            value_kind="spectral_density_per_MHz")
        with pytest.raises(ValueError):
            convolve_instrument(em2, FPC)
