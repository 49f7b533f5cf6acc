"""Acceptance gate.

One test per numbered criterion; each prints a single PASS line with the
measured figure of merit (visible with `pytest -s`, and implied by the
test outcome under `pytest -v`).  Monte Carlo criteria use fixed seeds.
"""

import json
import math
import os

from fractions import Fraction

import numpy as np
import pytest

from oracles import g2_ode, mollow_ode
from resfluor.cli import main
from resfluor.correlation import fit_rabi_from_g2, g2, g2_trace
from resfluor.estimation import (
    extinction_fit_model,
    fit_extinction,
    fit_saturation_curves,
)
from resfluor.measurement import (
    DetectorParams,
    interference_dip_rate,
    simulate_counts,
    snr_of_detection,
)
from resfluor.physics import (
    DriveParams,
    MoleculeParams,
    coherent_emission_rate,
    incoherent_emission_rate,
    linewidth_from_lifetime,
    normalize_phase,
    rabi_for_saturation,
    total_emission_rate,
)
from resfluor.polarization import (
    SeparationGeometry,
    separate_components,
    transform_extinction_triple,
)
from resfluor.spectra import (
    ExtinctionModel,
    FpcParams,
    SpectrumTrace,
    extinction_spectrum,
    fpc_transmission,
    mollow_spectrum,
)
from resfluor.synth import noisy_extinction_trace, noisy_g2_trace

MOL = MoleculeParams(gamma0=16.4, gamma=17.0, lambda21=590.0,
                     alpha_dw=0.25, alpha_fc=0.3)
LIFETIME_LIMITED = MoleculeParams(gamma0=16.4, gamma=16.4, lambda21=590.0)
GEO = SeparationGeometry()


def test_criterion_01_coherent_total_split():
    s = np.geomspace(1e-3, 1e3, 1201)
    coh = np.array([coherent_emission_rate(x) for x in s])
    inc = np.array([incoherent_emission_rate(x) for x in s])
    tot = np.array([total_emission_rate(x) for x in s])
    gap = np.max(np.abs(coh + inc - tot) / tot)
    assert gap < 1e-14
    assert coherent_emission_rate(1.0) == 0.25

    # peak location certified in exact rational arithmetic: the float peak
    # is quadratically flat, so double-precision optimization can only
    # localize it to ~sqrt(eps); exact fractions resolve 1e-9 analytically
    def coh_exact(x):
        return x / (1 + x) ** 2

    eps = Fraction(1, 10**9)
    one = Fraction(1)
    assert coh_exact(one) == Fraction(1, 4)
    assert coh_exact(one - eps) < Fraction(1, 4)
    assert coh_exact(one + eps) < Fraction(1, 4)
    # unimodality on either side of the 1e-9 bracket
    below = [one - Fraction(k, 1000) for k in range(999, 0, -100)] + [one - eps]
    above = [one + eps] + [one + Fraction(k, 1000) for k in range(100, 1100, 200)]
    assert all(coh_exact(a) < coh_exact(b) for a, b in zip(below, below[1:]))
    assert all(coh_exact(a) > coh_exact(b) for a, b in zip(above, above[1:]))
    # and the package function agrees with the exact evaluation
    for x in (0.125, 1.0, 8.0):
        assert coherent_emission_rate(x) == pytest.approx(
            float(coh_exact(Fraction(x))), rel=1e-15)
    print(f"criterion 1 PASS: coherent+incoherent=total to {gap:.2e}; "
          f"coherent peak 0.25 at S=1 (exact-arithmetic bracket 1e-9)")


def test_criterion_02_power_broadening():
    worst = 0.0
    for mol in (MOL, LIFETIME_LIMITED):
        for s in (0.1, 1.0, 10.0):
            rabi = rabi_for_saturation(mol, s)
            model = ExtinctionModel(A=1.0, B=0.0, psi=0.0, mol=mol,
                                    drive=DriveParams(rabi=rabi))
            span = 6.0 * mol.gamma * math.sqrt(1 + s)
            tr = extinction_spectrum(model, np.linspace(-span, span, 601))
            res = fit_extinction(tr, fixed=("B", "psi"), init={"B": 0.0, "psi": 0.0})
            want = mol.gamma * math.sqrt(1.0 + s)
            worst = max(worst, abs(res.params["gamma"] - want) / want)
    assert worst < 1e-3
    # lifetime-limited line at S = 1 broadens to sqrt(2) * gamma0
    rabi = rabi_for_saturation(LIFETIME_LIMITED, 1.0)
    model = ExtinctionModel(A=1.0, B=0.0, psi=0.0, mol=LIFETIME_LIMITED,
                            drive=DriveParams(rabi=rabi))
    tr = extinction_spectrum(model, np.linspace(-150, 150, 601))
    res = fit_extinction(tr, fixed=("B", "psi"), init={"B": 0.0, "psi": 0.0})
    assert res.params["gamma"] == pytest.approx(math.sqrt(2.0) * 16.4, rel=1e-3)
    print(f"criterion 2 PASS: fitted FWHM = gamma*sqrt(1+S) "
          f"(worst rel dev {worst:.2e}); S=1 width sqrt(2)*16.4 MHz")


def test_criterion_03_lifetime_consistency():
    g0 = linewidth_from_lifetime(9.7)
    assert g0 == pytest.approx(16.4, abs=0.05)
    for measured in (17.0, 20.0):
        assert abs(g0 - measured) / measured < 0.25
    print(f"criterion 3 PASS: 9.7 ns -> {g0:.2f} MHz, within 25% of the "
          f"17-20 MHz measured band")


def test_criterion_04_net_dip_arithmetic():
    l0 = 4.0 / MOL.gamma**2
    model = ExtinctionModel(A=0.08 / l0,
                            B=0.30 / (l0 * MOL.gamma / 2.0),
                            psi=math.pi / 2.0, mol=MOL,
                            drive=DriveParams(rabi=0.0, psi=math.pi / 2.0))
    tr = extinction_spectrum(model, np.array([0.0]))
    dip = 1.0 - tr.values[0]
    assert abs(dip - 0.22) < 1e-12
    print(f"criterion 4 PASS: 8% fluorescence peak + 30% interference dip "
          f"-> net dip {dip:.15f}")


def test_criterion_05_mollow_oracle():
    worst = 0.0
    for ratio in (0.5, 2.0, 10.0, 30.0):
        rabi = ratio * LIFETIME_LIMITED.gamma
        grid = np.linspace(-2.0 * rabi - 8.0 * LIFETIME_LIMITED.gamma,
                           2.0 * rabi + 8.0 * LIFETIME_LIMITED.gamma, 41)
        v = mollow_spectrum(LIFETIME_LIMITED, DriveParams(rabi=rabi), grid).values
        orc = mollow_ode(grid, LIFETIME_LIMITED.gamma0, LIFETIME_LIMITED.gamma, rabi)
        worst = max(worst, float(np.max(np.abs(v - orc)) / np.max(np.abs(orc))))
    assert worst < 1e-6
    # sideband maxima at +-Omega for strong drive
    for ratio in (10.0, 30.0):
        rabi = ratio * LIFETIME_LIMITED.gamma
        grid = np.linspace(-1.8 * rabi, 1.8 * rabi, 8001)
        v = mollow_spectrum(LIFETIME_LIMITED, DriveParams(rabi=rabi), grid).values
        sel = grid > 0.5 * rabi
        peak = grid[sel][np.argmax(v[sel])]
        assert abs(peak - rabi) / rabi < 0.01
        neg = grid < -0.5 * rabi
        assert abs(grid[neg][np.argmax(v[neg])] + rabi) / rabi < 0.01
    print(f"criterion 5 PASS: spectrum vs quantum-regression ODE, worst rel "
          f"dev {worst:.2e}; sidebands at +-Omega within 1%")


def test_criterion_06_g2_oracle_and_fit():
    tau = np.linspace(0.5, 400.0, 200)
    worst = 0.0
    for rabi in (5.0, 25.0, 60.0, 120.0):
        a = g2(tau, MOL, DriveParams(rabi=rabi))
        b = g2_ode(tau, MOL.gamma0, MOL.gamma, rabi)
        worst = max(worst, float(np.max(np.abs(a - b))))
    assert worst < 1e-8
    assert g2(0.0, MOL, DriveParams(rabi=60.0)) == 0.0

    delays = np.linspace(0.0, 400.0, 801)
    res = fit_rabi_from_g2(g2_trace(delays, MOL, DriveParams(rabi=50.0)), MOL)
    noiseless_dev = abs(res.params["rabi"] - 50.0) / 50.0
    assert noiseless_dev < 1e-3

    ok = 0
    trials = 200
    for seed in range(trials):
        tr = noisy_g2_trace(delays, MOL, DriveParams(rabi=50.0), 1e4, seed)
        r = fit_rabi_from_g2(tr, MOL)
        ok += r.converged and abs(r.params["rabi"] - 50.0) / 50.0 < 0.05
    assert ok >= 0.95 * trials
    print(f"criterion 6 PASS: g2 vs ODE {worst:.2e} abs; g2(0)=0; noiseless "
          f"round trip {noiseless_dev:.2e}; noisy {ok}/{trials} within 5%")


def test_criterion_07_fpc():
    fpc = FpcParams(fsr=356.0, fwhm=14.0, peak_transmission=0.15)
    assert fpc_transmission(0.0, fpc) == pytest.approx(0.15, rel=1e-14)
    nu = np.linspace(-500.0, 500.0, 2001)
    period_gap = float(np.max(np.abs(fpc_transmission(nu, fpc)
                                     - fpc_transmission(nu + 356.0, fpc))))
    assert period_gap < 1e-12
    grid = np.arange(-30.0, 30.0 + 1e-9, 0.05)
    t = fpc_transmission(grid, fpc)
    above = grid[t >= 0.075]
    fwhm = above[-1] - above[0]
    assert abs(fwhm - 14.0) <= 2 * 0.05
    print(f"criterion 7 PASS: peak 0.15, FSR periodicity gap {period_gap:.2e}, "
          f"FWHM {fwhm:.2f} MHz on a 0.05 MHz grid")


def test_criterion_08_photon_budget():
    incident, coherent = 550.0, 1.1
    dip = interference_dip_rate(incident, coherent)
    assert dip == pytest.approx(49.2, abs=0.05)
    assert abs(dip - 50.0) / 50.0 < 0.05
    det = DetectorParams(dark_rate=150.0, integration_time=4.0)
    snr = snr_of_detection(dip, incident, det, 4.0)
    assert snr == pytest.approx(3.8, abs=0.15)

    # Monte Carlo verification: 500 seeded spectra, per-pixel SNR measured
    # as (mean fitted dip rate * t) / (empirical std of the on-resonance
    # pixel counts across trials)
    l0 = 4.0 / MOL.gamma**2
    model = ExtinctionModel(A=0.0, B=(dip / incident) / (l0 * MOL.gamma / 2.0),
                            psi=math.pi / 2.0, mol=MOL,
                            drive=DriveParams(rabi=0.0, psi=math.pi / 2.0))
    grid = np.linspace(-100.0, 100.0, 81)
    clean = extinction_spectrum(model, grid)
    rate = SpectrumTrace(grid, clean.values * incident,
                         freq_kind="detuning_MHz", value_kind="counts_per_s")
    ic = int(np.argmin(np.abs(grid)))
    dips, center_counts = [], []
    for seed in range(500):
        counts = simulate_counts(rate, det, seed).values
        y = (counts / det.integration_time - det.dark_rate) / incident
        tr = SpectrumTrace(grid, y, freq_kind="detuning_MHz",
                           value_kind="transmission")
        r = fit_extinction(
            tr, fixed=("A", "psi", "baseline", "center", "gamma"),
            init={"A": 0.0, "psi": math.pi / 2.0, "baseline": 1.0,
                  "center": 0.0, "gamma": MOL.gamma})
        d = 1.0 - extinction_fit_model(np.array([0.0]), MOL.gamma, 0.0,
                                       r.params["B"], math.pi / 2.0, 0.0, 1.0)[0]
        dips.append(d * incident)
        center_counts.append(counts[ic])
    snr_mc = float(np.mean(dips)) * det.integration_time / float(np.std(center_counts))
    assert abs(snr_mc - snr) / snr < 0.20
    print(f"criterion 8 PASS: dip {dip:.1f} cps (published 50, {abs(dip-50)/50:.1%} off); "
          f"SNR computed {snr:.2f}, Monte Carlo {snr_mc:.2f}")


def test_criterion_09_shot_noise_regime():
    l0 = 4.0 / MOL.gamma**2
    model = ExtinctionModel(A=0.0, B=0.115 / (l0 * MOL.gamma / 2.0),
                            psi=math.pi / 2.0, mol=MOL,
                            drive=DriveParams(rabi=0.0, psi=math.pi / 2.0))
    grid = np.linspace(-100.0, 100.0, 801)
    det = DetectorParams(dark_rate=0.0, integration_time=0.16)
    incident = 127550.0  # ~20 kcounts per pixel -> 0.7% shot noise
    ok = 0
    trials = 200
    for seed in range(trials):
        tr = noisy_extinction_trace(model, grid, incident, det, seed)
        r = fit_extinction(tr, fixed=("A", "psi", "baseline"),
                           init={"A": 0.0, "psi": math.pi / 2.0, "baseline": 1.0})
        c = r.params["center"]
        dip = 1.0 - extinction_fit_model(
            np.array([c]), r.params["gamma"], 0.0, r.params["B"],
            math.pi / 2.0, c, 1.0)[0]
        ok += (abs(dip - 0.115) <= 0.007
               and abs(r.params["gamma"] - MOL.gamma) / MOL.gamma <= 0.05)
    assert ok >= 0.95 * trials
    print(f"criterion 9 PASS: dip 11.5% +- 0.7% and gamma within 5% in "
          f"{ok}/{trials} trials at 0.7% shot noise")


def test_criterion_10_component_separation():
    a0, b0, psi0 = 10.76, 3.48, math.pi / 2.0
    angles = [math.radians(x) for x in (0.0, 36.0, 72.0, 108.0, 144.0)]
    grid = np.linspace(-140.0, 140.0, 201)
    det = DetectorParams(dark_rate=0.0, integration_time=0.16)
    drive = DriveParams(rabi=0.0)

    # Jones-level brute force: field propagation through the chain must
    # reproduce the transformed-triple spectrum identically
    e_l = GEO.laser_vector()
    d = np.array([math.sin(GEO.dipole_angle), math.cos(GEO.dipole_angle)],
                 dtype=complex)
    lor = 1.0 / (grid**2 + MOL.gamma**2 / 4.0)
    chi = -(grid - 1j * MOL.gamma / 2.0) * lor
    s_amp = 0.5 * b0 * np.exp(1j * psi0)   # B0 = 2|s|, psi0 = arg(s)
    jones_gap = 0.0
    for th in angles:
        u = GEO.chain(th)
        u_l, u_d = u @ e_l, u @ d
        brute = (np.abs(u_l[0] + u_d[0] * s_amp * chi) ** 2
                 + np.abs(u_l[1] + u_d[1] * s_amp * chi) ** 2) \
            / np.vdot(u_l, u_l).real
        ap, bp, pp = transform_extinction_triple(
            GEO.chain(th), e_l, GEO.dipole_angle, abs(s_amp) ** 2, b0, psi0)
        model = ExtinctionModel(A=ap, B=bp, psi=pp, mol=MOL, drive=drive)
        tr = extinction_spectrum(model, grid)
        jones_gap = max(jones_gap, float(np.max(np.abs(brute - tr.values))))
    assert jones_gap < 1e-10

    ok = 0
    trials = 200
    for trial in range(trials):
        series = []
        for i, th in enumerate(angles):
            ap, bp, pp = transform_extinction_triple(
                GEO.chain(th), e_l, GEO.dipole_angle, a0, b0, psi0)
            model = ExtinctionModel(A=ap, B=bp, psi=pp, mol=MOL, drive=drive)
            series.append((th, noisy_extinction_trace(
                model, grid, 127550.0, det, 1000 * trial + i)))
        r = separate_components(series, GEO)
        assert r.status != "rank_deficient", f"trial {trial}: {r.status}"
        ok += (r.converged
               and abs(r.params["A0"] - a0) / a0 < 0.03
               and abs(r.params["B0"] - b0) / b0 < 0.03
               and abs(normalize_phase(r.params["psi0"] - psi0)) < math.radians(2.0))
    assert ok >= 0.95 * trials
    print(f"criterion 10 PASS: Jones brute force gap {jones_gap:.2e}; "
          f"5-angle recovery {ok}/{trials} within (2 deg, 3%, 3%)")


def test_criterion_11_saturation_sweep():
    p_sat = 350.0
    powers = np.geomspace(5.0, 1e4, 41)
    s = powers / p_sat
    rng = np.random.default_rng(2024)
    coh = (s / (1 + s) ** 2) * (1.0 + rng.normal(0, 0.02, s.size))
    tot = (s / (1 + s)) * (1.0 + rng.normal(0, 0.02, s.size))
    res = fit_saturation_curves(powers, coh, tot)
    assert res.converged
    dev = abs(res.params["p_sat"] - p_sat) / p_sat
    assert dev < 0.03
    print(f"criterion 11 PASS: joint two-channel fit recovers P_sat = "
          f"{res.params['p_sat']:.1f} pW ({dev:.2%} from 350 pW)")


def test_criterion_12_determinism_across_threads(tmp_path):
    ini = tmp_path / "noisy.ini"
    ini.write_text("[simulate]\nnoise = true\n")
    pairs = []
    for sub in ("extinction", "g2", "counts"):
        outs = []
        for nthreads in ("1", "8"):
            out = str(tmp_path / f"{sub}_{nthreads}")
            code = main(["simulate", sub, "--config", str(ini), "--seed", "21",
                         "--threads", nthreads, "--out", out])
            assert code == 0
            outs.append(out)
        for name in os.listdir(outs[0]):
            b1 = open(os.path.join(outs[0], name), "rb").read()
            b8 = open(os.path.join(outs[1], name), "rb").read()
            assert b1 == b8, f"{sub}/{name} differs between thread counts"
            pairs.append(f"{sub}/{name}")
    assert pairs
    print(f"criterion 12 PASS: {len(pairs)} stochastic outputs bit-identical "
          f"for --threads 1 vs 8")
