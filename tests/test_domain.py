"""The physical domain (physics.LINEWIDTH_MHZ, RABI_MHZ, COUNT_RATE, the
detector's ranges and the INI schema's): at each of its corners the models
stay inside the float range and every Poisson mean below numpy's ceiling,
and every config drawn from it runs each simulate command, reproduce fig2
and fig5 to exit 0 or to a documented exit 2, never to exit 3 and never
with a warning."""

import contextlib
import io
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from resfluor.cli import (_MIN_SIGNAL_COUNTS, SIMULATIONS, _extinction_model, _mollow_grid,
                          main)
from resfluor.config import ConfigError, load_config
from resfluor.correlation import g2
from resfluor.measurement import DetectorParams, simulate_counts
from resfluor.physics import (
    COUNT_RATE,
    INTEGRATION_S,
    LINEWIDTH_MHZ,
    QUANTUM_EFFICIENCY,
    RABI_MHZ,
    TWO_PI,
    DriveParams,
    MoleculeParams,
    bloch_rates,
    rabi_for_saturation,
    saturation_parameter,
)
from resfluor.spectra import FpcParams, SpectrumTrace, extinction_spectrum, lorentzian_profile, \
    mollow_spectrum
from resfluor.synth import noisy_extinction_trace, noisy_g2_trace

LO, HI = LINEWIDTH_MHZ
# (gamma0, gamma) corners, gamma >= gamma0
MOLECULES = [(LO, LO), (LO, HI), (HI, HI)]
# (fsr, fwhm) corners, fwhm < fsr
CAVITIES = [(2.0 * LO, LO), (HI, LO), (HI, 0.5 * HI)]
FIG5_S = (0.05, 0.5, 2.0, 8.0, 20.0, 60.0, 150.0)
_POWER = (1e-12, 1e12)
# S = power_pw / p_sat_pw at the corners of [0, 1e12] pW, p_sat_pw >= 1e-12
POWER_S = (0.0, 1e-24, 1.0, 1e24)
# laser and emission detunings (MHz): 0, the smallest float and up to the
# simulate grid's bound, both signs
_POSITIVE = np.concatenate(([5e-324], np.geomspace(1e-300, HI, 31)))
DETUNINGS = np.concatenate((-_POSITIVE[::-1], [0.0], _POSITIVE))
# g2 delays (ns) up to tau_max_ns's bound
DELAYS = np.concatenate(([0.0], np.geomspace(1e-9, 1e12, 22)))


def _drives(mol):
    """The domain's Rabi corners, fig5's drives and every power corner that
    sets a Rabi frequency inside the domain; a power corner that sets one
    outside it is the documented ConfigError."""
    rabis = list(RABI_MHZ) + [rabi_for_saturation(mol, s) for s in FIG5_S]
    for s in POWER_S:
        rabi = rabi_for_saturation(mol, s)
        assert math.isfinite(rabi)
        if rabi <= RABI_MHZ[1]:
            rabis.append(rabi)
            continue
        with pytest.raises(ConfigError, match=r"^\[drive\] power_pw = .* is outside the "
                                              r"domain \[0, 1e\+12\]$"):
            load_config(overrides={
                "molecule": {"gamma0": repr(mol.gamma0), "gamma": repr(mol.gamma)},
                "drive": {"power_pw": repr(s * 1e-12), "p_sat_pw": "1e-12"}})
    return [DriveParams(rabi=rabi) for rabi in rabis]


@pytest.mark.parametrize("gammas", MOLECULES, ids=["lo-lo", "lo-hi", "hi-hi"])
def test_every_corner_stays_in_the_float_range(gammas):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _check_corners(MoleculeParams(*gammas))


def _check_corners(mol):
    rates = bloch_rates(mol.gamma0, mol.gamma)
    assert all(math.isfinite(v) for v in rates) and math.isfinite(1e3 / rates.a)
    for drive in _drives(mol):
        s = saturation_parameter(mol, drive)
        assert math.isfinite(s) and math.isfinite((1.0 + s) ** 2)
        assert np.isfinite(lorentzian_profile(DETUNINGS, mol, drive.rabi)).all()
        assert np.isfinite(g2(DELAYS, mol, drive)).all()
        assert np.isfinite(mollow_spectrum(mol, drive, DETUNINGS).values).all()
        for fsr, fwhm in CAVITIES:
            try:
                grid = _mollow_grid(FpcParams(fsr, fwhm), drive.rabi, mol.gamma)
            except ConfigError as exc:
                assert str(exc).startswith("Mollow emission grid of ")
                continue
            assert np.isfinite(mollow_spectrum(mol, drive, grid, 1e15).values).all()


# numpy's Generator.poisson rejects a mean above this, ~9.22e18
POISSON_CEILING = np.iinfo(np.int64).max - 10.0 * math.sqrt(np.iinfo(np.int64).max)


def _g2_delays(mol, rabi):
    """10 001 delays (ns) over 40 times the shorter of the damping time and
    the Rabi period over 2 pi: g2's peaks lie in them."""
    rates = bloch_rates(mol.gamma0, mol.gamma)
    return np.linspace(0.0, 40.0 * 1e3 / max(rates.a, TWO_PI * rabi), 10001)


def test_every_poisson_mean_stays_below_the_sampler_ceiling():
    rate, dark = COUNT_RATE[1], COUNT_RATE[1]
    det = DetectorParams(dark, QUANTUM_EFFICIENCY[1], INTEGRATION_S[1])
    # extinction: the CLI passes a noiseless transmission up to 4, which the
    # model reaches at extinction_a = 1, extinction_b_dip = 2 and psi = -90 deg
    mol = MoleculeParams(16.4, 17.0)
    model = _extinction_model(mol, DriveParams(rabi=0.0, psi=-math.pi / 2), 1.0, 2.0)
    grid = np.array([-10.0, 0.0, 10.0])
    transmission = extinction_spectrum(model, grid).values.max()
    assert transmission == 4.0
    # g2: plateau_coincidences times the largest g2 at any corner, counted
    # without dark counts in unit time
    corners = [(MoleculeParams(*gammas), DriveParams(rabi=float(rabi))) for gammas in MOLECULES
               for rabi in (*RABI_MHZ, *np.geomspace(1e-12, RABI_MHZ[1], 25))]
    peaks = [g2(_g2_delays(m, d.rabi), m, d).max() for m, d in corners]
    peak = max(peaks)
    assert peak <= 2.0
    means = {"extinction": (rate * transmission * det.quantum_efficiency + dark)
             * det.integration_time,
             "counts": (rate * det.quantum_efficiency + dark) * det.integration_time,
             "g2": COUNT_RATE[1] * peak}
    assert all(mean < POISSON_CEILING for mean in means.values()), means
    # a noisy transmission divides by at least _MIN_SIGNAL_COUNTS
    assert means["extinction"] / _MIN_SIGNAL_COUNTS < 1e25

    # and each path draws at its largest mean, without a warning
    m_peak, d_peak = corners[peaks.index(peak)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traces = [noisy_extinction_trace(model, grid, rate, det, 1),
                  simulate_counts(SpectrumTrace(grid, np.full(3, rate), "pixel_index",
                                                "counts_per_s"), det, 1),
                  noisy_g2_trace(_g2_delays(m_peak, d_peak.rabi), m_peak, d_peak,
                                 COUNT_RATE[1], 1)]
        floor = DetectorParams(dark, QUANTUM_EFFICIENCY[0], INTEGRATION_S[1])
        traces.append(noisy_extinction_trace(
            model, grid, _MIN_SIGNAL_COUNTS / (QUANTUM_EFFICIENCY[0] * INTEGRATION_S[1]),
            floor, 1))
    assert all(np.isfinite(tr.values).all() for tr in traces)


# the exit-2 messages a config drawn from the domain may end in (README,
# exit codes): gamma below gamma0, fwhm not below fsr, a power whose Rabi
# frequency leaves the domain, an empty grid or power range, a Mollow grid
# past its point bound, a noiseless transmission outside [0, 4], fewer
# expected signal counts per pixel than a noisy transmission is normalized
# by, noise for a simulation that draws no counts, and a noisy g2 window
# whose plateau draws no coincidence
DOCUMENTED_EXIT_2 = (
    "[molecule]: gamma (", "[fpc]: need fwhm < fsr", "[drive] power_pw = ",
    "[simulate] grid_min (", "[simulate] power_min_pw (", "Mollow emission grid of ",
    "[simulate] extinction_b_dip = ", "[drive] incident_rate = ",
    "[simulate] noise = true: simulate ", "[simulate] tau_points = ",
)


def _in(bounds, *corners):
    """Floats of the closed range bounds = (lo, hi), log-uniform over its
    positive part when lo > 0, and its corners."""
    lo, hi = bounds
    inner = (st.floats(math.log10(lo), math.log10(hi)).map(lambda e: min(max(10.0 ** e, lo), hi))
             if lo > 0 else st.floats(lo, hi))
    return st.one_of(st.sampled_from((lo, hi) + corners), inner)


def _clip(value, bounds=LINEWIDTH_MHZ):
    return min(max(value, bounds[0]), bounds[1])


def _pair(values, bounds):
    """Pairs of values: an equal pair becomes (x, the far end of bounds), so
    no draw breaks an ordering check."""
    lo, hi = bounds
    return st.tuples(values, values).map(
        lambda t: t if t[0] != t[1] else (t[0], lo if t[0] == hi else hi))


# each value drawn from its own range: most Mollow grids then exceed their
# point bound, so a second kind of draw scales gamma0, gamma, the drive and
# the cavity from one linewidth u (gamma up to 10 u, Omega up to 50 u, fwhm
# from u to 100 u, fsr up to 100 fwhm), each clipped to its range
_FREE = st.tuples(_in(LINEWIDTH_MHZ), _in(LINEWIDTH_MHZ), _in(RABI_MHZ, 25.0),
                  _pair(_in(LINEWIDTH_MHZ), LINEWIDTH_MHZ)).map(lambda f: f[:3] + f[3])
_SCALED = st.tuples(_in(LINEWIDTH_MHZ), _in((1.0, 10.0)), _in((1e-3, 50.0), 0.0),
                    _in((1.0, 1e2)), _in((1.01, 1e2))).map(
    lambda f: (f[0], _clip(f[0] * f[1]), _clip(f[0] * f[2], RABI_MHZ),
               _clip(f[0] * f[3] * f[4]), _clip(f[0] * f[3])))
# ANGLE_RAD in degrees, rounded inwards: radians() of the exact bound
# lands one ulp outside it
_PSI_DEG = (-5.7295779e7, 5.7295779e7)
# counts per second: 0, then log-uniform from 1e-300 to COUNT_RATE's bound
_RATE = _in((1e-300, COUNT_RATE[1]), 0.0)
_CONFIGS = st.fixed_dictionaries({
    "emitter_and_cavity": st.one_of(_FREE, _SCALED),
    "power": st.one_of(st.none(), st.tuples(_in(_POWER, 0.0), _in((1e-12, 1e12), 350.0))),
    "psi_deg": _in(_PSI_DEG, 90.0, -90.0, 30.0, 0.0),
    "incident_rate": _RATE,
    "detector": st.tuples(_RATE, _in(QUANTUM_EFFICIENCY), _in(INTEGRATION_S, 0.16)),
    "grid": _pair(_in((-HI, HI), 0.0), (-HI, HI)),
    "extinction": st.tuples(_in((0.0, 1.0)), _in((0.0, 2.0), 0.115)),
    "emission_scale": _in((1e-15, 1e15), 0.0),
    "laser_background_rate": _RATE,
    "tau_max_ns": _in((1e-9, 1e12)),
    "plateau_coincidences": _in((1e-9, COUNT_RATE[1]), 1e4),
    "powers": _pair(_in(_POWER), _POWER),
    "noise": st.sampled_from([False, False, True]),
})


def _ini(c) -> str:
    """INI text of a draw: gamma is raised to gamma0, fwhm is the smaller of
    the two cavity widths and the grid and power ranges are sorted."""
    gamma0, gamma, rabi, fsr, fwhm = c["emitter_and_cavity"]
    (g_lo, g_hi), (p_lo, p_hi) = sorted(c["grid"]), sorted(c["powers"])
    drive = (f"rabi = {rabi!r}" if c["power"] is None
             else "power_pw = {!r}\np_sat_pw = {!r}".format(*c["power"]))
    dark, qe, t = c["detector"]
    a, b_dip = c["extinction"]
    return (f"[molecule]\ngamma0 = {gamma0!r}\ngamma = {max(gamma, gamma0)!r}\n"
            f"[drive]\n{drive}\npsi_deg = {c['psi_deg']!r}\n"
            f"incident_rate = {c['incident_rate']!r}\n"
            f"[detector]\ndark_rate = {dark!r}\nquantum_efficiency = {qe!r}\n"
            f"integration_time = {t!r}\n"
            f"[fpc]\nfsr = {max(fsr, fwhm)!r}\nfwhm = {min(fsr, fwhm)!r}\n"
            f"[simulate]\ngrid_min = {g_lo!r}\ngrid_max = {g_hi!r}\npoints = 61\n"
            f"extinction_a = {a!r}\nextinction_b_dip = {b_dip!r}\n"
            f"emission_scale = {c['emission_scale']!r}\n"
            f"laser_background_rate = {c['laser_background_rate']!r}\n"
            f"tau_max_ns = {c['tau_max_ns']!r}\ntau_points = 161\n"
            f"plateau_coincidences = {c['plateau_coincidences']!r}\n"
            f"power_min_pw = {p_lo!r}\npower_max_pw = {p_hi!r}\n"
            f"power_points = 15\nnoise = {str(c['noise']).lower()}\n")


@given(c=_CONFIGS)
def test_configs_from_the_domain_exit_0_or_a_documented_2(c):
    with tempfile.TemporaryDirectory() as root:
        cfg = os.path.join(root, "run.ini")
        with open(cfg, "w") as fh:
            fh.write(_ini(c))
        runs = [["simulate", name] for name in SIMULATIONS] + [["reproduce", "fig2"],
                                                               ["reproduce", "fig5"]]
        for k, argv in enumerate(runs):
            out = os.path.join(root, f"out{k}")
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(argv + ["--config", cfg, "--out", out])
            if code == 2:
                assert err.getvalue().startswith(
                    tuple(f"error: {m}" for m in DOCUMENTED_EXIT_2)), (argv, err.getvalue())
                assert not os.path.exists(out)
            else:
                assert code == 0, (argv, err.getvalue())
                assert os.listdir(out)
