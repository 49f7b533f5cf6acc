import json
import math
import os
import warnings

import numpy as np
import pytest

from resfluor import estimation
from resfluor.cli import main
from resfluor.correlation import G2Trace
from resfluor.spectra import SpectrumTrace


def _read(path):
    with open(path) as fh:
        return SpectrumTrace.from_csv(fh.read())


def _ini(tmp_path, text, name="run.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _fig4_with_values(tmp_path, values):
    """Reproduce fig4 into tmp_path, replace each trace's values by
    values(trace, index) and return the manifest path."""
    assert main(["reproduce", "fig4", "--out", str(tmp_path)]) == 0
    fig = tmp_path / "fig4"
    for i, entry in enumerate(json.loads((fig / "manifest.json").read_text())["series"]):
        path = fig / entry["file"]
        trace = SpectrumTrace.from_csv(path.read_text())
        trace.values = values(trace, i)
        path.write_text(trace.to_csv())
    return str(fig / "manifest.json")


class TestSimulate:
    def test_extinction_noiseless(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["simulate", "extinction", "--out", out]) == 0
        tr = _read(os.path.join(out, "extinction.csv"))
        assert tr.values.min() == pytest.approx(1.0 - 0.115, rel=1e-9)
        assert "dip depth" in capsys.readouterr().out
        assert os.path.exists(os.path.join(out, "extinction.json"))

    def test_extinction_noisy_seed_determinism(self, tmp_path):
        cfg = _ini(tmp_path, "[simulate]\nnoise = true\n")
        out1, out2, out3 = (str(tmp_path / d) for d in ("o1", "o2", "o3"))
        for out in (out1, out2):
            assert main(["simulate", "extinction", "--config", cfg,
                         "--seed", "5", "--out", out]) == 0
        assert main(["simulate", "extinction", "--config", cfg,
                     "--seed", "6", "--out", out3]) == 0
        b1 = open(os.path.join(out1, "extinction.csv"), "rb").read()
        b2 = open(os.path.join(out2, "extinction.csv"), "rb").read()
        b3 = open(os.path.join(out3, "extinction.csv"), "rb").read()
        assert b1 == b2
        assert b1 != b3

    def test_mollow_outputs(self, tmp_path):
        cfg = _ini(tmp_path, "[drive]\nrabi = 100.0\n")
        out = str(tmp_path / "out")
        assert main(["simulate", "mollow", "--config", cfg, "--out", out]) == 0
        em = _read(os.path.join(out, "mollow_emission.csv"))
        det = _read(os.path.join(out, "mollow_detected.csv"))
        # emission grid covers one FSR and resolves the instrument
        assert em.grid[-1] - em.grid[0] >= 356.0
        assert np.max(np.diff(em.grid)) <= 14.0 / 4.0
        assert det.value_kind == "counts_per_s"
        # sidebands near +-rabi in the raw emission
        pos = em.grid > 50.0
        assert em.grid[pos][np.argmax(em.values[pos])] == pytest.approx(100.0, rel=0.05)

    def test_oversized_mollow_grid_is_exit_2(self, tmp_path, capsys):
        # the emission grid grows with rabi: rabi = 1e6 MHz would need ~2.3
        # million points in the CSV and ~5e12 multiply-adds in the convolution
        cfg = _ini(tmp_path, "[drive]\nrabi = 1e6\n")
        assert main(["simulate", "mollow", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "[drive] rabi = 1e+06 MHz" in err and "[fpc] fsr = 356" in err
        assert not os.path.exists(tmp_path / "out")

    def test_g2_trace(self, tmp_path):
        cfg = _ini(tmp_path, "[drive]\nrabi = 60.0\n")
        out = str(tmp_path / "out")
        assert main(["simulate", "g2", "--config", cfg, "--out", out]) == 0
        with open(os.path.join(out, "g2.csv")) as fh:
            tr = G2Trace.from_csv(fh.read())
        assert tr.values[0] == 0.0
        assert tr.values[-1] == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("argv", [["simulate", "counts"], ["reproduce", "fig3"]])
    def test_out_naming_a_file_is_exit_2(self, tmp_path, capsys, argv):
        # used to end in a FileExistsError / NotADirectoryError traceback
        out = tmp_path / "taken"
        out.write_text("a file\n")
        assert main([*argv, "--out", str(out)]) == 2
        assert f"cannot write {out}" in capsys.readouterr().err
        assert out.read_text() == "a file\n"

    def test_counts_threads_bit_identical(self, tmp_path):
        out1, out8 = str(tmp_path / "t1"), str(tmp_path / "t8")
        args = ["simulate", "counts", "--seed", "3"]
        assert main(args + ["--threads", "1", "--out", out1]) == 0
        assert main(args + ["--threads", "8", "--out", out8]) == 0
        assert open(os.path.join(out1, "counts.csv"), "rb").read() == \
            open(os.path.join(out8, "counts.csv"), "rb").read()

    def test_bad_threads_rejected(self, tmp_path):
        assert main(["simulate", "counts", "--threads", "0",
                     "--out", str(tmp_path)]) == 2
        assert main(["simulate", "counts", "--threads", "-3",
                     "--out", str(tmp_path)]) == 2
        cfg = _ini(tmp_path, "[run]\nthreads = -3\n")
        assert main(["simulate", "counts", "--config", cfg,
                     "--out", str(tmp_path)]) == 2

    def test_seed_outside_64_bits_rejected(self, tmp_path):
        for seed in (-1, 1 << 64):
            assert main(["simulate", "counts", "--seed", str(seed),
                         "--out", str(tmp_path / "bad")]) == 2
        assert not os.path.exists(tmp_path / "bad")
        assert main(["simulate", "counts", "--seed", str((1 << 64) - 1),
                     "--out", str(tmp_path / "top")]) == 0


    @pytest.mark.parametrize("text", [
        "[drive]\np_sat_pw = -1", "[drive]\npower_pw = -5",
        "[geometry]\npolarizer_extinction_ratio = -0.5",
        "[geometry]\npolarizer_extinction_ratio = nan",
        "[geometry]\npolarizer_extinction_ratio = 2",
    ])
    def test_bad_drive_and_geometry_values_are_exit_2(self, tmp_path, capsys, text):
        cfg = _ini(tmp_path, text + "\n")
        assert main(["simulate", "extinction", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
        assert text.split("\n")[0] in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("command,text", [
        ("extinction", "[molecule]\ngamma = 1e400"),
        ("extinction", "[molecule]\ngamma0 = inf"),
        ("g2", "[drive]\nrabi = nan"),
        ("g2", "[simulate]\ntau_max_ns = -1e999"),
        ("extinction", "[geometry]\nqwp_angles_deg = 0, 36, inf"),
        ("extinction", "[geometry]\nqwp_angles_deg = 0, nan, 72"),
    ])
    def test_non_finite_values_are_exit_2(self, tmp_path, capsys, command, text):
        # inf, nan and literals that overflow a double are configuration
        # errors, not numeric ones (exit 3) or silent runs
        cfg = _ini(tmp_path, text + "\n")
        assert main(["simulate", command, "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert text.split("\n")[1].split(" =")[0] in err and "not a finite number" in err
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("command,text", [
        ("extinction", "points = 0"),
        ("counts", "points = 0"),
        ("g2", "tau_points = -5"),
        ("saturation-sweep", "power_points = 0"),
        ("extinction", "grid_min = 10\ngrid_max = -10"),
        ("extinction", "grid_min = 5\ngrid_max = 5"),
        ("g2", "tau_max_ns = -10"),
        ("g2", "tau_max_ns = 0"),
        ("saturation-sweep", "power_min_pw = 0"),
        ("saturation-sweep", "power_min_pw = 2e4"),
        ("g2", "plateau_coincidences = -5\nnoise = true"),
        ("extinction", "extinction_a = -0.1"),
        ("extinction", "extinction_b_dip = -0.1"),
        ("saturation-sweep", "emission_scale = -1"),
        ("mollow", "laser_background_rate = -1"),
        ("extinction", "extinction_b_dip = 1.5"),
        ("extinction", "extinction_b_dip = 1.5\nnoise = true"),
    ])
    def test_out_of_range_simulate_values_are_exit_2(self, tmp_path, capsys, command, text):
        # sample counts >= 1, grid_min < grid_max, tau_max_ns > 0,
        # 0 < power_min_pw < power_max_pw, plateau_coincidences > 0,
        # amplitudes, scale and background >= 0 and a noiseless transmission
        # >= 0 (a dip above 1 used to exit 0, or 3 in the sampler with noise)
        cfg = _ini(tmp_path, "[simulate]\n" + text + "\n")
        assert main(["simulate", command, "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
        assert "[simulate] " + text.split(" =")[0] in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("text,complaint", [
        ("tau_max_ns = 1e-6", "[simulate] tau_points = 801, tau_max_ns = 1e-06, "
                              "plateau_coincidences = 10000: plateau region has no "
                              "coincidences; trace unusable"),
        ("plateau_coincidences = 1e300",
         "[simulate] plateau_coincidences: 1e+300 is outside the domain [1e-09, 1e+15]"),
    ], ids=["window-before-the-plateau", "too-many-coincidences"])
    def test_noisy_g2_without_a_drawable_plateau_is_exit_2(self, tmp_path, capsys, text,
                                                            complaint):
        # a window that ends long before the plateau draws no coincidence to
        # normalize by, and the sampler cannot draw 1e300 per bin: both
        # exited 3 with only the sampler's message
        cfg = _ini(tmp_path, f"[simulate]\nnoise = true\n{text}\n")
        out = tmp_path / "out"
        assert main(["simulate", "g2", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {complaint}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["simulate", "extinction"], ["reproduce", "fig2"]])
    def test_zero_incident_rate_with_noise_is_exit_2(self, tmp_path, capsys, argv):
        # a noisy transmission divides by the incident rate: at 0 it used to
        # warn twice (divide by zero) and exit 3 on non-finite values
        cfg = _ini(tmp_path, "[drive]\nincident_rate = 0\n[simulate]\nnoise = true\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [drive] incident_rate = 0 with quantum_efficiency = 1 "
                              "and integration_time = ") \
            and err.endswith(" s expects 0 signal counts per pixel; a noisy extinction trace "
                             "divides by them and needs >= 1e-06\n")
        assert not out.exists()

    @pytest.mark.parametrize("command,text,complaint", [
        ("counts", "[detector]\nintegration_time = 1e300",
         "[detector]: integration_time = 1e+300 is outside the domain [1e-09, 1000]"),
        ("extinction", "[drive]\nincident_rate = 1e-300\n[detector]\ndark_rate = 1e15\n"
                       "integration_time = 1e-9\nquantum_efficiency = 1e-6\n"
                       "[simulate]\nnoise = true",
         "[drive] incident_rate = 1e-300 with quantum_efficiency = 1e-06 and "
         "integration_time = 1e-09 s expects 1e-315 signal counts per pixel; a noisy "
         "extinction trace divides by them and needs >= 1e-06"),
        *[("extinction", "[molecule]\ngamma0 = 1e-9\ngamma = 1e-9\n[drive]\nrabi = 1e12\n"
                         "psi_deg = 30\n[simulate]\nextinction_b_dip = 0.5\n"
                         f"grid_min = -1e9\ngrid_max = -1e3\nnoise = {noise}",
           "[simulate] extinction_b_dip = 0.5 with extinction_a = 0 at [drive] rabi = 1e+12 "
           "MHz, psi = 30 deg: the noiseless transmission on the grid spans [8.66e+11, "
           "8.66e+17], outside [0, 4]") for noise in ("false", "true")],
    ], ids=["counts-integration-time", "normalization-floor", "strong-drive-dispersive-wing",
            "strong-drive-dispersive-wing-noisy"])
    def test_detector_and_transmission_outside_the_domain_are_exit_2(
            self, tmp_path, capsys, command, text, complaint):
        # the first exited 3 in the sampler (lam value too large), the second
        # leaked an overflow RuntimeWarning and exited 3, and the last two
        # exited 0 with transmissions of 8.7e11 to 8.7e17, or 3 in the sampler
        cfg = _ini(tmp_path, text + "\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", command, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {complaint}\n"
        assert not out.exists()

    @pytest.mark.parametrize("points, code", [(1, 2), (2, 0)])
    def test_noisy_g2_needs_two_delays(self, tmp_path, capsys, points, code):
        # one delay is tau = 0, where g2 = 0: no seed draws a plateau, and
        # this used to exit 3 after drawing
        cfg = _ini(tmp_path, f"[simulate]\nnoise = true\ntau_points = {points}\n")
        out = tmp_path / "out"
        assert main(["simulate", "g2", "--config", cfg, "--out", str(out)]) == code
        assert ("[simulate] tau_points" in capsys.readouterr().err) == (code == 2)
        assert out.exists() == (code == 0)

    @pytest.mark.parametrize("command,stem", [
        ("extinction", "extinction"), ("g2", "g2"), ("counts", "counts"),
        ("mollow", None), ("saturation-sweep", None)])
    def test_noise_true_draws_noise_or_is_exit_2(self, tmp_path, capsys, command, stem):
        # mollow and saturation-sweep draw no counts: with noise = true they
        # used to exit 0 with files identical to the noiseless run
        noisy, clean = (_ini(tmp_path, f"[simulate]\nnoise = {v}\n", f"{v}.ini")
                        for v in ("true", "false"))
        if stem is None:
            out = tmp_path / "out"
            assert main(["simulate", command, "--config", noisy, "--out", str(out)]) == 2
            assert "[simulate] noise" in capsys.readouterr().err
            assert not out.exists()
            return
        text = {}
        runs = {"noisy1": (noisy, 1), "noisy2": (noisy, 2), "clean1": (clean, 1)}
        for name, (cfg, seed) in runs.items():
            out = tmp_path / name
            assert main(["simulate", command, "--config", cfg, "--seed", str(seed),
                         "--out", str(out)]) == 0
            text[name] = (out / (stem + ".csv")).read_text()
        assert text["noisy1"] != text["noisy2"]
        # counts are always drawn: the key changes nothing there
        assert (text["noisy1"] == text["clean1"]) == (command == "counts")

    def test_smallest_simulate_values_run(self, tmp_path):
        cfg = _ini(tmp_path, "[simulate]\npoints = 1\ntau_points = 1\npower_points = 1\n"
                             "grid_min = -1e-9\ngrid_max = 0\ntau_max_ns = 1e-9\n"
                             "power_min_pw = 1e-9\npower_max_pw = 2e-9\n"
                             "plateau_coincidences = 1e-9\nextinction_a = 0\n"
                             "extinction_b_dip = 0\nemission_scale = 0\n"
                             "laser_background_rate = 0\n")
        for command in ("extinction", "counts", "g2", "saturation-sweep", "mollow"):
            assert main(["simulate", command, "--config", cfg,
                         "--out", str(tmp_path / "out")]) == 0, command

    @pytest.mark.parametrize("noise", ["false", "true"])
    def test_deep_dispersive_dip_runs(self, tmp_path, noise):
        # at psi = 30 deg a dip fraction of 0.9 gives a deepest dip of
        # 0.9 * (1 + sin psi) / 2 = 0.675, off resonance: still >= 0
        cfg = _ini(tmp_path, f"[drive]\npsi_deg = 30\n[simulate]\nextinction_b_dip = 0.9\n"
                             f"noise = {noise}\n")
        out = tmp_path / "out"
        assert main(["simulate", "extinction", "--config", cfg, "--out", str(out)]) == 0
        if noise == "false":
            tr = _read(str(out / "extinction.csv"))
            assert 1.0 - tr.values.min() == pytest.approx(0.675, abs=1e-3)

    @pytest.mark.parametrize("command,text,complaint", [
        ("extinction", "[simulate]\ngrid_min = -1e300\ngrid_max = 1e300",
         "[simulate] grid_min: -1e+300 is outside the domain [-1e+09, 1e+09]"),
        ("extinction", "[simulate]\ngrid_min = -1e300\ngrid_max = 1e300\nnoise = true",
         "[simulate] grid_min: -1e+300 is outside the domain [-1e+09, 1e+09]"),
        ("saturation-sweep", "[simulate]\npower_min_pw = 1e-300\npower_max_pw = 1e300",
         "[simulate] power_max_pw: 1e+300 is outside the domain [0, 1e+12]"),
        ("saturation-sweep", "[drive]\np_sat_pw = 1e-300\n[simulate]\npower_max_pw = 1e300",
         "[drive] p_sat_pw: 1e-300 is outside the domain [1e-12, 1e+12]"),
        ("saturation-sweep", "[simulate]\npower_max_pw = 1e300\nemission_scale = 1e12",
         "[simulate] power_max_pw: 1e+300 is outside the domain [0, 1e+12]"),
        ("mollow", "[simulate]\nemission_scale = 1e308",
         "[simulate] emission_scale: 1e+308 is outside the domain [0, 1e+15]"),
        ("mollow", "[fpc]\nfsr = 1e300\nfwhm = 1e299",
         "[fpc]: fsr = 1e+300 is outside the domain [1e-09, 1e+09]"),
    ], ids=["extinction", "extinction-noisy", "saturation-sweep", "saturation-sweep-S-inf",
            "saturation-sweep-scale-S-inf", "mollow-scale", "mollow-fpc"])
    def test_values_near_the_float_range_end_without_a_warning(self, tmp_path, capsys,
                                                                command, text, complaint):
        # each used to leak an overflow or invalid-value RuntimeWarning, and
        # then ended at a float-range guard of its own (exit 0 with the
        # factors' limits, or exit 3); each is a value no emitter, drive or
        # cavity has, so the config names it and its domain
        cfg = _ini(tmp_path, text + "\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", command, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {complaint}\n"
        assert not out.exists()

    def test_linewidths_near_the_float_range_floor_are_exit_2(self, tmp_path, capsys):
        # the emission grid was ~1e162 linewidths wide, and the undriven
        # density 0 was written; such linewidths are outside the domain
        cfg = _ini(tmp_path, "[molecule]\ngamma0 = 1e-160\ngamma = 1e-160\n")
        out = tmp_path / "out"
        assert main(["simulate", "mollow", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            "error: [molecule]: gamma0 = 1e-160 is outside the domain [1e-09, 1e+09]\n"
        assert not out.exists()

    @pytest.mark.parametrize("text,complaint", [
        ("[molecule]\ngamma = 1e300", "[molecule]: gamma = 1e+300 is outside the domain "
                                      "[1e-09, 1e+09]"),
        ("[drive]\nrabi = 1e200", "[drive]: rabi = 1e+200 is outside the domain [0, 1e+12]"),
        ("[molecule]\ngamma0 = 1e-300\ngamma = 1e-300", "[molecule]: gamma0 = 1e-300 is "
                                                        "outside the domain [1e-09, 1e+09]"),
    ], ids=["gamma-overflow", "rabi-overflow", "gamma-underflow"])
    def test_saturation_parameter_outside_the_float_range_is_exit_2(self, tmp_path, capsys,
                                                                     text, complaint):
        # these exited 3 printing only Python's float message, such as
        # "(34, 'Numerical result out of range')" or "float division by zero",
        # then 2 from simulate alone; the config is rejected as it loads, so
        # analyze, which derives no saturation parameter, rejects it too
        cfg = _ini(tmp_path, text + "\n")
        out = tmp_path / "out"
        assert main(["simulate", "extinction", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {complaint}\n"
        trace = tmp_path / "trace"
        assert main(["simulate", "extinction", "--out", str(trace)]) == 0
        capsys.readouterr()
        assert main(["analyze", "fit-spectrum", str(trace / "extinction.csv"),
                     "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {complaint}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["simulate", "extinction"],
                                      ["analyze", "fit-spectrum", "trace.csv"],
                                      ["reproduce", "fig2"]])
    def test_power_to_rabi_outside_the_float_range_is_exit_2(self, tmp_path, capsys, argv):
        # load_config's Rabi frequency at S = power_pw / p_sat_pw overflowed
        # (gamma^2) and every command exited 3 with only Python's
        # "(34, 'Numerical result out of range')"; gamma is outside its domain
        cfg = _ini(tmp_path, "[molecule]\ngamma = 1e300\n[drive]\npower_pw = 10\n")
        out = tmp_path / "out"
        assert main(argv + ["--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            "error: [molecule]: gamma = 1e+300 is outside the domain [1e-09, 1e+09]\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["simulate", "extinction"],
                                      ["analyze", "fit-spectrum", "trace.csv"],
                                      ["reproduce", "fig5"]])
    def test_power_whose_rabi_leaves_the_domain_is_exit_2(self, tmp_path, capsys, argv):
        # every value is inside its domain, but S = power_pw / p_sat_pw =
        # 1e24 at gamma0 = gamma = 1e9 MHz needs a Rabi frequency of 7e20 MHz
        cfg = _ini(tmp_path, "[molecule]\ngamma0 = 1e9\ngamma = 1e9\n"
                             "[drive]\npower_pw = 1e12\np_sat_pw = 1e-12\n")
        out = tmp_path / "out"
        assert main(argv + ["--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [drive] power_pw = 1e+12, p_sat_pw = 1e-12: the Rabi "
                              "frequency at S = power_pw / p_sat_pw, 7.07107e+20 MHz ")
        assert err.endswith(" is outside the domain [0, 1e+12]\n")
        assert "rabi =" not in err and not out.exists()

    @pytest.mark.parametrize("command,text,complaint", [
        ("extinction", "[output]\nformats = cvs", "[output] formats"),
        ("extinction", "[output]\nformats = csv, xml", "[output] formats"),
        ("extinction", "[output]\nformats = ,", "[output] formats"),
        ("extinction", "[output]\nformats = csv,json", "unknown key [output] formats"),
        ("extinction", "[drive]\nincident_unit = W\nincident_rate = 1e-13",
         "unknown key [drive] incident_unit"),
        ("mollow", "[drive]\ndetuning = 5", "unknown key [drive] detuning"),
        ("extinction", "[molecule]\nlambda21 = 600", "unknown key [molecule] lambda21"),
        ("extinction", "[molecule]\nalpha_dw = 0.5", "unknown key [molecule] alpha_dw"),
        ("extinction", "[molecule]\nalpha_fc = 0.9", "unknown key [molecule] alpha_fc"),
    ])
    def test_output_formats_and_removed_keys_are_exit_2(self, tmp_path, capsys, command,
                                                         text, complaint):
        # every trace is written as CSV and JSON: [output] formats, like the
        # other removed keys, is an unknown key, whatever its value
        cfg = _ini(tmp_path, text + "\n")
        out = tmp_path / "out"
        assert main(["simulate", command, "--config", cfg, "--out", str(out)]) == 2
        assert complaint in capsys.readouterr().err
        assert not out.exists() or not os.listdir(out)


class TestAnalyze:
    def test_fit_spectrum_round_trip(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["simulate", "extinction", "--out", out]) == 0
        assert main(["analyze", "fit-spectrum",
                     os.path.join(out, "extinction.csv"), "--out", out]) == 0
        with open(os.path.join(out, "fit_spectrum.json")) as fh:
            payload = json.load(fh)
        assert payload["status"] == "converged"
        assert payload["params"]["gamma"] == pytest.approx(17.0, rel=1e-3)
        assert "gamma" in capsys.readouterr().out

    def test_g2_fit_recovers_rabi(self, tmp_path):
        cfg = _ini(tmp_path, "[drive]\nrabi = 60.0\n")
        out = str(tmp_path / "out")
        assert main(["simulate", "g2", "--config", cfg, "--out", out]) == 0
        assert main(["analyze", "g2-fit", os.path.join(out, "g2.csv"),
                     "--out", out]) == 0
        with open(os.path.join(out, "g2_fit.json")) as fh:
            payload = json.load(fh)
        assert payload["params"]["rabi"] == pytest.approx(60.0, rel=1e-4)
        assert "saturation" in payload

    def test_saturation_fit_recovers_p_sat(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["simulate", "saturation-sweep", "--out", out]) == 0
        assert main(["analyze", "saturation-fit",
                     os.path.join(out, "saturation_coherent.csv"),
                     os.path.join(out, "saturation_total.csv"),
                     "--out", out]) == 0
        with open(os.path.join(out, "saturation_fit.json")) as fh:
            payload = json.load(fh)
        assert payload["params"]["p_sat"] == pytest.approx(350.0, rel=1e-6)

    @staticmethod
    def _saturation_inputs(tmp_path, powers):
        """Noiseless coherent and total rate-factor CSVs at powers (pW),
        P_sat = 350 pW."""
        s = np.maximum(powers, 0.0) / 350.0
        paths = []
        for part, values in (("coherent", s / (1 + s) ** 2), ("total", s / (1 + s))):
            path = tmp_path / f"{part}.csv"
            path.write_text(SpectrumTrace(powers, values, freq_kind="power_pW",
                                          value_kind="rate_factor").to_csv())
            paths.append(str(path))
        return paths

    def test_saturation_fit_with_zero_power_is_silent(self, tmp_path, capfd):
        # the 0 pW point is fitted; the decade span is taken over the others
        out = str(tmp_path / "out")
        inputs = self._saturation_inputs(tmp_path, np.r_[0.0, np.geomspace(5.0, 1e4, 40)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["analyze", "saturation-fit", *inputs, "--out", out]) == 0
        assert capfd.readouterr().err == ""
        with open(os.path.join(out, "saturation_fit.json")) as fh:
            assert json.load(fh)["params"]["p_sat"] == pytest.approx(350.0, rel=1e-6)

    def test_saturation_fit_negative_power_is_exit_2(self, tmp_path, capfd):
        out = str(tmp_path / "out")
        inputs = self._saturation_inputs(tmp_path, np.r_[-2.5, np.geomspace(5.0, 1e4, 40)])
        assert main(["analyze", "saturation-fit", *inputs, "--out", out]) == 2
        err = capfd.readouterr().err
        assert "power must be >= 0, got -2.5" in err
        assert "decades" not in err
        assert not os.path.exists(out)

    def test_saturation_fit_needs_two_inputs(self, tmp_path):
        assert main(["analyze", "saturation-fit", "only-one.csv",
                     "--out", str(tmp_path)]) == 2

    def test_separate_on_reproduced_series(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["reproduce", "fig4", "--out", out]) == 0
        fig = os.path.join(out, "fig4")
        assert main(["analyze", "separate", os.path.join(fig, "manifest.json"),
                     "--out", out]) == 0
        with open(os.path.join(out, "separate.json")) as fh:
            payload = json.load(fh)
        assert payload["status"] == "converged"
        assert payload["params"]["psi0"] == pytest.approx(math.pi / 2.0, abs=1e-4)

    def test_separate_flat_series_converges(self, tmp_path):
        # no line in any trace: the fit still ends converged, exit 0
        manifest = _fig4_with_values(tmp_path, lambda tr, i: np.ones_like(tr.values))
        out = str(tmp_path / "out")
        assert main(["analyze", "separate", manifest, "--out", out]) == 0
        with open(os.path.join(out, "separate.json")) as fh:
            assert json.load(fh)["status"] == "converged"

    def test_separate_degenerate_geometry_is_exit_2(self, tmp_path, capsys):
        # the series includes theta = 0, where a polarizer at 90 deg
        # extinguishes the laser: a configuration error (it was exit 3)
        out = str(tmp_path / "out")
        assert main(["reproduce", "fig4", "--out", out]) == 0
        cfg = _ini(tmp_path, "[geometry]\npolarizer_angle_deg = 90\n")
        assert main(["analyze", "separate",
                     os.path.join(out, "fig4", "manifest.json"),
                     "--config", cfg, "--out", out]) == 2
        assert "[geometry] detection chain: chain extinguishes" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "separate.json"))

    def test_separate_one_row_traces_is_exit_2(self, tmp_path, capfd):
        # used to end in "Mean of empty slice", LAPACK's DLASCL complaint
        # and exit 3
        series = []
        for i, theta in enumerate((0, 36, 72, 108, 144)):
            (tmp_path / f"t{i}.csv").write_text(f"frequency_MHz,value\n0.0,0.9{i}\n")
            series.append({"theta_deg": theta, "file": f"t{i}.csv"})
        manifest = tmp_path / "series.json"
        manifest.write_text(json.dumps({"series": series}))
        out = str(tmp_path / "out")
        assert main(["analyze", "separate", str(manifest), "--out", out]) == 2
        err = capfd.readouterr().err
        assert ("input cannot determine the fit: QWP-angle series: trace has 1 points, "
                "too few to seed the line") in err
        assert "DLASCL" not in err
        assert not os.path.exists(out)

    def test_separate_series_of_mixed_units_is_exit_2(self, tmp_path, capsys):
        # traces in different units cannot share one model: an input error
        out = str(tmp_path / "out")
        assert main(["reproduce", "fig4", "--out", out]) == 0
        trace = tmp_path / "out" / "fig4" / "fig4_theta036.csv"
        trace.write_text(trace.read_text().replace("value_kind = transmission",
                                                   "value_kind = counts_per_s"))
        assert main(["analyze", "separate", os.path.join(out, "fig4", "manifest.json"),
                     "--out", out]) == 2
        err = capsys.readouterr().err
        assert "series entry 1: unit mismatch" in err
        assert not os.path.exists(os.path.join(out, "separate.json"))

    def test_unparseable_input_is_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("")
        assert main(["analyze", "fit-spectrum", str(bad),
                     "--out", str(tmp_path)]) == 2
        assert main(["analyze", "g2-fit", str(bad), "--out", str(tmp_path)]) == 2
        assert main(["analyze", "separate", str(bad), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("command,text", [
        ("fit-spectrum", "simulate extinction"),
        ("g2-fit", "simulate g2"),
    ])
    def test_headerless_csv_is_exit_2(self, tmp_path, capfd, command, text):
        # a first line of numbers is a data row, not the column names:
        # the trace keeps its comments but lost its header row
        out = str(tmp_path / "out")
        assert main([*text.split(), "--out", out]) == 0
        name = "extinction.csv" if command == "fit-spectrum" else "g2.csv"
        with open(os.path.join(out, name)) as fh:
            lines = fh.read().splitlines()
        lines.remove(next(line for line in lines if not line.startswith("#")))
        headerless = tmp_path / "headerless.csv"
        headerless.write_text("\n".join(lines) + "\n")
        capfd.readouterr()
        assert main(["analyze", command, str(headerless), "--out", out]) == 2
        assert "CSV trace is missing its header row" in capfd.readouterr().err

    @pytest.mark.parametrize("command,text,name,message", [
        ("g2-fit", "simulate extinction", "extinction.csv",
         "freq_kind = detuning_MHz is not a g2 trace's delay_ns"),
        ("fit-spectrum", "simulate g2", "g2.csv",
         "columns delay_ns,g2 are a g2 trace's, not a spectrum's"),
        ("fit-spectrum", "simulate mollow --config {rabi100}", "mollow_emission.csv",
         "freq_kind = emission_detuning_MHz is not the expected detuning_MHz"),
        ("fit-spectrum", "simulate mollow --config {rabi100}", "mollow_detected.csv",
         "freq_kind = fpc_scan_MHz is not the expected detuning_MHz"),
    ])
    def test_a_trace_of_the_other_kind_is_exit_2(self, tmp_path, capsys, command, text, name,
                                                 message):
        # a transmission trace fitted as g2 (converged, 14.13 MHz), a g2
        # trace fitted as a spectrum (gamma 58.4 MHz) and both Mollow traces
        # at Omega = 100 MHz fitted as an extinction line (converged) exited 0
        rabi100 = _ini(tmp_path, "[drive]\nrabi = 100.0\n")
        assert main([*text.format(rabi100=rabi100).split(), "--out", str(tmp_path)]) == 0
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["analyze", command, str(tmp_path / name), "--out", str(out)]) == 2
        assert f"cannot parse trace {tmp_path / name}: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,inputs,message", [
        ("saturation-fit", ["extinction.csv", "saturation_total.csv"],
         "freq_kind = detuning_MHz is not the expected power_pW"),
        ("separate", ["theta_deg"], "freq_kind = power_pW is not the expected detuning_MHz"),
        ("linewidth-sweep", ["power_pw"],
         "freq_kind = power_pW is not the expected detuning_MHz"),
    ])
    def test_a_trace_on_another_axis_is_exit_2(self, tmp_path, capsys, command, inputs,
                                               message):
        # saturation-fit reads a power axis; separate and linewidth-sweep
        # read detunings, here from a manifest that names a power sweep
        for run in ("extinction", "saturation-sweep"):
            assert main(["simulate", run, "--out", str(tmp_path)]) == 0
        if command != "saturation-fit":
            (tmp_path / "series.json").write_text(json.dumps(
                {"series": [{inputs[0]: v, "file": "saturation_total.csv"} for v in (0, 1, 2)]}))
            inputs = ["series.json"]
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["analyze", command, *(str(tmp_path / n) for n in inputs),
                     "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_g2_fit_with_an_infinite_delay_is_exit_2_at_read(self, tmp_path, capsys):
        # it used to pass the reader, warn twice in the g2 shape and exit 2
        # only on a non-finite initial residual
        delays = np.linspace(0.0, 400.0, 801)
        text = G2Trace(delays, np.ones_like(delays)).to_csv()
        bad = tmp_path / "g2.csv"
        bad.write_text(text.replace("\n400.0,", "\ninf,"))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["analyze", "g2-fit", str(bad), "--out", str(out)]) == 2
        assert f"cannot parse trace {bad}: grid and values must be finite" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_g2_fit_with_an_overflowing_cost_is_exit_2(self, tmp_path, capsys):
        # one value of 1e300 keeps the residual finite but overflows its
        # square sum: this used to exit 0 with status converged at cost inf
        out = tmp_path / "out"
        assert main(["simulate", "g2", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "g2.csv").read_text().splitlines()
        lines[-1] = lines[-1].split(",")[0] + ",1e300"
        bad = tmp_path / "g2_big.csv"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["analyze", "g2-fit", str(bad), "--out", str(out)]) == 2
        assert f"error: {bad}: initial cost is not finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("gammas,complaint", [
        ((16.4, 1e300), "gamma = 1e+300"), ((1e300, 1e308), "gamma0 = 1e+300")])
    def test_g2_fit_with_damping_outside_the_float_range_is_exit_2(self, tmp_path, capsys,
                                                                    gammas, complaint):
        # the g2 damping's square overflowed as a Python float: this exited
        # 3 printing only "(34, 'Numerical result out of range')", then 2 at
        # the fit's own damping check; the linewidths are outside the domain
        assert main(["simulate", "g2", "--out", str(tmp_path)]) == 0
        cfg = _ini(tmp_path, "[molecule]\ngamma0 = {}\ngamma = {}\n".format(*gammas))
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["analyze", "g2-fit", str(tmp_path / "g2.csv"), "--config", cfg,
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: [molecule]: {complaint} is outside the domain [1e-09, 1e+09]\n"
        assert not out.exists()

    def test_g2_fit_with_a_decay_time_outside_the_float_range_is_exit_2(self, tmp_path, capsys):
        # subnormal linewidths overflow the decay time 1e3 / a: this said
        # "trace too short: spans 400 ns, need >= inf ns", then 2 at the
        # fit's own decay-time check; they are outside the domain
        assert main(["simulate", "g2", "--out", str(tmp_path)]) == 0
        cfg = _ini(tmp_path, "[molecule]\ngamma0 = 1e-320\ngamma = 1e-320\n")
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["analyze", "g2-fit", str(tmp_path / "g2.csv"), "--config", cfg,
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: [molecule]: gamma0 = {1e-320:g} is "
                                           "outside the domain [1e-09, 1e+09]\n")
        assert not out.exists()

    def test_g2_fit_with_a_runaway_initial_residual_is_exit_2_without_warning(self, tmp_path,
                                                                             capsys):
        # gamma0 = 1e300, gamma = 2e300: the seed's Rabi rate squared
        # overflowed, and the initial residual, evaluated outside minimize's
        # errstate, warned four times before the exit; then the fit said
        # "initial residual is not finite".  gamma0 is outside the domain
        assert main(["simulate", "g2", "--out", str(tmp_path)]) == 0
        cfg = _ini(tmp_path, "[molecule]\ngamma0 = 1e300\ngamma = 2e300\n")
        out = tmp_path / "out"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["analyze", "g2-fit", str(tmp_path / "g2.csv"), "--config", cfg,
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            "error: [molecule]: gamma0 = 1e+300 is outside the domain [1e-09, 1e+09]\n"
        assert not out.exists()

    def test_g2_fit_past_the_drive_domain_writes_its_json(self, tmp_path, capsys, monkeypatch):
        # a fitted Rabi frequency is data: one past the drive's domain is
        # reported with its saturation parameter and the status minimize gave
        from resfluor import correlation

        assert main(["simulate", "g2", "--out", str(tmp_path)]) == 0
        fit = correlation.fit_rabi_from_g2

        def runaway(trace, mol):
            res = fit(trace, mol)
            res.params["rabi"], res.status = 1e13, "max_iter"
            return res

        monkeypatch.setattr(correlation, "fit_rabi_from_g2", runaway)
        out = tmp_path / "out"
        assert main(["analyze", "g2-fit", str(tmp_path / "g2.csv"), "--out", str(out)]) == 4
        payload = json.loads((out / "g2_fit.json").read_text())
        assert payload["status"] == "max_iter" and payload["params"]["rabi"] == 1e13
        assert payload["saturation"] == pytest.approx(2e26 / (16.4 * 17.0), rel=1e-14)
        assert "Omega=1e+13 MHz" in capsys.readouterr().out

    def test_missing_input_is_exit_2(self, tmp_path):
        assert main(["analyze", "fit-spectrum", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path)]) == 2

    def test_empty_and_one_row_traces_are_exit_2(self, tmp_path, capfd):
        out = str(tmp_path / "out")
        empty = tmp_path / "empty.csv"
        empty.write_text("frequency_MHz,value\n")
        g2_empty = tmp_path / "g2_empty.csv"
        g2_empty.write_text("delay_ns,g2\n")
        one = tmp_path / "one.csv"
        one.write_text("frequency_MHz,value\n0.0,1.0\n")
        assert main(["analyze", "fit-spectrum", str(empty), "--out", out]) == 2
        assert "no data rows" in capfd.readouterr().err
        assert main(["analyze", "saturation-fit", str(empty), str(empty),
                     "--out", out]) == 2
        assert main(["analyze", "g2-fit", str(g2_empty), "--out", out]) == 2
        assert main(["analyze", "fit-spectrum", str(one), "--out", out]) == 2
        err = capfd.readouterr().err
        assert "fewer than the 6 free parameters" in err
        assert "DLASCL" not in err
        # linewidth-sweep fits each trace of the series as fit-spectrum does
        manifest = tmp_path / "sweep.json"
        manifest.write_text(json.dumps({"series": [
            {"power_pw": p, "file": "one.csv"} for p in (50.0, 350.0, 2500.0)]}))
        assert main(["analyze", "linewidth-sweep", str(manifest), "--out", out]) == 2
        assert (f"{manifest}: trace at power 50.0: trace has 1 points, fewer than the 6 "
                "free parameters") in capfd.readouterr().err
        assert not os.path.exists(out)

    @staticmethod
    def _power_series(tmp_path, powers):
        """Noiseless extinction traces at the given powers (pW) and a
        linewidth-sweep manifest that lists them."""
        series = []
        for p in powers:
            cfg = _ini(tmp_path, f"[drive]\npower_pw = {p}\n", name=f"p{p}.ini")
            assert main(["simulate", "extinction", "--config", cfg,
                         "--out", str(tmp_path / f"p{p}")]) == 0
            series.append({"power_pw": p, "file": f"p{p}/extinction.csv"})
        manifest = tmp_path / "sweep.json"
        manifest.write_text(json.dumps({"series": series}))
        return str(manifest)

    def test_linewidth_sweep_recovers_gamma_and_p_sat(self, tmp_path):
        manifest = self._power_series(tmp_path, [50.0, 350.0, 1000.0, 2500.0])
        out = str(tmp_path / "out")
        assert main(["analyze", "linewidth-sweep", manifest, "--out", out]) == 0
        with open(os.path.join(out, "linewidth_sweep.json")) as fh:
            payload = json.load(fh)
        assert payload["status"] == "converged"
        assert payload["params"]["gamma"] == pytest.approx(17.0, rel=1e-5)
        assert payload["params"]["p_sat"] == pytest.approx(350.0, rel=1e-5)
        assert [w["power_pw"] for w in payload["linewidths"]] == [50.0, 350.0, 1000.0, 2500.0]
        assert payload["linewidths"][1]["fwhm_MHz"] == pytest.approx(
            17.0 * math.sqrt(2.0), rel=1e-5)

    def test_linewidth_sweep_too_few_powers_is_exit_2(self, tmp_path, capsys):
        manifest = self._power_series(tmp_path, [50.0, 2500.0])
        out = str(tmp_path / "out")
        assert main(["analyze", "linewidth-sweep", manifest, "--out", out]) == 2
        assert ">= 3 powers" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command", ["separate", "linewidth-sweep"])
    @pytest.mark.parametrize("series, complaint", [
        ([{"value": 10.0}], "'file' must be a path"),
        ([{"file": "p50.0/extinction.csv"}], "must be a finite number, got None"),
        ([{"value": "zero", "file": "p50.0/extinction.csv"}],
         "must be a finite number, got 'zero'"),
        ([1, 2, 3], "series entry 0: not an object"),
        ("p50.0/extinction.csv", "'series' is not a list"),
        ({"value": 10.0}, "'series' is not a list"),
        ([{"value": 10.0, "file": "none.csv"}], "cannot parse trace"),
    ], ids=["no-file", "no-value", "text-value", "not-objects", "string", "object",
            "missing-trace"])
    def test_malformed_manifest_is_exit_2(self, tmp_path, capsys, command, series,
                                          complaint):
        self._power_series(tmp_path, [50.0])
        key = {"separate": "theta_deg", "linewidth-sweep": "power_pw"}[command]
        text = json.dumps({"series": series}).replace('"value"', f'"{key}"')
        manifest = tmp_path / "bad.json"
        manifest.write_text(text)
        out = str(tmp_path / "out")
        assert main(["analyze", command, str(manifest), "--out", out]) == 2
        assert complaint in capsys.readouterr().err
        assert not os.path.exists(out)
        manifest.write_text("[1, 2]")
        assert main(["analyze", command, str(manifest), "--out", out]) == 2
        assert "cannot parse manifest" in capsys.readouterr().err

    @pytest.mark.parametrize("command, name, cond_max", [
        pytest.param(command, name, cond_max, id=f"{command}-{name}{suffix}")
        for cond_max, suffix in ((None, ""), (0.0, "-rank-deficient"))
        for command, name in (("separate", "separate.json"),
                              ("g2-fit", "g2_fit.json"),
                              ("linewidth-sweep", "linewidth_sweep.json"),
                              ("fit-spectrum", "fit_spectrum.json"),
                              ("saturation-fit", "saturation_fit.json"))])
    def test_nonconvergence_writes_result_and_is_exit_4(self, tmp_path, capsys,
                                                        monkeypatch, command, name,
                                                        cond_max):
        # a one-iteration budget stops every fit of noisy data unconverged
        # (noiseless fig4 is seeded at its solution and converges in one);
        # COND_MAX = 0 makes every such stop rank_deficient.  Each command
        # writes its result, and the result and stderr say why: a
        # rank-deficient separation used to exit 2 and write nothing
        if command == "separate":
            def noisy(trace, i):
                rng = np.random.default_rng(i)
                return trace.values + rng.normal(0.0, 0.007, trace.values.size)

            inputs = [_fig4_with_values(tmp_path, noisy)]
        elif command == "g2-fit":
            cfg = _ini(tmp_path, "[drive]\nrabi = 60.0\n")
            assert main(["simulate", "g2", "--config", cfg, "--out", str(tmp_path)]) == 0
            inputs = [str(tmp_path / "g2.csv")]
        elif command == "fit-spectrum":
            cfg = _ini(tmp_path, "[simulate]\nnoise = true\n")
            assert main(["simulate", "extinction", "--config", cfg,
                         "--out", str(tmp_path)]) == 0
            inputs = [str(tmp_path / "extinction.csv")]
        elif command == "saturation-fit":
            assert main(["simulate", "saturation-sweep", "--out", str(tmp_path)]) == 0
            inputs = [str(tmp_path / "saturation_coherent.csv"),
                      str(tmp_path / "saturation_total.csv")]
        else:
            inputs = [self._power_series(tmp_path, [50.0, 350.0, 2500.0])]
        capsys.readouterr()
        monkeypatch.setattr(estimation, "MAX_ITER", 1)
        if cond_max is not None:
            monkeypatch.setattr(estimation, "COND_MAX", cond_max)
        out = str(tmp_path / "out")
        assert main(["analyze", command, *inputs, "--out", out]) == 4
        with open(os.path.join(out, name)) as fh:
            payload = json.load(fh)
        assert payload["status"] != "converged"
        if cond_max is not None:
            assert payload["status"] == "rank_deficient"
        assert payload["error"]
        if command == "linewidth-sweep":
            assert payload["error"] == "linewidth fit failed at power 50.0"
        printed = capsys.readouterr()
        assert f"status: {payload['status']}" in printed.out
        assert f"error: {payload['error']}" in printed.err


class TestReproduce:
    @pytest.mark.parametrize("fig", ["fig2", "fig3", "fig4", "fig5", "fig6"])
    def test_manifest_written(self, tmp_path, fig):
        out = str(tmp_path / "out")
        assert main(["reproduce", fig, "--out", out]) == 0
        with open(os.path.join(out, fig, "manifest.json")) as fh:
            manifest = json.load(fh)
        assert manifest["figure"] == fig
        assert manifest["config_hash"]
        assert "paper_anchored" in manifest and "synthetic_defaults" in manifest
        for name in manifest["files"]:
            assert os.path.exists(os.path.join(out, fig, name)), name
        written = {n for n in os.listdir(os.path.join(out, fig)) if n.endswith(".csv")}
        assert written == set(manifest["files"])

    def test_fig5_rabi_outside_the_float_range_is_exit_2(self, tmp_path, capsys):
        # fig5's own rabi_for_saturation calls overflowed (gamma^2): exit 3
        # with only Python's "(34, 'Numerical result out of range')", then 2
        # at fig5's own guard; gamma is outside the domain
        cfg = _ini(tmp_path, "[molecule]\ngamma = 1e300\n")
        out = tmp_path / "out"
        assert main(["reproduce", "fig5", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            "error: [molecule]: gamma = 1e+300 is outside the domain [1e-09, 1e+09]\n"
        assert not (out / "fig5").exists()

    @pytest.mark.parametrize("angles", ["0, 0.4, 36, 72", "36, 72, 71.6, 108", ""])
    def test_fig4_angles_without_distinct_file_names_are_exit_2(self, tmp_path, capsys,
                                                                 angles):
        # fig4 names each trace by its angle rounded to a whole degree: two
        # angles on one name overwrote each other's file, and an empty list
        # wrote none, each with exit 0
        cfg = _ini(tmp_path, f"[geometry]\nqwp_angles_deg = {angles}\n")
        out = tmp_path / "out"
        assert main(["reproduce", "fig4", "--config", cfg, "--out", str(out)]) == 2
        assert "[geometry] qwp_angles_deg" in capsys.readouterr().err
        assert not (out / "fig4").exists()

    @pytest.mark.parametrize("dipole_deg", [45, 135, 225])
    def test_fig4_separates_back_at_any_dipole_angle(self, tmp_path, dipole_deg):
        # B0 = B/|cos(dipole angle)|: at 135 and 225 deg it used to be
        # negative, and fig4 exited 3
        cfg = _ini(tmp_path, f"[geometry]\ndipole_angle_deg = {dipole_deg}\n")
        out = str(tmp_path / "out")
        assert main(["reproduce", "fig4", "--config", cfg, "--out", out]) == 0
        assert main(["analyze", "separate", os.path.join(out, "fig4", "manifest.json"),
                     "--config", cfg, "--out", out]) == 0
        with open(os.path.join(out, "separate.json")) as fh:
            params = json.load(fh)["params"]
        assert params["A0"] == pytest.approx(11.56, rel=1e-6)
        assert params["B0"] == pytest.approx(3.6062446, rel=1e-6)
        assert params["psi0"] == pytest.approx(math.pi / 2.0, abs=1e-6)

    def test_fig4_perpendicular_dipole_is_exit_2(self, tmp_path, capsys):
        # cos(90 deg) ~ 6e-17 used to give a B0 of ~1e16, with exit 0
        cfg = _ini(tmp_path, "[geometry]\ndipole_angle_deg = 90\n")
        out = tmp_path / "out"
        assert main(["reproduce", "fig4", "--config", cfg, "--out", str(out)]) == 2
        assert "[geometry] dipole_angle_deg = 90" in capsys.readouterr().err
        assert not out.exists()

    def test_fig4_degenerate_geometry_is_exit_2(self, tmp_path, capsys):
        # the default series' theta = 0 with a polarizer at 90 deg
        # extinguishes the laser (it was exit 3)
        cfg = _ini(tmp_path, "[geometry]\npolarizer_angle_deg = 90\n")
        out = tmp_path / "out"
        assert main(["reproduce", "fig4", "--config", cfg, "--out", str(out)]) == 2
        assert "[geometry] detection chain: chain extinguishes" in capsys.readouterr().err
        assert not out.exists()

    def test_fig4_writes_one_file_per_angle(self, tmp_path):
        cfg = _ini(tmp_path, "[geometry]\nqwp_angles_deg = 0, 0.6, 36, 72\n")
        out = tmp_path / "out"
        assert main(["reproduce", "fig4", "--config", cfg, "--out", str(out)]) == 0
        assert sorted(n for n in os.listdir(out / "fig4") if n.endswith(".csv")) == [
            "fig4_theta000.csv", "fig4_theta001.csv", "fig4_theta036.csv",
            "fig4_theta072.csv"]

    def test_config_hash_sees_flags(self, tmp_path):
        # the same run given by flag and by INI file has one config hash
        cfg = _ini(tmp_path, "[run]\nseed = 7\nthreads = 2\n")
        out = str(tmp_path / "out")
        hashes = []
        for extra in (["--seed", "7", "--threads", "2"], ["--config", cfg]):
            assert main(["reproduce", "fig3", "--out", out] + extra) == 0
            with open(os.path.join(out, "fig3", "manifest.json")) as fh:
                hashes.append(json.load(fh)["config_hash"])
        assert hashes[0] == hashes[1]
        assert main(["reproduce", "fig3", "--out", out, "--seed", "8"]) == 0
        with open(os.path.join(out, "fig3", "manifest.json")) as fh:
            assert json.load(fh)["config_hash"] != hashes[0]

    def test_unknown_figure_is_exit_2(self, tmp_path):
        assert main(["reproduce", "fig9", "--out", str(tmp_path)]) == 2

    def test_fig3_curves_cross_and_peak(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["reproduce", "fig3", "--out", out]) == 0
        coh = _read(os.path.join(out, "fig3", "fig3_coherent.csv"))
        tot = _read(os.path.join(out, "fig3", "fig3_total.csv"))
        # coherent curve peaks at P_sat (S = 1) with value 1/4
        k = int(np.argmax(coh.values))
        assert coh.grid[k] == pytest.approx(350.0, rel=0.1)
        assert coh.values.max() == pytest.approx(0.25, abs=0.001)
        # total signal dominates at high power
        assert tot.values[-1] > 10 * coh.values[-1]

    def test_fig6_snr_annotation(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["reproduce", "fig6", "--out", out]) == 0
        with open(os.path.join(out, "fig6", "manifest.json")) as fh:
            anchored = json.load(fh)["paper_anchored"]
        assert anchored["dip_cps_computed"] == pytest.approx(49.19, abs=0.05)
        assert abs(anchored["dip_cps_computed"] - anchored["dip_cps_paper"]) \
            / anchored["dip_cps_paper"] < 0.05
        assert 3.0 < anchored["snr_per_pixel"] < 4.5


def test_config_error_paths(tmp_path):
    bad = _ini(tmp_path, "[molecule]\ngamma = soft\n")
    assert main(["simulate", "extinction", "--config", bad,
                 "--out", str(tmp_path)]) == 2
    assert main(["simulate", "extinction", "--config", str(tmp_path / "none.ini"),
                 "--out", str(tmp_path)]) == 2


def test_percent_in_ini_value_is_literal(tmp_path):
    out = tmp_path / "out%x"
    cfg = _ini(tmp_path, f"[output]\ndir = {out}\n")
    assert main(["simulate", "counts", "--config", cfg]) == 0
    assert os.path.exists(out / "counts.csv")


@pytest.mark.parametrize("text", [
    "[DEFAULT]\nseed = 5\n", "[DEFAULT]\nseed = 5\n[drive]\nrabi = 3.0\n"])
def test_ini_default_section_is_exit_2(tmp_path, capsys, text):
    cfg = _ini(tmp_path, text)
    assert main(["simulate", "counts", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 2
    assert "unknown section [DEFAULT]" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")
