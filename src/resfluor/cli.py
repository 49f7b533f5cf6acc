"""Command-line interface: simulate / analyze / reproduce.

Exit codes: 0 success, 2 configuration or input parse error, 3 numeric
domain error, 4 fit non-convergence (the result file is still written).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import estimation, synth
from .config import ConfigError, RunConfig, load_config
from .correlation import G2Trace, annotate, cross_check_saturation, fit_rabi_from_g2, g2_trace
from .estimation import (
    NotConvergedError,
    RankDeficientError,
    fit_extinction,
    fit_linewidth_vs_power,
    fit_saturation_curves,
)
from .measurement import (
    DetectorParams,
    interference_dip_rate,
    simulate_counts,
    snr_of_detection,
)
from .physics import (
    DriveParams,
    coherent_emission_rate,
    rabi_for_saturation,
    saturation_parameter,
    total_emission_rate,
)
from .polarization import separate_components, transform_extinction_triple
from .spectra import (
    ExtinctionModel,
    SpectrumTrace,
    convolve_instrument,
    extinction_spectrum,
    mollow_spectrum,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_NOCONV = 4


def _config_hash(cfg: RunConfig) -> str:
    blob = json.dumps(cfg.raw, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _write_trace(trace, out_dir: str, stem: str, formats) -> list:
    os.makedirs(out_dir, exist_ok=True)
    written = []
    if "csv" in formats:
        path = os.path.join(out_dir, stem + ".csv")
        with open(path, "w") as fh:
            fh.write(trace.to_csv())
        written.append(path)
    if "json" in formats and hasattr(trace, "to_json"):
        path = os.path.join(out_dir, stem + ".json")
        with open(path, "w") as fh:
            fh.write(trace.to_json())
        written.append(path)
    return written


def _write_json(obj: dict, out_dir: str, name: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
    return path


def _read_trace(path: str) -> SpectrumTrace:
    try:
        with open(path) as fh:
            return SpectrumTrace.from_csv(fh.read())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot parse spectrum trace {path}: {exc}") from exc


def _read_g2(path: str) -> G2Trace:
    try:
        with open(path) as fh:
            return G2Trace.from_csv(fh.read())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot parse g2 trace {path}: {exc}") from exc


def _extinction_model(cfg: RunConfig) -> ExtinctionModel:
    """Map the config's fractional peak/dip amplitudes onto (A, B)."""
    mol, drive = cfg.molecule, cfg.drive
    l0 = 1.0 / (mol.gamma**2 / 4.0 + drive.rabi**2 * mol.gamma / (2.0 * mol.gamma0))
    a_frac = cfg.simulate.get("extinction_a", 0.0)
    b_dip = cfg.simulate.get("extinction_b_dip", 0.0)
    return ExtinctionModel(
        A=a_frac / l0,
        B=b_dip / (l0 * mol.gamma / 2.0),
        psi=drive.psi,
        mol=mol,
        drive=drive,
    )


def _sim_grid(cfg: RunConfig) -> np.ndarray:
    return np.linspace(
        cfg.simulate.get("grid_min", -150.0),
        cfg.simulate.get("grid_max", 150.0),
        cfg.simulate.get("points", 301),
    )


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args, cfg: RunConfig) -> int:
    out, formats = cfg.out_dir, cfg.formats
    mol, drive = cfg.molecule, cfg.drive
    s = saturation_parameter(mol, drive) if drive.detuning == 0 else float("nan")

    if args.subcommand == "extinction":
        model = _extinction_model(cfg)
        grid = _sim_grid(cfg)
        if cfg.simulate.get("noise", False):
            trace = synth.noisy_extinction_trace(
                model, grid, drive.incident_rate, cfg.detector, cfg.seed
            )
        else:
            trace = extinction_spectrum(model, grid)
        _write_trace(trace, out, "extinction", formats)
        dip = 1.0 - float(trace.values.min())
        print(f"extinction: dip depth {dip:.4f}, S={s:.4g}, gamma={mol.gamma} MHz")

    elif args.subcommand == "mollow":
        # grid chosen from the instrument and drive; must cover one FSR
        half = cfg.fpc.fsr * 1.5 + 2.0 * drive.rabi + 20.0 * mol.gamma
        step = cfg.fpc.fwhm / 8.0
        n = 2 * int(math.ceil(half / step)) + 1
        grid = np.linspace(-half, half, n)
        scale = cfg.simulate.get("emission_scale", 1.0)
        emission = mollow_spectrum(mol, drive, grid, emission_scale=scale)
        coh = coherent_emission_rate(s) * scale
        detected = convolve_instrument(
            emission,
            cfg.fpc,
            laser_background_rate=cfg.simulate.get("laser_background_rate", 0.0),
            coherent_delta_weight=coh,
        )
        _write_trace(emission, out, "mollow_emission", formats)
        _write_trace(detected, out, "mollow_detected", formats)
        print(
            f"mollow: Omega={drive.rabi:.4g} MHz, S={s:.4g}, "
            f"sidebands at +-{drive.rabi:.4g} MHz"
        )

    elif args.subcommand == "g2":
        delays = np.linspace(
            0.0, cfg.simulate.get("tau_max_ns", 400.0), cfg.simulate.get("tau_points", 801)
        )
        if cfg.simulate.get("noise", False):
            trace = synth.noisy_g2_trace(
                delays, mol, drive, cfg.simulate.get("plateau_coincidences", 1e4), cfg.seed
            )
        else:
            trace = g2_trace(delays, mol, drive)
        _write_trace(trace, out, "g2", formats)
        print(f"g2: {annotate(drive.rabi, mol)}")

    elif args.subcommand == "saturation-sweep":
        powers = np.geomspace(
            cfg.simulate.get("power_min_pw", 5.0),
            cfg.simulate.get("power_max_pw", 1e4),
            cfg.simulate.get("power_points", 25),
        )
        scale = cfg.simulate.get("emission_scale", 1.0)
        sat = np.array([cfg.power_calibration.saturation(p) for p in powers])
        coh = SpectrumTrace(
            powers, scale * sat / (1 + sat) ** 2,
            freq_kind="power_pW", value_kind="rate_factor",
            meta={"generator": "saturation_sweep_coherent",
                  "p_sat_pw": cfg.power_calibration.p_at_s1},
        )
        tot = SpectrumTrace(
            powers, scale * sat / (1 + sat),
            freq_kind="power_pW", value_kind="rate_factor",
            meta={"generator": "saturation_sweep_total",
                  "p_sat_pw": cfg.power_calibration.p_at_s1},
        )
        _write_trace(coh, out, "saturation_coherent", formats)
        _write_trace(tot, out, "saturation_total", formats)
        print(
            f"saturation-sweep: P_sat={cfg.power_calibration.p_at_s1} pW, "
            f"coherent max at S=1"
        )

    elif args.subcommand == "counts":
        grid = np.arange(float(cfg.simulate.get("points", 301)))
        rate = SpectrumTrace(
            grid, np.full_like(grid, drive.incident_rate),
            freq_kind="pixel_index", value_kind="counts_per_s",
        )
        trace = simulate_counts(rate, cfg.detector, cfg.seed)
        _write_trace(trace, out, "counts", formats)
        print(
            f"counts: mean {trace.values.mean():.1f} per "
            f"{cfg.detector.integration_time} s pixel"
        )

    else:
        raise ConfigError(f"unknown simulate subcommand {args.subcommand!r}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def cmd_analyze(args, cfg: RunConfig) -> int:
    out = cfg.out_dir
    mol = cfg.molecule
    code = EXIT_OK

    if args.subcommand == "fit-spectrum":
        trace = _read_trace(args.inputs[0])
        try:
            res = fit_extinction(trace)
        except ValueError as exc:
            raise ConfigError(f"{args.inputs[0]}: {exc}") from exc
        _write_json(json.loads(res.to_json()), out, "fit_spectrum.json")
        print(res.table())
        if not res.converged:
            code = EXIT_NOCONV

    elif args.subcommand == "separate":
        manifest_path = args.inputs[0]
        try:
            with open(manifest_path) as fh:
                manifest = json.load(fh)
            series = manifest["series"]
        except (OSError, ValueError, KeyError) as exc:
            raise ConfigError(f"cannot parse manifest {manifest_path}: {exc}") from exc
        base = os.path.dirname(os.path.abspath(manifest_path))
        pairs = []
        for entry in series:
            path = entry["file"]
            if not os.path.isabs(path):
                path = os.path.join(base, path)
            pairs.append((math.radians(entry["theta_deg"]), _read_trace(path)))
        try:
            res = separate_components(pairs, cfg.geometry)
        except NotConvergedError as exc:
            res = exc.result
            _write_json(json.loads(res.to_json()), out, "separate.json")
            print(res.table())
            return EXIT_NOCONV
        _write_json(json.loads(res.to_json()), out, "separate.json")
        print(res.table())
        print(f"psi0 = {math.degrees(res.params['psi0']):.2f} deg")

    elif args.subcommand == "g2-fit":
        trace = _read_g2(args.inputs[0])
        try:
            res = fit_rabi_from_g2(trace, mol)
        except NotConvergedError as exc:
            res = exc.result
            _write_json(json.loads(res.to_json()), out, "g2_fit.json")
            return EXIT_NOCONV
        except ValueError as exc:
            raise ConfigError(f"{args.inputs[0]}: {exc}") from exc
        payload = json.loads(res.to_json())
        payload["saturation"] = cross_check_saturation(res.params["rabi"], mol)
        _write_json(payload, out, "g2_fit.json")
        print(res.table())
        print(annotate(res.params["rabi"], mol))
        if not res.converged:
            code = EXIT_NOCONV

    elif args.subcommand == "linewidth-sweep":
        manifest_path = args.inputs[0]
        try:
            with open(manifest_path) as fh:
                entries = json.load(fh)["series"]
        except (OSError, ValueError, KeyError) as exc:
            raise ConfigError(f"cannot parse manifest {manifest_path}: {exc}") from exc
        base = os.path.dirname(os.path.abspath(manifest_path))
        spectra = []
        for entry in entries:
            path = entry["file"]
            if not os.path.isabs(path):
                path = os.path.join(base, path)
            spectra.append((entry["power_pw"], _read_trace(path)))
        table, res = fit_linewidth_vs_power(spectra)
        payload = json.loads(res.to_json())
        payload["linewidths"] = [
            {"power_pw": p, "fwhm_MHz": w, "fwhm_err_MHz": e} for p, w, e in table
        ]
        _write_json(payload, out, "linewidth_sweep.json")
        print(res.table())
        if not res.converged:
            code = EXIT_NOCONV

    elif args.subcommand == "saturation-fit":
        coh = _read_trace(args.inputs[0])
        tot = _read_trace(args.inputs[1])
        if coh.grid.size != tot.grid.size or not np.allclose(coh.grid, tot.grid):
            raise ConfigError("saturation-fit: power grids of the two channels differ")
        res = fit_saturation_curves(coh.grid, coh.values, tot.values)
        _write_json(json.loads(res.to_json()), out, "saturation_fit.json")
        print(res.table())
        if not res.converged:
            code = EXIT_NOCONV

    else:
        raise ConfigError(f"unknown analyze subcommand {args.subcommand!r}")
    return code


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------

def _reproduce_fig2(cfg: RunConfig):
    mol = cfg.molecule
    drive = DriveParams(rabi=0.0, psi=math.pi / 2.0,
                        incident_rate=cfg.drive.incident_rate)
    l0 = 4.0 / mol.gamma**2
    model = ExtinctionModel(A=0.0, B=0.115 / (l0 * mol.gamma / 2.0),
                            psi=math.pi / 2.0, mol=mol, drive=drive)
    grid = np.linspace(-150.0, 150.0, 301)
    det = DetectorParams(dark_rate=0.0, integration_time=0.16)
    noisy = synth.noisy_extinction_trace(model, grid, drive.incident_rate, det, cfg.seed)
    clean = extinction_spectrum(model, grid)
    files = {"fig2_transmission.csv": "raw transmission spectrum (11.5% dip)",
             "fig2_model.csv": "noiseless model curve"}
    anchored = {"dip_depth": 0.115, "noise_rms": 0.007, "integration_time_s": 0.16,
                "gamma_MHz": mol.gamma}
    synthetic = {"A_B_split": "single-trace A/B decomposition is not unique; "
                              "the dip is carried by the B-term here"}
    return [(noisy, "fig2_transmission"), (clean, "fig2_model")], files, anchored, synthetic


def _reproduce_fig3(cfg: RunConfig):
    powers = np.geomspace(5.0, 1e4, 41)
    sat = powers / cfg.power_calibration.p_at_s1
    coh = SpectrumTrace(powers, sat / (1 + sat) ** 2, freq_kind="power_pW",
                        value_kind="rate_factor",
                        meta={"generator": "fig3_coherent",
                              "p_sat_pw": cfg.power_calibration.p_at_s1})
    tot = SpectrumTrace(powers, sat / (1 + sat), freq_kind="power_pW",
                        value_kind="rate_factor",
                        meta={"generator": "fig3_total",
                              "p_sat_pw": cfg.power_calibration.p_at_s1})
    files = {"fig3_coherent.csv": "coherent part, S/(1+S)^2",
             "fig3_total.csv": "fluorescence excitation signal, S/(1+S)"}
    anchored = {"p_sat_pw": 350.0, "power_span_pw": [5.0, 1e4]}
    return [(coh, "fig3_coherent"), (tot, "fig3_total")], files, anchored, {}


def _reproduce_fig4(cfg: RunConfig):
    mol = cfg.molecule
    geo = cfg.geometry
    drive = DriveParams(rabi=0.0, psi=math.pi / 2.0)
    l0 = 4.0 / mol.gamma**2
    # intrinsic triple sized so the projected spectra show percent-scale features
    a0 = 0.08 / l0 / 0.5
    b0 = 0.30 / (l0 * mol.gamma / 2.0) / math.cos(geo.dipole_angle)
    psi0 = math.pi / 2.0
    grid = np.linspace(-150.0, 150.0, 301)
    traces, series = [], []
    for i, theta in enumerate(cfg.qwp_angles):
        ap, bp, pp = transform_extinction_triple(
            geo.chain(theta), geo.laser_vector(), geo.dipole_angle, a0, b0, psi0
        )
        model = ExtinctionModel(A=ap, B=bp, psi=pp, mol=mol, drive=drive)
        tr = extinction_spectrum(model, grid)
        tr.meta["theta_qwp_deg"] = math.degrees(theta)
        stem = f"fig4_theta{int(round(math.degrees(theta))):03d}"
        traces.append((tr, stem))
        series.append({"theta_deg": math.degrees(theta), "file": stem + ".csv"})
    files = {t[1] + ".csv": "QWP-angle series spectrum" for t in traces}
    anchored = {"dipole_angle_deg": 45.0, "polarizer_angle_deg": 80.0,
                "fig4c_peaks": {"A_peak": 0.08, "B_dip": 0.30, "net_dip": 0.22}}
    synthetic = {"qwp_angles_deg": [math.degrees(t) for t in cfg.qwp_angles],
                 "note": "QWP angle values are not published; an evenly "
                         "spaced series is used"}
    return traces, files, anchored, synthetic, series


def _reproduce_fig5(cfg: RunConfig):
    mol = cfg.molecule
    sats = [0.05, 0.5, 2.0, 8.0, 20.0, 60.0, 150.0]
    traces = []
    delays = np.linspace(0.0, 400.0, 801)
    for i, s in enumerate(sats):
        rabi = rabi_for_saturation(mol, s)
        drive = DriveParams(rabi=rabi)
        half = cfg.fpc.fsr * 1.5 + 2.0 * rabi + 20.0 * mol.gamma
        step = cfg.fpc.fwhm / 8.0
        n = 2 * int(math.ceil(half / step)) + 1
        grid = np.linspace(-half, half, n)
        emission = mollow_spectrum(mol, drive, grid, emission_scale=1000.0)
        detected = convolve_instrument(
            emission, cfg.fpc,
            laser_background_rate=50.0,
            coherent_delta_weight=1000.0 * coherent_emission_rate(s),
        )
        traces.append((detected, f"fig5_spectrum_{i}"))
        traces.append((g2_trace(delays, mol, drive), f"fig5_g2_{i}"))
    files = {}
    for i, s in enumerate(sats):
        files[f"fig5_spectrum_{i}.csv"] = f"FPC scan, S={s}"
        files[f"fig5_g2_{i}.csv"] = f"g2(tau), S={s}"
    anchored = {"fsr_MHz": 356.0, "instrument_fwhm_MHz": 14.0,
                "peak_transmission": 0.15,
                "laser_background": "same order as molecular fluorescence"}
    synthetic = {"saturation_series": sats, "emission_scale": 1000.0,
                 "laser_background_rate_cps": 50.0}
    return traces, files, anchored, synthetic


def _reproduce_fig6(cfg: RunConfig):
    mol = cfg.molecule
    incident = 550.0
    coherent = 1.1
    dip = interference_dip_rate(incident, coherent)
    drive = DriveParams(rabi=0.0, psi=math.pi / 2.0, incident_rate=incident)
    l0 = 4.0 / mol.gamma**2
    model = ExtinctionModel(A=0.0, B=(dip / incident) / (l0 * mol.gamma / 2.0),
                            psi=math.pi / 2.0, mol=mol, drive=drive)
    det = DetectorParams(dark_rate=150.0, integration_time=4.0)
    grid = np.linspace(-150.0, 150.0, 151)
    clean = extinction_spectrum(model, grid)
    rate = SpectrumTrace(grid, clean.values * incident, freq_kind="detuning_MHz",
                         value_kind="counts_per_s", meta=clean.meta)
    counts = simulate_counts(rate, det, cfg.seed)
    snr = snr_of_detection(dip, incident, det, det.integration_time)
    files = {"fig6_counts.csv": "raw counts, 4 s per pixel",
             "fig6_model.csv": "noiseless transmission model"}
    anchored = {"incident_rate_cps": incident, "coherent_rate_cps": coherent,
                "dip_cps_paper": 50.0, "dip_cps_computed": dip,
                "dark_rate_cps": 150.0, "integration_time_s": 4.0,
                "snr_per_pixel": snr}
    return [(counts, "fig6_counts"), (clean, "fig6_model")], files, anchored, {}


def cmd_reproduce(args, cfg: RunConfig) -> int:
    fig = args.figure
    out = os.path.join(cfg.out_dir, fig)
    extra = {}
    if fig == "fig2":
        traces, files, anchored, synthetic = _reproduce_fig2(cfg)
    elif fig == "fig3":
        traces, files, anchored, synthetic = _reproduce_fig3(cfg)
    elif fig == "fig4":
        traces, files, anchored, synthetic, series = _reproduce_fig4(cfg)
        extra["series"] = series
    elif fig == "fig5":
        traces, files, anchored, synthetic = _reproduce_fig5(cfg)
    elif fig == "fig6":
        traces, files, anchored, synthetic = _reproduce_fig6(cfg)
    else:
        raise ConfigError(f"unknown figure id {fig!r} (use fig2..fig6)")

    for trace, stem in traces:
        _write_trace(trace, out, stem, cfg.formats)
    manifest = {
        "figure": fig,
        "files": files,
        "paper_anchored": anchored,
        "synthetic_defaults": synthetic,
        "seed": cfg.seed,
        "config_hash": _config_hash(cfg),
        **extra,
    }
    _write_json(manifest, out, "manifest.json")
    print(f"{fig}: wrote {len(traces)} data files + manifest to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="resfluor",
        description="Coherent extinction spectroscopy of a single two-level "
                    "emitter: forward models and parameter estimation.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", default=os.environ.get("RESFLUOR_CONFIG"),
                        help="INI config file (default: RESFLUOR_CONFIG env var)")
        sp.add_argument("--profile", default="dbatt-paper")
        sp.add_argument("--seed", type=int, default=None,
                        help="RNG seed in [0, 2**64) (default: [run] seed)")
        sp.add_argument("--out", default=None)
        sp.add_argument("--threads", type=int, default=None,
                        help="must be >= 1; kept for compatibility, changes no output")

    sim = sub.add_parser("simulate", help="forward-model a spectrum or correlation")
    sim.add_argument("subcommand",
                     choices=["extinction", "mollow", "g2", "saturation-sweep", "counts"])
    common(sim)

    ana = sub.add_parser("analyze", help="fit measured or synthetic traces")
    ana.add_argument("subcommand",
                     choices=["fit-spectrum", "separate", "g2-fit",
                              "linewidth-sweep", "saturation-fit"])
    ana.add_argument("inputs", nargs="+")
    common(ana)

    rep = sub.add_parser("reproduce", help="emit the synthetic analog of a figure")
    rep.add_argument("figure")
    common(rep)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # flags enter the config, its checks and its hash as INI values do
        flags = {"run": {"seed": args.seed, "threads": args.threads},
                 "output": {"dir": args.out}}
        cfg = load_config(args.config, profile=args.profile, overrides={
            section: {k: v for k, v in kv.items() if v is not None}
            for section, kv in flags.items()})

        if args.command == "simulate":
            return cmd_simulate(args, cfg)
        if args.command == "analyze":
            if args.subcommand == "saturation-fit" and len(args.inputs) != 2:
                raise ConfigError("saturation-fit needs two inputs: coherent.csv total.csv")
            return cmd_analyze(args, cfg)
        if args.command == "reproduce":
            return cmd_reproduce(args, cfg)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NotConvergedError, RankDeficientError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOCONV
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
