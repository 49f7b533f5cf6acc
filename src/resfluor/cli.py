"""Command-line interface: simulate / analyze / reproduce.

Exit codes: 0 success, 2 configuration or input error, 3 numeric domain
error, 4 fit non-convergence (the result file is still written).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import synth
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
    """Write trace as out_dir/stem.<format> for each of formats that the
    trace type has; a ConfigError when that writes no file."""
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
    if not written:
        raise ConfigError(f"[output] formats = {', '.join(formats)} writes no file "
                          f"for a {type(trace).__name__}")
    return written


def _write_json(obj: dict, out_dir: str, name: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
    return path


def _read_trace(path: str, cls):
    """Parse the CSV file at path as a cls (SpectrumTrace or G2Trace).  A
    missing, unparseable or empty trace is a ConfigError."""
    try:
        with open(path) as fh:
            trace = cls.from_csv(fh.read())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot parse trace {path}: {exc}") from exc
    if trace.values.size == 0:
        raise ConfigError(f"trace {path} has no data rows")
    return trace


def _load_series(manifest_path: str, key: str) -> list:
    """(entry[key], trace) for each entry of a manifest's "series" list;
    entry["file"] is relative to the manifest's directory.  A malformed
    manifest or entry is a ConfigError that names it."""
    try:
        with open(manifest_path) as fh:
            series = json.load(fh)["series"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"cannot parse manifest {manifest_path}: {exc}") from exc
    if not isinstance(series, list):
        raise ConfigError(f"manifest {manifest_path}: 'series' is not a list")
    base = os.path.dirname(os.path.abspath(manifest_path))
    pairs = []
    for i, entry in enumerate(series):
        where = f"manifest {manifest_path}, series entry {i}"
        if not isinstance(entry, dict):
            raise ConfigError(f"{where}: not an object")
        value, path = entry.get(key), entry.get("file")
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            raise ConfigError(f"{where}: {key!r} must be a finite number, got {value!r}")
        if not isinstance(path, str):
            raise ConfigError(f"{where}: 'file' must be a path, got {path!r}")
        pairs.append((value, _read_trace(os.path.join(base, path), SpectrumTrace)))
    return pairs


def _amplitudes(mol, rabi: float, a_frac: float, b_dip: float) -> tuple:
    """(A, B) of the extinction model whose A-term peak and B-term dip (at
    psi = pi/2) on resonance are the fractions a_frac and b_dip of the
    baseline, at the power-broadened width of the given Rabi frequency."""
    l0 = 1.0 / (mol.gamma**2 / 4.0 + rabi**2 * mol.gamma / (2.0 * mol.gamma0))
    return a_frac / l0, b_dip / (l0 * mol.gamma / 2.0)


# the instrument convolution holds an N x N kernel: 8193 points is ~0.5 GiB
_MOLLOW_GRID_MAX_POINTS = 8193


def _mollow_grid(fpc, rabi: float, gamma: float) -> np.ndarray:
    """Emission grid for a Mollow spectrum seen through the FPC: spans
    +-(1.5 FSR + 2 rabi + 20 gamma), so it covers more than one FSR, at 8
    points per instrument FWHM; at most _MOLLOW_GRID_MAX_POINTS points."""
    half = fpc.fsr * 1.5 + 2.0 * rabi + 20.0 * gamma
    step = fpc.fwhm / 8.0
    n = 2 * int(math.ceil(half / step)) + 1
    if n > _MOLLOW_GRID_MAX_POINTS:
        raise ConfigError(
            f"Mollow emission grid of {n} points exceeds {_MOLLOW_GRID_MAX_POINTS}: [drive] "
            f"rabi = {rabi:g} MHz with [fpc] fsr = {fpc.fsr:g}, fwhm = {fpc.fwhm:g} MHz")
    return np.linspace(-half, half, n)


def _saturation_traces(cal, powers, scale: float, generator: str) -> tuple:
    """Coherent S/(1+S)^2 and total S/(1+S) rate factors over powers (pW),
    times scale."""
    sat = np.array([cal.saturation(p) for p in powers])
    return tuple(
        SpectrumTrace(powers, values, freq_kind="power_pW", value_kind="rate_factor",
                      meta={"generator": f"{generator}_{part}", "p_sat_pw": cal.p_at_s1})
        for part, values in (("coherent", scale * sat / (1 + sat) ** 2),
                             ("total", scale * sat / (1 + sat)))
    )


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args, cfg: RunConfig) -> int:
    out, formats, sim = cfg.out_dir, cfg.formats, cfg.simulate
    mol, drive = cfg.molecule, cfg.drive
    s = saturation_parameter(mol, drive) if drive.detuning == 0 else float("nan")

    if args.subcommand == "extinction":
        a, b = _amplitudes(mol, drive.rabi, sim["extinction_a"], sim["extinction_b_dip"])
        model = ExtinctionModel(A=a, B=b, psi=drive.psi, mol=mol, drive=drive)
        grid = np.linspace(sim["grid_min"], sim["grid_max"], sim["points"])
        if sim["noise"]:
            trace = synth.noisy_extinction_trace(
                model, grid, drive.incident_rate, cfg.detector, cfg.seed
            )
        else:
            trace = extinction_spectrum(model, grid)
        _write_trace(trace, out, "extinction", formats)
        dip = 1.0 - float(trace.values.min())
        print(f"extinction: dip depth {dip:.4f}, S={s:.4g}, gamma={mol.gamma} MHz")

    elif args.subcommand == "mollow":
        scale = sim["emission_scale"]
        emission = mollow_spectrum(mol, drive, _mollow_grid(cfg.fpc, drive.rabi, mol.gamma),
                                   emission_scale=scale)
        coh = coherent_emission_rate(s) * scale
        detected = convolve_instrument(
            emission,
            cfg.fpc,
            laser_background_rate=sim["laser_background_rate"],
            coherent_delta_weight=coh,
        )
        _write_trace(emission, out, "mollow_emission", formats)
        _write_trace(detected, out, "mollow_detected", formats)
        print(
            f"mollow: Omega={drive.rabi:.4g} MHz, S={s:.4g}, "
            f"sidebands at +-{drive.rabi:.4g} MHz"
        )

    elif args.subcommand == "g2":
        delays = np.linspace(0.0, sim["tau_max_ns"], sim["tau_points"])
        if sim["noise"]:
            trace = synth.noisy_g2_trace(
                delays, mol, drive, sim["plateau_coincidences"], cfg.seed
            )
        else:
            trace = g2_trace(delays, mol, drive)
        _write_trace(trace, out, "g2", formats)
        print(f"g2: {annotate(drive.rabi, mol)}")

    elif args.subcommand == "saturation-sweep":
        powers = np.geomspace(sim["power_min_pw"], sim["power_max_pw"], sim["power_points"])
        coh, tot = _saturation_traces(cfg.power_calibration, powers,
                                      sim["emission_scale"],
                                      "saturation_sweep")
        _write_trace(coh, out, "saturation_coherent", formats)
        _write_trace(tot, out, "saturation_total", formats)
        print(
            f"saturation-sweep: P_sat={cfg.power_calibration.p_at_s1} pW, "
            f"coherent max at S=1"
        )

    elif args.subcommand == "counts":
        grid = np.arange(float(sim["points"]))
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
# analyze: each fit returns (FitResult, extra JSON fields, extra stdout lines)
# ---------------------------------------------------------------------------

def _fit_spectrum(inputs, cfg: RunConfig):
    trace = _read_trace(inputs[0], SpectrumTrace)
    try:
        res = fit_extinction(trace)
    except ValueError as exc:
        raise ConfigError(f"{inputs[0]}: {exc}") from exc
    return res, {}, []


def _separate(inputs, cfg: RunConfig):
    pairs = [(math.radians(theta), trace)
             for theta, trace in _load_series(inputs[0], "theta_deg")]
    res = separate_components(pairs, cfg.geometry)
    return res, {}, [f"psi0 = {math.degrees(res.params['psi0']):.2f} deg"]


def _g2_fit(inputs, cfg: RunConfig):
    mol = cfg.molecule
    trace = _read_trace(inputs[0], G2Trace)
    try:
        res = fit_rabi_from_g2(trace, mol)
    except ValueError as exc:
        raise ConfigError(f"{inputs[0]}: {exc}") from exc
    rabi = res.params["rabi"]
    return res, {"saturation": cross_check_saturation(rabi, mol)}, [annotate(rabi, mol)]


def _linewidth_sweep(inputs, cfg: RunConfig):
    table, res = fit_linewidth_vs_power(_load_series(inputs[0], "power_pw"))
    widths = [{"power_pw": p, "fwhm_MHz": w, "fwhm_err_MHz": e} for p, w, e in table]
    return res, {"linewidths": widths}, []


def _saturation_fit(inputs, cfg: RunConfig):
    if len(inputs) != 2:
        raise ConfigError("saturation-fit needs two inputs: coherent.csv total.csv")
    coh = _read_trace(inputs[0], SpectrumTrace)
    tot = _read_trace(inputs[1], SpectrumTrace)
    if coh.grid.size != tot.grid.size or not np.allclose(coh.grid, tot.grid):
        raise ConfigError("saturation-fit: power grids of the two channels differ")
    return fit_saturation_curves(coh.grid, coh.values, tot.values), {}, []


ANALYSES = {
    "fit-spectrum": (_fit_spectrum, "fit_spectrum.json"),
    "separate": (_separate, "separate.json"),
    "g2-fit": (_g2_fit, "g2_fit.json"),
    "linewidth-sweep": (_linewidth_sweep, "linewidth_sweep.json"),
    "saturation-fit": (_saturation_fit, "saturation_fit.json"),
}


def cmd_analyze(args, cfg: RunConfig) -> int:
    """Run the fit, write its JSON, print its table and map its status to
    the exit code.  A fit that stops unconverged with NotConvergedError
    still writes the result it carries, with the error message; input that
    cannot determine the fit (RankDeficientError) is an input error."""
    fit, name = ANALYSES[args.subcommand]
    try:
        res, extra, lines = fit(args.inputs, cfg)
    except NotConvergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        res, extra, lines = exc.result, {"error": str(exc)}, []
    except RankDeficientError as exc:
        raise ConfigError(f"input cannot determine the fit: {exc}") from exc
    _write_json({**json.loads(res.to_json()), **extra}, cfg.out_dir, name)
    print(res.table())
    for line in lines:
        print(line)
    return EXIT_OK if res.converged else EXIT_NOCONV


# ---------------------------------------------------------------------------
# reproduce: each figure returns (traces, files, paper-anchored numbers,
# synthetic defaults, extra manifest fields)
# ---------------------------------------------------------------------------

def _reproduce_fig2(cfg: RunConfig):
    mol = cfg.molecule
    drive = DriveParams(rabi=0.0, psi=math.pi / 2.0,
                        incident_rate=cfg.drive.incident_rate)
    a, b = _amplitudes(mol, 0.0, 0.0, 0.115)
    model = ExtinctionModel(A=a, B=b, psi=math.pi / 2.0, mol=mol, drive=drive)
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
    traces = [(noisy, "fig2_transmission"), (clean, "fig2_model")]
    return traces, files, anchored, synthetic, {}


def _reproduce_fig3(cfg: RunConfig):
    coh, tot = _saturation_traces(cfg.power_calibration, np.geomspace(5.0, 1e4, 41),
                                  1.0, "fig3")
    files = {"fig3_coherent.csv": "coherent part, S/(1+S)^2",
             "fig3_total.csv": "fluorescence excitation signal, S/(1+S)"}
    anchored = {"p_sat_pw": 350.0, "power_span_pw": [5.0, 1e4]}
    return [(coh, "fig3_coherent"), (tot, "fig3_total")], files, anchored, {}, {}


def _reproduce_fig4(cfg: RunConfig):
    mol = cfg.molecule
    geo = cfg.geometry
    drive = DriveParams(rabi=0.0, psi=math.pi / 2.0)
    # intrinsic triple sized so the projected spectra show percent-scale features
    a, b = _amplitudes(mol, 0.0, 0.08, 0.30)
    a0 = a / 0.5
    b0 = b / math.cos(geo.dipole_angle)
    psi0 = math.pi / 2.0
    grid = np.linspace(-150.0, 150.0, 301)
    traces, series = [], []
    for theta in cfg.qwp_angles:
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
    return traces, files, anchored, synthetic, {"series": series}


def _reproduce_fig5(cfg: RunConfig):
    mol = cfg.molecule
    sats = [0.05, 0.5, 2.0, 8.0, 20.0, 60.0, 150.0]
    traces = []
    delays = np.linspace(0.0, 400.0, 801)
    for i, s in enumerate(sats):
        rabi = rabi_for_saturation(mol, s)
        drive = DriveParams(rabi=rabi)
        emission = mollow_spectrum(mol, drive, _mollow_grid(cfg.fpc, rabi, mol.gamma),
                                   emission_scale=1000.0)
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
    return traces, files, anchored, synthetic, {}


def _reproduce_fig6(cfg: RunConfig):
    mol = cfg.molecule
    incident = 550.0
    coherent = 1.1
    dip = interference_dip_rate(incident, coherent)
    drive = DriveParams(rabi=0.0, psi=math.pi / 2.0, incident_rate=incident)
    a, b = _amplitudes(mol, 0.0, 0.0, dip / incident)
    model = ExtinctionModel(A=a, B=b, psi=math.pi / 2.0, mol=mol, drive=drive)
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
    return [(counts, "fig6_counts"), (clean, "fig6_model")], files, anchored, {}, {}


FIGURES = {
    "fig2": _reproduce_fig2,
    "fig3": _reproduce_fig3,
    "fig4": _reproduce_fig4,
    "fig5": _reproduce_fig5,
    "fig6": _reproduce_fig6,
}


def cmd_reproduce(args, cfg: RunConfig) -> int:
    fig = args.figure
    if fig not in FIGURES:
        raise ConfigError(f"unknown figure id {fig!r} (use fig2..fig6)")
    traces, files, anchored, synthetic, extra = FIGURES[fig](cfg)
    out = os.path.join(cfg.out_dir, fig)
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
    ana.add_argument("subcommand", choices=list(ANALYSES))
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
        cfg = load_config(args.config, overrides={
            section: {k: v for k, v in kv.items() if v is not None}
            for section, kv in flags.items()})

        if args.command == "simulate":
            return cmd_simulate(args, cfg)
        if args.command == "analyze":
            return cmd_analyze(args, cfg)
        if args.command == "reproduce":
            return cmd_reproduce(args, cfg)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
