"""Command-line interface: simulate / analyze / reproduce.

Exit codes: 0 success, 2 configuration or input error, 3 numeric domain
error, 4 fit non-convergence (the result file is still written).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

# Only the layers that every command needs are imported here; each command
# imports synth, correlation, estimation or polarization where it uses them,
# so a fresh process loads no layer that its command does not run, but one:
# correlation binds estimation's minimize at import, so simulate g2 and
# reproduce fig5 load estimation without fitting.
from .config import ConfigError, RunConfig, load_config
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
    saturation_for_rabi,
    saturation_parameter,
)
from .spectra import (
    ExtinctionModel,
    SpectrumTrace,
    convolve_instrument,
    extinction_spectrum,
    lorentzian_profile,
    mollow_spectrum,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_NOCONV = 4

# a noisy transmission is normalized by at least this many signal counts per pixel
_MIN_SIGNAL_COUNTS = 1e-6


def _config_hash(cfg: RunConfig) -> str:
    import hashlib

    blob = json.dumps(cfg.raw, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _write_text(text: str, out_dir: str, name: str) -> str:
    """Write text to out_dir/name, creating out_dir; a path that cannot be
    written is a ConfigError."""
    path = os.path.join(out_dir, name)
    try:
        os.makedirs(out_dir, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    return path


def _write_trace(trace: SpectrumTrace, out_dir: str, stem: str):
    """Write trace as out_dir/stem.csv and then out_dir/stem.json."""
    _write_text(trace.to_csv(), out_dir, f"{stem}.csv")
    _write_text(trace.to_json(), out_dir, f"{stem}.json")


def _read_trace(path: str, cls, *axis: str):
    """Parse the CSV file at path as a cls (a SpectrumTrace class); axis,
    for a SpectrumTrace, is the freq_kind the analysis reads.  A missing,
    unparseable or empty trace, or one whose CSV names another axis, is a
    ConfigError."""
    try:
        with open(path) as fh:
            trace = cls.from_csv(fh.read(), *axis)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot parse trace {path}: {exc}") from exc
    if trace.values.size == 0:
        raise ConfigError(f"trace {path} has no data rows")
    return trace


def _load_series(manifest_path: str, key: str) -> list:
    """(entry[key], trace) for each entry of a manifest's "series" list;
    entry["file"] is relative to the manifest's directory, and its trace is
    read on the detuning axis.  A malformed manifest or entry, or traces of
    differing units, is a ConfigError that names it."""
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
        trace = _read_trace(os.path.join(base, path), SpectrumTrace, "detuning_MHz")
        if pairs:
            try:
                pairs[0][1].require_same_units(trace)
            except ValueError as exc:
                raise ConfigError(f"{where}: {exc}") from exc
        pairs.append((value, trace))
    return pairs


def _extinction_model(mol, drive: DriveParams, a_frac: float, b_dip: float) -> ExtinctionModel:
    """Extinction model at the drive's phase and power-broadened width whose
    A-term peak and B-term dip (at psi = pi/2) on resonance are the
    fractions a_frac and b_dip of the baseline."""
    l0 = float(lorentzian_profile(0.0, mol, drive.rabi))
    return ExtinctionModel(A=a_frac / l0, B=b_dip / (l0 * mol.gamma / 2.0), psi=drive.psi,
                           mol=mol, drive=drive)


# bounds the N points of the written CSV and the O(N^2) multiply-adds of the
# instrument convolution (~67 million at 8193 points)
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


def _mollow_traces(fpc, mol, drive: DriveParams, s: float, scale: float,
                   background: float) -> tuple:
    """(emission, detected): the Mollow spectrum at saturation s times
    scale, and what the FPC passes of it plus its coherent part and a
    laser background rate."""
    emission = mollow_spectrum(mol, drive, _mollow_grid(fpc, drive.rabi, mol.gamma),
                               emission_scale=scale)
    detected = convolve_instrument(emission, fpc, laser_background_rate=background,
                                   coherent_delta_weight=coherent_emission_rate(s) * scale)
    return emission, detected


def _saturation_traces(p_sat: float, powers, scale: float, generator: str) -> tuple:
    """Coherent S/(1+S)^2 and total S/(1+S) rate factors over powers (pW),
    times scale, at S = powers / p_sat."""
    sat = powers / p_sat
    coherent = scale * sat / (1 + sat) ** 2
    total = scale * sat / (1 + sat)
    return tuple(
        SpectrumTrace(powers, values, freq_kind="power_pW", value_kind="rate_factor",
                      meta={"generator": f"{generator}_{part}", "p_sat_pw": p_sat})
        for part, values in (("coherent", coherent), ("total", total))
    )


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _noisy_extinction(cfg: RunConfig, model: ExtinctionModel, grid, det: DetectorParams):
    """synth.noisy_extinction_trace at [drive] incident_rate and [run] seed;
    fewer expected signal counts per pixel than _MIN_SIGNAL_COUNTS is a ConfigError."""
    from .synth import noisy_extinction_trace

    rate, qe, t = cfg.drive.incident_rate, det.quantum_efficiency, det.integration_time
    if rate * qe * t < _MIN_SIGNAL_COUNTS:
        raise ConfigError(
            f"[drive] incident_rate = {rate:g} with quantum_efficiency = {qe:g} and "
            f"integration_time = {t:g} s expects {rate * qe * t:g} signal counts per pixel; a "
            f"noisy extinction trace divides by them and needs >= {_MIN_SIGNAL_COUNTS:g}")
    return noisy_extinction_trace(model, grid, rate, det, cfg.seed)


# each simulation returns its (trace, stem) pairs and its stdout line; s is
# the drive's saturation parameter

def _sim_extinction(cfg: RunConfig, s: float):
    mol, drive, sim = cfg.molecule, cfg.drive, cfg.simulate
    model = _extinction_model(mol, drive, sim["extinction_a"], sim["extinction_b_dip"])
    grid = np.linspace(sim["grid_min"], sim["grid_max"], sim["points"])
    trace = extinction_spectrum(model, grid)
    lo, hi = trace.values.min(), trace.values.max()
    if lo < 0.0 or hi > 4.0:   # (1 + 1)^2: a scattered field of at most the laser's
        raise ConfigError(
            f"[simulate] extinction_b_dip = {sim['extinction_b_dip']:g} with extinction_a = "
            f"{sim['extinction_a']:g} at [drive] rabi = {drive.rabi:g} MHz, psi = "
            f"{math.degrees(drive.psi):g} deg: the noiseless transmission on the grid spans "
            f"[{lo:.4g}, {hi:.4g}], outside [0, 4]")
    if sim["noise"]:
        trace = _noisy_extinction(cfg, model, grid, cfg.detector)
    dip = 1.0 - float(trace.values.min())
    return [(trace, "extinction")], \
        f"extinction: dip depth {dip:.4f}, S={s:.4g}, gamma={mol.gamma} MHz"


def _require_noiseless(cfg: RunConfig, command: str):
    """A ConfigError for [simulate] noise = true on a simulation that draws
    no counts, rather than a noiseless output under a noisy config."""
    if cfg.simulate["noise"]:
        raise ConfigError(f"[simulate] noise = true: simulate {command} draws no counts; "
                          f"set noise = false")


def _sim_mollow(cfg: RunConfig, s: float):
    _require_noiseless(cfg, "mollow")
    drive, sim = cfg.drive, cfg.simulate
    emission, detected = _mollow_traces(cfg.fpc, cfg.molecule, drive, s,
                                        sim["emission_scale"], sim["laser_background_rate"])
    return [(emission, "mollow_emission"), (detected, "mollow_detected")], \
        f"mollow: Omega={drive.rabi:.4g} MHz, S={s:.4g}, sidebands at +-{drive.rabi:.4g} MHz"


def _sim_g2(cfg: RunConfig, s: float):
    from .correlation import annotate, g2_trace

    mol, drive, sim = cfg.molecule, cfg.drive, cfg.simulate
    delays = np.linspace(0.0, sim["tau_max_ns"], sim["tau_points"])
    if sim["noise"]:
        from .synth import noisy_g2_trace

        try:
            trace = noisy_g2_trace(delays, mol, drive, sim["plateau_coincidences"], cfg.seed)
        except ValueError as exc:   # no coincidence on the plateau (one delay: g2(0) = 0)
            raise ConfigError(f"[simulate] tau_points = {sim['tau_points']}, tau_max_ns = "
                              f"{sim['tau_max_ns']:g}, plateau_coincidences = "
                              f"{sim['plateau_coincidences']:g}: {exc}") from None
    else:
        trace = g2_trace(delays, mol, drive)
    return [(trace, "g2")], f"g2: {annotate(drive.rabi, mol)}"


def _sim_saturation_sweep(cfg: RunConfig, s: float):
    _require_noiseless(cfg, "saturation-sweep")
    sim = cfg.simulate
    powers = np.geomspace(sim["power_min_pw"], sim["power_max_pw"], sim["power_points"])
    coh, tot = _saturation_traces(cfg.p_sat_pw, powers, sim["emission_scale"],
                                  "saturation_sweep")
    return [(coh, "saturation_coherent"), (tot, "saturation_total")], \
        f"saturation-sweep: P_sat={cfg.p_sat_pw} pW, coherent max at S=1"


def _sim_counts(cfg: RunConfig, s: float):
    grid = np.arange(float(cfg.simulate["points"]))
    rate = SpectrumTrace(grid, np.full_like(grid, cfg.drive.incident_rate),
                         freq_kind="pixel_index", value_kind="counts_per_s")
    trace = simulate_counts(rate, cfg.detector, cfg.seed)
    return [(trace, "counts")], \
        f"counts: mean {trace.values.mean():.1f} per {cfg.detector.integration_time} s pixel"


SIMULATIONS = {
    "extinction": _sim_extinction,
    "mollow": _sim_mollow,
    "g2": _sim_g2,
    "saturation-sweep": _sim_saturation_sweep,
    "counts": _sim_counts,
}


def cmd_simulate(args, cfg: RunConfig) -> int:
    s = saturation_parameter(cfg.molecule, cfg.drive)
    traces, line = SIMULATIONS[args.subcommand](cfg, s)
    for trace, stem in traces:
        _write_trace(trace, cfg.out_dir, stem)
    print(line)
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze: each fit returns (FitResult, extra JSON fields, extra stdout lines)
# ---------------------------------------------------------------------------

def _fit_spectrum(inputs, cfg: RunConfig):
    from .estimation import fit_extinction

    return fit_extinction(_read_trace(inputs[0], SpectrumTrace, "detuning_MHz")), {}, []


def _separate(inputs, cfg: RunConfig):
    from .polarization import DegenerateConfigurationError, separate_components

    pairs = [(math.radians(theta), trace)
             for theta, trace in _load_series(inputs[0], "theta_deg")]
    try:
        res = separate_components(pairs, cfg.geometry)
    except DegenerateConfigurationError as exc:
        raise ConfigError(f"[geometry] detection chain: {exc}") from exc
    return res, {}, [f"psi0 = {math.degrees(res.params['psi0']):.2f} deg"]


def _g2_fit(inputs, cfg: RunConfig):
    from .correlation import G2Trace, annotate, fit_rabi_from_g2

    mol = cfg.molecule
    res = fit_rabi_from_g2(_read_trace(inputs[0], G2Trace), mol)
    rabi = res.params["rabi"]   # data: it need not lie in the drive's domain
    return res, {"saturation": saturation_for_rabi(mol, rabi)}, [annotate(rabi, mol)]


def _linewidth_sweep(inputs, cfg: RunConfig):
    from .estimation import fit_linewidth_vs_power

    series = _load_series(inputs[0], "power_pw")
    table, res = fit_linewidth_vs_power(series)
    widths = [{"power_pw": p, "fwhm_MHz": w, "fwhm_err_MHz": e} for p, w, e in table]
    extra = {"linewidths": widths}
    if len(table) < len(series):   # the sweep stopped at this power's line fit
        extra["error"] = f"linewidth fit failed at power {series[len(table)][0]}"
    return res, extra, []


def _saturation_fit(inputs, cfg: RunConfig):
    from .estimation import fit_saturation_curves

    if len(inputs) != 2:
        raise ConfigError("saturation-fit needs two inputs: coherent.csv total.csv")
    coh = _read_trace(inputs[0], SpectrumTrace, "power_pW")
    tot = _read_trace(inputs[1], SpectrumTrace, "power_pW")
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
    """Run the fit and map its outcome to the exit code, the one place that
    does.  Input the fit rejects (ValueError, RankDeficientError) is exit 2
    and writes nothing.  A fit that ran writes its JSON and prints its
    table; an unconverged one adds an error message (the analysis's own,
    else its status), which stderr repeats, and is exit 4."""
    from .estimation import RankDeficientError

    fit, name = ANALYSES[args.subcommand]
    try:
        res, extra, lines = fit(args.inputs, cfg)
    except ConfigError:
        raise
    except RankDeficientError as exc:
        raise ConfigError(f"input cannot determine the fit: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{args.inputs[0]}: {exc}") from exc
    if not res.converged:
        extra.setdefault("error", f"fit did not converge (status {res.status})")
        print(f"error: {extra['error']}", file=sys.stderr)
    _write_text(json.dumps({**json.loads(res.to_json()), **extra}, indent=2), cfg.out_dir, name)
    print(res.table())
    for line in lines:
        print(line)
    return EXIT_OK if res.converged else EXIT_NOCONV


# ---------------------------------------------------------------------------
# reproduce: each figure returns ((trace, stem, description) triples,
# paper-anchored numbers, synthetic defaults, extra manifest fields)
# ---------------------------------------------------------------------------

def _reproduce_fig2(cfg: RunConfig):
    mol = cfg.molecule
    drive = DriveParams(rabi=0.0, psi=math.pi / 2.0,
                        incident_rate=cfg.drive.incident_rate)
    model = _extinction_model(mol, drive, 0.0, 0.115)
    grid = np.linspace(-150.0, 150.0, 301)
    det = DetectorParams(dark_rate=0.0, integration_time=0.16)
    noisy = _noisy_extinction(cfg, model, grid, det)
    clean = extinction_spectrum(model, grid)
    anchored = {"dip_depth": 0.115, "noise_rms": 0.007, "integration_time_s": 0.16,
                "gamma_MHz": mol.gamma}
    synthetic = {"A_B_split": "single-trace A/B decomposition is not unique; "
                              "the dip is carried by the B-term here"}
    traces = [(noisy, "fig2_transmission", "raw transmission spectrum (11.5% dip)"),
              (clean, "fig2_model", "noiseless model curve")]
    return traces, anchored, synthetic, {}


def _reproduce_fig3(cfg: RunConfig):
    coh, tot = _saturation_traces(cfg.p_sat_pw, np.geomspace(5.0, 1e4, 41), 1.0, "fig3")
    traces = [(coh, "fig3_coherent", "coherent part, S/(1+S)^2"),
              (tot, "fig3_total", "fluorescence excitation signal, S/(1+S)")]
    anchored = {"p_sat_pw": 350.0, "power_span_pw": [5.0, 1e4]}
    return traces, anchored, {}, {}


def _reproduce_fig4(cfg: RunConfig):
    from .polarization import DegenerateConfigurationError, transform_extinction_triple

    mol = cfg.molecule
    geo = cfg.geometry
    cos_dipole = abs(math.cos(geo.dipole_angle))
    if cos_dipole < 1e-12:
        raise ConfigError(f"[geometry] dipole_angle_deg = {math.degrees(geo.dipole_angle):g} "
                          f"puts the dipole perpendicular to the laser: fig4 has no B0")
    drive = DriveParams(rabi=0.0, psi=math.pi / 2.0)
    # intrinsic triple sized so the projected spectra show percent-scale features
    model = _extinction_model(mol, drive, 0.08, 0.30)
    a0 = model.A / 0.5
    b0 = model.B / cos_dipole
    psi0 = math.pi / 2.0
    grid = np.linspace(-150.0, 150.0, 301)
    traces, series = [], []
    for theta in cfg.qwp_angles:
        try:
            ap, bp, pp = transform_extinction_triple(geo.chain(theta), geo.laser_vector(),
                                                     geo.dipole_angle, a0, b0, psi0)
        except DegenerateConfigurationError as exc:
            raise ConfigError(f"[geometry] detection chain: {exc}") from exc
        tr = extinction_spectrum(ExtinctionModel(A=ap, B=bp, psi=pp, mol=mol, drive=drive),
                                 grid)
        tr.meta["theta_qwp_deg"] = math.degrees(theta)
        stem = f"fig4_theta{int(round(math.degrees(theta))):03d}"
        traces.append((tr, stem, "QWP-angle series spectrum"))
        series.append({"theta_deg": math.degrees(theta), "file": stem + ".csv"})
    anchored = {"dipole_angle_deg": 45.0, "polarizer_angle_deg": 80.0,
                "fig4c_peaks": {"A_peak": 0.08, "B_dip": 0.30, "net_dip": 0.22}}
    synthetic = {"qwp_angles_deg": [math.degrees(t) for t in cfg.qwp_angles],
                 "note": "QWP angle values are not published; an evenly "
                         "spaced series is used"}
    return traces, anchored, synthetic, {"series": series}


def _reproduce_fig5(cfg: RunConfig):
    from .correlation import g2_trace

    mol = cfg.molecule
    sats = [0.05, 0.5, 2.0, 8.0, 20.0, 60.0, 150.0]
    traces = []
    delays = np.linspace(0.0, 400.0, 801)
    for i, s in enumerate(sats):
        drive = DriveParams(rabi=rabi_for_saturation(mol, s))
        _, detected = _mollow_traces(cfg.fpc, mol, drive, s, 1000.0, 50.0)
        traces.append((detected, f"fig5_spectrum_{i}", f"FPC scan, S={s}"))
        traces.append((g2_trace(delays, mol, drive), f"fig5_g2_{i}", f"g2(tau), S={s}"))
    anchored = {"fsr_MHz": 356.0, "instrument_fwhm_MHz": 14.0,
                "peak_transmission": 0.15,
                "laser_background": "same order as molecular fluorescence"}
    synthetic = {"saturation_series": sats, "emission_scale": 1000.0,
                 "laser_background_rate_cps": 50.0}
    return traces, anchored, synthetic, {}


def _reproduce_fig6(cfg: RunConfig):
    mol = cfg.molecule
    incident = 550.0
    coherent = 1.1
    dip = interference_dip_rate(incident, coherent)
    drive = DriveParams(rabi=0.0, psi=math.pi / 2.0, incident_rate=incident)
    model = _extinction_model(mol, drive, 0.0, dip / incident)
    det = DetectorParams(dark_rate=150.0, integration_time=4.0)
    grid = np.linspace(-150.0, 150.0, 151)
    clean = extinction_spectrum(model, grid)
    rate = SpectrumTrace(grid, clean.values * incident, freq_kind="detuning_MHz",
                         value_kind="counts_per_s", meta=clean.meta)
    counts = simulate_counts(rate, det, cfg.seed)
    snr = snr_of_detection(dip, incident, det, det.integration_time)
    anchored = {"incident_rate_cps": incident, "coherent_rate_cps": coherent,
                "dip_cps_paper": 50.0, "dip_cps_computed": dip,
                "dark_rate_cps": 150.0, "integration_time_s": 4.0,
                "snr_per_pixel": snr}
    traces = [(counts, "fig6_counts", "raw counts, 4 s per pixel"),
              (clean, "fig6_model", "noiseless transmission model")]
    return traces, anchored, {}, {}


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
    traces, anchored, synthetic, extra = FIGURES[fig](cfg)
    out = os.path.join(cfg.out_dir, fig)
    for trace, stem, _ in traces:
        _write_trace(trace, out, stem)
    manifest = {
        "figure": fig,
        "files": {stem + ".csv": description for _, stem, description in traces},
        "paper_anchored": anchored,
        "synthetic_defaults": synthetic,
        "seed": cfg.seed,
        "config_hash": _config_hash(cfg),
        **extra,
    }
    _write_text(json.dumps(manifest, indent=2), out, "manifest.json")
    print(f"{fig}: wrote {len(traces)} data files + manifest to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

COMMANDS = {"simulate": cmd_simulate, "analyze": cmd_analyze, "reproduce": cmd_reproduce}


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
    sim.add_argument("subcommand", choices=list(SIMULATIONS))
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

        return COMMANDS[args.command](args, cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
