"""Run configuration: flat INI-style sections with '#' comments, parsed
strictly (unknown sections or keys are errors, so typos cannot pass
silently).  Angles are degrees in the file and radians internally.

The read-only built-in profile ``dbatt-paper`` carries the published
constants of the DBATT system that some output depends on: gamma0 =
16.4 MHz (9.7 ns lifetime), gamma = 17 MHz, FPC 356 / 14 MHz at 15%
transmission, 150 cps dark counts and P_sat = 350 pW.  The drive is
resonant: there is no detuning key.  [output] names only the directory.

A RunConfig holds only what a command reads.  [drive] power_pw sets the
Rabi frequency at S = power_pw / p_sat_pw.  [run] threads is parsed,
checked and hashed but has no field: sampling runs in the calling thread.

Every value lies in the physical domain: the parameter containers check the
emitter, drive, cavity and detector against physics' ranges, and _SCHEMA
gives the values only a command reads their closed ranges.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from typing import Optional

from .measurement import DetectorParams
from .physics import (COUNT_RATE, LINEWIDTH_MHZ, RABI_MHZ, DriveParams, MoleculeParams,
                      SeparationGeometry, rabi_for_saturation)
from .spectra import FpcParams


class ConfigError(ValueError):
    """Configuration problem, addressed by section and field."""


# every shipped config, golden run and benchmark workload uses <= 801 samples;
# a million make one simulate run peak near 0.25 GB and write ~40 MB files
_MAX_SAMPLES = 1_000_000


def _parse_value(section, key, raw, kind):
    try:
        if kind is float:
            value = float(raw)
        elif kind is int:
            value = int(raw)
        elif kind is bool:
            if raw.lower() in ("true", "yes", "1", "on"):
                value = True
            elif raw.lower() in ("false", "no", "0", "off"):
                value = False
            else:
                raise ValueError(raw)
        elif kind == "float_list":
            value = [float(x) for x in raw.split(",") if x.strip()]
        else:
            value = raw
    except ValueError:
        raise ConfigError(
            f"[{section}] {key}: cannot parse {raw!r} as {getattr(kind, '__name__', kind)}"
        ) from None
    # float() accepts inf, nan and literals that overflow; none is a usable value
    floats = value if kind == "float_list" else [value] if kind is float else []
    if not all(math.isfinite(x) for x in floats):
        raise ConfigError(f"[{section}] {key}: {raw!r} is not a finite number")
    return value


_POWER_PW = (0.0, 1e12)
_GRID_MHZ = (-LINEWIDTH_MHZ[1], LINEWIDTH_MHZ[1])

# section -> key -> (kind, dbatt-paper value[, closed domain]); power_pw is
# optional and has no value, so [drive] rabi sets the drive unless the file
# gives power_pw
_SCHEMA = {
    "molecule": {"gamma0": (float, "16.4"), "gamma": (float, "17.0")},
    "drive": {"rabi": (float, "0.0"), "psi_deg": (float, "90.0"),
              "incident_rate": (float, "127550.0"),
              "power_pw": (float, None, _POWER_PW),
              "p_sat_pw": (float, "350.0", (1e-12, _POWER_PW[1]))},
    "detector": {"dark_rate": (float, "150.0"), "quantum_efficiency": (float, "1.0"),
                 "integration_time": (float, "0.16")},
    "fpc": {"fsr": (float, "356.0"), "fwhm": (float, "14.0"),
            "peak_transmission": (float, "0.15")},
    "geometry": {"dipole_angle_deg": (float, "45.0"), "polarizer_angle_deg": (float, "80.0"),
                 "polarizer_extinction_ratio": (float, "0.0"),
                 "qwp_angles_deg": ("float_list", "0, 36, 72, 108, 144")},
    "simulate": {"grid_min": (float, "-150.0", _GRID_MHZ),
                 "grid_max": (float, "150.0", _GRID_MHZ),
                 "points": (int, "301", (1, _MAX_SAMPLES)), "noise": (bool, "false"),
                 "extinction_a": (float, "0.0", (0.0, 1.0)),   # scattered field <= laser's
                 "extinction_b_dip": (float, "0.115", (0.0, 2.0)),
                 "emission_scale": (float, "1.0", COUNT_RATE),
                 "laser_background_rate": (float, "0.0", COUNT_RATE),
                 "tau_max_ns": (float, "400.0", (1e-9, 1e12)),
                 "tau_points": (int, "801", (1, _MAX_SAMPLES)),
                 "plateau_coincidences": (float, "10000", (1e-9, COUNT_RATE[1])),
                 "power_min_pw": (float, "5.0", _POWER_PW),
                 "power_max_pw": (float, "10000.0", _POWER_PW),
                 "power_points": (int, "25", (1, _MAX_SAMPLES))},
    "output": {"dir": (str, "out")},
    "run": {"seed": (int, "1"), "threads": (int, "1")},
}


@dataclass
class RunConfig:
    molecule: MoleculeParams
    drive: DriveParams
    detector: DetectorParams
    fpc: FpcParams
    geometry: SeparationGeometry
    qwp_angles: list
    p_sat_pw: float
    simulate: dict
    out_dir: str
    seed: int
    raw: dict = field(default_factory=dict)


def _merge(raw: dict, sections, source: str):
    """Set raw[section][key] = str(value) for each (section, [(key, value)])
    of sections; an unknown section or key is a ConfigError naming source."""
    for section, items in sections:
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}] in {source}")
        for key, val in items:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key [{section}] {key} in {source}")
            raw[section][key] = str(val)


def _read_ini(raw: dict, path: str):
    """Merge the INI file at path, UTF-8 text, into raw.  Values are literal
    (no '%' interpolation), and [DEFAULT] is an ordinary, hence unknown,
    section: no header can name the empty default_section."""
    import configparser  # only a run with a config file parses one

    cp = configparser.ConfigParser(inline_comment_prefixes=("#",), comment_prefixes=("#",),
                                   interpolation=None, default_section="")
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh, source=path)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config parse error in {path}: {exc}") from exc
    _merge(raw, ((section, cp.items(section)) for section in cp.sections()), path)


@contextlib.contextmanager
def _section(name: str):
    """Name section [name] in a ValueError raised while building it, once."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"[{name}]: {exc}") from exc


def load_config(path: Optional[str] = None, overrides: Optional[dict] = None) -> RunConfig:
    """Build a validated RunConfig from the built-in profile, an optional
    INI file and programmatic overrides (section -> key -> string value)."""
    raw = {section: {key: spec[1] for key, spec in keys.items() if spec[1] is not None}
           for section, keys in _SCHEMA.items()}
    if path is not None:
        _read_ini(raw, path)
    if overrides:
        _merge(raw, ((section, kv.items()) for section, kv in overrides.items()), "overrides")

    def get(section, key):
        kind, _, *domain = _SCHEMA[section][key]
        value = _parse_value(section, key, raw[section][key], kind)
        fmt = "d" if kind is int else "g"   # an int past the float range has no :g
        for lo, hi in domain:
            if not lo <= value <= hi:
                raise ConfigError(f"[{section}] {key}: {value:{fmt}} is outside the domain "
                                  f"[{lo:{fmt}}, {hi:{fmt}}]")
        return value

    with _section("molecule"):
        mol = MoleculeParams(gamma0=get("molecule", "gamma0"), gamma=get("molecule", "gamma"))

    with _section("drive"):
        p_sat = get("drive", "p_sat_pw")
        rabi = get("drive", "rabi")
        if "power_pw" in raw["drive"]:
            power = get("drive", "power_pw")
            rabi = rabi_for_saturation(mol, power / p_sat)
            if rabi > RABI_MHZ[1]:
                raise ConfigError(
                    f"[drive] power_pw = {power:g}, p_sat_pw = {p_sat:g}: the Rabi frequency "
                    f"at S = power_pw / p_sat_pw, {rabi:g} MHz with [molecule] gamma0 = "
                    f"{mol.gamma0:g}, gamma = {mol.gamma:g}, is outside the domain "
                    f"[{RABI_MHZ[0]:g}, {RABI_MHZ[1]:g}]")
        drive = DriveParams(
            rabi=rabi,
            psi=math.radians(get("drive", "psi_deg")),
            incident_rate=get("drive", "incident_rate"),
        )

    with _section("detector"):
        det = DetectorParams(
            dark_rate=get("detector", "dark_rate"),
            quantum_efficiency=get("detector", "quantum_efficiency"),
            integration_time=get("detector", "integration_time"),
        )

    with _section("fpc"):
        fpc = FpcParams(
            fsr=get("fpc", "fsr"),
            fwhm=get("fpc", "fwhm"),
            peak_transmission=get("fpc", "peak_transmission"),
        )

    with _section("geometry"):
        geo = SeparationGeometry(
            dipole_angle=math.radians(get("geometry", "dipole_angle_deg")),
            polarizer_angle=math.radians(get("geometry", "polarizer_angle_deg")),
            polarizer_extinction_ratio=get("geometry", "polarizer_extinction_ratio"),
        )
    qwp = [math.radians(a) for a in get("geometry", "qwp_angles_deg")]
    if not qwp:
        raise ConfigError("[geometry] qwp_angles_deg must list at least one angle")
    # reproduce fig4 names each trace file by its angle rounded to a whole degree
    whole = {}
    for theta in qwp:
        deg = round(math.degrees(theta))
        if deg in whole:
            raise ConfigError(
                f"[geometry] qwp_angles_deg: {whole[deg]:g} and {math.degrees(theta):g} "
                f"both round to {deg} deg, the whole degree that names a fig4 trace file")
        whole[deg] = math.degrees(theta)

    sim = {k: get("simulate", k) for k in _SCHEMA["simulate"]}
    if sim["grid_min"] >= sim["grid_max"]:
        raise ConfigError(f"[simulate] grid_min ({sim['grid_min']:g}) must be below "
                          f"grid_max ({sim['grid_max']:g})")
    if not 0 < sim["power_min_pw"] < sim["power_max_pw"]:
        raise ConfigError(f"[simulate] power_min_pw ({sim['power_min_pw']:g}) must be in "
                          f"(0, power_max_pw = {sim['power_max_pw']:g})")

    # seed is one Philox key word; threads changes no output but keeps its check
    seed, threads = get("run", "seed"), get("run", "threads")
    if not 0 <= seed < 1 << 64:
        raise ConfigError(f"[run] seed must be in [0, 2**64), got {seed}")
    if threads < 1:
        raise ConfigError(f"[run] threads must be >= 1, got {threads}")

    return RunConfig(
        molecule=mol,
        drive=drive,
        detector=det,
        fpc=fpc,
        geometry=geo,
        qwp_angles=qwp,
        p_sat_pw=p_sat,
        simulate=sim,
        out_dir=get("output", "dir"),
        seed=seed,
        raw=raw,
    )
