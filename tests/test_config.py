import math
import re

import pytest

from resfluor import config
from resfluor.config import ConfigError, load_config
from resfluor.physics import DriveParams, rabi_for_saturation, saturation_parameter


def test_builtin_profile_values():
    cfg = load_config()
    assert cfg.molecule.gamma0 == 16.4
    assert cfg.molecule.gamma == 17.0
    assert cfg.molecule.lambda21 == 590.0
    assert cfg.fpc.fsr == 356.0
    assert cfg.fpc.fwhm == 14.0
    assert cfg.fpc.peak_transmission == 0.15
    assert cfg.detector.dark_rate == 150.0
    assert cfg.p_sat_pw == 350.0
    assert cfg.geometry.dipole_angle == pytest.approx(math.pi / 4.0)
    assert len(cfg.qwp_angles) == 5
    assert cfg.drive.psi == pytest.approx(math.pi / 2.0)


def test_overrides_and_power_to_rabi():
    cfg = load_config(overrides={"drive": {"power_pw": 350.0}})
    s = saturation_parameter(cfg.molecule, cfg.drive)
    assert s == pytest.approx(1.0, rel=1e-12)
    cfg2 = load_config(overrides={"drive": {"power_pw": 1400.0}})
    assert saturation_parameter(cfg2.molecule, cfg2.drive) == pytest.approx(4.0, rel=1e-12)


def test_power_to_rabi_outside_the_float_range_is_config_error():
    # gamma^2 overflows in rabi_for_saturation: this used to raise Python's
    # "(34, 'Numerical result out of range')", an exit 3 naming no key;
    # gamma is outside its domain
    with pytest.raises(ConfigError, match=re.escape(
            "[molecule]: gamma = 1e+300 is outside the domain [1e-09, 1e+09]")):
        load_config(overrides={"molecule": {"gamma": "1e300"}, "drive": {"power_pw": "10"}})
    # a Rabi frequency at the linewidths' top keeps its bits
    cfg = load_config(overrides={"molecule": {"gamma": "1e9"}, "drive": {"power_pw": "10"}})
    assert cfg.drive.rabi == rabi_for_saturation(cfg.molecule, 10.0 / 350.0)


@pytest.mark.parametrize("gamma,power,p_sat", [
    ("1e9", "1e12", "1e-12"), ("1e9", "1e6", "1e-12"), ("17", "1e12", "1e-12")])
def test_power_whose_rabi_leaves_the_domain_is_config_error(gamma, power, p_sat):
    # each value is in its domain, but not the Rabi frequency they set
    mol = load_config(overrides={"molecule": {"gamma": gamma}}).molecule
    rabi = rabi_for_saturation(mol, float(power) / float(p_sat))
    assert rabi > 1e12
    with pytest.raises(ConfigError, match="^" + re.escape(
            f"[drive] power_pw = {float(power):g}, p_sat_pw = {float(p_sat):g}: the Rabi "
            f"frequency at S = power_pw / p_sat_pw, {rabi:g} MHz with [molecule] gamma0 = "
            f"16.4, gamma = {float(gamma):g}, is outside the domain [0, 1e+12]") + "$"):
        load_config(overrides={"molecule": {"gamma": gamma},
                               "drive": {"power_pw": power, "p_sat_pw": p_sat}})
    # at the smallest positive power the drive is inside its domain
    cfg = load_config(overrides={"molecule": {"gamma": gamma},
                                 "drive": {"power_pw": "1e-12", "p_sat_pw": p_sat}})
    assert 0.0 < cfg.drive.rabi <= 1e12


@pytest.mark.parametrize("section,key,value", [
    ("molecule", "gamma", "1e400"), ("drive", "incident_rate", "-inf"),
    ("detector", "dark_rate", "nan"), ("geometry", "qwp_angles_deg", "0, 1e309")])
def test_non_finite_values_rejected(section, key, value):
    with pytest.raises(ConfigError, match=f"^\\[{section}\\] {key}: .* is not a finite number"):
        load_config(overrides={section: {key: value}})


def test_unknown_override_key_rejected():
    with pytest.raises(ConfigError):
        load_config(overrides={"drive": {"rabbi": 5.0}})
    with pytest.raises(ConfigError):
        load_config(overrides={"laser": {"rabi": 5.0}})


def test_ini_file_round_trip(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text("""
[molecule]
gamma = 18.5   # broadened line
[simulate]
noise = true
points = 99
[run]
seed = 77
""")
    cfg = load_config(str(p))
    assert cfg.molecule.gamma == 18.5
    assert cfg.simulate["noise"] is True
    assert cfg.simulate["points"] == 99
    assert cfg.seed == 77


def test_ini_errors_name_section_and_key(tmp_path):
    bad_key = tmp_path / "a.ini"
    bad_key.write_text("[molecule]\ngama = 17\n")
    with pytest.raises(ConfigError, match="gama"):
        load_config(str(bad_key))

    bad_val = tmp_path / "b.ini"
    bad_val.write_text("[molecule]\ngamma = broad\n")
    with pytest.raises(ConfigError, match=r"\[molecule\] gamma"):
        load_config(str(bad_val))

    bad_sec = tmp_path / "c.ini"
    bad_sec.write_text("[laser]\nrabi = 1\n")
    with pytest.raises(ConfigError, match="laser"):
        load_config(str(bad_sec))


def test_output_formats_is_an_unknown_key():
    # every trace is written as CSV and JSON; the key that chose them is gone
    with pytest.raises(ConfigError, match=r"^unknown key \[output\] formats in overrides"):
        load_config(overrides={"output": {"formats": "csv"}})


def test_physical_validation_is_config_error(tmp_path):
    p = tmp_path / "d.ini"
    p.write_text("[molecule]\ngamma = 10.0\n")  # below gamma0 = 16.4
    with pytest.raises(ConfigError, match=r"\[molecule\]"):
        load_config(str(p))


def test_run_section_validated(tmp_path):
    for text in ("threads = 0", "threads = -3", "seed = -1",
                 f"seed = {1 << 64}"):
        p = tmp_path / "run.ini"
        p.write_text(f"[run]\n{text}\n")
        with pytest.raises(ConfigError, match=r"\[run\] " + text.split()[0]):
            load_config(str(p))
    # threads changes no output, so it has no field; it is hashed with the raw values
    top = load_config(overrides={"run": {"seed": (1 << 64) - 1, "threads": 8}})
    assert (top.seed, top.raw["run"]["threads"]) == ((1 << 64) - 1, "8")


@pytest.mark.parametrize("text", [
    "[drive]\np_sat_pw = -1", "[drive]\np_sat_pw = 0", "[drive]\np_sat_pw = nan",
    "[drive]\npower_pw = -5", "[drive]\npower_pw = inf",
    "[geometry]\npolarizer_extinction_ratio = -0.5",
    "[geometry]\npolarizer_extinction_ratio = nan",
    "[geometry]\npolarizer_extinction_ratio = 1.5",
])
def test_drive_and_geometry_values_validated(tmp_path, text):
    p = tmp_path / "run.ini"
    p.write_text(text + "\n")
    section = text.split("\n")[0]
    # a range error names the section, a non-finite value its key; once
    with pytest.raises(ConfigError, match="^" + re.escape(section) + r"( \w+)?: ") as exc:
        load_config(str(p))
    assert str(exc.value).count(section) == 1


def test_polarizer_extinction_ratio_range_is_closed():
    for er in (0.0, 1e-3, 1.0):
        assert load_config(overrides={"geometry": {"polarizer_extinction_ratio": er}}
                           ).geometry.polarizer_extinction_ratio == er


def test_missing_file_is_config_error():
    with pytest.raises(ConfigError):
        load_config("/no/such/file.ini")


def test_ini_values_are_literal(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text("[output]\ndir = out%x\n")
    assert load_config(str(p)).out_dir == "out%x"


@pytest.mark.parametrize("key", ["points", "tau_points", "power_points"])
def test_sample_counts_bounded(key):
    # checked before any array is allocated: points = 100000000000 passed
    # here and ended simulate extinction and counts in a MemoryError
    bound = config._MAX_SAMPLES
    assert load_config(overrides={"simulate": {key: bound}}).simulate[key] == bound
    for count in (bound + 1, 100000000000):
        with pytest.raises(ConfigError, match=rf"^\[simulate\] {key}: {count} is outside the "
                                              rf"domain \[1, {bound}\]$"):
            load_config(overrides={"simulate": {key: count}})


def test_file_that_is_not_utf8_is_config_error(tmp_path):
    # it escaped as a bare UnicodeDecodeError (exit 3)
    p = tmp_path / "run.ini"
    p.write_bytes(b"[run]\nseed = 1\xff\n")
    with pytest.raises(ConfigError, match="is not UTF-8 text"):
        load_config(str(p))
