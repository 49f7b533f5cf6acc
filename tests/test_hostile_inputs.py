"""Hostile CSV and manifest text through the analyze commands, and hostile
INI text through load_config.

Every CSV or manifest input, however broken, must end in a documented exit
code, never in a traceback, and what the command wrote must agree with it:
0 (success) writes a converged fit at a finite cost, 4 (fit
non-convergence) a fit of another status with an error message, and 2
(configuration or input error) or 3 (numeric domain error) nothing.  The
examples mutate traces that the CLI wrote (rows replaced, dropped or added,
comments rewritten) or are free text; the manifests point at valid, broken
and missing trace files.  Every INI file, text or not, must give a
RunConfig or a ConfigError.
"""

import contextlib
import io
import itertools
import json
import math
import shutil

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from resfluor.cli import ANALYSES, main
from resfluor.config import _SCHEMA, ConfigError, RunConfig, load_config
from resfluor.spectra import SpectrumTrace

EXITS = (0, 2, 3, 4)

# small grids keep one fit to a few milliseconds
SMALL = ("[simulate]\npoints = 61\ntau_points = 161\ntau_max_ns = 200\n"
         "power_points = 15\nnoise = {noise}\n")


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    """Directory of CLI-written traces: a noisy extinction trace, a noisy g2
    trace, the two saturation channels and fig4's QWP-angle series, plus
    a few broken traces for the manifests to name."""
    root = tmp_path_factory.mktemp("hostile")
    for noise, runs in (("true", ["extinction", "g2"]), ("false", ["saturation-sweep"])):
        cfg = root / f"{noise}.ini"
        cfg.write_text(SMALL.format(noise=noise))
        for run in runs:
            assert _run(["simulate", run, "--config", str(cfg), "--out", str(root)]) == 0
    assert _run(["reproduce", "fig4", "--out", str(root)]) == 0
    (root / "empty.csv").write_text("frequency_MHz,value\n")
    (root / "one_row.csv").write_text("frequency_MHz,value\n0.0,0.9\n")
    (root / "near_limit.csv").write_text(_near_float_limit(np.linspace(-150.0, 150.0, 301)))
    (root / "counts.csv").write_text("# value_kind = counts_per_s\nfrequency_MHz,value\n"
                                     "0.0,1.0\n1.0,2.0\n2.0,3.0\n")
    return root


def _run(argv) -> int:
    """main(argv) with its stdout and stderr discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return main(argv)


# -- CSV text ---------------------------------------------------------------

_FLOATS = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, 1e300]))
_NUMBERS = st.one_of(
    _FLOATS.map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["nan", "inf", "-inf", "1e999", "5e-324", "0x10", "1_0",
                     "", " ", "+", "e", "1e", "\u0661"]),
)
_ROWS = st.lists(_NUMBERS, min_size=1, max_size=3).map(",".join)
_COMMENTS = st.one_of(
    st.sampled_from(["# meta = {", "# meta = []", "# meta = null", "# meta = 1e999",
                     "# freq_kind = power_pW", "# value_kind = counts_per_s", "#", "# x = 1",
                     "frequency_MHz,value", "delay_ns,g2", ""]),
    st.text(max_size=20).map(lambda t: "# meta = " + t),
)
_LINES = st.one_of(_ROWS, _COMMENTS, st.text(max_size=20))


@st.composite
def _mutated(draw, text: str) -> str:
    """text, a CLI-written trace, with values, delays or frequencies
    replaced, all values scaled, rows dropped, and junk rows or comment
    lines inserted; most edits keep the rows parseable, so that the fits
    see them."""
    lines = text.splitlines()
    n_head = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    head, rows = lines[:n_head], [line.split(",") for line in lines[n_head:]]
    for _ in range(draw(st.integers(1, 4))):
        action = draw(st.sampled_from(["value"] * 4 + ["grid", "scale", "drop", "row",
                                                       "comment"]))
        i = draw(st.integers(0, max(len(rows) - 1, 0)))
        if action == "scale":
            factor = draw(_FLOATS)
            rows = [[r[0], repr(float(r[1]) * factor)] if len(r) == 2 else r for r in rows]
        elif action == "row":
            rows.insert(i, [draw(_LINES)])
        elif action == "comment":
            head.insert(draw(st.integers(0, len(head))), draw(_COMMENTS))
        elif not rows:
            continue
        elif action == "drop":
            del rows[i]
        elif action == "value":
            rows[i] = [rows[i][0], repr(draw(_FLOATS))]
        else:
            rows[i] = [repr(draw(_FLOATS)), *rows[i][1:]]
    lines = head + [",".join(r) for r in rows]
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\r\n", "\n\n"]))


def _csv_text(base: str):
    """Mostly base mutated, else free lines."""
    return st.one_of(_mutated(base), _mutated(base), st.lists(_LINES, max_size=8).map("\n".join))


class _Drawn:
    """Stands in for st.data() in an @example: each draw returns the next
    of the given values, in a cycle."""

    def __init__(self, *values):
        self._values = itertools.cycle(values)

    def draw(self, strategy):
        return next(self._values)


def _near_float_limit(grid, values=1e308, freq_kind="detuning_MHz") -> str:
    """CSV text of a trace of values (1e308 at every point) on grid, an
    axis of freq_kind."""
    grid = np.asarray(grid, float)
    return SpectrumTrace(grid, np.broadcast_to(values, grid.shape),
                         freq_kind=freq_kind).to_csv()


def _check_outcome(traces, command, argv) -> None:
    """Run analyze command on argv into an emptied output directory; the
    exit code must be documented and agree with the fit JSON written."""
    out = traces / "out"
    shutil.rmtree(out, ignore_errors=True)
    code = _run(["analyze", command, *argv, "--out", str(out)])
    assert code in EXITS
    path = out / ANALYSES[command][1]
    if code in (2, 3):
        assert not path.exists()
        return
    payload = json.loads(path.read_text())
    if code == 0:
        assert payload["status"] == "converged" and math.isfinite(payload["cost"])
        assert "error" not in payload
    else:
        assert payload["status"] != "converged" and payload["error"]


def _analyze(traces, command, texts) -> None:
    paths = []
    for i, text in enumerate(texts):
        path = traces / f"input_{i}.csv"
        path.write_text(text)
        paths.append(str(path))
    _check_outcome(traces, command, paths)


# a trace of 1e308 used to warn of an overflow in the line seed's median,
# one of 1e9 over a median of 1e-300 in the seed's division by the median
@example(data=_Drawn(_near_float_limit(np.linspace(-100.0, 100.0, 201))))
@example(data=_Drawn(_near_float_limit(np.linspace(-100.0, 100.0, 201),
                                       np.r_[1e9, np.full(200, 1e-300)])))
@settings(max_examples=40)
@given(data=st.data())
def test_fit_spectrum_csv(traces, data):
    text = data.draw(_csv_text((traces / "extinction.csv").read_text()))
    _analyze(traces, "fit-spectrum", [text])


@settings(max_examples=40)
@given(data=st.data())
def test_g2_fit_csv(traces, data):
    text = data.draw(_csv_text((traces / "g2.csv").read_text()))
    _analyze(traces, "g2-fit", [text])


# a coherent channel of 1e308 on the written power grid used to warn of an
# overflow in the seed of its amplitude
@example(data=_Drawn(0, _near_float_limit(np.geomspace(5.0, 1e4, 15), freq_kind="power_pW")))
@settings(max_examples=40)
@given(data=st.data())
def test_saturation_fit_csv(traces, data):
    # one channel mutated, the other as written
    names = ["saturation_coherent.csv", "saturation_total.csv"]
    texts = [(traces / name).read_text() for name in names]
    k = data.draw(st.integers(0, 1))
    texts[k] = data.draw(_csv_text(texts[k]))
    _analyze(traces, "saturation-fit", texts)


# -- manifest JSON ----------------------------------------------------------

_SERIES_FILES = [f"fig4/fig4_theta{t:03d}.csv" for t in (0, 36, 72, 108, 144)]
_FILES = st.one_of(
    st.sampled_from(_SERIES_FILES + ["extinction.csv", "g2.csv", "saturation_total.csv",
                                     "empty.csv", "one_row.csv", "counts.csv", "missing.csv",
                                     "fig4", ""]),
    st.text(max_size=10),
    st.none(),
    st.integers(),
)
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.floats(), st.integers(), st.text(max_size=5)),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner,
                                                                max_size=3),
    max_leaves=8,
)


def _manifests(key: str, typical: list):
    """Manifest text: mostly a series of well-formed entries whose values
    and files are often typical ones, so that the fits run; else entries
    of any JSON, any JSON document or free text."""
    entry = st.fixed_dictionaries({
        key: st.one_of(st.sampled_from(typical), st.floats(-1e4, 1e4), st.floats()),
        "file": st.sampled_from(_SERIES_FILES + ["extinction.csv", "one_row.csv"])})
    odd_entry = st.one_of(
        st.fixed_dictionaries({key: st.one_of(st.integers(-10**20, 10**20), _JSON),
                               "file": _FILES}),
        st.dictionaries(st.sampled_from([key, "file", "other"]), _JSON, max_size=3),
        _JSON,
    )
    return st.one_of(
        st.lists(entry, min_size=3, max_size=6).map(lambda s: json.dumps({"series": s})),
        st.lists(st.one_of(entry, odd_entry), max_size=6).map(
            lambda s: json.dumps({"series": s})),
        _JSON.map(lambda j: json.dumps({"series": j})),
        _JSON.map(json.dumps),
        st.text(max_size=30),
    )


def _analyze_manifest(traces, command, text) -> None:
    path = traces / "manifest.json"
    path.write_text(text)
    _check_outcome(traces, command, [str(path)])


def _near_limit_series(key: str, values) -> str:
    return json.dumps({"series": [{key: v, "file": "near_limit.csv"} for v in values]})


# traces of 1e308 used to warn of an overflow in the seed's line refinement
@example(text=_near_limit_series("theta_deg", [0, 36, 72]))
@settings(max_examples=40)
@given(text=_manifests("theta_deg", [0, 36, 72, 108, 144, 90]))
def test_separate_manifest(traces, text):
    _analyze_manifest(traces, "separate", text)


@example(text=_near_limit_series("power_pw", [50, 350, 2500]))
@settings(max_examples=40)
@given(text=_manifests("power_pw", [50, 350, 1000, 2500, 0]))
def test_linewidth_sweep_manifest(traces, text):
    _analyze_manifest(traces, "linewidth-sweep", text)


# -- INI text ---------------------------------------------------------------

# load_config only: a count such as points = 100000000000 would make a
# simulate command ask for ~800 GB
_INI_VALUES = st.one_of(
    _NUMBERS,
    st.sampled_from(["true", "off", "csv", "json, csv", "0, 36, 72", "0, 0.4", "100000000000",
                     "1000001", "-1", "1e308", "-1e308", "1.7e308", "out%x", "%(dir)s"]),
    st.text(max_size=12),
)
_INI_ODD_LINES = st.one_of(
    st.sampled_from(["[DEFAULT]", "[laser]", "[]", "[", "# comment", "  continued",
                     "key", "= 1", "detuning = 0", "lambda21 = 600"]),
    st.text(max_size=20),
)


@st.composite
def _ini_text(draw) -> str:
    """Sections of the schema, each with keys of its own and values that
    are typical, out of range, non-finite or free text; now and then an
    odd line."""
    lines = []
    for section in draw(st.lists(st.sampled_from(sorted(_SCHEMA)), unique=True, max_size=4)):
        lines.append(f"[{section}]")
        for key in draw(st.lists(st.sampled_from(sorted(_SCHEMA[section])), unique=True,
                                 max_size=4)):
            lines.append(key + draw(st.sampled_from([" = ", "=", ": "])) + draw(_INI_VALUES))
        if draw(st.integers(0, 3)) == 0:
            lines.insert(draw(st.integers(0, len(lines))), draw(_INI_ODD_LINES))
    return "\n".join(lines)


# mostly UTF-8 text, else text with a byte that is not UTF-8, else any bytes
_INI_BYTES = st.one_of(
    _ini_text().map(str.encode),
    _ini_text().map(str.encode),
    _ini_text().map(str.encode),
    _ini_text().map(lambda text: text.encode() + b"\n# \xff\n"),
    st.binary(max_size=40),
)


@pytest.fixture(scope="module")
def ini_path(tmp_path_factory):
    return tmp_path_factory.mktemp("ini") / "hostile.ini"


@settings(max_examples=40)
@given(blob=_INI_BYTES)
def test_ini_file(ini_path, blob):
    ini_path.write_bytes(blob)
    try:
        cfg = load_config(str(ini_path))
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)



_NARROW = "neighbouring points of the sampled axis round to one float; widen the range or " \
          "sample fewer points"


@pytest.mark.parametrize("command, text, complaint", [
    ("extinction", "grid_min = 999999999.9999999\ngrid_max = 1e9\npoints = 61",
     "grid_min = 999999999.9999999, grid_max = 1000000000.0, points = 61"),
    ("saturation-sweep", "power_min_pw = 999999999999.999\npower_max_pw = 1e12\n"
                         "power_points = 61",
     "power_min_pw = 999999999999.999, power_max_pw = 1000000000000.0, power_points = 61"),
    ("extinction", "grid_min = 999999999.9999999\ngrid_max = 1e9\npoints = 2", None),
], ids=["grid", "powers", "grid-of-its-two-ends"])
def test_range_too_narrow_for_its_points(tmp_path, capsys, command, text, complaint):
    # load_config accepts both ranges (min below max, inside the domain);
    # the axis the command samples repeats a float, which exited 3 with
    # `grid must be strictly increasing`.  Two points, the range's ends, run
    cfg = tmp_path / "narrow.ini"
    cfg.write_text(f"[simulate]\n{text}\n")
    out = tmp_path / "out"
    code = main(["simulate", command, "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    if complaint is None:
        assert (code, err) == (0, "")
        return
    assert code == 2 and err == f"error: [simulate] {complaint}: {_NARROW}\n"
    assert not out.exists()
