"""Hostile CSV and manifest text through the analyze commands.

Every input, however broken, must end in a documented exit code: 0
(success), 2 (configuration or input error), 3 (numeric domain error) or 4
(fit non-convergence), never in a traceback.  The examples mutate traces
that the CLI wrote (rows replaced, dropped or added, comments rewritten) or
are free text; the manifests point at valid, broken and missing trace files.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resfluor.cli import main

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


def _analyze(traces, command, texts) -> int:
    paths = []
    for i, text in enumerate(texts):
        path = traces / f"input_{i}.csv"
        path.write_text(text)
        paths.append(str(path))
    return _run(["analyze", command, *paths, "--out", str(traces / "out")])


@settings(max_examples=40)
@given(data=st.data())
def test_fit_spectrum_csv(traces, data):
    text = data.draw(_csv_text((traces / "extinction.csv").read_text()))
    assert _analyze(traces, "fit-spectrum", [text]) in EXITS


@settings(max_examples=40)
@given(data=st.data())
def test_g2_fit_csv(traces, data):
    text = data.draw(_csv_text((traces / "g2.csv").read_text()))
    assert _analyze(traces, "g2-fit", [text]) in EXITS


@settings(max_examples=40)
@given(data=st.data())
def test_saturation_fit_csv(traces, data):
    # one channel mutated, the other as written
    names = ["saturation_coherent.csv", "saturation_total.csv"]
    texts = [(traces / name).read_text() for name in names]
    k = data.draw(st.integers(0, 1))
    texts[k] = data.draw(_csv_text(texts[k]))
    assert _analyze(traces, "saturation-fit", texts) in EXITS


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


def _analyze_manifest(traces, command, text) -> int:
    path = traces / "manifest.json"
    path.write_text(text)
    return _run(["analyze", command, str(path), "--out", str(traces / "out")])


@settings(max_examples=40)
@given(text=_manifests("theta_deg", [0, 36, 72, 108, 144, 90]))
def test_separate_manifest(traces, text):
    assert _analyze_manifest(traces, "separate", text) in EXITS


@settings(max_examples=40)
@given(text=_manifests("power_pw", [50, 350, 1000, 2500, 0]))
def test_linewidth_sweep_manifest(traces, text):
    assert _analyze_manifest(traces, "linewidth-sweep", text) in EXITS

