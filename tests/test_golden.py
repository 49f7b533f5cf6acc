import hashlib
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "golden.py")
# the sums of the committed tree; a change that moves an output updates it
COMMITTED = os.path.join(ROOT, "tests", "golden", "SHA256SUMS")


def _traces(stems, kinds=("csv", "json")):
    return [f"{s}.{k}" for s in stems for k in kinds]


# drive powers (pW) of the noisy extinction traces of the linewidth sweep
SWEEP_POWERS = (50, 350, 1000, 2500)

# files each run writes besides its stdout.txt
EXPECTED = {
    "reproduce-fig2": ["fig2/manifest.json"]
    + _traces(["fig2/fig2_model", "fig2/fig2_transmission"]),
    "reproduce-fig3": ["fig3/manifest.json"]
    + _traces(["fig3/fig3_coherent", "fig3/fig3_total"]),
    "reproduce-fig4": ["fig4/manifest.json"]
    + _traces([f"fig4/fig4_theta{t:03d}" for t in (0, 36, 72, 108, 144)]),
    "reproduce-fig5": ["fig5/manifest.json"]
    + _traces([f"fig5/fig5_spectrum_{i}" for i in range(7)])
    + _traces([f"fig5/fig5_g2_{i}" for i in range(7)]),
    "reproduce-fig6": ["fig6/manifest.json"]
    + _traces(["fig6/fig6_counts", "fig6/fig6_model"]),
    "simulate-extinction": _traces(["extinction"]),
    "simulate-extinction-noisy": _traces(["extinction"]),
    "simulate-mollow": _traces(["mollow_emission", "mollow_detected"]),
    "simulate-mollow-rabi100": _traces(["mollow_emission", "mollow_detected"]),
    "simulate-mollow-exceptional-point": _traces(["mollow_emission", "mollow_detected"]),
    "simulate-g2": _traces(["g2"]),
    "simulate-g2-noisy": _traces(["g2"]),
    "simulate-saturation-sweep": _traces(["saturation_coherent", "saturation_total"]),
    "simulate-counts": _traces(["counts"]),
    **{f"simulate-extinction-p{p}-noisy": _traces(["extinction"]) for p in SWEEP_POWERS},
    "analyze-fit-spectrum": ["fit_spectrum.json"],
    "analyze-fit-spectrum-noisy": ["fit_spectrum.json"],
    "analyze-separate": ["separate.json"],
    "analyze-linewidth-sweep": ["linewidth_sweep.json"],
    "analyze-g2-fit": ["g2_fit.json"],
    "analyze-g2-fit-noisy": ["g2_fit.json"],
    "analyze-saturation-fit": ["saturation_fit.json"],
    "analyze-saturation-fit-fig3": ["saturation_fit.json"],
}

# files of the Monte Carlo fit run, which calls no command (no stdout.txt)
MC_FILES = ["mc-fits/extinction.json", "mc-fits/extinction_fixed.json", "mc-fits/g2_fit.json",
            "mc-fits/g2_fit_regimes.json", "mc-fits/separation.json"]
# keys of the MC files that hold 20 fits per key: Rabi frequency (MHz) or
# fixed parameter set
MC_KEYS = {"mc-fits/g2_fit_regimes.json": ["0", "5", "200"],
           "mc-fits/extinction_fixed.json": ["B,psi", "A,psi,baseline"]}


def _split(text):
    """(header lines, {path: sha256}) of a SHA256SUMS text."""
    lines = text.splitlines()
    header = [line for line in lines if line.startswith("#")]
    sums = dict(reversed(line.split("  ", 1)) for line in lines if not line.startswith("#"))
    return header, sums


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    """The directory of one run of the golden tool."""
    out = tmp_path_factory.mktemp("golden")
    proc = subprocess.run([sys.executable, TOOL, str(out)], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return out


def test_sums_match_the_committed_file(golden):
    header, sums = _split((golden / "SHA256SUMS").read_text())
    with open(COMMITTED) as fh:
        want_header, want = _split(fh.read())
    # other library builds may round the fits differently: say which
    assert header == want_header, (
        f"versions differ from the committed sums: {want_header} committed, "
        f"{header} here")
    moved = sorted(p for p in sums.keys() & want.keys() if sums[p] != want[p])
    assert not moved, f"outputs moved: {moved}"
    assert sums.keys() == want.keys(), (
        f"new outputs: {sorted(sums.keys() - want.keys())}, "
        f"gone: {sorted(want.keys() - sums.keys())}")


def test_golden_tool_writes_sorted_sums_of_every_output(golden):
    out = golden
    lines = (out / "SHA256SUMS").read_text().splitlines()
    assert [line.split()[1] for line in lines[:3]] == ["python", "numpy", "blas"]
    lines = lines[3:]
    paths = [line.split("  ", 1)[1] for line in lines]
    expected = ["exceptional-point.ini", "g2-noise.ini", "noise.ini", "rabi100.ini",
                "linewidth-sweep.json"] + [f"p{p}-noise.ini" for p in SWEEP_POWERS] + [
        f"{run}/{name}" for run, names in EXPECTED.items()
        for name in names + ["stdout.txt"]] + MC_FILES
    assert paths == sorted(expected)
    for line in lines:
        digest, path = line.split("  ", 1)
        assert hashlib.sha256((out / path).read_bytes()).hexdigest() == digest
    for run in EXPECTED:
        assert (out / run / "stdout.txt").read_text().endswith("exit 0\n"), run
    for path in MC_FILES:
        fits = json.loads((out / path).read_text())
        groups = [fits]
        if path in MC_KEYS:
            assert list(fits) == MC_KEYS[path]
            groups = fits.values()
        for group in groups:
            assert len(group) == 20 and all(f["status"] == "converged" for f in group), path
    # the linearized seeds leave LM at most three iterations for the line
    # and four for g2
    separations = json.loads((out / "mc-fits/separation.json").read_text())
    assert max(f["iterations"] for f in separations) <= 3
    g2_fits = json.loads((out / "mc-fits/g2_fit.json").read_text())
    assert max(f["iterations"] for f in g2_fits) <= 4


def test_compare_prints_the_largest_relative_change_of_each_moved_file(tmp_path):
    same = "delay_ns,g2\n0,0\n0.5,1e-05\n"
    trees = {
        "old": {"same/g2.csv": same, "SHA256SUMS": "# python 3\n", "fit/only-old.txt": "1\n",
                "fit/g2_fit.json": '{"rabi": 50.0, "cost": 2.0, "cond": Infinity}\n',
                "fit/stdout.txt": "fig2: S=1.5\nexit 0\n"},
        "new": {"same/g2.csv": same, "fit/only-new.txt": "2\n",
                "fit/g2_fit.json": '{"rabi": 50.00000001, "cost": 1.5, "cond": Infinity}\n',
                "fit/stdout.txt": "fig2: S=1.5, A=2\nexit 0\n"},
    }
    for name, files in trees.items():
        for rel, text in files.items():
            (tmp_path / name / rel).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / name / rel).write_text(text)
    old, new = str(tmp_path / "old"), str(tmp_path / "new")
    proc = subprocess.run([sys.executable, TOOL, "--compare", old, new],
                          capture_output=True, text=True, timeout=60)
    # cost moves by 0.5 / 2.0 and rabi by 2e-10; the stdout gains a number;
    # SHA256SUMS is not compared
    assert proc.stdout.splitlines() == [
        "fit/g2_fit.json: largest relative change 0.25 over 3 numbers",
        "fit/stdout.txt: 2 numbers, now 3",
        "fit/only-old.txt: gone",
        "fit/only-new.txt: new",
        "moved: 2 of 3 files",
    ]
    assert proc.returncode == 1
    proc = subprocess.run([sys.executable, TOOL, "--compare", old, old],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "moved: 0 of 4 files\n")
