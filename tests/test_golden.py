import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "golden.py")


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
    + _traces([f"fig5/fig5_g2_{i}" for i in range(7)], kinds=("csv",)),
    "reproduce-fig6": ["fig6/manifest.json"]
    + _traces(["fig6/fig6_counts", "fig6/fig6_model"]),
    "simulate-extinction": _traces(["extinction"]),
    "simulate-extinction-noisy": _traces(["extinction"]),
    "simulate-mollow": _traces(["mollow_emission", "mollow_detected"]),
    "simulate-mollow-rabi100": _traces(["mollow_emission", "mollow_detected"]),
    "simulate-mollow-exceptional-point": _traces(["mollow_emission", "mollow_detected"]),
    "simulate-g2": ["g2.csv"],
    "simulate-g2-noisy": ["g2.csv"],
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
MC_FILES = ["mc-fits/extinction.json", "mc-fits/g2_fit.json", "mc-fits/separation.json"]


def test_golden_tool_writes_sorted_sums_of_every_output(tmp_path):
    out = tmp_path / "golden"
    proc = subprocess.run([sys.executable, TOOL, str(out)], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = (out / "SHA256SUMS").read_text().splitlines()
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
        assert len(fits) == 20 and all(f["status"] == "converged" for f in fits), path
    # the line's linearized seed leaves LM at most three iterations
    separations = json.loads((out / "mc-fits/separation.json").read_text())
    assert max(f["iterations"] for f in separations) <= 3
