"""Golden-output run of the resfluor CLI.

    python3 tools/golden.py OUT

Runs, in this process and at ``--seed 7``, every ``reproduce`` figure,
thirteen ``simulate`` runs and the ``analyze`` fits that read their outputs.
Four of the ``simulate`` runs draw noisy extinction traces at ``[drive]
power_pw`` = 50, 350, 1000 and 2500; the tool lists them in
``OUT/linewidth-sweep.json``, the manifest that ``analyze linewidth-sweep``
reads.  Each run writes into its own directory ``OUT/<run>/``, plus
``OUT/<run>/stdout.txt`` with what the command printed and its exit code.
One more run, ``mc-fits``, calls the fit engine the way the Monte Carlo
studies do: it writes the ``FitResult.to_json()`` of 20 seeded noisy
component separations (acceptance criterion 10), 20 seeded noisy g2 fits
(criterion 6) and 20 seeded noisy six-parameter extinction fits (a
criterion-2 line at S = 1) as three JSON arrays.  One trace cannot
separate A, B and psi, so the extinction fits are singular (cond is inf on
all 20) and 13 of the 20 reject at least one trial step: they diff the
engine's damping and conditioning paths.
The tool then writes ``OUT/SHA256SUMS``: one ``<sha256>  <path>`` line per
file under OUT, sorted by path.

A change that must not alter behaviour runs the tool on the old and on the
new tree and diffs the two sums files.  Paths given to the CLI are relative
to OUT, so neither the printed paths nor the hashed ``[output] dir`` depend
on where OUT is.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from resfluor import correlation, estimation, physics, polarization, spectra, synth  # noqa: E402
from resfluor.cli import main as resfluor_main  # noqa: E402
from resfluor.config import load_config  # noqa: E402
from resfluor.measurement import DetectorParams  # noqa: E402

SEED = "7"

# drive powers (pW) of the noisy extinction traces that analyze
# linewidth-sweep reads through the manifest SWEEP_MANIFEST
SWEEP_POWERS = (50, 350, 1000, 2500)
SWEEP_MANIFEST = "linewidth-sweep.json"

CONFIGS = {
    "noise.ini": "[simulate]\nnoise = true\n",
    "rabi100.ini": "[drive]\nrabi = 100.0\n",
    # lifetime-limited line at Omega = gamma0/4: the Bloch Liouvillian's
    # exceptional point
    "exceptional-point.ini": "[molecule]\ngamma = 16.4\n\n[drive]\nrabi = 4.1\n",
    "g2-noise.ini": "[drive]\nrabi = 50.0\n\n[simulate]\nnoise = true\n",
    **{f"p{p}-noise.ini": f"[drive]\npower_pw = {p}\n\n[simulate]\nnoise = true\n"
       for p in SWEEP_POWERS},
}

# (run name, arguments); every run also gets --out <run name> --seed 7.
# The analyze runs read what the runs before them wrote.
RUNS = (
    ("reproduce-fig2", ["reproduce", "fig2"]),
    ("reproduce-fig3", ["reproduce", "fig3"]),
    ("reproduce-fig4", ["reproduce", "fig4"]),
    ("reproduce-fig5", ["reproduce", "fig5"]),
    ("reproduce-fig6", ["reproduce", "fig6"]),
    ("simulate-extinction", ["simulate", "extinction"]),
    ("simulate-extinction-noisy", ["simulate", "extinction", "--config", "noise.ini"]),
    ("simulate-mollow", ["simulate", "mollow"]),
    ("simulate-mollow-rabi100", ["simulate", "mollow", "--config", "rabi100.ini"]),
    ("simulate-mollow-exceptional-point", ["simulate", "mollow",
                                           "--config", "exceptional-point.ini"]),
    ("simulate-g2", ["simulate", "g2"]),
    ("simulate-g2-noisy", ["simulate", "g2", "--config", "g2-noise.ini"]),
    ("simulate-saturation-sweep", ["simulate", "saturation-sweep"]),
    ("simulate-counts", ["simulate", "counts"]),
    *((f"simulate-extinction-p{p}-noisy", ["simulate", "extinction",
                                           "--config", f"p{p}-noise.ini"])
      for p in SWEEP_POWERS),
    ("analyze-fit-spectrum", ["analyze", "fit-spectrum",
                              "simulate-extinction/extinction.csv"]),
    ("analyze-fit-spectrum-noisy", ["analyze", "fit-spectrum",
                                    "simulate-extinction-noisy/extinction.csv"]),
    ("analyze-separate", ["analyze", "separate", "reproduce-fig4/fig4/manifest.json"]),
    ("analyze-linewidth-sweep", ["analyze", "linewidth-sweep", SWEEP_MANIFEST]),
    ("analyze-g2-fit", ["analyze", "g2-fit", "simulate-g2/g2.csv"]),
    ("analyze-g2-fit-noisy", ["analyze", "g2-fit", "simulate-g2-noisy/g2.csv",
                              "--config", "g2-noise.ini"]),
    ("analyze-saturation-fit", ["analyze", "saturation-fit",
                                "simulate-saturation-sweep/saturation_coherent.csv",
                                "simulate-saturation-sweep/saturation_total.csv"]),
    ("analyze-saturation-fit-fig3", ["analyze", "saturation-fit",
                                     "reproduce-fig3/fig3/fig3_coherent.csv",
                                     "reproduce-fig3/fig3/fig3_total.csv"]),
)


def run_all(out):
    """Run every command of RUNS with OUT as the working directory."""
    for name, text in CONFIGS.items():
        with open(os.path.join(out, name), "w") as fh:
            fh.write(text)
    series = [{"power_pw": float(p), "file": f"simulate-extinction-p{p}-noisy/extinction.csv"}
              for p in SWEEP_POWERS]
    with open(os.path.join(out, SWEEP_MANIFEST), "w") as fh:
        json.dump({"series": series}, fh, indent=2)
    for name, args in RUNS:
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = resfluor_main([*args, "--out", name, "--seed", SEED])
        os.makedirs(name, exist_ok=True)
        with open(os.path.join(name, "stdout.txt"), "w") as fh:
            fh.write(printed.getvalue() + f"exit {code}\n")


MC_RUN = "mc-fits"
MC_TRIALS = 20


def run_monte_carlo():
    """Write MC_RUN/separation.json, MC_RUN/g2_fit.json and
    MC_RUN/extinction.json: the fits of MC_TRIALS seeded noisy inputs each,
    drawn through synth as the acceptance criteria draw them, with the
    built-in molecule."""
    mol = load_config().molecule
    geo = polarization.SeparationGeometry()
    det = DetectorParams(dark_rate=0.0, integration_time=0.16)
    grid = np.linspace(-140.0, 140.0, 201)
    models = []
    for deg in (0.0, 36.0, 72.0, 108.0, 144.0):
        theta = math.radians(deg)
        ap, bp, pp = polarization.transform_extinction_triple(
            geo.chain(theta), geo.laser_vector(), geo.dipole_angle, 10.76, 3.48, math.pi / 2.0)
        models.append((theta, spectra.ExtinctionModel(A=ap, B=bp, psi=pp, mol=mol,
                                                      drive=physics.DriveParams(rabi=0.0))))
    delays = np.linspace(0.0, 400.0, 801)
    drive = physics.DriveParams(rabi=50.0)
    line = spectra.ExtinctionModel(A=2.0, B=3.0, psi=1.2, mol=mol, drive=physics.DriveParams(
        rabi=physics.rabi_for_saturation(mol, 1.0)))
    separations, g2_fits, extinctions = [], [], []
    for t in range(MC_TRIALS):
        series = [(theta, synth.noisy_extinction_trace(model, grid, 127550.0, det, 100 * t + k))
                  for k, (theta, model) in enumerate(models)]
        separations.append(polarization.separate_components(series, geo).to_json())
        trace = synth.noisy_g2_trace(delays, mol, drive, 1e4, t)
        g2_fits.append(correlation.fit_rabi_from_g2(trace, mol).to_json())
        trace = synth.noisy_extinction_trace(line, grid, 127550.0, det, 1000 + t)
        extinctions.append(estimation.fit_extinction(trace).to_json())

    os.makedirs(MC_RUN, exist_ok=True)
    for name, fits in (("separation.json", separations), ("g2_fit.json", g2_fits),
                       ("extinction.json", extinctions)):
        with open(os.path.join(MC_RUN, name), "w") as fh:
            fh.write("[\n" + ",\n".join(fits) + "\n]\n")


def write_sums(out):
    lines = []
    for dirpath, _, filenames in os.walk(out):
        for fname in filenames:
            path = os.path.join(dirpath, fname)
            rel = os.path.relpath(path, out).replace(os.sep, "/")
            if rel == "SHA256SUMS":
                continue
            with open(path, "rb") as fh:
                lines.append(f"{hashlib.sha256(fh.read()).hexdigest()}  {rel}\n")
    lines.sort(key=lambda line: line.split("  ", 1)[1])
    with open(os.path.join(out, "SHA256SUMS"), "w") as fh:
        fh.writelines(lines)


def main(argv):
    if len(argv) != 1:
        print("usage: python3 tools/golden.py OUT", file=sys.stderr)
        return 2
    out = os.path.abspath(argv[0])
    os.makedirs(out, exist_ok=True)
    os.environ.pop("RESFLUOR_CONFIG", None)
    cwd = os.getcwd()
    os.chdir(out)
    try:
        run_all(out)
        run_monte_carlo()
    finally:
        os.chdir(cwd)
    write_sums(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
