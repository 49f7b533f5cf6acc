"""Golden-output run of the resfluor CLI.

    python3 tools/golden.py OUT
    python3 tools/golden.py --compare OLD NEW

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
(criterion 6) and 20 seeded noisy six-free extinction fits (a criterion-2
line at S = 1, ``fixed=()``) as three JSON arrays.  One trace cannot
separate A, B and psi, so those extinction fits are singular (cond is inf
on all 20); 17 of the 20 reject a trial step and 3 meet a singular solve,
so they diff the engine's damping and conditioning paths.  They are the
only singular fits of the run: every other fit, and every ``analyze`` one,
is regular by construction.  A fourth file, ``g2_fit_regimes.json``, holds
20 noisy g2 fits at each Rabi frequency of G2_REGIMES_MHZ, keyed by it: at
0 and 5 MHz the fit seeds rabi_sq from one linear solve, at 200 MHz from
the first maximum, so both seeds are diffed.  A fifth file,
``extinction_fixed.json``, holds 20 noisy extinction fits for each fixed
set of EXTINCTION_FIXED, keyed by it: the (B, psi) set of criterion 2 (a
Lorentzian at S = 1) and the (A, psi, baseline) set of criterion 9 (its
11.5% dip).  Their free Jacobian columns do not lead, so these fits diff
``fit_extinction``'s free-column copy.
At criterion 2's A = 1 the peak dip (0.7%) sits at the shot-noise level:
those fits take 12 to 29 iterations, so they also diff the damping path.
The tool then writes ``OUT/SHA256SUMS``: a header of ``# <name> <version>``
lines (Python, numpy and the BLAS numpy was built with, whose kernels set
the last bits of every fit), then one ``<sha256>  <path>`` line per file
under OUT, sorted by path.

``tests/golden/SHA256SUMS`` holds the sums of the committed tree, and
``tests/test_golden.py`` compares a fresh run with it.  A change that moves
an output updates that file and names the moved files.  Paths given to the
CLI are relative to OUT, so neither the printed paths nor the hashed
``[output] dir`` depend on where OUT is.

``--compare OLD NEW`` reads two such output directories.  For each file
whose bytes differ it prints the largest relative change of the numbers
parsed from it (``|new - old| / max(|old|, |new|)``, number by number in
the order they appear), or the two counts when they differ; then the files
only one side has, and ``moved: <k> of <n> files`` (of the files both
have).  It exits 0 when the two directories hold the same files with the
same bytes, and 1 otherwise.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import re
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
G2_REGIMES_MHZ = (0.0, 5.0, 200.0)
# fixed set -> init of the fixed parameters, as acceptance criteria 2 and 9 fit
EXTINCTION_FIXED = {
    "B,psi": {"B": 0.0, "psi": 0.0},
    "A,psi,baseline": {"A": 0.0, "psi": math.pi / 2.0, "baseline": 1.0},
}


def run_monte_carlo():
    """Write MC_RUN/separation.json, MC_RUN/g2_fit.json,
    MC_RUN/extinction.json, MC_RUN/g2_fit_regimes.json and
    MC_RUN/extinction_fixed.json: the fits of
    MC_TRIALS seeded noisy inputs each, drawn through synth as the
    acceptance criteria draw them, with the built-in molecule."""
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
        extinctions.append(estimation.fit_extinction(trace, fixed=()).to_json())

    regimes = {
        f"{rabi:g}": [json.loads(correlation.fit_rabi_from_g2(
            synth.noisy_g2_trace(delays, mol, physics.DriveParams(rabi=rabi), 1e4, t),
            mol).to_json()) for t in range(MC_TRIALS)]
        for rabi in G2_REGIMES_MHZ}

    # criterion 2: a pure Lorentzian (B = 0) at S = 1 over +-6 broadened
    # widths; criterion 9: a pure dispersive dip of 11.5% on 801 pixels
    wide = 6.0 * mol.gamma * math.sqrt(2.0)
    lines = {
        "B,psi": (spectra.ExtinctionModel(
            A=1.0, B=0.0, psi=0.0, mol=mol,
            drive=physics.DriveParams(rabi=physics.rabi_for_saturation(mol, 1.0))),
            np.linspace(-wide, wide, 601)),
        "A,psi,baseline": (spectra.ExtinctionModel(
            A=0.0, B=0.115 * mol.gamma / 2.0, psi=math.pi / 2.0, mol=mol,
            drive=physics.DriveParams(rabi=0.0, psi=math.pi / 2.0)),
            np.linspace(-100.0, 100.0, 801)),
    }
    fixed_fits = {
        key: [json.loads(estimation.fit_extinction(
            synth.noisy_extinction_trace(model, line_grid, 127550.0, det, 2000 + t),
            init=EXTINCTION_FIXED[key], fixed=tuple(key.split(","))).to_json())
            for t in range(MC_TRIALS)]
        for key, (model, line_grid) in lines.items()}

    os.makedirs(MC_RUN, exist_ok=True)
    for name, fits in (("separation.json", separations), ("g2_fit.json", g2_fits),
                       ("extinction.json", extinctions)):
        with open(os.path.join(MC_RUN, name), "w") as fh:
            fh.write("[\n" + ",\n".join(fits) + "\n]\n")
    for name, keyed in (("g2_fit_regimes.json", regimes), ("extinction_fixed.json", fixed_fits)):
        with open(os.path.join(MC_RUN, name), "w") as fh:
            fh.write(json.dumps(keyed, indent=2) + "\n")


def versions():
    """(name, version) of the interpreter and the libraries the sums depend
    on; the BLAS as numpy's build records it (numpy >= 1.26)."""
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return [("python", sys.version.split()[0]), ("numpy", np.__version__),
            ("blas", f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}")]


def _files(out):
    """Paths of the files under out, relative and with / separators,
    SHA256SUMS left out."""
    paths = set()
    for dirpath, _, filenames in os.walk(out):
        for fname in filenames:
            rel = os.path.relpath(os.path.join(dirpath, fname), out).replace(os.sep, "/")
            if rel != "SHA256SUMS":
                paths.add(rel)
    return paths


def write_sums(out):
    lines = []
    for rel in sorted(_files(out)):
        with open(os.path.join(out, rel), "rb") as fh:
            lines.append(f"{hashlib.sha256(fh.read()).hexdigest()}  {rel}\n")
    with open(os.path.join(out, "SHA256SUMS"), "w") as fh:
        fh.writelines([f"# {name} {version}\n" for name, version in versions()] + lines)


# a number as the outputs print it (a non-finite one as Python's repr and
# JSON write it), not part of a word such as fig2 or a hex digest
NUMBER = re.compile(rb"(?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
                    rb"|nan|inf|NaN|Infinity)(?![\w.])")


def _numbers(data):
    return [float(m.replace(b"Infinity", b"inf")) for m in NUMBER.findall(data)]


def _relative_change(old, new):
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    if not (math.isfinite(old) and math.isfinite(new)):
        return math.inf
    return abs(new - old) / max(abs(old), abs(new))


def compare(old, new):
    """Print how the output directory new differs from old; return the
    number of files that differ: moved, gone or new."""
    old_files, new_files = _files(old), _files(new)
    common = sorted(old_files & new_files)
    moved = 0
    for rel in common:
        with open(os.path.join(old, rel), "rb") as fh:
            a = fh.read()
        with open(os.path.join(new, rel), "rb") as fh:
            b = fh.read()
        if a == b:
            continue
        moved += 1
        x, y = _numbers(a), _numbers(b)
        if len(x) != len(y):
            print(f"{rel}: {len(x)} numbers, now {len(y)}")
        else:
            change = max(map(_relative_change, x, y), default=0.0)
            print(f"{rel}: largest relative change {change:.3g} over {len(x)} numbers")
    for rel in sorted(old_files - new_files):
        print(f"{rel}: gone")
    for rel in sorted(new_files - old_files):
        print(f"{rel}: new")
    print(f"moved: {moved} of {len(common)} files")
    return moved + len(old_files ^ new_files)


def main(argv):
    if argv[:1] == ["--compare"] and len(argv) == 3:
        return 1 if compare(*argv[1:]) else 0
    if len(argv) != 1 or argv[0] == "--compare":
        print("usage: python3 tools/golden.py OUT\n"
              "       python3 tools/golden.py --compare OLD NEW", file=sys.stderr)
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
