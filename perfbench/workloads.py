"""The benchmark's three workloads.

Each is a closed loop with one client: one operation starts only after the
previous one has finished.  ``setup`` builds the fixed inputs; ``op`` runs
operation ``i``, whose seeds derive from the workload seed and ``i``.

The package is called through its modules (``synth.noisy_g2_trace``, not a
name imported here), so that the tracer's wrappers, installed on the
package's modules, see every call.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# DBATT constants of the built-in ``dbatt-paper`` profile
GAMMA0_MHZ = 16.4
GAMMA_MHZ = 17.0
LAMBDA_NM = 590.0


def derive_seed(seed: int, *path: int) -> int:
    """A 63-bit seed for one operation, fixed by the workload seed and the
    operation's position."""
    blob = "/".join(str(int(x)) for x in (seed, *path)).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "little") >> 1


@dataclass
class Outcome:
    """failed: the operation raised, returned a non-converged status or
    exited non-zero.  recovered: the fit matched the parameters that made its
    input (None when the operation fits nothing).  result: what a traced and
    an untraced run must agree on."""

    failed: bool
    recovered: Optional[bool] = None
    result: object = None
    child_rss_kb: int = 0


class Workload:
    name = ""
    block = 1             # a run measures whole blocks of this many ops
    min_recovered = 0.95  # share of fits that must recover their parameters

    def command(self, i):
        """Name under which op i's latency is grouped."""
        return self.name


class McSeparation(Workload):
    """Monte Carlo QWP-angle component separation (acceptance criterion 10):
    one op is five noisy extinction traces and one joint fit."""

    name = "mc-separation"
    A0, B0, PSI0 = 10.76, 3.48, math.pi / 2.0
    ANGLES_DEG = (0.0, 36.0, 72.0, 108.0, 144.0)
    PIXELS, HALF_SPAN_MHZ = 201, 140.0
    INCIDENT_CPS, INTEGRATION_S = 127550.0, 0.16

    def sizes(self):
        return {"angles": len(self.ANGLES_DEG), "pixels_per_trace": self.PIXELS,
                "grid_MHz": [-self.HALF_SPAN_MHZ, self.HALF_SPAN_MHZ],
                "incident_cps": self.INCIDENT_CPS, "integration_s": self.INTEGRATION_S,
                "A0": self.A0, "B0": self.B0, "psi0_rad": self.PSI0,
                "recovery_tolerance": {"A0_rel": 0.03, "B0_rel": 0.03, "psi0_deg": 2.0}}

    def setup(self, seed, workdir=None):
        import numpy as np
        from resfluor import measurement, physics, polarization, spectra

        mol = physics.MoleculeParams(gamma0=GAMMA0_MHZ, gamma=GAMMA_MHZ,
                                     lambda21=LAMBDA_NM, alpha_dw=0.25, alpha_fc=0.3)
        geo = polarization.SeparationGeometry()
        drive = physics.DriveParams(rabi=0.0)
        models = []
        for deg in self.ANGLES_DEG:
            theta = math.radians(deg)
            ap, bp, pp = polarization.transform_extinction_triple(
                geo.chain(theta), geo.laser_vector(), geo.dipole_angle,
                self.A0, self.B0, self.PSI0)
            models.append((theta, spectra.ExtinctionModel(A=ap, B=bp, psi=pp,
                                                          mol=mol, drive=drive)))
        return {
            "seed": seed,
            "geometry": geo,
            "models": models,
            "grid": np.linspace(-self.HALF_SPAN_MHZ, self.HALF_SPAN_MHZ, self.PIXELS),
            "detector": measurement.DetectorParams(dark_rate=0.0,
                                                   integration_time=self.INTEGRATION_S),
        }

    def inputs(self, state, i):
        """The five noisy (theta, trace) pairs of op i."""
        from resfluor import synth

        return [
            (theta, synth.noisy_extinction_trace(
                model, state["grid"], self.INCIDENT_CPS, state["detector"],
                derive_seed(state["seed"], i, k)))
            for k, (theta, model) in enumerate(state["models"])
        ]

    def op(self, state, i, tracer=None):
        from resfluor import estimation, physics, polarization

        series = self.inputs(state, i)
        try:
            r = polarization.separate_components(series, state["geometry"])
        except estimation.NotConvergedError:
            return Outcome(failed=True, recovered=False)
        p = r.params
        recovered = (abs(p["A0"] - self.A0) / self.A0 < 0.03
                     and abs(p["B0"] - self.B0) / self.B0 < 0.03
                     and abs(physics.normalize_phase(p["psi0"] - self.PSI0))
                     < math.radians(2.0))
        return Outcome(failed=not r.converged, recovered=recovered, result=p)


class McG2(Workload):
    """Monte Carlo g2 Rabi-frequency recovery (acceptance criterion 6): one
    op is one noisy g2 trace and one fit."""

    name = "mc-g2"
    RABI_MHZ = 50.0
    DELAYS, TAU_MAX_NS = 801, 400.0
    PLATEAU_COINCIDENCES = 1e4

    def sizes(self):
        return {"delays": self.DELAYS, "tau_max_ns": self.TAU_MAX_NS,
                "rabi_MHz": self.RABI_MHZ,
                "plateau_coincidences": self.PLATEAU_COINCIDENCES,
                "recovery_tolerance": {"rabi_rel": 0.05}}

    def setup(self, seed, workdir=None):
        import numpy as np
        from resfluor import physics

        return {
            "seed": seed,
            "mol": physics.MoleculeParams(gamma0=GAMMA0_MHZ, gamma=GAMMA_MHZ,
                                          lambda21=LAMBDA_NM, alpha_dw=0.25,
                                          alpha_fc=0.3),
            "drive": physics.DriveParams(rabi=self.RABI_MHZ),
            "delays": np.linspace(0.0, self.TAU_MAX_NS, self.DELAYS),
        }

    def inputs(self, state, i):
        """The noisy g2 trace of op i."""
        from resfluor import synth

        return synth.noisy_g2_trace(state["delays"], state["mol"], state["drive"],
                                    self.PLATEAU_COINCIDENCES, derive_seed(state["seed"], i))

    def op(self, state, i, tracer=None):
        from resfluor import correlation, estimation

        trace = self.inputs(state, i)
        try:
            r = correlation.fit_rabi_from_g2(trace, state["mol"])
        except estimation.NotConvergedError:
            return Outcome(failed=True, recovered=False)
        recovered = abs(r.params["rabi"] - self.RABI_MHZ) / self.RABI_MHZ < 0.05
        return Outcome(failed=not r.converged, recovered=recovered, result=r.params)


# -- cli-session ------------------------------------------------------------

CONFIGS = {
    "mollow.ini": "[drive]\nrabi = 100.0\n",
    "g2.ini": "[drive]\nrabi = 50.0\n\n[simulate]\nnoise = true\n",
    "extinction.ini": "[simulate]\nnoise = true\n",
}

# (command name, arguments); every command also gets --out out --seed N.
# The analyze commands read what the writes before them produced.
SESSION = (
    ("reproduce-fig2", ["reproduce", "fig2"]),
    ("reproduce-fig3", ["reproduce", "fig3"]),
    ("reproduce-fig4", ["reproduce", "fig4"]),
    ("reproduce-fig5", ["reproduce", "fig5"]),
    ("reproduce-fig6", ["reproduce", "fig6"]),
    ("simulate-mollow", ["simulate", "mollow", "--config", "mollow.ini"]),
    ("simulate-g2", ["simulate", "g2", "--config", "g2.ini"]),
    ("simulate-extinction", ["simulate", "extinction", "--config", "extinction.ini"]),
    ("analyze-separate", ["analyze", "separate", "out/fig4/manifest.json"]),
    ("analyze-g2-fit", ["analyze", "g2-fit", "out/g2.csv", "--config", "g2.ini"]),
    ("analyze-fit-spectrum", ["analyze", "fit-spectrum", "out/extinction.csv"]),
    ("analyze-saturation-fit", ["analyze", "saturation-fit",
                                "out/fig3/fig3_coherent.csv", "out/fig3/fig3_total.csv"]),
)

# what the `resfluor` console script runs
ENTRY_POINT = "import sys; from resfluor.cli import main; sys.exit(main())"
LAUNCHER = os.path.join(HERE, "launch.py")


def _rel_close(x, ref, tol):
    return abs(x - ref) <= tol * abs(ref)


def _check_separate(p):
    # reproduce fig4 draws its noiseless series from this intrinsic triple
    l0 = 4.0 / GAMMA_MHZ**2
    a0 = 0.08 / l0 / 0.5
    b0 = 0.30 / (l0 * GAMMA_MHZ / 2.0) / math.cos(math.radians(45.0))
    return (_rel_close(p["A0"], a0, 1e-4) and _rel_close(p["B0"], b0, 1e-4)
            and abs(p["psi0"] - math.pi / 2.0) < 1e-4
            and _rel_close(p["gamma"], GAMMA_MHZ, 1e-4))


def _check_g2_fit(p):
    # noisy input; the criterion-6 tolerance
    return _rel_close(p["rabi"], 50.0, 0.05)


def _check_fit_spectrum(p):
    # One noisy trace fixes only the net dip, the width and the centre, not
    # A, B and psi apart.  Tolerances are >= 5 standard deviations of the
    # fitted values over seeds (depth 2.3%, width 3.6%, centre 0.3 MHz).
    depth = ((p["B"] * p["gamma"] / 2.0 * math.sin(p["psi"]) - p["A"])
             * 4.0 / p["gamma"] ** 2 / p["baseline"])
    return (_rel_close(depth, 0.115, 0.15) and _rel_close(p["gamma"], GAMMA_MHZ, 0.20)
            and abs(p["center"]) < 2.0)


def _check_saturation_fit(p):
    return _rel_close(p["p_sat"], 350.0, 1e-4)


CHECKS = {
    "analyze-separate": ("separate.json", _check_separate),
    "analyze-g2-fit": ("g2_fit.json", _check_g2_fit),
    "analyze-fit-spectrum": ("fit_spectrum.json", _check_fit_spectrum),
    "analyze-saturation-fit": ("saturation_fit.json", _check_saturation_fit),
}


def run_child(argv, cwd, env):
    """Run a child process to completion; return (exit code, peak RSS in kB)."""
    with open(os.path.join(cwd, "child.log"), "wb") as log:
        p = subprocess.Popen(argv, cwd=cwd, env=env, stdout=log, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(p.pid, 0)
        except BaseException:
            p.kill()
            p.wait()
            raise
        p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, usage.ru_maxrss


def child_env():
    env = {k: v for k, v in os.environ.items() if k != "RESFLUOR_CONFIG"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


class CliSession(Workload):
    """A scripted `resfluor` user session: each op is one fresh CLI process.

    Traced ops run through ``launch.py``, which calls ``resfluor.cli.main``
    under the tracer and writes its spans to a file that the parent adopts.
    """

    name = "cli-session"
    block = len(SESSION)   # every command runs, and is checked, equally often
    min_recovered = 1.0

    def sizes(self):
        return {"commands_per_session": len(SESSION),
                "commands": [c for c, _ in SESSION],
                "configs": CONFIGS}

    def setup(self, seed, workdir):
        import resfluor.cli  # noqa: F401  (what every command pays)

        os.makedirs(workdir, exist_ok=True)
        for name, text in CONFIGS.items():
            with open(os.path.join(workdir, name), "w") as fh:
                fh.write(text)
        return {"seed": seed, "workdir": workdir, "env": child_env()}

    def command(self, i):
        return SESSION[i % len(SESSION)][0]

    def argv(self, state, i):
        _, args = SESSION[i % len(SESSION)]
        return [*args, "--out", "out", "--seed", str(derive_seed(state["seed"], i))]

    def op(self, state, i, tracer=None):
        cmd = self.command(i)
        cwd = state["workdir"]
        if tracer is None:
            argv = [sys.executable, "-c", ENTRY_POINT, *self.argv(state, i)]
        else:
            spans_path = os.path.join(cwd, "spans.json")
            argv = [sys.executable, LAUNCHER, "cli", spans_path, *self.argv(state, i)]
        code, rss_kb = run_child(argv, cwd, state["env"])
        if code != 0:
            with open(os.path.join(cwd, "child.log")) as fh:
                print(f"{cmd} exited {code}:\n{fh.read()}", file=sys.stderr)
        if tracer is not None and os.path.exists(spans_path):
            with open(spans_path) as fh:
                tracer.adopt(json.load(fh))
            os.remove(spans_path)
        if code != 0:
            return Outcome(failed=True, recovered=False if cmd in CHECKS else None,
                           child_rss_kb=rss_kb)
        if cmd not in CHECKS:
            return Outcome(failed=False, child_rss_kb=rss_kb)
        fname, check = CHECKS[cmd]
        with open(os.path.join(cwd, "out", fname)) as fh:
            res = json.load(fh)
        ok = res["status"] == "converged"
        return Outcome(failed=not ok, recovered=ok and check(res["params"]),
                       result=res["params"], child_rss_kb=rss_kb)


WORKLOADS = {w.name: w for w in (McSeparation(), McG2(), CliSession())}
