"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

import filecmp
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def bench_run(cwd, workload, seed, seconds, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run_emits_every_metric(workload, trace):
    proc = bench_run(ROOT, workload, 7, 0.5, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] % workloads.WORKLOADS[workload].block == 0
    spec = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0


def test_outside_a_checkout_exits_nonzero_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench_run(tmp_path, "mc-g2", 1, 1, 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_wraps_every_binding_and_uninstalls():
    import resfluor.cli
    from resfluor import correlation, estimation, polarization, spectra, synth

    before = {(m, a): getattr(m, a) for m, a in [
        (estimation, "minimize"), (polarization, "minimize"), (correlation, "minimize"),
        (synth, "simulate_counts"), (synth, "extinction_spectrum"),
        (resfluor.cli, "mollow_spectrum"), (resfluor.cli, "load_config")]}
    to_csv, from_csv = (spectra.SpectrumTrace.__dict__[k] for k in ("to_csv", "from_csv"))
    tracer = Tracer()
    tracer.install()
    try:
        for (mod, attr), orig in before.items():
            assert getattr(mod, attr) is not orig, f"{mod.__name__}.{attr} not wrapped"
        assert spectra.SpectrumTrace.__dict__["to_csv"] is not to_csv
    finally:
        tracer.uninstall()
    for (mod, attr), orig in before.items():
        assert getattr(mod, attr) is orig
    assert spectra.SpectrumTrace.__dict__["to_csv"] is to_csv
    assert spectra.SpectrumTrace.__dict__["from_csv"] is from_csv


@pytest.mark.parametrize("workload", ["mc-separation", "mc-g2"])
def test_traced_fits_are_bit_identical(workload):
    wl = workloads.WORKLOADS[workload]
    state = wl.setup(11)
    plain = [wl.op(state, i).result for i in range(3)]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [tracer.call("op", wl.op, state, i, tracer).result for i in range(3)]
    finally:
        tracer.uninstall()
    assert traced == plain
    names = {s[0] for s in tracer.spans}
    assert {"op", "estimation.minimize", "estimation.residual",
            "measurement.simulate_counts"} <= names


def _session(workdir, seed, traced):
    wl = workloads.WORKLOADS["cli-session"]
    state = wl.setup(seed, str(workdir))
    tracer = Tracer() if traced else None
    outs = [wl.op(state, i, tracer) for i in range(len(workloads.SESSION))]
    return outs, tracer


def _same_tree(a, b):
    cmp = filecmp.dircmp(a, b)
    assert not (cmp.left_only or cmp.right_only or cmp.funny_files)
    _, mismatch, errors = filecmp.cmpfiles(a, b, cmp.common_files, shallow=False)
    assert not mismatch and not errors, mismatch
    for sub in cmp.common_dirs:
        _same_tree(os.path.join(a, sub), os.path.join(b, sub))


def test_traced_cli_session_writes_identical_outputs(tmp_path):
    plain, _ = _session(tmp_path / "plain", 5, traced=False)
    traced, tracer = _session(tmp_path / "traced", 5, traced=True)
    assert not any(o.failed for o in plain + traced)
    assert [o.result for o in traced] == [o.result for o in plain]
    assert all(o.recovered for o in plain if o.recovered is not None)
    _same_tree(tmp_path / "plain" / "out", tmp_path / "traced" / "out")
    names = {s[0] for s in tracer.spans}
    assert {"cli.main", "config.load_config", "spectra.convolve_instrument",
            "io.SpectrumTrace.to_csv", "io.G2Trace.from_csv"} <= names


def test_seed_changes_generated_inputs(tmp_path):
    import numpy as np

    sep = workloads.WORKLOADS["mc-separation"]
    a = sep.inputs(sep.setup(1), 0)
    b = sep.inputs(sep.setup(2), 0)
    again = sep.inputs(sep.setup(1), 0)
    assert all(np.array_equal(x[1].values, y[1].values) for x, y in zip(a, again))
    assert not any(np.array_equal(x[1].values, y[1].values) for x, y in zip(a, b))

    g2 = workloads.WORKLOADS["mc-g2"]
    assert not np.array_equal(g2.inputs(g2.setup(1), 0).values,
                              g2.inputs(g2.setup(2), 0).values)

    cli = workloads.WORKLOADS["cli-session"]
    noisy = os.path.join("out", "fig2", "fig2_transmission.csv")
    texts = []
    for seed in (1, 2):
        state = cli.setup(seed, str(tmp_path / str(seed)))
        assert not cli.op(state, 0).failed
        with open(os.path.join(state["workdir"], noisy)) as fh:
            texts.append(fh.read())
    assert texts[0] != texts[1]


def test_reference_kernel_is_independent_of_the_package():
    code = ("import sys; sys.path.insert(0, 'perfbench'); from reference import Reference; "
            "r = Reference(); [r.measure() for _ in range(3)]; "
            "assert not [m for m in sys.modules if m.startswith('resfluor')]")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_scaling_is_proportional_to_the_raw_time():
    from reference import KERNEL_S, NEIGHBOURS, Reference

    assert Reference.scale(0.2, [KERNEL_S, KERNEL_S]) == pytest.approx(0.2)
    # a host twice as slow doubles the kernel's time and the op's alike
    assert Reference.scale(0.4, [2 * KERNEL_S, 2 * KERNEL_S]) == pytest.approx(0.2)
    assert Reference.scale(0.3, [KERNEL_S, 2 * KERNEL_S]) == pytest.approx(0.2)
    # op i is scaled by gaps i - NEIGHBOURS ... i + 1 + NEIGHBOURS
    assert NEIGHBOURS == 1
    gaps = [[KERNEL_S]] * 3 + [[4 * KERNEL_S, 2 * KERNEL_S]] + [[KERNEL_S]] * 3
    scaled = Reference.scale_ops([0.1] * 6, gaps)
    assert scaled[0] == pytest.approx(0.1)
    assert scaled[1:5] == [pytest.approx(0.1 / 1.5)] * 4
    assert scaled[5] == pytest.approx(0.1)
