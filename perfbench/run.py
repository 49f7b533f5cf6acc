"""resfluor benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from ``src`` there.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
full run record is written to ``perfbench-out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads
from reference import KERNEL_S, Reference
from tracer import Tracer, summarize

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench-out")

SETUP_PROBES = 9   # fresh interpreters per untraced run; setup_s is their median
TRACE_ROUNDS = 4   # untraced/traced round pairs in a traced run
P90_MIN_OPS = 100  # an untraced run's p90 has at least ten ops above it
# One client in one thread: BLAS worker threads would only contend with it.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Every timing among these is scaled by the reference kernel (reference.py).
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

COMMANDS = (
    "reproduce-fig2", "reproduce-fig3", "reproduce-fig4", "reproduce-fig5",
    "reproduce-fig6", "simulate-mollow", "simulate-g2", "simulate-extinction",
    "analyze-separate", "analyze-g2-fit", "analyze-fit-spectrum",
    "analyze-saturation-fit",
)

# per-layer metric -> unit; per-op values are means over the traced ops
PER_LAYER = {
    "measurement.calls": "calls/op",
    "measurement.pixels": "pixels/op",
    "measurement.busy_s": "s/op",
    "measurement.ns_per_pixel": "ns/pixel",
    "synth.busy_s": "s/op",
    "synth.self_s": "s/op",
    "estimation.minimize.calls": "calls/op",
    "estimation.minimize.busy_s": "s/op",
    "estimation.residual_evals_per_fit": "evals/fit",
    "estimation.residual_us": "us/eval",
    "estimation.iterations_per_fit": "iters/fit",
    "estimation.engine_self_s": "s/op",
    "estimation.converged_frac": "fraction",
    "estimation.recovered_frac": "fraction",
    "polarization.separate_components.busy_s": "s/op",
    "polarization.separate_components.self_s": "s/op",
    "polarization.transform_extinction_triple.calls": "calls/op",
    "polarization.transform_extinction_triple.busy_s": "s/op",
    "correlation.g2.busy_s": "s/op",
    "correlation.fit_rabi_from_g2.busy_s": "s/op",
    "spectra.extinction_spectrum.busy_s": "s/op",
    "spectra.mollow_spectrum.busy_s": "s/op",
    "spectra.convolve_instrument.busy_s": "s/op",
    "spectra.convolve_instrument.kernel_cells": "cells/op",
    "io.trace_write_s": "s/op",
    "io.trace_read_s": "s/op",
    "io.bytes_written": "bytes/op",
    "config.load_config.busy_s": "s/op",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.main.self_s": "s/op",
    **{f"cli.command_ms.{c}": "ms" for c in COMMANDS},
    "trace.overhead_frac": "fraction",
    "trace.coverage_frac": "fraction",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Loop:
    """Outcomes of one closed-loop measurement."""

    def __init__(self):
        self.latency_s = []   # wall time of each op
        self.scaled_s = []    # the same, scaled by the reference kernel
        self.commands = []
        self.failed = 0
        self.fits = 0
        self.recovered = 0
        self.child_rss_kb = 0
        self.elapsed_s = 0.0  # wall time of the loop, reference and probes included

    @property
    def n(self):
        return len(self.latency_s)

    def merge(self, other):
        self.latency_s += other.latency_s
        self.scaled_s += other.scaled_s
        self.commands += other.commands
        self.failed += other.failed
        self.fits += other.fits
        self.recovered += other.recovered
        self.child_rss_kb = max(self.child_rss_kb, other.child_rss_kb)
        self.elapsed_s += other.elapsed_s

    @property
    def ops_per_s(self):
        """Ops per second of op time (one client, so 1 / mean latency)."""
        return self.n / math.fsum(self.latency_s)

    @property
    def scaled_ops_per_s(self):
        return self.n / math.fsum(self.scaled_s)


def timed_loop(wl, state, seconds, start, ref, tracer=None, after_op=None,
               min_ops=1) -> Loop:
    """Run ops start, start+1, ... one after another, in whole blocks of
    wl.block ops, and stop at the block boundary nearest to `seconds` of
    wall time (after min_ops ops and one block at least).  Whole blocks keep
    the mix of a cli-session run, and so its percentiles, the same from run
    to run.

    The reference kernel runs in the gaps between ops, outside their time;
    the ops are scaled by it when the loop ends.  after_op() runs after each
    op, outside its time; when it returns true (it spent time), the kernel
    runs again before the next op."""
    loop = Loop()
    t_start = time.perf_counter()
    gaps = [[ref.measure()]]
    i = start
    while True:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = wl.op(state, i)
            else:
                out = tracer.call("op", wl.op, state, i, tracer)
        except Exception as exc:  # an op that raises counts as failed
            print(f"op {i} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            loop.failed += 1
            loop.fits += 1
        else:
            loop.failed += out.failed
            if out.recovered is not None:
                loop.fits += 1
                loop.recovered += bool(out.recovered)
            loop.child_rss_kb = max(loop.child_rss_kb, out.child_rss_kb)
        t1 = time.perf_counter()
        gaps.append([ref.measure()])
        loop.latency_s.append(t1 - t0)
        loop.commands.append(wl.command(i))
        i += 1
        if after_op is not None and after_op():
            gaps[-1].append(ref.measure())
        if loop.n % wl.block == 0 and loop.n >= min_ops:
            loop.elapsed_s = time.perf_counter() - t_start
            mean_block_s = loop.elapsed_s * wl.block / loop.n
            if loop.elapsed_s + mean_block_s / 2.0 >= seconds:
                loop.scaled_s = Reference.scale_ops(loop.latency_s, gaps)
                return loop


def _wall_s(argv, env):
    t0 = time.perf_counter()
    subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def probe_setup(wl, seed, env):
    """One raw setup_s sample, from a fresh interpreter."""
    workdir = tempfile.mkdtemp(prefix="setup-", dir=OUT)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "launch.py"), "setup",
             wl.name, str(seed), workdir],
            env=env, check=True, capture_output=True, text=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


class SetupProbes:
    """An after_op hook that takes SETUP_PROBES setup_s samples, spread
    evenly over `seconds` of the loop so that they meet the host as the ops
    do.  Each is scaled by the reference kernel timed just before and just
    after it."""

    def __init__(self, wl, seed, env, ref, seconds):
        self.wl, self.seed, self.env, self.ref = wl, seed, env, ref
        self.every = seconds / SETUP_PROBES
        self.raw, self.scaled = [], []
        self.t0 = None

    def probe(self):
        before = self.ref.measure()
        raw = probe_setup(self.wl, self.seed, self.env)
        self.raw.append(raw)
        self.scaled.append(self.ref.scale(raw, [before, self.ref.measure()]))

    def __call__(self):
        now = time.perf_counter()
        if self.t0 is None:
            self.t0 = now
        if len(self.raw) < SETUP_PROBES and now - self.t0 >= len(self.raw) * self.every:
            self.probe()
            return True
        return False

    def finish(self):
        while len(self.raw) < SETUP_PROBES:
            self.probe()


def probe_start(env, bare, imp):
    """Time a bare interpreter and one that imports resfluor.cli; append the
    wall times to bare and imp."""
    bare.append(_wall_s([sys.executable, "-c", "pass"], env))
    imp.append(_wall_s([sys.executable, "-c", "import resfluor.cli"], env))
    return True


def p90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def command_medians_ms(loop):
    by_cmd = {}
    for cmd, lat in zip(loop.commands, loop.latency_s):
        by_cmd.setdefault(cmd, []).append(lat)
    return {c: 1e3 * statistics.median(v) for c, v in by_cmd.items()}


def latency_metrics(op_s, ops_per_s):
    return {
        "ops_per_s": ops_per_s,
        "op_ms_p50": 1e3 * statistics.median(op_s),
        "op_ms_p90": 1e3 * p90(op_s),
    }


def end_to_end_metrics(setup_s, loop):
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + loop.child_rss_kb
    return {
        "setup_s": statistics.median(setup_s),
        **latency_metrics(loop.scaled_s, loop.scaled_ops_per_s),
        "peak_rss_mb": rss_kb / 1024.0,
    }


def per_layer_metrics(spans, untraced, traced, recovered_frac, start_probe):
    s = summarize(spans)
    empty = {"calls": 0, "busy": 0.0, "self": 0.0, "info": []}

    def get(name):
        return s.get(name, empty)

    n_ops = get("op")["calls"]

    def per_op(value):
        return value / n_ops

    def ratio(a, b):
        return a / b if b else 0.0

    sim = get("measurement.simulate_counts")
    pixels = sum(i["pixels"] for i in sim["info"])
    fit = get("estimation.minimize")
    res = get("estimation.residual")
    synth = [get("synth.noisy_extinction_trace"), get("synth.noisy_g2_trace")]
    writes = [get("io.SpectrumTrace.to_csv"), get("io.SpectrumTrace.to_json"),
              get("io.G2Trace.to_csv")]
    reads = [get("io.SpectrumTrace.from_csv"), get("io.G2Trace.from_csv")]
    interpreter_s, import_s = start_probe
    cmd_ms = command_medians_ms(untraced)

    layer_self = sum(v["self"] for k, v in s.items() if k != "op")
    attributed = layer_self + n_ops * (interpreter_s + import_s)
    m = {
        "measurement.calls": per_op(sim["calls"]),
        "measurement.pixels": per_op(pixels),
        "measurement.busy_s": per_op(sim["busy"]),
        "measurement.ns_per_pixel": 1e9 * ratio(sim["busy"], pixels),
        "synth.busy_s": per_op(sum(x["busy"] for x in synth)),
        "synth.self_s": per_op(sum(x["self"] for x in synth)),
        "estimation.minimize.calls": per_op(fit["calls"]),
        "estimation.minimize.busy_s": per_op(fit["busy"]),
        "estimation.residual_evals_per_fit": ratio(res["calls"], fit["calls"]),
        "estimation.residual_us": 1e6 * ratio(res["busy"], res["calls"]),
        "estimation.iterations_per_fit":
            ratio(sum(i["iterations"] for i in fit["info"]), len(fit["info"])),
        "estimation.engine_self_s": per_op(fit["self"]),
        "estimation.converged_frac":
            ratio(sum(i["status"] == "converged" for i in fit["info"]), fit["calls"]),
        "estimation.recovered_frac": recovered_frac,
        "polarization.separate_components.busy_s":
            per_op(get("polarization.separate_components")["busy"]),
        "polarization.separate_components.self_s":
            per_op(get("polarization.separate_components")["self"]),
        "polarization.transform_extinction_triple.calls":
            per_op(get("polarization.transform_extinction_triple")["calls"]),
        "polarization.transform_extinction_triple.busy_s":
            per_op(get("polarization.transform_extinction_triple")["busy"]),
        "correlation.g2.busy_s": per_op(get("correlation.g2")["busy"]),
        "correlation.fit_rabi_from_g2.busy_s":
            per_op(get("correlation.fit_rabi_from_g2")["busy"]),
        "spectra.extinction_spectrum.busy_s":
            per_op(get("spectra.extinction_spectrum")["busy"]),
        "spectra.mollow_spectrum.busy_s": per_op(get("spectra.mollow_spectrum")["busy"]),
        "spectra.convolve_instrument.busy_s":
            per_op(get("spectra.convolve_instrument")["busy"]),
        "spectra.convolve_instrument.kernel_cells":
            per_op(sum(i["cells"] for i in get("spectra.convolve_instrument")["info"])),
        "io.trace_write_s": per_op(sum(x["busy"] for x in writes)),
        "io.trace_read_s": per_op(sum(x["busy"] for x in reads)),
        "io.bytes_written": per_op(sum(i["bytes"] for x in writes for i in x["info"])),
        "config.load_config.busy_s": per_op(get("config.load_config")["busy"]),
        "cli.interpreter_s": interpreter_s,
        "cli.import_s": import_s,
        "cli.main.self_s": per_op(get("cli.main")["self"]),
        **{f"cli.command_ms.{c}": cmd_ms.get(c, 0.0) for c in COMMANDS},
        "trace.overhead_frac": 1.0 - traced.scaled_ops_per_s / untraced.scaled_ops_per_s,
        "trace.coverage_frac": ratio(attributed, get("op")["busy"]),
    }
    return m


def versions():
    out = {"python": platform.python_version()}
    for pkg in ("numpy", "scipy"):
        try:
            out[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            out[pkg] = None
    return out


def run(workload, seed, seconds, trace):
    """Run one benchmark; return (result line dict, run record dict)."""
    wl = workloads.WORKLOADS[workload]
    env = workloads.child_env()
    ref = Reference()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    try:
        state = wl.setup(seed, workdir)
        probes = None
        if not trace:
            probes = SetupProbes(wl, seed, env, ref, seconds)
            loops = [timed_loop(wl, state, seconds, 0, ref, after_op=probes,
                                min_ops=P90_MIN_OPS)]
            probes.finish()
        else:
            # untraced and traced rounds alternate, so that a drift in the
            # host's speed reaches both sides of the overhead figure alike
            untraced, traced, tracer = Loop(), Loop(), Tracer()
            bare, imp = [], []
            for k in range(2 * TRACE_ROUNDS):
                on = k % 2 == 1
                if on:
                    tracer.install()
                # each traced cli-session op is followed by one bare and one
                # import-only interpreter, so both sample the same moments
                probe = (lambda: probe_start(env, bare, imp)) \
                    if on and workload == "cli-session" else None
                try:
                    part = timed_loop(wl, state, seconds / (2 * TRACE_ROUNDS),
                                      untraced.n + traced.n, ref,
                                      tracer if on else None, probe)
                finally:
                    tracer.uninstall()
                (traced if on else untraced).merge(part)
            loops = [untraced, traced]
            # means, as the per-op layer times they are added to are means
            start_probe = ((statistics.fmean(bare), statistics.fmean(imp)
                            - statistics.fmean(bare)) if bare else (0.0, 0.0))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(lp.n for lp in loops)
    failed = sum(lp.failed for lp in loops)
    fits = sum(lp.fits for lp in loops)
    recovered_frac = sum(lp.recovered for lp in loops) / fits
    correct = failed == 0 and recovered_frac >= wl.min_recovered

    if trace:
        values = per_layer_metrics(tracer.spans, untraced, traced, recovered_frac,
                                   start_probe)
        units = PER_LAYER
        spans_path = os.path.join(OUT, f"spans-{workload}-seed{seed}.json")
        tracer.dump(spans_path)
    else:
        values = end_to_end_metrics(probes.scaled, loops[0])
        units = END_TO_END
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "pinned_to_cpus": sorted(os.sched_getaffinity(0)),
        "thread_env": THREAD_ENV,
        "versions": versions(),
        "platform": platform.platform(),
        "sizes": wl.sizes(),
        "loop": "closed, one client, one operation at a time",
        "samples": {
            "setup_s": len(probes.raw) if probes else 0,
            "ops": [lp.n for lp in loops],
            "reference_kernel": len(ref.samples),
            "note": "ops_per_s, op_ms_p50 and op_ms_p90 are over every op of the "
                    "timed loop; setup_s is the median of the setup samples",
        },
        "reference_kernel": {
            "scaled_to_s": KERNEL_S,
            "median_s": statistics.median(ref.samples),
            "quartiles_s": statistics.quantiles(ref.samples, n=4),
        },
        "setup_s_samples": {"raw": probes.raw, "scaled": probes.scaled} if probes else {},
        "op_ms_samples": [[1e3 * x for x in lp.latency_s] for lp in loops],
        "loop_wall_s": [lp.elapsed_s for lp in loops],
        "ops_attempted": attempted,
        "ops_failed": failed,
        "fail_frac": failed / attempted,
        "fits": fits,
        "recovered_frac": recovered_frac,
        "command_ms_p50": command_medians_ms(loops[0]) if workload == "cli-session" else {},
        "metrics": metrics,
    }
    if not trace:
        record["unscaled"] = {
            "setup_s": statistics.median(probes.raw),
            **latency_metrics(loops[0].latency_s, loops[0].ops_per_s),
        }
    else:
        record["start_probe_s"] = {"bare": bare, "import_resfluor_cli": imp}
        record["tracing"] = {
            "untraced_ops_per_s": untraced.ops_per_s,
            "traced_ops_per_s": traced.ops_per_s,
            "overhead_frac": values["trace.overhead_frac"],
            "coverage_frac": values["trace.coverage_frac"],
            "spans": len(tracer.spans),
            "spans_file": os.path.relpath(spans_path, ROOT),
        }
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, record


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "resfluor", "__init__.py")):
        print(f"error: no resfluor package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)  # before numpy is imported, here and in children
    # Each CPU of a shared host has its own speed at any moment; on one CPU,
    # the reference kernel meets the speed that the ops (and children) meet.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, SRC)
    import resfluor

    if not os.path.abspath(resfluor.__file__).startswith(SRC + os.sep):
        print(f"error: resfluor imported from {resfluor.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    result, record = run(args.workload, args.seed, args.seconds, args.trace)
    path = os.path.join(OUT, f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"{args.workload} seed={args.seed} trace={args.trace} nproc={record['nproc']} "
          f"{record['versions']}")
    print(f"  ops={record['samples']['ops']} failed={record['ops_failed']} "
          f"fail_frac={record['fail_frac']:.4g} recovered_frac={record['recovered_frac']:.4g}"
          f" setup probes={record['samples']['setup_s']}")
    k = record["reference_kernel"]
    print(f"  reference kernel: median {1e3 * k['median_s']:.4g} ms over "
          f"{record['samples']['reference_kernel']} runs; end-to-end timings are "
          f"scaled to {1e3 * KERNEL_S:.4g} ms")
    for name, m in record["metrics"].items():
        raw = record.get("unscaled", {}).get(name)
        unscaled = "" if raw is None else f"   (unscaled {raw:.6g})"
        print(f"  {name:<50} {m['value']:>14.6g} {m['unit']}{unscaled}")
    if args.trace:
        t = record["tracing"]
        print(f"  tracing: {t['untraced_ops_per_s']:.4g} ops/s untraced, "
              f"{t['traced_ops_per_s']:.4g} ops/s traced, {t['spans']} spans")
    print(f"  record: {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
