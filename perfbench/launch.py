"""Child-process entry points of the benchmark.

    python3 perfbench/launch.py setup WORKLOAD SEED WORKDIR
        Import the package and build the workload's fixed inputs in this
        fresh interpreter; print the seconds that took as JSON.

    python3 perfbench/launch.py cli SPANS_PATH ARGS...
        Run ``resfluor ARGS...`` in-process under the tracer and write its
        spans to SPANS_PATH; exit with the command's exit code.

The package is found through PYTHONPATH, which the parent sets to the
checkout's ``src``.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def setup_probe(workload, seed, workdir):
    import workloads

    workloads.WORKLOADS[workload].setup(int(seed), workdir)
    print(json.dumps({"setup_s": time.perf_counter() - T0}))
    return 0


def traced_cli(spans_path, argv):
    import resfluor.cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return tracer.call("cli.main", resfluor.cli.main, argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        sys.exit(setup_probe(*rest))
    if mode == "cli":
        sys.exit(traced_cli(rest[0], rest[1:]))
    sys.exit(f"unknown mode {mode!r}")
