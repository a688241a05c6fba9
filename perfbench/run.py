"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload compile_suite --seed 1 \
        --seconds 30 --trace 0

Workloads: ``compile_suite``, ``fig19_sweep``, ``service_mix`` (see
``perfbench/README.md``). ``--trace 0`` measures with tracing off and
prints the end-to-end metrics; ``--trace 1`` is the separate traced run
and prints the per-layer metrics. Human-readable lines come first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit status: 0 when every output check passed, 1 on an output mismatch
(the JSON line still reports it), 2 when the run could not be made
(no ``src/repro`` next to this directory, bad arguments).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("compile_suite", "fig19_sweep", "service_mix")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def _isolate(scratch) -> None:
    """Point every store the program might write at private scratch
    directories, and pin the simulation engine to its default."""
    os.environ["REPRO_CACHE_DIR"] = str(scratch.dir("cache"))
    os.environ["REPRO_TELEMETRY_DIR"] = str(scratch.dir("telemetry"))
    os.environ["REPRO_TRACE_DIR"] = str(scratch.dir("traces"))
    # Short: the server's forkserver puts a unix socket path under it.
    os.environ["TMPDIR"] = str(scratch.path)
    os.environ.pop("REPRO_SIM_ENGINE", None)
    tempfile.tempdir = None


def _run(options, scratch):
    from perfbench import inputs
    if options.workload == "compile_suite":
        from perfbench import compile_suite
        items = inputs.compile_suite(options.seed)
        print(f"inputs: {len(items)} compiles, "
              f"digest {inputs.digest(items)[:16]}")
        return compile_suite.run(items, options.seconds, options.trace,
                                 scratch)
    if options.workload == "fig19_sweep":
        from perfbench import fig19_sweep
        draw = inputs.fig19_sweep(options.seed)
        print(f"inputs: kernels {','.join(draw['kernels'])}, "
              f"digest {inputs.digest(draw)[:16]}")
        return fig19_sweep.run(draw, options.seconds, options.trace,
                               scratch)
    from perfbench import service_mix
    streams = inputs.service_mix(
        options.seed, length=service_mix.lane_requests(options.seconds))
    print(f"inputs: {len(streams)} connections x {len(streams[0])} "
          f"requests, digest {inputs.digest(streams)[:16]}")
    return service_mix.run(streams, options.trace, scratch, ROOT)


def main(argv=None) -> int:
    options = _parser().parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {ROOT}; run from a full "
              f"checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.common import Scratch
    from perfbench.metrics import BUSY, END_TO_END, PER_LAYER

    scratch = Scratch(ROOT)
    try:
        _isolate(scratch)
        outcome = _run(options, scratch)
    finally:
        scratch.close()
    if options.trace:
        wanted = PER_LAYER
        missing = [name for name in BUSY[options.workload]
                   if not outcome.metrics.get(name)]
    else:
        wanted = END_TO_END
        missing = [name for name in END_TO_END
                   if name not in outcome.metrics]
    if missing:
        outcome.problems.append(f"metrics not measured: {missing}")
    print(f"workload {options.workload} seed {options.seed} "
          f"trace {options.trace}")
    for key, value in outcome.info.items():
        print(f"  {key}: {value}")
    for problem in outcome.problems:
        print(f"  CHECK FAILED: {problem}")
    metrics = {name: {"value": outcome.metrics.get(name, 0.0),
                      "unit": unit}
               for name, unit in wanted.items()}
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": outcome.correct,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed,
                      "metrics": metrics}))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
