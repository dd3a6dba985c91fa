"""Run one workload of the benchmark and print its result.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload history_mix --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics,
taken with every layer's entry points wrapped in spans.  The lines
before it are the per-run report: operations attempted and failed per
type, and a fixed reference loop timed before and after the timed phase
(a host-speed diagnostic, not a metric).
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

import common
from model import CheckError

WORKLOADS = ("history_mix", "ingest_restart", "served_replicated")


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _workload(name: str):
    if name == "history_mix":
        import history_mix as module
    elif name == "ingest_restart":
        import ingest_restart as module
    else:
        import served as module
    return module


def main(argv=None) -> int:
    args = _arguments(argv)
    try:
        declared = common.declared_metrics("per_layer" if args.trace else "end_to_end")
        common.use_source_tree()
    except (OSError, KeyError, ValueError, common.SetupError) as exc:
        print(f"perfbench: cannot run here: {exc}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install_program_layers()

    workload = _workload(args.workload)
    driver = common.Driver(tracer, workload.CLOCK)
    samples = driver.samples
    try:
        outcome = workload.run(args.seed, args.seconds, driver)
    except CheckError as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        correct = False
    except Exception:  # noqa: BLE001 - any failure ends the run as incorrect
        traceback.print_exc()
        correct = False
    else:
        correct = True

    if not correct:
        common.emit(
            {
                "correct": False,
                "attempted": max(1, sum(samples.attempted.values())),
                "failed": sum(samples.failed.values()),
                "metrics": {},
            }
        )
        return 1

    values = outcome["per_layer" if args.trace else "e2e"]
    missing = [name for name, _ in declared if name not in values]
    if missing:
        print(f"perfbench: workload did not measure {missing}", file=sys.stderr)
        return 1
    if tracer is not None:
        trace_dir = common.ROOT / ".perfbench_out"
        tracer.export(trace_dir / f"trace-{args.workload}-{args.seed}.json", "generator")

    report = dict(outcome["report"])
    report["attempted"] = samples.attempted
    report["failed"] = samples.failed
    report["samples"] = {op: len(times) for op, times in samples.times.items()}
    report["cpu_in_calls_s"] = driver.cpu_in_calls
    print("report " + json.dumps(report, sort_keys=True, default=str))
    common.emit(
        {
            "correct": True,
            "attempted": sum(samples.attempted.values()),
            "failed": sum(samples.failed.values()),
            "metrics": {name: common.metric(values[name], unit) for name, unit in declared},
        }
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
