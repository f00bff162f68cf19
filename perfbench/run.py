"""FHE-cloud benchmark: one command, three workloads, one fresh process each.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload dghv-paper --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps every
layer, prints the per-layer metrics and writes a Chrome trace-event
file under ``perfbench/out/``.  The last line of standard output is the
result object ``{"correct", "attempted", "failed", "metrics"}``; all
other output goes to standard error.  ``--workload all`` runs every
workload in its own process and prints one table.  See
``perfbench/NOTES.md`` for what each workload measures and why.
"""

from __future__ import annotations

import time

PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import common  # noqa: E402

WORKLOADS = ("dghv-paper", "rlwe-depth2", "serve-mix")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _run_all(args) -> int:
    """Each workload in a fresh process; a table of the results."""
    status = 0
    rows = []
    for workload in WORKLOADS:
        command = [
            sys.executable,
            os.path.abspath(__file__),
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            common.log(f"{workload}: exited {done.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        rows.append((workload, result))
    for workload, result in rows:
        failed_frac = result["failed"] / result["attempted"]
        print(
            f"{workload}: correct={result['correct']} "
            f"attempted={result['attempted']} failed={result['failed']} "
            f"failed_frac={failed_frac:.4f}"
        )
        for name, metric in result["metrics"].items():
            print(f"  {name:<32} {metric['value']:>16.6g} {metric['unit']}")
        if not result["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    common.pin_environment()
    common.require_program()
    if args.workload == "all":
        return _run_all(args)

    import numpy  # noqa: F401  (pinned BLAS threads apply from here on)
    import repro.engine  # noqa: F401
    import repro.fhe  # noqa: F401

    import_s = time.perf_counter() - PROCESS_T0
    common.log(json.dumps({"environment": common.environment()}))
    if args.workload == "serve-mix":
        import wl_serve

        return wl_serve.run(args, import_s)
    import closedloop

    if args.workload == "dghv-paper":
        from wl_dghv import DGHVPaper as workload
    else:
        from wl_rlwe import RLWEDepth2 as workload
    return closedloop.run(workload(), args, import_s)


if __name__ == "__main__":
    sys.exit(main())
