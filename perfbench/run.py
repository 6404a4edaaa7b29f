"""The padicslopes benchmark: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/padicslopes`` must be there).
Every repetition is a fresh interpreter (``worker.py``) that imports the
package and calls ``padicslopes.cli.main(argv)`` for each of the workload's
invocations, in an order drawn from ``--seed``.  Each invocation's output
bytes are compared with the sha256 recorded in ``digests.json``.

``--trace 0`` runs repetitions until the next one would end after
``--seconds`` and reports the end-to-end metrics of BENCHMARK.json, each the
median over the run's repetitions (``setup_s`` also over extra import-only
starts).  ``--trace 1`` replays the workload once untraced and once traced,
both at ``--jobs 1`` so that no span is lost in a pool child, and reports
the per-layer metrics; it takes about twice one repetition, whatever
``--seconds`` says.

The last line of stdout is the result object.  Each run also appends its
full record to ``perfbench/out/runs.jsonl`` (see ``summarize.py``); traced
runs write their spans to ``perfbench/out/spans-<workload>-<seed>.json``.
Exit status: 0 when every output checks, 1 when some output is wrong (the
result is still printed), 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS, at_jobs_1

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def spawn(spec: dict) -> dict:
    """Run one worker to completion and return its report."""
    spec = dict(spec, spawned_ns=time.monotonic_ns())
    proc = subprocess.Popen(
        [sys.executable, WORKER, json.dumps(spec)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,  # the worker and its pool share one process group
    )
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except BaseException as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"worker still running after {WORKER_TIMEOUT_S} s") from exc
        raise
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker exited with {proc.returncode}:\n{err[-3000:]}")
    return json.loads(out.splitlines()[-1])


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def check(reports: list[dict], digests: dict) -> tuple[int, int, list[str]]:
    """(cells attempted, cells failed, problems) over some repetitions.

    A cell fails when its verdict is ``fails`` or ``rejected``; every cell of
    an invocation fails when it exits non-zero or its output digest differs.
    """
    attempted = failed = 0
    problems = []
    for inv in (inv for report in reports for inv in report["invocations"]):
        want = digests.get(inv["key"])
        cells = want["rows"] if want else max(inv["rows"], 1)
        attempted += cells
        if want is None or inv["rc"] != 0 or inv["sha256"] != want["sha256"]:
            failed += cells
            problems.append(f"{inv['key']}: exit {inv['rc']}, sha256 {inv['sha256']}, {inv['stderr']}")
        else:
            failed += inv["verdict_failures"]
    return attempted, failed, problems


def rep_metrics(report: dict) -> dict:
    """Throughput is data rows per CPU second of the ``main(argv)`` calls.

    CPU time (user + system, pool children included) rather than wall time:
    on a shared 2-vCPU VM the hypervisor's steal time put 0-40% on top of
    the same repetition's wall time, which is noise no estimator removes.
    Wall time is kept in the run record.
    """
    invocations = report["invocations"]
    rows = sum(inv["rows"] for inv in invocations)
    wall = sum(inv["wall_s"] for inv in invocations)
    return {
        "cells_per_s": rows / report["cpu_s"],
        "cpu_s": report["cpu_s"],
        "peak_rss_mb": report["peak_rss_mb"],
        "setup_s": report["setup_s"],
        "wall_s": wall,
        "wall_cells_per_s": rows / wall,
        "invocations": [[inv["key"], inv["wall_s"], inv["cpu_s"]] for inv in invocations],
    }


def timed_run(invocations: list[str], rng: random.Random, seconds: float, digests: dict) -> dict:
    deadline = time.monotonic() + seconds
    spawn({"setup_only": True})  # unmeasured: leaves bytecode caches as a user has them
    setup_samples = [spawn({"setup_only": True})["setup_s"] for _ in range(SETUP_PROBES)]
    reports, orders, durations = [], [], []
    while not reports or time.monotonic() + max(durations) <= deadline:
        order = rng.sample(range(len(invocations)), len(invocations))
        started = time.monotonic()
        reports.append(spawn({"trace": False,
                              "invocations": [[invocations[i], invocations[i].split()] for i in order]}))
        durations.append(time.monotonic() - started)
        orders.append(order)
    reps = [rep_metrics(report) for report in reports]
    setup_samples += [rep["setup_s"] for rep in reps]
    metrics = {
        name: statistics.median(rep[name] for rep in reps)
        for name in ("cells_per_s", "cpu_s", "peak_rss_mb")
    }
    metrics["setup_s"] = statistics.median(setup_samples)
    attempted, failed, problems = check(reports, digests)
    return {"metrics": metrics, "reps": reps, "orders": orders, "setup_samples": setup_samples,
            "attempted": attempted, "failed": failed, "problems": problems}


def traced_run(workload: str, invocations: list[str], rng: random.Random, seed: int,
               digests: dict) -> dict:
    """One untraced and one traced replay at ``--jobs 1``; the overhead is
    the ratio of their CPU times minus 1."""
    order = rng.sample(range(len(invocations)), len(invocations))
    replay = [[invocations[i], at_jobs_1(invocations[i])] for i in order]
    untraced = spawn({"trace": False, "invocations": replay})
    spans_path = os.path.join(OUT_DIR, f"spans-{workload}-{seed}.json")
    traced = spawn({"trace": True, "invocations": replay, "spans_path": spans_path})
    attempted, failed, problems = check([untraced, traced], digests)
    if traced["rebound_sites"]:
        problems.append(f"still rebound after the traced run: {traced['rebound_sites']}")
    layers = traced["layers"]
    negative = [name for name, value in layers.items() if name.endswith("self_s") and value < 0]
    if negative:
        problems.append(f"negative self time: {negative}")
    layers["trace.overhead_frac"] = traced["cpu_s"] / untraced["cpu_s"] - 1
    return {"metrics": layers, "orders": [order], "attempted": attempted, "failed": failed,
            "problems": problems, "reps": [rep_metrics(untraced), rep_metrics(traced)],
            "spans": traced["spans"], "missing_sites": traced["missing_sites"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "padicslopes", "cli.py")):
        sys.stderr.write(f"error: no src/padicslopes/cli.py under {ROOT}; run from a source checkout\n")
        return 2
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    digests = load_json(os.path.join(HERE, "digests.json"))
    invocations = list(WORKLOADS[args.workload])
    rng = random.Random(args.seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        if args.trace:
            run = traced_run(args.workload, invocations, rng, args.seed, digests)
        else:
            run = timed_run(invocations, rng, args.seconds, digests)
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2

    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    correct = run["failed"] == 0 and not run["problems"]
    result = {
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": run["metrics"][name], "unit": unit} for name, unit in units.items()},
    }
    record = dict(run, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, correct=correct,
                  failed_frac=run["failed"] / run["attempted"],
                  nproc=os.cpu_count(), python=platform.python_version(),
                  machine=platform.machine(), finished=time.strftime("%Y-%m-%dT%H:%M:%S%z"))
    with open(os.path.join(OUT_DIR, "runs.jsonl"), "a") as fh:
        fh.write(json.dumps(record) + "\n")
    for problem in run["problems"]:
        sys.stderr.write(f"wrong output: {problem}\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
