"""Summarize benchmark runs into one machine-readable run record.

    python3 perfbench/summarize.py [--runs perfbench/out/runs.jsonl] [--out FILE]

Groups the runs that ``run.py`` appended by workload.  For each end-to-end
metric the record lists every run's value, the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, that is
(q3 - q1) / median, next to the metric's bound; traced runs give the same
for each per-layer metric.  It also records the commit, nproc, CPU model
and Python version.  A table of the spreads goes to stderr, with ``!`` where
a spread is a third of its bound or more.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

from run import OUT_DIR, ROOT, load_json


def git(*args: str) -> str | None:
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip()


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def describe(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def summarize(runs: list[dict], spec: dict) -> dict:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads: dict[str, dict] = {}
    for name in [w["name"] for w in spec["workloads"]]:
        timed = [r for r in runs if r["workload"] == name and not r["trace"]]
        traced = [r for r in runs if r["workload"] == name and r["trace"]]
        entry: dict = {
            "runs": [
                {key: r[key] for key in ("seed", "trace", "correct", "attempted", "failed",
                                          "failed_frac", "metrics", "orders", "finished")}
                | {"reps": len(r["reps"])}
                for r in timed + traced
            ],
        }
        if timed:
            entry["end_to_end"] = {
                metric: describe([r["metrics"][metric] for r in timed]) | {"bound": bound}
                for metric, bound in bounds.items()
            }
            entry["failed_frac"] = sum(r["failed"] for r in timed) / sum(r["attempted"] for r in timed)
        if traced:
            entry["per_layer"] = {
                m["name"]: describe([r["metrics"][m["name"]] for r in traced])
                for m in spec["per_layer"]
            }
        workloads[name] = entry
    machines = {(r["nproc"], r["python"], r["machine"]) for r in runs}
    return {
        "commit": git("rev-parse", "HEAD"),
        "src_modified": bool(git("status", "--porcelain", "--", "src")),
        "nproc": sorted(m[0] for m in machines),
        "cpu_model": cpu_model(),
        "python": sorted(m[1] for m in machines),
        "machine": sorted(m[2] for m in machines),
        "run_seconds": sorted({r["seconds"] for r in runs}),
        "workloads": workloads,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", default=os.path.join(OUT_DIR, "runs.jsonl"))
    parser.add_argument("--out", default=None, help="write the record here (default: stdout)")
    args = parser.parse_args()
    with open(args.runs) as fh:
        runs = [json.loads(line) for line in fh if line.strip()]
    record = summarize(runs, load_json(os.path.join(ROOT, "BENCHMARK.json")))

    for name, entry in record["workloads"].items():
        for metric, stats in entry.get("end_to_end", {}).items():
            spread = stats["spread"]
            flag = "!" if spread is None or spread >= stats["bound"] / 3 else " "
            sys.stderr.write(
                f"{flag} {name:<11} {metric:<12} n={len(stats['values']):<3} "
                f"median={stats['median']:<12.6g} spread={spread if spread is None else round(spread, 4)}"
                f" bound={stats['bound']}\n"
            )
    # one line per list of numbers keeps the record short and diffable
    text = re.sub(r"\[[-+\d\s,.eE]*\]", lambda m: " ".join(m.group(0).split()).replace("[ ", "[").replace(" ]", "]"),
                  json.dumps(record, indent=1)) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
