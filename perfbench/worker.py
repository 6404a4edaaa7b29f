"""One repetition in a fresh interpreter.

Usage: worker.py SPEC_JSON, where the spec holds ``spawned_ns`` (the
parent's ``time.monotonic_ns()`` just before it started this process),
``invocations`` (a list of ``[key, argv]``), ``trace`` and ``spans_path``.

The worker imports ``padicslopes.cli`` (set-up time runs from process start
to the end of that import), then calls ``main(argv)`` for each invocation
in order with stdout and stderr captured, and prints one JSON line with the
per-invocation results to the real stdout.  Everything else is imported
after the package, so set-up time is the interpreter's and the package's.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def run(spec: dict, cli) -> dict:
    import contextlib
    import csv
    import hashlib
    import io
    import json
    import resource

    tracer = None
    call = cli.main
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        call = tracer.span(spans.NAMES.index("cli.main"), cli.main, None)

    def cpu_s() -> float:
        own = resource.getrusage(resource.RUSAGE_SELF)
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
        return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime

    results = []
    try:
        for index, (key, argv) in enumerate(spec["invocations"]):
            if tracer:
                tracer.invocation = index
            out, err = io.StringIO(), io.StringIO()
            cpu_before = cpu_s()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = call(argv)
                except SystemExit as exc:  # argparse usage errors
                    rc = exc.code if isinstance(exc.code, int) else 2
            wall = time.perf_counter() - start
            cpu = cpu_s() - cpu_before
            text = out.getvalue()
            lines = text.splitlines()
            rows = [row for row in csv.reader(lines[1:]) if row and not row[0].startswith("#")]
            header = next(csv.reader(lines[:1]), [])
            verdicts = 0
            if "verdict" in header:
                col = header.index("verdict")
                verdicts = sum(1 for row in rows if row[col] in ("fails", "rejected"))
            results.append({
                "key": key,
                "rc": rc,
                "sha256": hashlib.sha256(text.encode()).hexdigest(),
                "rows": len(rows),
                "verdict_failures": verdicts,
                "wall_s": wall,
                "cpu_s": cpu,
                "stderr": err.getvalue()[-2000:],
            })
    finally:
        rebound = tracer.restore() if tracer else []
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, kids)
    report = {"invocations": results, "cpu_s": sum(inv["cpu_s"] for inv in results),
              "peak_rss_mb": peak_kib / 1024}
    if tracer:
        report["layers"] = spans.layer_stats(tracer.spans)
        report["missing_sites"] = tracer.missing
        report["rebound_sites"] = rebound
        report["spans"] = len(tracer.spans)
        with open(spec["spans_path"], "w") as fh:
            json.dump({"names": spans.NAMES, "invocations": [k for k, _ in spec["invocations"]],
                       "fields": ["name", "start_ns", "end_ns", "parent", "invocation", "work"],
                       "spans": tracer.spans}, fh, separators=(",", ":"))
    return report


def main() -> None:
    import json

    spec = json.loads(sys.argv[1])
    import padicslopes.cli as cli

    report = {"setup_s": (time.monotonic_ns() - spec["spawned_ns"]) / 1e9}
    if not spec.get("setup_only"):
        report.update(run(spec, cli))
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
