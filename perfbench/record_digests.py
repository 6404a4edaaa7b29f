"""Record the sha256 and data-row count of every workload invocation's
output in ``digests.json``, the reference that every run checks against.

    python3 perfbench/record_digests.py

Run it from a source checkout whose outputs are known to be right: it
refuses to record when an invocation exits non-zero or reports a cell that
fails or is rejected.
"""

import json
import os
import sys

from run import HERE, spawn
from workloads import WORKLOADS


def main() -> int:
    digests = {}
    for name, invocations in WORKLOADS.items():
        report = spawn({"trace": False,
                        "invocations": [[inv, inv.split()] for inv in invocations]})
        for inv in report["invocations"]:
            if inv["rc"] != 0 or inv["verdict_failures"]:
                sys.stderr.write(f"error: {inv['key']} did not verify: {inv['stderr']}\n")
                return 1
            digests[inv["key"]] = {"sha256": inv["sha256"], "rows": inv["rows"]}
        print(f"{name}: {len(invocations)} invocations recorded")
    with open(os.path.join(HERE, "digests.json"), "w") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
