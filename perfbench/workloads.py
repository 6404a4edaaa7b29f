"""The benchmark's workloads: CLI invocations replayed through
``padicslopes.cli.main(argv)`` in one fresh interpreter per repetition.
Why each workload exists is in BENCHMARK.json.

Sizes are scaled from the acceptance gate's grids so that one repetition
takes 5-8 s on a 2-vCPU x86-64 VM, which lets a 25 s run hold three or four
repetitions.  Each workload keeps the mix of its gate criteria and the
kernel cases named in ROADMAP item 1: the interior solve at p = 5, r = 200
(R = 33), the charpoly at d = 16 and d = 25, and the q-expansion products
at p = 59.

In ``lemmas`` only ``integrality`` runs at ``--jobs 2``, so the pool path is
measured once per repetition.  With every sweep of the workload at
``--jobs 2``, five runs spread 9.4% in CPU time and 43% in wall time, against
7.4% and 27% with every sweep at ``--jobs 1`` (same hour, same VM); and
``lemma12`` alone took 1.77 s at ``--jobs 2`` against 1.50 s at ``--jobs 1``,
because its per-cell witness records are pickled back to the parent.
"""

WORKLOADS = {
    "identities": (
        "verify interior-annihilator --p 5,7,11,13 --r-max 60 --jobs 1",
        "verify interior-annihilator --p 5 --r 200 --alpha 0..15 --jobs 1",
        "verify matrix-entries --p 5,7,11,13 --r-max 100 --jobs 1",
        "verify double-sum --p 5,7,11,13 --r 199..200 --jobs 1",
        "verify rho-annihilator --p 5,7,11,13 --r-max 150 --jobs 1",
    ),
    "lemmas": (
        "verify lemma9 --p 2,3,5,7,11,13 --a-max 300 --jobs 1",
        "verify lemma10 --p 5,7,11,13 --r-max 200 --jobs 1",
        "verify lemma11 --p 5,7,11,13 --r-max 200 --jobs 1",
        "verify lemma12 --p 5,7,11,13 --r-max 200 --jobs 1",
        "verify lemma13 --p 5,7,11,13 --r-max 400 --jobs 1",
        "verify lemma14 --p 5,7,11,13 --r-max 400 --jobs 1",
        "verify lemma15 --p 5,7,11,13 --r-max 400 --jobs 1",
        "verify integrality --p 5,7,11,13 --r-max 200 --jobs 2",
    ),
    "slopes": (
        "measure --p 5 --k 180..200 --jobs 1",
        "slopes --p 59 --k 12..56 --jobs 1",
        "slopes --p 5 --k 300 --jobs 1",
    ),
    "hecke": ("hecke-check --p 5,7,11,13 --t-max 12 --delta-max 6 --jobs 1",),
}


def at_jobs_1(invocation: str) -> list[str]:
    """The invocation's argv with ``--jobs`` forced to 1 (the traced run)."""
    argv = invocation.split()
    argv[argv.index("--jobs") + 1] = "1"
    return argv
