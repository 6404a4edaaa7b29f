"""Per-invocation memos: one registry and one reset.

A memo caches a pure function of a small key (a Lambda table, a
step-difference table, a Pascal table) for the length of one invocation.
memo(maxsize) is functools.lru_cache that also registers the cache; it returns
the lru_cache object itself, so a hit runs at C speed and cache_info(),
cache_clear() and __wrapped__ keep working.  reset() empties every registered
memo: cli.main calls it once before each subcommand, so no invocation reads
another's entries, and the tests' autouse fixture calls it before each test,
so no cached entry hides a monkeypatched builder.

A memo body reads the functions it builds from as module globals at each
miss, so a patch or a trace of those names sees every real build.
"""

from __future__ import annotations

import functools

MEMOS: list = []  # every registered lru_cache object, in registration order


def memo(maxsize: int):
    """Decorator: lru_cache(maxsize=maxsize), registered for reset()."""

    def register(fn):
        cached = functools.lru_cache(maxsize=maxsize)(fn)
        MEMOS.append(cached)
        return cached

    return register


def reset() -> None:
    """Empty every registered memo."""
    for cached in MEMOS:
        cached.cache_clear()
