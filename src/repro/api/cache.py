"""Persistent, cross-process solver-result cache keyed on fingerprints.

The in-memory caches (the process-wide compile LRU, the session's canonical
problem map) die with the process.  A long-lived serving deployment — and a
re-deployment watch loop that may be restarted — wants solved revisions to
survive: the same ``(graph, costs, objective, constraints)`` content should
never be solved twice, not even by a sibling process.

:class:`ResultCache` is that layer: a directory of small JSON files, one
per ``(problem fingerprint, solver key)`` pair, each holding a serialized
:class:`~repro.solvers.base.SolverResult`.  Writes are atomic (temp file +
``os.replace``), so concurrent writers on one filesystem cannot corrupt an
entry, and unreadable or mismatched entries degrade to a cache miss rather
than an error — the cache is an accelerator, never a correctness
dependency.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Optional, Union

from ..core.errors import ClouDiAError
from ..solvers.base import SearchBudget, SolverResult

#: Version tag embedded in every cache entry; bumping it invalidates all
#: previously written entries at once.
RESULT_CACHE_VERSION = 1

#: Age beyond which a ``.write-*`` temp file is considered litter from a
#: crashed writer and swept on cache open.  Generously above any realistic
#: write duration, so a live sibling writer's temp file is never deleted
#: out from under its ``os.replace``.
STALE_TEMP_AGE_S = 3600.0


def solver_tag(solver_key: str, config: Mapping[str, Any],
               budget: Optional[SearchBudget], **extra: Any) -> str:
    """The solver component of a result-store / coalescing key.

    The problem fingerprint covers everything solver-independent; the tag
    covers the run configuration — solver key plus a digest of the solver
    config (seed included), the budget and any ``extra`` fields (the
    service adds the warm-start plan) — so two solves share a key only
    when they would execute the same search.
    """
    payload = json.dumps(
        {
            "config": {key: config[key] for key in sorted(config)},
            "budget": None if budget is None else budget.to_dict(),
            **extra,
        },
        sort_keys=True, default=repr,
    )
    digest = hashlib.sha256(payload.encode()).hexdigest()[:16]
    return f"{solver_key}.{digest}"


@dataclass(frozen=True)
class ResultCacheStats:
    """Counters of one :class:`ResultCache` handle (not the directory)."""

    hits: int = 0
    misses: int = 0
    writes: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from disk."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ResultCache:
    """On-disk JSON cache of solver results, keyed on problem fingerprints.

    Args:
        path: directory the entries live in; created (with parents) when
            missing.  Pointing several processes at the same directory is
            the intended sharing mode.

    The key is ``fingerprint + solver tag``: the fingerprint covers
    everything that influences solving (graph, costs, objective,
    constraints — see
    :meth:`~repro.core.problem.DeploymentProblem.fingerprint`), and the
    solver tag keeps results of different runs apart — the watch loop
    passes the solver key qualified with a digest of its config and
    budget, so a cached greedy plan is never served to a CP request and a
    seed-7 one-second solve is never served to a seed-9 sixty-second one.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self._hits = 0
        self._misses = 0
        self._writes = 0
        self._sweep_stale_temp_files()

    def _sweep_stale_temp_files(self) -> int:
        """Remove ``.write-*`` litter left behind by crashed writers.

        Only files older than :data:`STALE_TEMP_AGE_S` are removed: a
        recent temp file may belong to a live writer in a sibling process,
        whose atomic ``os.replace`` must not be sabotaged.
        """
        cutoff = time.time() - STALE_TEMP_AGE_S
        removed = 0
        for stale in self.path.glob(".write-*"):
            try:
                if stale.stat().st_mtime < cutoff:
                    stale.unlink()
                    removed += 1
            except OSError:
                pass
        return removed

    # ------------------------------------------------------------------ #

    def _entry_path(self, fingerprint: str, solver: str) -> Path:
        # Registry keys are short and filesystem-safe ([a-z0-9-]); the
        # fingerprint is a hex digest.  Keep the name readable for humans
        # poking at the cache directory.
        return self.path / f"{fingerprint}.{solver}.json"

    def get(self, fingerprint: str, solver: str) -> Optional[SolverResult]:
        """The cached result for the pair, or ``None``.

        Any failure to read, parse, or validate the entry counts as a miss
        — a corrupt or stale file never aborts a solve.
        """
        entry = self._entry_path(fingerprint, solver)
        try:
            payload = json.loads(entry.read_text(encoding="utf-8"))
            if (payload.get("version") != RESULT_CACHE_VERSION
                    or payload.get("fingerprint") != fingerprint
                    or payload.get("solver") != solver):
                raise ClouDiAError("cache entry does not match its key")
            result = SolverResult.from_dict(payload["result"])
        except (OSError, ValueError, KeyError, TypeError, ClouDiAError):
            self._misses += 1
            return None
        self._hits += 1
        return result

    def put(self, fingerprint: str, solver: str,
            result: SolverResult) -> None:
        """Persist a result atomically (temp file + rename)."""
        payload = {
            "version": RESULT_CACHE_VERSION,
            "fingerprint": fingerprint,
            "solver": solver,
            "result": result.to_dict(),
        }
        descriptor, temp_name = tempfile.mkstemp(
            dir=self.path, prefix=".write-", suffix=".json")
        try:
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, allow_nan=False)
            os.replace(temp_name, self._entry_path(fingerprint, solver))
        except BaseException:
            # Any failure — not just OSError: json.dump raising TypeError /
            # ValueError on an unserializable result (or a KeyboardInterrupt
            # mid-dump) used to leak the temp file.
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        self._writes += 1

    # ------------------------------------------------------------------ #

    @property
    def stats(self) -> ResultCacheStats:
        """Hit / miss / write counters of this handle."""
        return ResultCacheStats(hits=self._hits, misses=self._misses,
                                writes=self._writes)

    def __len__(self) -> int:
        return sum(1 for entry in self.path.glob("*.json")
                   if not entry.name.startswith("."))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for entry in self.path.glob("*.json"):
            if entry.name.startswith("."):
                continue
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def __repr__(self) -> str:
        return f"ResultCache(path={str(self.path)!r}, entries={len(self)})"
