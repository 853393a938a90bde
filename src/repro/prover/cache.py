"""Persistent, content-addressed proof cache.

Each definitive verdict (proved / failed-with-model) for an SMT goal is
stored as one JSON file keyed by the goal fingerprint
(:mod:`repro.prover.fingerprint`).  A re-verification run then discharges
only the VCs whose goals (or solver stack) actually changed — the
incremental-turnaround property that makes a proof-engineering loop usable.

Robustness contract: a corrupted, truncated, or hand-edited cache file is a
cold miss, never a crash; writes are atomic (temp file + rename) so a killed
run cannot corrupt an entry.

The cache directory also holds ``timings.json`` — last-observed per-VC
wall times (SMT and structural VCs alike), which the scheduler uses for
longest-expected-first ordering so the slowest VC starts first instead of
serializing the end of a parallel run.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field

from repro.verif.vc import VCResult, VCStatus

#: Cache format version: bump to invalidate every existing entry.
FORMAT = 1

#: Only definitive verdicts are cached.  TIMEOUT and ERROR are retried on
#: the next run (a larger budget or a fixed environment may decide them).
_CACHEABLE = {VCStatus.PROVED.value, VCStatus.FAILED.value}


def default_cache_dir() -> str:
    override = os.environ.get("REPRO_PROOF_CACHE")
    if override:
        return override
    base = os.environ.get("XDG_CACHE_HOME",
                          os.path.join(os.path.expanduser("~"), ".cache"))
    return os.path.join(base, "repro", "proofs")


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalid: int = 0  # corrupted / unreadable entries treated as misses

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass
class ProofCache:
    """On-disk proof cache; safe to share across runs, tolerant of damage."""

    directory: str = field(default_factory=default_cache_dir)
    stats: CacheStats = field(default_factory=CacheStats)

    def _path(self, fingerprint: str) -> str:
        # Shard by prefix so directories stay listable at scale.
        return os.path.join(self.directory, fingerprint[:2],
                            fingerprint + ".json")

    # -- verdicts ----------------------------------------------------------

    def get(self, fingerprint: str) -> dict | None:
        """The stored verdict for `fingerprint`, or None on any miss
        (including a corrupted entry, which is discarded)."""
        path = self._path(fingerprint)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                entry = json.load(fh)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (OSError, ValueError, UnicodeDecodeError):
            self._discard(path)
            self.stats.invalid += 1
            self.stats.misses += 1
            return None
        if not self._valid(entry):
            self._discard(path)
            self.stats.invalid += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return entry

    def put(self, fingerprint: str, result: VCResult,
            deterministic_stats: dict | None = None) -> bool:
        """Persist a definitive verdict; returns False (and stores nothing)
        for non-cacheable outcomes (TIMEOUT / ERROR)."""
        if result.status.value not in _CACHEABLE:
            return False
        entry = {
            "format": FORMAT,
            "vc": result.name,
            "category": result.category,
            "status": result.status.value,
            "detail": result.detail,
            "model": result.counterexample
            if isinstance(result.counterexample, dict) else None,
            "seconds": result.seconds,
            "solver_seconds": result.solver_seconds,
            "stats": deterministic_stats or result.solver_stats,
        }
        self._write_json(self._path(fingerprint), entry)
        self.stats.stores += 1
        return True

    def result_from(self, entry: dict, vc, seconds: float) -> VCResult:
        """Materialize a cached verdict as a :class:`VCResult` for `vc`.

        The verdict (status, detail, model) comes from the entry; the
        identity (name, category) comes from the VC being discharged —
        distinct VCs with structurally identical goals legitimately share
        one cache entry, so the entry's recorded name may differ from the
        VC that is hitting it.  `seconds` is the actual time this run
        spent (goal build + lookup); the original solve time stays
        available in the entry for the scheduler's duration estimates."""
        status = VCStatus(entry["status"])
        model = entry.get("model")
        return VCResult(
            name=vc.name,
            status=status,
            seconds=seconds,
            category=vc.category,
            detail=entry.get("detail", ""),
            counterexample=model if status is VCStatus.FAILED else None,
            solver_seconds=0.0,
            cached=True,
            solver_stats=entry.get("stats", {}),
        )

    @staticmethod
    def _valid(entry) -> bool:
        return (
            isinstance(entry, dict)
            and entry.get("format") == FORMAT
            and entry.get("status") in _CACHEABLE
            and isinstance(entry.get("vc"), str)
            and isinstance(entry.get("seconds"), (int, float))
        )

    @staticmethod
    def _discard(path: str) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass

    # -- timing history ----------------------------------------------------

    def load_timings(self) -> dict[str, float]:
        path = os.path.join(self.directory, "timings.json")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError, UnicodeDecodeError):
            return {}
        if not isinstance(data, dict):
            return {}
        return {name: float(seconds) for name, seconds in data.items()
                if isinstance(name, str) and isinstance(seconds, (int, float))}

    def store_timings(self, timings: dict[str, float]) -> None:
        merged = self.load_timings()
        merged.update(timings)
        self._write_json(os.path.join(self.directory, "timings.json"), merged)

    # -- plumbing ----------------------------------------------------------

    @staticmethod
    def _write_json(path: str, payload: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
            os.replace(tmp, path)
        except BaseException:
            ProofCache._discard(tmp)
            raise

    def clear(self) -> int:
        """Delete every cached verdict (keeps the directory); returns the
        number of entries removed.  A killed writer's `*.tmp` file goes
        too, uncounted: it never was an entry."""
        removed = 0
        for root, _, files in os.walk(self.directory):
            for name in files:
                if name.endswith((".json", ".tmp")):
                    self._discard(os.path.join(root, name))
                    removed += name.endswith(".json")
        return removed
