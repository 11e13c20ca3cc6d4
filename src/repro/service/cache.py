"""Content-addressed result cache: repeat traffic never touches a rank.

Results are keyed by :meth:`repro.api.Workload.cache_key` — the sha256 of
the workload's canonical JSON with the descriptive ``name`` stripped — so
two tenants submitting physically identical workloads share one entry no
matter how their specs were constructed or labeled.

Two tiers:

* an in-memory LRU (``max_entries``, default 128; ``0`` disables
  caching entirely) holding live
  :class:`~repro.api.SweepResult` objects, full tensors included — a hit
  returns the exact object payload a fresh run would have produced;
* an optional on-disk store (``directory=...``): each entry is persisted
  as ``<key>.json`` through :meth:`SweepResult.to_json`, surviving
  process restarts.  Disk hits are promoted back into the LRU.  Entries
  are written to a temporary file and renamed into place, and an entry
  that cannot be read or decoded counts as a miss (the next ``put``
  replaces it), so a crash mid-write costs one re-run.  Arrays
  are included on disk only with ``persist_arrays=True`` — the scalar
  summary is the default, matching :meth:`SweepResult.save`.

Hit/miss/eviction counters feed the scheduler's :meth:`stats`.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Optional

from ..api.session import SweepResult

__all__ = ["ResultCache"]


class ResultCache:
    """Two-tier (memory LRU + optional disk) content-addressed cache."""

    def __init__(
        self,
        max_entries: int = 128,
        directory: Optional[str] = None,
        persist_arrays: bool = False,
    ):
        self.max_entries = max_entries
        if self.max_entries < 0:
            raise ValueError(f"max_entries={self.max_entries} must be >= 0")
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self.persist_arrays = persist_arrays
        self._entries: "OrderedDict[str, SweepResult]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0

    @property
    def enabled(self) -> bool:
        return self.max_entries > 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries or self._disk_path(key) is not None

    # -- lookup -------------------------------------------------------------------
    def get(self, key: str) -> Optional[SweepResult]:
        """The cached result for ``key``, or None (counted as a miss)."""
        if not self.enabled:
            self.misses += 1
            return None
        if key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            return self._entries[key]
        path = self._disk_path(key)
        result = None if path is None else self._read(path)
        if result is not None:
            self._insert(key, result)  # promote to the LRU tier
            self.hits += 1
            return result
        self.misses += 1
        return None

    @staticmethod
    def _read(path: Path) -> Optional[SweepResult]:
        """A disk entry, or None when it cannot be read or decoded."""
        try:
            return SweepResult.from_dict(json.loads(path.read_text()))
        except (OSError, ValueError, KeyError, TypeError):
            return None

    # -- store --------------------------------------------------------------------
    def put(self, key: str, result: SweepResult) -> None:
        """Store ``result`` under ``key`` (no-op when caching is disabled)."""
        if not self.enabled:
            return
        self._insert(key, result)
        self.puts += 1
        if self.directory is not None:
            text = result.to_json(include_arrays=self.persist_arrays) + "\n"
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, self.directory / f"{key}.json")

    def _insert(self, key: str, result: SweepResult) -> None:
        self._entries[key] = result
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def _disk_path(self, key: str) -> Optional[Path]:
        if self.directory is None:
            return None
        path = self.directory / f"{key}.json"
        return path if path.exists() else None

    # -- accounting ---------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        return {
            "entries": len(self._entries),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "disk": str(self.directory) if self.directory is not None else None,
        }
