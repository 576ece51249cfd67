"""Caching primitives for the corpus execution engine.

Two cache shapes live here:

:class:`LRUCache`
    A bounded in-process mapping with hit/miss/eviction counters.  The
    frontend's per-process compile memo uses it so long-lived processes
    (servers, paper-scale experiment sweeps over many opt levels) stop
    growing without bound.
:class:`ContentStore`
    A persistent on-disk content-addressed store shared by every engine
    stage.  Keys are SHA-256 digests over (stage name, stage config,
    code version, input identity); values are pickled per-sample results
    (IR modules, embedding rows, program graphs).  Writes are atomic
    (tmp file + ``os.replace``) so concurrent workers and concurrent
    engine processes can share one store without locks; a corrupted or
    truncated entry is deleted and treated as a miss, never an error.

Neither class imports anything above :mod:`repro`'s leaf layers, so the
frontend and the engine can both depend on this module.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import tempfile
from collections import OrderedDict
from typing import Any, Dict, Iterable, Optional, Tuple

#: Bump to invalidate every persisted entry after a change to how any
#: stage computes its results (the on-disk layout namespaces on it).
#: A regenerated IR2vec seed table needs no bump: the featurizer's stage
#: identity carries the table digest.
ENGINE_CACHE_VERSION = "2"


def code_version() -> str:
    """The code-version token mixed into every persistent cache key."""
    import repro

    return f"{repro.__version__}+engine{ENGINE_CACHE_VERSION}"


@dataclasses.dataclass
class CacheStats:
    """Counters for one cache (in-process or persistent)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    errors: int = 0          # corrupted entries recovered as misses

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {**dataclasses.asdict(self), "hit_rate": round(self.hit_rate, 4)}

    def clear(self) -> None:
        self.hits = self.misses = self.stores = self.evictions = self.errors = 0


class LRUCache:
    """Bounded mapping with least-recently-used eviction and counters.

    ``maxsize=0`` disables storage entirely (every lookup misses) —
    the supported way to switch a memo off via configuration.
    """

    def __init__(self, maxsize: int = 2048):
        if maxsize < 0:
            raise ValueError("maxsize must be >= 0")
        self.maxsize = maxsize
        self.stats = CacheStats()
        self._data: "OrderedDict[Any, Any]" = OrderedDict()

    def get(self, key: Any, default: Any = None) -> Any:
        try:
            value = self._data[key]
        except KeyError:
            self.stats.misses += 1
            return default
        self._data.move_to_end(key)
        self.stats.hits += 1
        return value

    def put(self, key: Any, value: Any) -> None:
        if self.maxsize == 0:
            return
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        self.stats.stores += 1
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self.stats.evictions += 1

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Any) -> bool:
        return key in self._data

    def clear(self) -> None:
        self._data.clear()


def digest_parts(parts: Iterable[Any]) -> str:
    """SHA-256 over a canonical encoding of heterogeneous key parts."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, bytes):
            blob = part
        else:
            blob = str(part).encode("utf-8")
        h.update(len(blob).to_bytes(8, "little"))
        h.update(blob)
    return h.hexdigest()


class ContentStore:
    """Persistent content-addressed store, one subtree per stage.

    Layout (``version`` namespaces the whole tree, so bumping the code
    version simply orphans old entries rather than corrupting reads)::

        <root>/v<version-digest>/<stage>/<digest[:2]>/<digest>.pkl
    """

    def __init__(self, root: str, version: Optional[str] = None):
        self.root = os.path.abspath(os.path.expanduser(root))
        self.version = version if version is not None else code_version()
        self._tree = os.path.join(
            self.root, f"v{digest_parts([self.version])[:16]}")
        self.stats: Dict[str, CacheStats] = {}

    # -- keys ---------------------------------------------------------------
    def key(self, stage: str, parts: Iterable[Any]) -> str:
        """Content address for ``parts`` under ``stage`` at this version."""
        return digest_parts([stage, self.version, *parts])

    def _path(self, stage: str, key: str) -> str:
        return os.path.join(self._tree, stage, key[:2], f"{key}.pkl")

    def _stage_stats(self, stage: str) -> CacheStats:
        return self.stats.setdefault(stage, CacheStats())

    # -- read / write -------------------------------------------------------
    def get(self, stage: str, key: str) -> Tuple[bool, Any]:
        """Return ``(found, value)``; corrupted entries recover as misses."""
        stats = self._stage_stats(stage)
        path = self._path(stage, key)
        try:
            with open(path, "rb") as fh:
                value = pickle.load(fh)
        except FileNotFoundError:
            stats.misses += 1
            return False, None
        except Exception:
            # Truncated write from a killed process, disk corruption, or
            # an unpicklable-for-this-code-version blob: drop the entry
            # and recompute rather than failing the run.
            stats.errors += 1
            stats.misses += 1
            try:
                os.unlink(path)
            except OSError:
                pass
            return False, None
        stats.hits += 1
        return True, value

    def put(self, stage: str, key: str, value: Any) -> None:
        path = self._path(stage, key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)        # atomic on POSIX
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._stage_stats(stage).stores += 1

    # -- maintenance --------------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, int]]:
        """On-disk entry/byte counts per stage, across *all* versions."""
        out: Dict[str, Dict[str, int]] = {}
        if not os.path.isdir(self.root):
            return out
        for version_dir in sorted(os.listdir(self.root)):
            vpath = os.path.join(self.root, version_dir)
            if not os.path.isdir(vpath):
                continue
            for stage in sorted(os.listdir(vpath)):
                spath = os.path.join(vpath, stage)
                if not os.path.isdir(spath):
                    continue
                entry = out.setdefault(stage, {"entries": 0, "bytes": 0})
                for dirpath, _dirnames, filenames in os.walk(spath):
                    for fname in filenames:
                        if not fname.endswith(".pkl"):
                            continue
                        entry["entries"] += 1
                        try:
                            entry["bytes"] += os.path.getsize(
                                os.path.join(dirpath, fname))
                        except OSError:
                            pass
        return out

    def clear(self, stage: Optional[str] = None) -> int:
        """Delete persisted entries (one stage, or everything); returns
        the number of entries removed."""
        removed = 0
        if not os.path.isdir(self.root):
            return removed
        for version_dir in os.listdir(self.root):
            vpath = os.path.join(self.root, version_dir)
            if not os.path.isdir(vpath):
                continue
            stages = [stage] if stage is not None else os.listdir(vpath)
            for stage_name in stages:
                spath = os.path.join(vpath, stage_name)
                if not os.path.isdir(spath):
                    continue
                for dirpath, _dirnames, filenames in os.walk(spath,
                                                             topdown=False):
                    for fname in filenames:
                        try:
                            os.unlink(os.path.join(dirpath, fname))
                            if fname.endswith(".pkl"):
                                removed += 1
                        except OSError:
                            pass
                    try:
                        os.rmdir(dirpath)
                    except OSError:
                        pass
        return removed
