"""On-disk result cache for sweep points.

Monte-Carlo sweeps recompute identical operating points on every
benchmark run.  :class:`ResultCache` memoises them on disk, keyed by a
**stable content hash** of everything that determines the answer:

* the digest of the sweep's point-independent key material (the task:
  a :class:`~repro.core.link.LinkConfig` or any nested dataclass tree,
  canonicalised field by field), which
  :func:`repro.sim.executor.sweep_keys` computes once per run,
* the point's root seed, index and sweep value,
* the **code version** — a digest of every ``repro`` source file — so
  editing the simulator silently invalidates stale entries instead of
  replaying them.

Entries are pickled one-file-per-key with atomic renames, so concurrent
writers (process-pool workers, parallel CI shards) never observe a
torn entry.  Every entry carries a sha256 of its payload; a bit-flipped
file fails the check and is served as a miss (counted in
:attr:`CacheStats.corrupt`, logged) instead of poisoning a sweep, and
:meth:`ResultCache.verify` scans/quarantines bad entries (CLI:
``repro cache --verify``).  Hit/miss counters make cache behaviour
observable, and :meth:`ResultCache.invalidate` provides an explicit
invalidation API.

The hash is *stable*, not merely deterministic-per-process: floats are
hashed via ``float.hex()`` (byte-exact, locale-independent), arrays by
their raw bytes, dataclasses by qualified name + fields, and mappings
in sorted key order.  Python's built-in ``hash()`` is never used (it is
salted per process for strings).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import pickle
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

__all__ = [
    "MISS",
    "CacheKeyError",
    "CacheStats",
    "CacheVerifyReport",
    "ResultCache",
    "canonicalize",
    "stable_hash",
    "code_version",
]

logger = logging.getLogger(__name__)

#: Bump when the on-disk entry layout changes (invalidates everything).
#: v2: entries carry a ``repro-cache:2`` magic + payload sha256 header.
CACHE_SCHEMA_VERSION = 2

#: First bytes of every v2 entry file.
_ENTRY_MAGIC = b"repro-cache:2\n"

#: Sentinel returned by :meth:`ResultCache.get` on a miss, so that
#: ``None`` is a cacheable value.
MISS = object()


class CacheKeyError(TypeError):
    """Raised when an object cannot be canonicalised into a stable key."""


class _CorruptEntry(ValueError):
    """Internal: an entry's on-disk bytes failed their integrity check."""


def canonicalize(obj: Any) -> Any:
    """Reduce ``obj`` to a JSON-serialisable tree with a stable layout.

    Supports the types that appear in sweep descriptions: ``None``,
    bools, ints, strings, floats (via ``float.hex`` for byte-exactness),
    complex numbers, numpy scalars and arrays, (frozen) dataclasses,
    lists/tuples, dicts with string-able keys, and named module-level
    functions (by qualified name).  Anything else raises
    :class:`CacheKeyError` — better to refuse caching than to cache
    under an ambiguous key.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return ["f", float(obj).hex()]
    if isinstance(obj, complex):
        return ["c", obj.real.hex(), obj.imag.hex()]
    if isinstance(obj, np.generic):
        return canonicalize(obj.item())
    if isinstance(obj, np.ndarray):
        contiguous = np.ascontiguousarray(obj)
        return [
            "nd",
            str(contiguous.dtype),
            list(contiguous.shape),
            hashlib.sha256(contiguous.tobytes()).hexdigest(),
        ]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        cls = type(obj)
        return [
            "dc",
            f"{cls.__module__}.{cls.__qualname__}",
            {
                field.name: canonicalize(getattr(obj, field.name))
                for field in dataclasses.fields(obj)
            },
        ]
    if isinstance(obj, (list, tuple)):
        return ["seq", [canonicalize(item) for item in obj]]
    if isinstance(obj, dict):
        try:
            items = sorted(obj.items())
        except TypeError as exc:  # unsortable keys
            raise CacheKeyError(f"cannot canonicalise dict keys of {obj!r}") from exc
        return ["map", [[canonicalize(k), canonicalize(v)] for k, v in items]]
    if callable(obj):
        qualname = getattr(obj, "__qualname__", "")
        module = getattr(obj, "__module__", "")
        if not module or not qualname or "<" in qualname:
            raise CacheKeyError(
                f"cannot build a stable key for {obj!r}: only named module-level "
                "functions are canonicalisable"
            )
        return ["fn", f"{module}.{qualname}"]
    raise CacheKeyError(
        f"cannot build a stable cache key for {type(obj).__name__!r}: {obj!r}"
    )


def stable_hash(obj: Any) -> str:
    """SHA-256 hex digest of :func:`canonicalize`'s view of ``obj``."""
    canonical = canonicalize(obj)
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


_CODE_VERSION: str | None = None


def code_version() -> str:
    """Digest of every ``repro`` source file (computed once per process).

    Cache entries embed this, so *any* edit to the simulator invalidates
    previous results — the silent-numerics-drift guard the regression
    suite relies on.
    """
    global _CODE_VERSION
    if _CODE_VERSION is None:
        import repro

        package_root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode("utf-8"))
            digest.update(b"\x00")
            digest.update(path.read_bytes())
            digest.update(b"\x00")
        _CODE_VERSION = digest.hexdigest()
    return _CODE_VERSION


@dataclass
class CacheStats:
    """Observable counters for one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    invalidations: int = 0
    corrupt: int = 0  # integrity-check failures (served as misses)
    errors: int = 0  # read errors: OSError / unpickle failures

    @property
    def lookups(self) -> int:
        """Total ``get`` calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from disk (0.0 when none)."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def summary(self) -> str:
        """One-line human-readable rendering."""
        text = (
            f"cache: {self.hits} hits / {self.misses} misses "
            f"({self.hit_rate:.0%} hit rate), {self.puts} writes, "
            f"{self.invalidations} invalidations"
        )
        if self.corrupt or self.errors:
            text += f", {self.corrupt} corrupt, {self.errors} read errors"
        return text


@dataclass(frozen=True)
class CacheVerifyReport:
    """Outcome of one :meth:`ResultCache.verify` scan."""

    checked: int
    corrupt: int
    quarantined: int

    def summary(self) -> str:
        """One-line human-readable rendering."""
        return (
            f"verified {self.checked} entries: {self.corrupt} corrupt, "
            f"{self.quarantined} quarantined"
        )


class ResultCache:
    """Directory-backed pickle cache with stable keys and counters.

    Parameters
    ----------
    directory:
        Where entries live (created on demand).
    version:
        Token mixed into every key.  Defaults to :func:`code_version`,
        so results computed by different code never collide.
    """

    _SUFFIX = ".pkl"

    def __init__(self, directory: str | os.PathLike, version: str | None = None):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.version = code_version() if version is None else str(version)
        self.stats = CacheStats()

    # -- keys -----------------------------------------------------------------

    def key_for(self, **parts: Any) -> str:
        """Stable key for a task description (keyword parts)."""
        return stable_hash(
            {"schema": CACHE_SCHEMA_VERSION, "version": self.version, "parts": parts}
        )

    def _path(self, key: str) -> Path:
        if not key or any(ch in key for ch in "/\\"):
            raise ValueError(f"malformed cache key {key!r}")
        return self.directory / f"{key}{self._SUFFIX}"

    # -- lookup / store -------------------------------------------------------

    def _read_payload(self, path: Path) -> bytes:
        """Raw pickled payload of a v2 entry, after its integrity check.

        Raises :class:`_CorruptEntry` on bad magic / digest mismatch /
        truncation — anything where the *bytes on disk* are not what
        :meth:`put` wrote.
        """
        blob = path.read_bytes()
        if not blob.startswith(_ENTRY_MAGIC):
            raise _CorruptEntry(f"{path.name}: bad or missing entry magic")
        rest = blob[len(_ENTRY_MAGIC):]
        newline = rest.find(b"\n")
        if newline != 64:  # sha256 hex digest is exactly 64 bytes
            raise _CorruptEntry(f"{path.name}: malformed digest header")
        digest, payload = rest[:newline], rest[newline + 1:]
        if hashlib.sha256(payload).hexdigest().encode("ascii") != digest:
            raise _CorruptEntry(f"{path.name}: payload sha256 mismatch")
        return payload

    def get(self, key: str) -> Any:
        """Value for ``key``, or the :data:`MISS` sentinel.

        A hit refreshes the entry's mtime, so :meth:`prune` evicts in
        least-recently-*used* (not least-recently-written) order.
        Entries failing their sha256 integrity check are served as
        misses and counted in :attr:`CacheStats.corrupt`; read errors
        (``OSError`` other than a missing file, unpickle failures) are
        counted in :attr:`CacheStats.errors` — both with a logged
        warning, never a silent swallow.
        """
        path = self._path(key)
        try:
            payload = self._read_payload(path)
            value = pickle.loads(payload)
        except FileNotFoundError:
            self.stats.misses += 1
            return MISS
        except _CorruptEntry as exc:
            self.stats.corrupt += 1
            self.stats.misses += 1
            logger.warning(
                "cache entry failed integrity check, treating as miss: %s", exc
            )
            return MISS
        except OSError as exc:
            self.stats.errors += 1
            self.stats.misses += 1
            logger.warning(
                "cache read error for %s, treating as miss: %s", path.name, exc
            )
            return MISS
        except (pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError) as exc:
            # digest matched but the payload will not unpickle (e.g.
            # written by incompatible code): an error, not corruption
            self.stats.errors += 1
            self.stats.misses += 1
            logger.warning(
                "cache entry %s failed to unpickle, treating as miss: %s",
                path.name,
                exc,
            )
            return MISS
        try:
            os.utime(path, None)
        except OSError:
            pass  # recency tracking is best-effort
        self.stats.hits += 1
        return value

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key`` (atomic replace).

        The entry is ``magic + sha256(payload) + payload``, so any
        later bit-flip is caught by :meth:`get` / :meth:`verify`.
        """
        path = self._path(key)
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(payload).hexdigest().encode("ascii")
        fd, tmp_name = tempfile.mkstemp(
            dir=self.directory, prefix=".tmp-", suffix=self._SUFFIX
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(_ENTRY_MAGIC)
                handle.write(digest)
                handle.write(b"\n")
                handle.write(payload)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stats.puts += 1

    def get_or_compute(self, key: str, compute: Callable[[], Any]) -> Any:
        """Cached value for ``key``, computing and storing on a miss."""
        value = self.get(key)
        if value is not MISS:
            return value
        value = compute()
        self.put(key, value)
        return value

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob(f"*{self._SUFFIX}"))

    def entry_path(self, key: str) -> Path | None:
        """On-disk path of ``key``'s entry, or ``None`` when absent.

        Exposed for the fault-injection harness
        (:meth:`repro.sim.faults.FaultPlan.corrupt_cache_entries`) and
        for external integrity tooling.
        """
        path = self._path(key)
        return path if path.exists() else None

    # -- integrity ------------------------------------------------------------

    @property
    def quarantine_dir(self) -> Path:
        """Where :meth:`verify` moves corrupt entries."""
        return self.directory / "quarantine"

    def verify(self, *, quarantine: bool = True) -> CacheVerifyReport:
        """Scan every entry's sha256; optionally quarantine the bad ones.

        A corrupt entry (bad magic, digest mismatch, truncation, or an
        unreadable/unpicklable payload) is moved to
        :attr:`quarantine_dir` when ``quarantine`` is true — out of the
        keyspace, but preserved for forensics.  Counted in
        :attr:`CacheStats.corrupt` either way.
        """
        checked = 0
        corrupt = 0
        quarantined = 0
        for path in sorted(self.directory.glob(f"*{self._SUFFIX}")):
            checked += 1
            try:
                payload = self._read_payload(path)
                pickle.loads(payload)
            except (_CorruptEntry, OSError, pickle.UnpicklingError, EOFError,
                    AttributeError, ImportError, IndexError) as exc:
                corrupt += 1
                self.stats.corrupt += 1
                logger.warning("cache verify: %s is corrupt (%s)", path.name, exc)
                if quarantine:
                    try:
                        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
                        os.replace(path, self.quarantine_dir / path.name)
                        quarantined += 1
                    except OSError:
                        logger.warning(
                            "cache verify: could not quarantine %s", path.name
                        )
        return CacheVerifyReport(
            checked=checked, corrupt=corrupt, quarantined=quarantined
        )

    # -- invalidation ---------------------------------------------------------

    def invalidate(self, key: str | None = None) -> int:
        """Drop one entry (``key``) or every entry (``None``).

        Returns the number of entries removed.
        """
        if key is not None:
            paths = [self._path(key)]
        else:
            paths = list(self.directory.glob(f"*{self._SUFFIX}"))
        removed = 0
        for path in paths:
            try:
                path.unlink()
                removed += 1
            except FileNotFoundError:
                pass
        self.stats.invalidations += removed
        return removed

    # -- size management ------------------------------------------------------

    def size_bytes(self) -> int:
        """Total on-disk size of all entries (bytes)."""
        total = 0
        for path in self.directory.glob(f"*{self._SUFFIX}"):
            try:
                total += path.stat().st_size
            except OSError:
                pass  # entry vanished mid-scan (concurrent prune/invalidate)
        return total

    def prune(self, max_bytes: int) -> int:
        """Evict least-recently-used entries until the cache fits ``max_bytes``.

        Recency is the entry mtime, which :meth:`get` refreshes on every
        hit — so eviction order is least-recently-*used*, not
        least-recently-written.  ``max_bytes=0`` empties the cache.
        Entries that disappear mid-scan (a concurrent pruner or
        invalidation) are skipped without error.

        Returns the number of entries removed.
        """
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be non-negative, got {max_bytes}")
        entries = []
        for path in self.directory.glob(f"*{self._SUFFIX}"):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        total = sum(size for _, size, _ in entries)
        removed = 0
        for _, size, path in sorted(entries):  # oldest first
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except FileNotFoundError:
                pass
            total -= size
            removed += 1
        self.stats.invalidations += removed
        return removed
