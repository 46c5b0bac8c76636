"""Persistent, content-addressed recovery caches.

At chain scale the corpus barely changes between runs (the paper's 37M
deployed contracts collapse to 368,679 unique bytecodes, and redeploys
are rare), so re-running TASE over bytecodes analyzed yesterday is pure
waste.  The result cache stores the finished :class:`RecoveredSignature`
lists on disk, keyed by

* the SHA-256 of the runtime bytecode (content addressing — the same
  code deployed at a thousand addresses is one entry),
* a fingerprint of the engine options (``loop_bound`` etc. change what
  TASE observes, so results under different options never mix), and
* a cache schema version (bumped whenever the on-disk layout or the
  rule semantics change, invalidating every stale entry at once).

Every disk tier — the result cache and the function and inference
memos below — keeps one append-only segment log per namespace::

    <cache_dir>/<options fingerprint>/entries.log
    <cache_dir>/fnmemo/fn-<options fingerprint>/entries.log
    <cache_dir>/infmemo/inf-<options fingerprint>/entries.log

so changing any engine option simply lands in a sibling directory and an
``rm -rf`` of one fingerprint directory drops exactly one configuration.
A record is one line, ``key \\t sha256(payload)[:16] \\t payload-json``,
and the last record for a key wins.  A record whose checksum fails, or
whose payload does not decode to the expected shape, reads as a miss; a
torn last line left by a crash mid-write is ignored.  Each result entry
also records the per-bytecode rule-usage counts, so a warm run can
replay them into the parent :class:`RuleTracker` and the Fig.-19
statistics come out identical to a cold run.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.framework import pass_versions
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.sigrec.api import RecoveredSignature

#: Bump to invalidate every existing cache entry (on-disk layout,
#: serialization or inference-rule changes).  2: segment logs replaced
#: the file-per-entry tree.
SCHEMA_VERSION = 2

#: Schema of the inference-memo tier (the canonical event digest, the
#: :class:`InferenceRecord` layout, and the replay semantics).  Folded
#: into :func:`options_fingerprint`, so a bump relocates *every* tier —
#: the function memo and result cache store inference products too.
INFERENCE_MEMO_SCHEMA_VERSION = 1


def options_fingerprint(options: Dict[str, object]) -> str:
    """A short stable digest of the engine/inference options.

    The *per-pass* analysis schema versions are part of the payload:
    with pruning or cross-checking enabled, what an analysis pass
    *means* changes what the engine may skip, so bumping any single
    pass version (:func:`repro.analysis.framework.pass_versions`) lands
    cached results — and every function-memo entry, which shares this
    fingerprint — in a fresh tree.  The inference-memo schema version
    rides along for the same reason: changing the event digest or the
    replay format must invalidate every caching tier at once.
    """
    payload = json.dumps(
        {
            "schema": SCHEMA_VERSION,
            "analysis_schema": pass_versions(),
            "inference_memo_schema": INFERENCE_MEMO_SCHEMA_VERSION,
            "options": options,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# The segment log under every disk tier.

#: Why :meth:`_SegmentLog.load` found no value: no record for the key, a
#: record failing its checksum, or a checksummed payload that does not
#: decode to the expected shape.
ABSENT, CORRUPT, INVALID = "absent", "corrupt", "invalid"

#: What a decoder raises on a payload of the wrong shape (``[1, 2]``
#: where an object is expected, a list of rule counts, ...).
_DECODE_ERRORS = (ValueError, KeyError, TypeError, AttributeError)

#: First read size of an index scan, doubled while a record is longer.
_SCAN_CHUNK = 1 << 20

def _checksum(payload: bytes) -> bytes:
    return hashlib.sha256(payload).hexdigest()[:16].encode("ascii")


class _SegmentLog:
    """One namespace's append-only, checksummed record log.

    :meth:`append` is one unbuffered ``os.write`` on an ``O_APPEND`` fd
    opened once per process, so concurrent writers never interleave and
    another process sees a record as soon as the call returns.  Reads go
    through an in-memory index ``key -> (offset, length)``: built by
    scanning the log on first lookup, and extended from the last scanned
    offset whenever a lookup misses and the file has grown, so records
    appended by parallel workers become visible within the run.  The
    index holds offsets, not payloads; a hit ``pread``s its record and
    verifies the checksum before parsing.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._fd: Optional[int] = None
        self._writable = False
        self._pid = 0
        self._index: Dict[bytes, Tuple[int, int]] = {}
        self._scanned = 0  # offset up to which ``_index`` covers the log

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    __del__ = close

    def _open(self, writable: bool) -> Optional[int]:
        """The log's fd, or None while a reader finds no log.  A forked
        child reopens: :meth:`append` reads back its own file offset."""
        if (
            self._fd is not None
            and self._pid == os.getpid()
            and (self._writable or not writable)
        ):
            return self._fd
        self.close()
        if writable:
            os.makedirs(os.path.dirname(self.path), exist_ok=True)
            fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
            size = os.fstat(fd).st_size
            if size and os.pread(fd, 1, size - 1) != b"\n":
                # Terminate a torn tail so it cannot swallow our record.
                os.write(fd, b"\n")
        else:
            try:
                fd = os.open(self.path, os.O_RDONLY)
            except FileNotFoundError:
                return None
        self._fd, self._writable, self._pid = fd, writable, os.getpid()
        return fd

    def _refresh(self) -> None:
        """Index the complete records appended since the last scan."""
        fd = self._open(writable=False)
        if fd is None:
            return
        size = os.fstat(fd).st_size
        want = _SCAN_CHUNK
        while self._scanned < size:
            chunk = os.pread(fd, min(want, size - self._scanned), self._scanned)
            end = chunk.rfind(b"\n") + 1
            if not end:
                if len(chunk) < want:
                    return  # a torn (or still in-flight) last record
                want *= 2
                continue
            offset = self._scanned
            for line in chunk.split(b"\n")[:-1]:
                tab = line.find(b"\t")
                if tab > 0:
                    self._index[line[:tab]] = (offset, len(line) + 1)
                offset += len(line) + 1
            self._scanned += end

    def load(self, key: str, decode: Callable) -> Tuple[Optional[str], object]:
        """``(None, decode(payload))`` for the live record of ``key``,
        else ``(ABSENT | CORRUPT | INVALID, None)``."""
        name = key.encode("ascii")
        where = self._index.get(name)
        if where is None:
            self._refresh()
            where = self._index.get(name)
            if where is None:
                return ABSENT, None
        offset, length = where
        fd = self._open(writable=False)
        line = os.pread(fd, length, offset) if fd is not None else b""
        fields = line[:-1].split(b"\t", 2)
        if (
            len(line) != length
            or len(fields) != 3
            or fields[0] != name
            or fields[1] != _checksum(fields[2])
        ):
            return CORRUPT, None
        try:
            return None, decode(json.loads(fields[2]))
        except _DECODE_ERRORS:
            return INVALID, None

    def append(self, key: str, entry: object) -> None:
        """Append ``entry`` as the live record of ``key``."""
        name = key.encode("ascii")
        payload = json.dumps(entry, separators=(",", ":")).encode("ascii")
        record = b"\t".join((name, _checksum(payload), payload)) + b"\n"
        fd = self._open(writable=True)
        if os.write(fd, record) != len(record):
            raise OSError(f"short write to {self.path}")
        end = os.lseek(fd, 0, os.SEEK_CUR)
        start = end - len(record)
        self._index[name] = (start, len(record))
        if start == self._scanned:
            self._scanned = end

    def live_keys(self) -> int:
        """Distinct keys with a record in the log."""
        self._refresh()
        return len(self._index)


# ----------------------------------------------------------------------
# The result cache (the top tier).


def _signature_to_dict(sig: RecoveredSignature) -> dict:
    return {
        "selector": sig.selector,
        "param_types": list(sig.param_types),
        "language": sig.language,
        "elapsed_seconds": sig.elapsed_seconds,
        "fired_rules": list(sig.fired_rules),
        "confidences": list(sig.confidences),
    }


def _signature_from_dict(data: dict) -> RecoveredSignature:
    # ``elapsed_seconds`` is deliberately NOT replayed: a cache hit does
    # no inference work, so reporting the original run's timing would
    # corrupt warm-run timing statistics.  The stored value (the cost of
    # the original analysis) stays on disk for forensics.
    return RecoveredSignature(
        selector=data["selector"],
        param_types=tuple(data["param_types"]),
        language=data["language"],
        elapsed_seconds=0.0,
        fired_rules=tuple(data["fired_rules"]),
        confidences=tuple(data["confidences"]),
    )


def _entry_from_json(
    entry: dict,
) -> Tuple[List[RecoveredSignature], Dict[str, int], dict]:
    """(signatures, rule counts, the entry) of a well-formed entry."""
    signatures = [_signature_from_dict(d) for d in entry["signatures"]]
    rule_counts = {
        str(rule): int(count)
        for rule, count in entry.get("rule_counts", {}).items()
    }
    return signatures, rule_counts, entry


def _code_key(bytecode: bytes) -> str:
    return hashlib.sha256(bytecode).hexdigest()


class ResultCache:
    """On-disk cache of per-bytecode recovery results.

    ``get``/``put`` are safe under concurrent writers (one segment log
    per options fingerprint), and a corrupt, torn or malformed entry
    reads as a miss, never an error.
    """

    def __init__(
        self,
        directory: str,
        options: Dict[str, object],
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.directory = directory
        self.options = dict(options)
        self.fingerprint = options_fingerprint(self.options)
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.hits = 0
        self.misses = 0
        #: Misses caused by a *present but unreadable* entry (failed
        #: checksum, malformed payload) rather than plain absence.
        self.invalidations = 0
        #: Reads whose record failed its checksum.
        self.corrupt = 0
        self._log = _SegmentLog(
            os.path.join(directory, self.fingerprint, "entries.log")
        )

    # ------------------------------------------------------------------

    def get(
        self, bytecode: bytes
    ) -> Optional[Tuple[List[RecoveredSignature], Dict[str, int]]]:
        """The cached (signatures, rule counts) for ``bytecode``, or None."""
        problem, found = self._log.load(_code_key(bytecode), _entry_from_json)
        if problem is None:
            self.hits += 1
            self.metrics.counter("cache.hits").inc()
            return found[0], found[1]
        self.misses += 1
        self.metrics.counter("cache.misses").inc()
        if problem is not ABSENT:
            self.invalidations += 1
            self.metrics.counter("cache.invalidations").inc()
        if problem is CORRUPT:
            self.corrupt += 1
            self.metrics.counter("cache.corrupt").inc()
        return None

    def attach_profile(self, bytecode: bytes, profile: dict) -> bool:
        """Add a profile document to an existing entry.

        Appends a superseding record with the profile attached,
        preserving every other field (including the original elapsed
        timings).  Returns False when there is no valid entry to attach
        to — the caller should ``put`` a full entry instead.
        """
        key = _code_key(bytecode)
        problem, found = self._log.load(key, _entry_from_json)
        if problem is not None:
            return False
        self._log.append(key, dict(found[2], profile=profile))
        self.metrics.counter("cache.writes").inc()
        return True

    def get_profile(self, bytecode: bytes) -> Optional[dict]:
        """The cached contract-profile document, or ``None``.

        Profiles ride in the same entry as the signatures; an entry
        written before profiling (or by a partial recovery) has none,
        and a corrupt or malformed entry reads as absent.
        """
        problem, found = self._log.load(_code_key(bytecode), _entry_from_json)
        profile = found[2].get("profile") if problem is None else None
        return profile if isinstance(profile, dict) else None

    def put(
        self,
        bytecode: bytes,
        signatures: List[RecoveredSignature],
        rule_counts: Dict[str, int],
        profile: Optional[dict] = None,
    ) -> None:
        entry = {
            "signatures": [_signature_to_dict(s) for s in signatures],
            # Only non-zero counters are stored; zeros are implied.
            "rule_counts": {r: c for r, c in rule_counts.items() if c},
        }
        if profile is not None:
            entry["profile"] = profile
        self._log.append(_code_key(bytecode), entry)
        self.metrics.counter("cache.writes").inc()

    # ------------------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def entry_count(self) -> int:
        """Distinct bytecodes with an entry for this fingerprint."""
        return self._log.live_keys()


# ----------------------------------------------------------------------
# Function-body memoization (the middle cache tier).
#
# The contract cache above only helps when whole bytecodes repeat.  But
# *distinct* bytecodes overwhelmingly share function bodies — proxies,
# OpenZeppelin mixins, factory clones differing only in a constant or a
# metadata trailer.  The function memo keys one selector's recovery by
# the bytes that provably determine it (the dispatcher spine + closed
# region preimage from ``ContractAnalysis.function_preimage``, the
# selector, and the engine-options fingerprint), so a clone-heavy corpus
# pays for each shared body once.


class _Memo:
    """Two-tier (in-process LRU + optional on-disk) memo body shared by
    :class:`FunctionMemo` and :class:`InferenceMemo`.

    Keys fold the options fingerprint (:meth:`_key`), and the disk tier
    is a segment log under ``<directory>/<_PREFIX>-<fingerprint>/``, so
    results under different engine options never mix.  Each subclass
    publishes its own metric names from ``get``/``put``.
    """

    #: Prefix of the fingerprint directory under ``directory``.
    _PREFIX = ""

    def __init__(
        self,
        options: Dict[str, object],
        directory: Optional[str] = None,
        capacity: int = 65536,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.fingerprint = options_fingerprint(dict(options))
        self.directory = directory
        self.capacity = capacity
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._memory: "OrderedDict[str, object]" = OrderedDict()
        self.hits_memory = 0
        self.hits_disk = 0
        self.misses = 0
        self.writes = 0
        #: Disk reads whose record failed its checksum.
        self.corrupt = 0
        self._log: Optional[_SegmentLog] = None
        if directory is not None:
            self._log = _SegmentLog(os.path.join(
                directory, f"{self._PREFIX}-{self.fingerprint}", "entries.log"
            ))

    def _key(self, data: bytes) -> str:
        digest = hashlib.sha256()
        digest.update(self.fingerprint.encode("ascii"))
        digest.update(b"\x00")
        digest.update(data)
        return digest.hexdigest()

    def _lookup(self, key: str, decode: Callable) -> Tuple[object, str]:
        """(record or None, where it came from / why it missed)."""
        record = self._memory.get(key)
        if record is not None:
            self._memory.move_to_end(key)
            self.hits_memory += 1
            return record, "memory"
        problem = ABSENT
        if self._log is not None:
            problem, record = self._log.load(key, decode)
            if problem is None:
                self._remember(key, record)
                self.hits_disk += 1
                return record, "disk"
            if problem is CORRUPT:
                self.corrupt += 1
        self.misses += 1
        return None, problem

    def _store(self, key: str, record) -> None:
        self._remember(key, record)
        self.writes += 1
        if self._log is not None:
            self._log.append(key, record.to_dict())

    def _remember(self, key: str, record) -> None:
        self._memory[key] = record
        self._memory.move_to_end(key)
        while len(self._memory) > self.capacity:
            self._memory.popitem(last=False)

    # ------------------------------------------------------------------

    @property
    def hits(self) -> int:
        return self.hits_memory + self.hits_disk

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def _record_to_dict(record) -> dict:
    """The fields :class:`FunctionRecord` and :class:`InferenceRecord`
    share, as stored (zero counters are implied)."""
    return {
        "param_types": list(record.param_types),
        "language": record.language,
        "fired_rules": list(record.fired_rules),
        "confidences": list(record.confidences),
        "rule_counts": {r: c for r, c in record.rule_counts.items() if c},
        "conflicts": {r: c for r, c in record.conflicts.items() if c},
    }


def _record_fields(data: dict) -> dict:
    """The inverse of :func:`_record_to_dict`, as constructor arguments."""
    return {
        "param_types": tuple(str(t) for t in data["param_types"]),
        "language": str(data["language"]),
        "fired_rules": tuple(str(r) for r in data["fired_rules"]),
        "confidences": tuple(str(c) for c in data["confidences"]),
        "rule_counts": {
            str(r): int(c) for r, c in data.get("rule_counts", {}).items()
        },
        "conflicts": {
            str(r): int(c) for r, c in data.get("conflicts", {}).items()
        },
    }


@dataclass(frozen=True)
class FunctionRecord:
    """One memoized function recovery: the signature plus the rule
    activity it generated, so a hit replays Fig.-19 counters exactly."""

    selector: int
    param_types: Tuple[str, ...]
    language: str
    fired_rules: Tuple[str, ...]
    confidences: Tuple[str, ...]  # "high" / "medium" / "low" per param
    rule_counts: Dict[str, int]
    conflicts: Dict[str, int]

    def to_signature(self) -> RecoveredSignature:
        # elapsed_seconds=0.0 for the same reason as the contract cache:
        # a memo hit does no inference work.
        return RecoveredSignature(
            selector=self.selector,
            param_types=tuple(self.param_types),
            language=self.language,
            elapsed_seconds=0.0,
            fired_rules=tuple(self.fired_rules),
            confidences=tuple(self.confidences),
        )

    def to_dict(self) -> dict:
        return {"selector": self.selector, **_record_to_dict(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "FunctionRecord":
        return cls(selector=int(data["selector"]), **_record_fields(data))


class FunctionMemo(_Memo):
    """The function-body memo: :class:`FunctionRecord` by region preimage.

    Keys are computed by :meth:`key_for` from the region preimage; the
    disk tier is ``<dir>/fn-<fingerprint>/entries.log``.  Corrupt or
    malformed disk entries read as misses.
    """

    _PREFIX = "fn"

    def key_for(self, preimage: bytes) -> str:
        """The memo key for one function's determining bytes."""
        return self._key(preimage)

    def get(self, key: str) -> Optional[FunctionRecord]:
        record, where = self._lookup(key, FunctionRecord.from_dict)
        if record is not None:
            self.metrics.counter("memo.hits", tier=where).inc()
            return record
        if where is CORRUPT:
            self.metrics.counter("memo.corrupt").inc()
        self.metrics.counter("memo.misses").inc()
        return None

    def put(self, key: str, record: FunctionRecord) -> None:
        self._store(key, record)
        self.metrics.counter("memo.writes").inc()


# ----------------------------------------------------------------------
# Inference memoization (the third cache tier).
#
# The function memo above keys on the *bytecode preimage* of a function
# body, so it only helps when the dispatcher spine and closed region
# bytes repeat exactly.  Clone-heavy corpora routinely defeat that —
# constants, metadata, and region ids differ while the recorded *event
# stream* is equivalent.  The inference memo sits one layer deeper: it
# keys an :class:`InferenceRecord` by the canonical, selector-independent
# digest of ``FunctionEvents`` (:func:`repro.sigrec.events.events_digest`),
# so any two functions whose event streams normalize identically share
# one inference, even across unrelated contracts.  TASE still runs; only
# the rule-inference step is skipped, with its rule/conflict counters
# replayed exactly (the Fig.-19 parity invariant).


@dataclass(frozen=True)
class InferenceRecord:
    """One memoized inference product, minus the selector.

    The event digest is selector-independent (two different selectors
    with equivalent bodies share an entry), so the selector is supplied
    at replay time by :meth:`to_signature`.
    """

    param_types: Tuple[str, ...]
    language: str
    fired_rules: Tuple[str, ...]
    confidences: Tuple[str, ...]  # "high" / "medium" / "low" per param
    rule_counts: Dict[str, int]
    conflicts: Dict[str, int]

    def to_signature(self, selector: int) -> RecoveredSignature:
        # elapsed_seconds=0.0 for the same reason as the other tiers:
        # a memo hit does no inference work.
        return RecoveredSignature(
            selector=selector,
            param_types=tuple(self.param_types),
            language=self.language,
            elapsed_seconds=0.0,
            fired_rules=tuple(self.fired_rules),
            confidences=tuple(self.confidences),
        )

    def to_function_record(self, selector: int) -> FunctionRecord:
        """Re-materialize a function-memo record from this entry."""
        return FunctionRecord(
            selector=selector,
            param_types=tuple(self.param_types),
            language=self.language,
            fired_rules=tuple(self.fired_rules),
            confidences=tuple(self.confidences),
            rule_counts=dict(self.rule_counts),
            conflicts=dict(self.conflicts),
        )

    @classmethod
    def from_inference(
        cls,
        param_types,
        language: str,
        fired_rules,
        confidences,
        rule_counts: Dict[str, int],
        conflicts: Dict[str, int],
    ) -> "InferenceRecord":
        return cls(
            param_types=tuple(param_types),
            language=str(language),
            fired_rules=tuple(fired_rules),
            confidences=tuple(confidences),
            rule_counts={r: c for r, c in rule_counts.items() if c},
            conflicts={r: c for r, c in conflicts.items() if c},
        )

    def to_dict(self) -> dict:
        return _record_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "InferenceRecord":
        return cls(**_record_fields(data))


class InferenceMemo(_Memo):
    """The inference memo: :class:`InferenceRecord` by event digest.

    The layout mirrors :class:`FunctionMemo`: keys fold the options
    fingerprint (:meth:`key_for`), the disk tier is
    ``<dir>/inf-<fingerprint>/entries.log``, and corrupt or malformed
    disk entries read as misses.  Metrics are published under the
    ``infmemo.*`` names so the function memo's ``memo.*`` series stay
    comparable across versions.
    """

    _PREFIX = "inf"

    def key_for(self, events_digest: str) -> str:
        """The memo key for one canonical event-stream digest."""
        return self._key(events_digest.encode("ascii"))

    def get(self, key: str) -> Optional[InferenceRecord]:
        record, where = self._lookup(key, InferenceRecord.from_dict)
        if record is not None:
            self.metrics.counter("infmemo.hits", tier=where).inc()
            return record
        if where is CORRUPT:
            self.metrics.counter("infmemo.corrupt").inc()
        self.metrics.counter("infmemo.misses").inc()
        return None

    def put(self, key: str, record: InferenceRecord) -> None:
        self._store(key, record)
        self.metrics.counter("infmemo.writes").inc()
