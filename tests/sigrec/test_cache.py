"""The persistent result cache: round-trips, invalidation, robustness."""

import hashlib
import json
import multiprocessing
import os
from dataclasses import replace

import pytest

from repro.abi.signature import FunctionSignature
from repro.compiler import compile_contract
from repro.sigrec import cache as cache_module
from repro.sigrec.api import RecoveredSignature, SigRec
from repro.sigrec.batch import BatchRecovery
from repro.sigrec.cache import (
    FunctionMemo,
    FunctionRecord,
    InferenceMemo,
    InferenceRecord,
    ResultCache,
    options_fingerprint,
)
from tests.sigrec.segments import corrupt_record, record_span


def _code(signature="a(uint8)"):
    return compile_contract([FunctionSignature.parse(signature)]).bytecode


def _essence(results):
    return [
        [
            (s.selector, s.param_types, s.language, s.fired_rules, s.confidences)
            for s in contract
        ]
        for contract in results
    ]


def test_cache_round_trip(tmp_path):
    cache = ResultCache(str(tmp_path), SigRec().options())
    code = _code()
    signature = RecoveredSignature(
        selector=0xA9059CBB,
        param_types=("address", "uint256"),
        language="solidity",
        elapsed_seconds=0.25,
        fired_rules=("R4", "R16"),
        confidences=("high", "medium"),
    )
    assert cache.get(code) is None  # cold
    cache.put(code, [signature], {"R4": 1, "R16": 2})
    restored, counts = cache.get(code)
    # Everything round-trips except the timing: a cache hit does no
    # inference work, so elapsed_seconds is reported as zero rather than
    # replaying the original run's timing.
    assert restored == [replace(signature, elapsed_seconds=0.0)]
    assert counts == {"R4": 1, "R16": 2}
    assert cache.hits == 1 and cache.misses == 1
    assert cache.entry_count() == 1


def test_warm_run_hits_and_matches_cold(tmp_path):
    codes = [_code("a(uint8)"), _code("b(bytes)"), _code("a(uint8)")]
    cold_tool = SigRec()
    cold_runner = BatchRecovery(tool=cold_tool, workers=0, cache_dir=str(tmp_path))
    cold = cold_runner.recover_all(codes)
    assert cold_runner.stats.cache_misses == 2
    assert cold_runner.stats.cache_hits == 0

    warm_tool = SigRec()
    warm_runner = BatchRecovery(tool=warm_tool, workers=0, cache_dir=str(tmp_path))
    warm = warm_runner.recover_all(codes)
    assert warm_runner.stats.cache_hits == 2
    assert warm_runner.stats.cache_misses == 0
    assert warm_runner.stats.cache_hit_rate == 1.0
    assert warm_runner.stats.analyzed == 0
    assert _essence(warm) == _essence(cold)
    # Replayed per-bytecode counts reproduce the cold run's statistics.
    assert warm_tool.tracker.counts == cold_tool.tracker.counts


def test_engine_option_change_invalidates(tmp_path):
    code = _code()
    first = BatchRecovery(
        tool=SigRec(), workers=0, cache_dir=str(tmp_path)
    )
    first.recover_all([code])
    assert first.stats.cache_misses == 1

    changed = BatchRecovery(
        tool=SigRec(loop_bound=77), workers=0, cache_dir=str(tmp_path)
    )
    changed.recover_all([code])
    assert changed.stats.cache_misses == 1  # different fingerprint: no hit
    assert changed.stats.cache_hits == 0

    same = BatchRecovery(
        tool=SigRec(loop_bound=77), workers=0, cache_dir=str(tmp_path)
    )
    same.recover_all([code])
    assert same.stats.cache_hits == 1


def test_fingerprint_is_stable_and_option_sensitive():
    base = SigRec().options()
    assert options_fingerprint(base) == options_fingerprint(dict(base))
    changed = dict(base, loop_bound=7)
    assert options_fingerprint(base) != options_fingerprint(changed)


def test_corrupt_entry_is_a_miss_then_repaired(tmp_path):
    code = _code()
    cache = ResultCache(str(tmp_path), SigRec().options())
    cache.put(code, [], {})
    corrupt_record(cache._log.path, hashlib.sha256(code).hexdigest())
    assert cache.get(code) is None
    # A batch run treats it as a miss and appends a good entry.
    runner = BatchRecovery(tool=SigRec(), workers=0, cache_dir=str(tmp_path))
    runner.recover_all([code])
    assert runner.stats.cache_misses == 1
    _start, end = record_span(cache._log.path, hashlib.sha256(code).hexdigest())
    with open(cache._log.path, "rb") as handle:
        payload = handle.read(end).rsplit(b"\t", 1)[1]
    assert json.loads(payload)["signatures"]


def test_entries_are_content_addressed(tmp_path):
    cache = ResultCache(str(tmp_path), SigRec().options())
    a, b = _code("a(uint8)"), _code("b(bytes)")
    cache.put(a, [], {})
    cache.put(b, [], {})
    assert cache.entry_count() == 2
    # Layout: <dir>/<fingerprint>/entries.log
    root = os.path.join(str(tmp_path), cache.fingerprint)
    assert os.path.isdir(root)


def test_recover_batch_cache_dir_round_trip(tmp_path):
    codes = [_code("a(uint8)"), _code("a(uint8)")]
    first = SigRec().recover_batch(codes, cache_dir=str(tmp_path))
    second = SigRec().recover_batch(codes, cache_dir=str(tmp_path))
    assert _essence(first) == _essence(second)


def _bumped_pipeline(name="storage"):
    """The default pipeline with one pass's schema version bumped —
    semantics unchanged, version provenance changed."""
    from repro.analysis import framework

    bumped = next(
        p for p in framework.DEFAULT_PIPELINE if p.name == name
    )
    return framework.DEFAULT_PIPELINE.replace(
        **{name: replace(bumped, version=bumped.version + 1)}
    )


def test_pass_version_bump_invalidates_result_cache(tmp_path, monkeypatch):
    from repro.analysis import framework

    code = _code()
    runner = BatchRecovery(tool=SigRec(), workers=0, cache_dir=str(tmp_path))
    runner.recover_all([code])
    assert runner.stats.cache_misses == 1

    monkeypatch.setattr(framework, "DEFAULT_PIPELINE", _bumped_pipeline())
    bumped = BatchRecovery(tool=SigRec(), workers=0, cache_dir=str(tmp_path))
    bumped.recover_all([code])
    assert bumped.stats.cache_hits == 0  # the bump landed in a fresh tree
    assert bumped.stats.cache_misses == 1

    again = BatchRecovery(tool=SigRec(), workers=0, cache_dir=str(tmp_path))
    again.recover_all([code])
    assert again.stats.cache_hits == 1  # stable within the bumped world


def test_pass_version_bump_invalidates_function_memo(tmp_path, monkeypatch):
    from repro.analysis import framework
    from repro.sigrec.cache import FunctionMemo

    options = SigRec().options()
    before = FunctionMemo(options, directory=str(tmp_path))
    monkeypatch.setattr(framework, "DEFAULT_PIPELINE", _bumped_pipeline())
    after = FunctionMemo(options, directory=str(tmp_path))
    assert before.fingerprint != after.fingerprint


@pytest.mark.parametrize("name", ["reach", "mutability", "returns"])
def test_abi_pass_version_bumps_invalidate_both_tiers(
    tmp_path, monkeypatch, name
):
    """Each new ABI pass's version flows into the result-cache and
    function-memo fingerprints, exactly like the storage pass."""
    from repro.analysis import framework
    from repro.sigrec.cache import FunctionMemo

    options = SigRec().options()
    cold_fingerprint = options_fingerprint(options)
    memo_before = FunctionMemo(options, directory=str(tmp_path))

    monkeypatch.setattr(framework, "DEFAULT_PIPELINE", _bumped_pipeline(name))
    assert options_fingerprint(options) != cold_fingerprint
    memo_after = FunctionMemo(options, directory=str(tmp_path))
    assert memo_before.fingerprint != memo_after.fingerprint


def test_analysis_memo_shares_one_walk_per_bytecode(monkeypatch):
    import repro.sigrec.api as api_module

    code = _code()
    tool = SigRec()
    first = tool._analyze(code)
    assert tool._analyze(code) is first  # memo hit: same object

    # recover() and profile() ride the same memo: no fresh analyze().
    def boom(*args, **kwargs):
        raise AssertionError("analyze() re-ran despite the memo")

    monkeypatch.setattr(api_module, "analyze", boom)
    tool.recover(code)
    profile = tool.profile(code)
    assert profile.signatures


def test_analysis_memo_is_bounded():
    from repro.sigrec.api import _ANALYSIS_MEMO_SIZE

    tool = SigRec()
    codes = [
        _code(f"f{i}(uint8)") for i in range(_ANALYSIS_MEMO_SIZE + 4)
    ]
    for code in codes:
        tool._analyze(code)
    assert len(tool._analysis_memo) == _ANALYSIS_MEMO_SIZE


# ----------------------------------------------------------------------
# The segment log under every disk tier: torn tails, flipped bytes,
# concurrent writers, malformed payloads and pre-log cache directories.

TIERS = ["result", "fnmemo", "infmemo"]


def _tier(name, directory):
    options = SigRec().options()
    if name == "result":
        return ResultCache(str(directory), options)
    if name == "fnmemo":
        return FunctionMemo(options, directory=str(directory / "fnmemo"))
    return InferenceMemo(options, directory=str(directory / "infmemo"))


def _item(tier, i):
    """(what ``get``/``put`` take, the record key in the log) of item i."""
    if isinstance(tier, ResultCache):
        code = b"\x60\x80" + i.to_bytes(4, "big")
        return code, hashlib.sha256(code).hexdigest()
    if isinstance(tier, FunctionMemo):
        key = tier.key_for(i.to_bytes(4, "big"))
    else:
        key = tier.key_for(f"digest-{i}")
    return key, key


def _put(tier, i, width=1):
    """Store item i: ``width`` parameters of type uint256."""
    handle, _key = _item(tier, i)
    types = ("uint256",) * width
    if isinstance(tier, ResultCache):
        signature = RecoveredSignature(
            selector=i, param_types=types, language="solidity",
            elapsed_seconds=0.5, fired_rules=("R4",),
            confidences=("high",) * width,
        )
        tier.put(handle, [signature], {"R4": 1})
        return
    fields = dict(
        param_types=types, language="solidity", fired_rules=("R4",),
        confidences=("high",) * width, rule_counts={"R4": 1},
        conflicts={},
    )
    if isinstance(tier, FunctionMemo):
        tier.put(handle, FunctionRecord(selector=i, **fields))
    else:
        tier.put(handle, InferenceRecord(**fields))


def _types(tier, i):
    """The parameter types ``get`` returns for item i, or None on a miss."""
    handle, _key = _item(tier, i)
    found = tier.get(handle)
    if found is None:
        return None
    if isinstance(tier, ResultCache):
        return found[0][0].param_types
    return found.param_types


@pytest.mark.parametrize("name", TIERS)
def test_torn_tail_is_ignored_and_the_log_stays_appendable(tmp_path, name):
    writer = _tier(name, tmp_path)
    for i in range(4):
        _put(writer, i)
    path = writer._log.path
    start, end = record_span(path, _item(writer, 3)[1])
    with open(path, "r+b") as handle:  # a kill -9 mid-write
        handle.truncate(start + (end - start) // 2)

    reopened = _tier(name, tmp_path)
    assert [_types(reopened, i) for i in range(3)] == [("uint256",)] * 3
    assert _types(reopened, 3) is None  # the torn record
    _put(reopened, 4)
    _put(reopened, 3)

    fresh = _tier(name, tmp_path)
    assert [_types(fresh, i) for i in range(5)] == [("uint256",)] * 5
    assert fresh.corrupt == 0


@pytest.mark.parametrize("name", TIERS)
def test_flipped_payload_byte_is_a_corrupt_miss(tmp_path, name):
    writer = _tier(name, tmp_path)
    for i in range(3):
        _put(writer, i)
    # Still valid JSON, still a plausible type: only the checksum knows.
    corrupt_record(writer._log.path, _item(writer, 1)[1], b"uint256", b"uint257")

    reader = _tier(name, tmp_path)
    assert _types(reader, 1) is None
    assert reader.corrupt == 1
    assert [_types(reader, i) for i in (0, 2)] == [("uint256",)] * 2
    if isinstance(reader, ResultCache):
        assert reader.invalidations == 1


def _append_many(name, directory, first, count, start):
    start.wait()
    tier = _tier(name, directory)
    for i in range(first, first + count):
        # Widths up to 200 parameters: some records span several pages.
        _put(tier, i, width=1 + i % 200)


@pytest.mark.parametrize("name", TIERS)
def test_concurrent_writers_share_one_log(tmp_path, name):
    context = multiprocessing.get_context("spawn")
    start = context.Event()
    writers = [
        context.Process(
            target=_append_many, args=(name, tmp_path, w * 500, 500, start)
        )
        for w in range(2)
    ]
    for process in writers:
        process.start()
    start.set()
    for process in writers:
        process.join(60)
        assert process.exitcode == 0

    reader = _tier(name, tmp_path)
    for i in range(1000):
        assert _types(reader, i) == ("uint256",) * (1 + i % 200)
    assert reader.corrupt == 0


def test_writes_are_visible_to_other_instances_within_the_run(tmp_path):
    reader = _tier("result", tmp_path)
    writer = _tier("result", tmp_path)
    _put(writer, 0)
    assert _types(reader, 0) == ("uint256",)  # indexes the log
    _put(writer, 1)
    assert _types(reader, 1) == ("uint256",)  # extends the index
    _put(writer, 1, width=2)  # a superseding record
    assert _types(_tier("result", tmp_path), 1) == ("uint256", "uint256")
    assert reader.entry_count() == 2


def test_index_scan_handles_records_longer_than_a_read(tmp_path, monkeypatch):
    monkeypatch.setattr(cache_module, "_SCAN_CHUNK", 64)
    writer = _tier("infmemo", tmp_path)
    for i in range(20):
        _put(writer, i, width=1 + 7 * i)
    reader = _tier("infmemo", tmp_path)
    assert [_types(reader, i) for i in range(20)] == [
        ("uint256",) * (1 + 7 * i) for i in range(20)
    ]


def test_attach_profile_supersedes_the_entry(tmp_path):
    cache = _tier("result", tmp_path)
    code, _key = _item(cache, 0)
    assert cache.attach_profile(code, {"p": 1}) is False  # nothing yet
    _put(cache, 0)
    assert cache.get_profile(code) is None
    assert cache.attach_profile(code, {"p": 1}) is True
    fresh = _tier("result", tmp_path)
    assert fresh.get_profile(code) == {"p": 1}
    signatures, counts = fresh.get(code)
    assert signatures[0].param_types == ("uint256",) and counts == {"R4": 1}
    assert fresh.entry_count() == 1


def _rule_counts_as_list(entry):
    if isinstance(entry, dict):
        return {
            key: [1] if key == "rule_counts" else _rule_counts_as_list(value)
            for key, value in entry.items()
        }
    return entry


_MALFORMED = {
    "list": lambda entry: [1, 2],
    "string": lambda entry: "str",
    "rule-counts-list": _rule_counts_as_list,
}


class _MalformingJson:
    """Stands in for the cache module's ``json``: every entry a tier
    writes is replaced by ``malform(entry)``, still valid JSON."""

    load = staticmethod(json.load)
    loads = staticmethod(json.loads)

    def __init__(self, malform):
        self.malform = malform

    def dumps(self, obj, **kwargs):
        return json.dumps(self.malform(obj), **kwargs)

    def dump(self, obj, handle, **kwargs):
        handle.write(self.dumps(obj, **kwargs))


@pytest.mark.parametrize("malform", sorted(_MALFORMED))
def test_malformed_entry_is_a_miss_on_every_tier(tmp_path, monkeypatch, malform):
    tiers = {name: _tier(name, tmp_path) for name in TIERS}
    with monkeypatch.context() as patched:
        patched.setattr(cache_module, "json", _MalformingJson(_MALFORMED[malform]))
        for tier in tiers.values():
            _put(tier, 0)

    cache = _tier("result", tmp_path)
    code, _key = _item(cache, 0)
    assert cache.get(code) is None
    assert (cache.misses, cache.invalidations, cache.corrupt) == (1, 1, 0)
    assert cache.get_profile(code) is None
    assert cache.attach_profile(code, {"p": 1}) is False
    for name in ("fnmemo", "infmemo"):
        memo = _tier(name, tmp_path)
        assert _types(memo, 0) is None
        assert (memo.misses, memo.corrupt) == (1, 0)


def test_pre_log_cache_directory_reads_as_misses_and_is_left_alone(
    tmp_path, monkeypatch
):
    """A directory written by the file-per-entry layout (schema 1)."""
    options = SigRec().options()
    code = _code()
    with monkeypatch.context() as patched:
        patched.setattr(cache_module, "SCHEMA_VERSION", 1)
        old_fp = options_fingerprint(options)
        fn_key = FunctionMemo(options).key_for(b"body")
        inf_key = InferenceMemo(options).key_for("digest")
    record = {
        "param_types": ["uint8"], "language": "solidity",
        "fired_rules": [], "confidences": ["high"],
        "rule_counts": {}, "conflicts": {},
    }
    sha = hashlib.sha256(code).hexdigest()
    old_files = {
        os.path.join(old_fp, sha[:2], f"{sha}.json"): {
            "schema": 1, "fingerprint": old_fp, "options": options,
            "signatures": [], "rule_counts": {},
        },
        os.path.join("fnmemo", f"fn-{old_fp}", fn_key[:2], f"{fn_key}.json"): {
            "schema": 1, "record": dict(record, selector=1),
        },
        os.path.join("infmemo", f"inf-{old_fp}", inf_key[:2], f"{inf_key}.json"): {
            "schema": 1, "record": record,
        },
    }
    for relative, entry in old_files.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(entry))

    cache = ResultCache(str(tmp_path), options)
    fn_memo = FunctionMemo(options, directory=str(tmp_path / "fnmemo"))
    inf_memo = InferenceMemo(options, directory=str(tmp_path / "infmemo"))
    assert cache.fingerprint != old_fp
    assert cache.get(code) is None and cache.invalidations == 0
    assert fn_memo.get(fn_memo.key_for(b"body")) is None
    assert inf_memo.get(inf_memo.key_for("digest")) is None
    runner = BatchRecovery(tool=SigRec(), workers=0, cache_dir=str(tmp_path))
    runner.recover_all([code])
    assert runner.stats.cache_misses == 1
    for relative, entry in old_files.items():
        assert json.loads((tmp_path / relative).read_text()) == entry
