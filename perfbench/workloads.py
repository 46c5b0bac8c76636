"""The three benchmark workloads: seeded inputs, one cold round, checks.

Every workload builds its inputs from the seed alone, runs them through
the public ``SigRec`` API in *rounds* that each start cold (empty
decode cache, a fresh ``SigRec``, a fresh copy of any pre-filled cache
directory), and checks what came out:

* ``cold-unique`` -- unique contracts from the open-source, struct /
  nested-array and Vyper corpora, one ``SigRec().recover()`` per
  contract on a long-lived instance.  The headline cold path.
* ``chain-replay`` -- the stream a chain indexer sees: exact
  duplicates, trailer clones, selector-renamed clones and contracts
  already in a cache directory filled at set-up, fed as one
  ``recover_batch(workers=0, cache_dir=...)`` call with the run ledger
  on.
* ``profile-abi`` -- ``recover`` + ``abi`` + ``profile`` per contract
  over the ABI and storage corpora: the workload that reads every
  static pass's product.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.abi.signature import FunctionSignature
from repro.analysis.schema import validate
from repro.compiler.contract import compile_contract
from repro.compiler.effects import MARKER_SLOT
from repro.corpus.datasets import (
    build_abi_corpus,
    build_clone_corpus,
    build_open_source_corpus,
    build_storage_corpus,
    build_struct_nested_corpus,
    build_vyper_corpus,
)
from repro.evm.predecode import clear_program_cache
from repro.obs.ledger import RunLedger, read_ledger
from repro.sigrec.api import SigRec

from layers import PASS_NAMES, SpanRecorder, instrument

_TRUNCATED = ("tase-truncated-paths", "tase-truncated-steps")

#: How many tracebacks of failed calls one run prints to stderr.
_MAX_REPORTED_ERRORS = 5


@dataclass(frozen=True)
class Item:
    """One input contract and its ground truth."""

    code: bytes
    #: selector -> (canonical parameter list, stateMutability, outputs).
    functions: Dict[int, Tuple[str, str, Tuple[str, ...]]]
    #: {(slot, offset, width, kind, type, depth)} of the storage layout.
    storage: FrozenSet[tuple]


def _item(contract) -> Item:
    functions = {}
    for index, sig in enumerate(contract.signatures):
        functions[int.from_bytes(sig.selector, "big")] = (
            sig.param_list(),
            contract.mutability[index],
            tuple(contract.returns[index]),
        )
    storage = frozenset(
        (v["slot"], v["offset"], v["width"], v["kind"], v["type"], v["depth"])
        for v in contract.storage
    )
    return Item(contract.bytecode, functions, storage)


def _cases(build, count: int, rng: random.Random) -> list:
    """``count`` cases of one corpus builder, on a seed drawn from ``rng``."""
    return build(count, seed=rng.randrange(1 << 30)).cases


def _unique(items: Sequence[Item]) -> List[Item]:
    seen: Dict[bytes, Item] = {}
    for item in items:
        seen.setdefault(item.code, item)
    return list(seen.values())


def canonical(signatures) -> tuple:
    """Everything a recovered signature list says, timing excluded."""
    return tuple(
        (s.selector, s.param_types, s.language, s.fired_rules, s.confidences)
        for s in signatures
    )


def _truncated(diagnostics) -> bool:
    return any(d.kind in _TRUNCATED for d in diagnostics)


@dataclass
class Round:
    """What one cold pass over a workload's inputs produced."""

    wall_s: float
    #: Seconds per timed call (per contract, or per round on chain-replay).
    latencies: List[float]
    #: Input contracts processed, duplicates included.
    contracts: int
    failed: int
    #: Comparable outputs, equal across rounds of one seed.
    outputs: tuple
    #: Work counts the program reports itself, equal across rounds.
    counts: Dict[str, int]
    #: Raw outputs kept for the checks (first round only).
    raw: list = field(default_factory=list)
    errors: List[str] = field(default_factory=list)


@dataclass
class Checks:
    """Accuracy against ground truth plus every problem found."""

    sig_accuracy: float
    abi_accuracy: float
    layout_accuracy: float
    problems: List[str]


def _score(
    items: Sequence[Item],
    signature_lists: Sequence[list],
    abi_docs: Sequence[list],
    profile_docs: Sequence[dict],
) -> Tuple[float, float, float]:
    """(signature, ABI-completion, storage-layout) accuracy.

    A signature is correct when its parameter list equals the declared
    one exactly (the paper's section 5.2 criterion, as in
    ``repro.corpus.evaluate``).  An ABI entry is correct when its
    ``stateMutability`` and ``outputs`` equal the compiled ground truth.
    A contract's layout is correct when the recovered variable set
    equals the ground-truth set, so a contract without storage counts
    as correct only when nothing is recovered.  The compiler's
    effect-marker slot is real storage traffic the ground truth does
    not list, so variables there are left out of the comparison.
    """
    sig_hits = abi_hits = functions = layout_hits = 0
    for item, signatures, abi, profile in zip(
        items, signature_lists, abi_docs, profile_docs
    ):
        got = {s.selector: s.param_list for s in signatures}
        entries = {entry["name"]: entry for entry in abi}
        for selector, (params, mutability, outputs) in item.functions.items():
            functions += 1
            sig_hits += got.get(selector) == params
            entry = entries.get(f"func_{selector:08x}")
            abi_hits += (
                entry is not None
                and entry["stateMutability"] == mutability
                and tuple(o["type"] for o in entry["outputs"]) == outputs
            )
        recovered = frozenset(
            (v["slot"], v["offset"], v["width"], v["kind"], v["type"], v["depth"])
            for v in profile["storage"]["variables"]
            if v["slot"] != MARKER_SLOT
        )
        layout_hits += recovered == item.storage
    return (
        sig_hits / functions,
        abi_hits / functions,
        layout_hits / len(items),
    )


def _schema_problems(abi_docs, profile_docs, schemas) -> List[str]:
    problems = []
    for kind, docs in (("abi", abi_docs), ("profile", profile_docs)):
        invalid = [
            (index, errors)
            for index, errors in enumerate(validate(doc, schemas[kind]) for doc in docs)
            if errors
        ]
        if invalid:
            index, errors = invalid[0]
            problems.append(
                f"{len(invalid)} {kind} document(s) violate the schema; "
                f"document {index}: {errors[:3]}"
            )
    return problems


def _static_documents(items: Sequence[Item], signature_lists) -> Tuple[list, list]:
    """ABI and profile documents for already recovered signatures, made
    once per distinct bytecode."""
    tool = SigRec()
    made: Dict[bytes, Tuple[list, dict]] = {}
    for item, signatures in zip(items, signature_lists):
        if item.code not in made:
            made[item.code] = (
                tool.abi(item.code, signatures),
                tool.profile(item.code, signatures).to_dict(),
            )
    return (
        [made[item.code][0] for item in items],
        [made[item.code][1] for item in items],
    )


def _memo_counts(tool: SigRec) -> Dict[str, int]:
    memo, inf_memo = tool.function_memo(), tool.inference_memo_tier()
    return {
        "fnmemo.hits": memo.hits,
        "fnmemo.misses": memo.misses,
        "fnmemo.writes": memo.writes,
        "infmemo.hits": inf_memo.hits,
        "infmemo.misses": inf_memo.misses,
        "infmemo.writes": inf_memo.writes,
    }


def _record_error(errors: List[str]) -> None:
    """Keep the traceback of the exception being handled."""
    if len(errors) < _MAX_REPORTED_ERRORS:
        errors.append(traceback.format_exc())


#: Layers every workload runs; each must record calls in a traced round.
_RECOVERY_LAYERS = (
    "api", "evm.predecode", "analysis.cfg", "analysis.dispatcher", "tase",
    "inference", "events.digest", "cache.fnmemo.get", "cache.fnmemo.put",
    "cache.infmemo.get", "cache.infmemo.put",
)


class Workload:
    """Inputs from a seed, cold rounds over them, and their checks."""

    name = ""
    #: Layers this workload is known to run.  A traced round in which one
    #: of them records no call fails the run: its entry point has most
    #: likely moved, and its time would silently read as zero.
    LAYERS: Tuple[str, ...] = _RECOVERY_LAYERS

    def __init__(self, workdir: str, schemas: Dict[str, dict]) -> None:
        self.workdir = workdir
        self.schemas = schemas
        self.items: List[Item] = []

    def setup(self, seed: int) -> None:
        """Build the inputs and anything else the program pays once per
        run (timed as ``setup_s``)."""
        raise NotImplementedError

    def prepare(self) -> None:
        """The benchmark's own once-per-run work, not timed as set-up:
        warming process-wide tables and computing check references."""
        warm = SigRec()
        for item in self.items[:4]:
            warm.recover(item.code)

    def run_round(self, recorder: Optional[SpanRecorder] = None) -> Round:
        """One cold pass; traced when a recorder is given."""
        raise NotImplementedError

    def check(self, first: Round) -> Checks:
        """Score the first round's signatures, with ABI and profile
        documents made afterwards from them."""
        abi_docs, profile_docs = _static_documents(self.items, first.raw)
        sig, abi, layout = _score(self.items, first.raw, abi_docs, profile_docs)
        return Checks(sig, abi, layout, _schema_problems(abi_docs, profile_docs, self.schemas))

    @staticmethod
    def _timed(recorder: Optional[SpanRecorder]):
        return instrument(recorder) if recorder is not None else nullcontext()


class ColdUnique(Workload):
    """Unique contracts, one long-lived default ``SigRec().recover()``."""

    name = "cold-unique"
    OPEN, STRUCT, VYPER = 300, 100, 100

    def setup(self, seed: int) -> None:
        rng = random.Random(f"{self.name}:{seed}")
        cases = (
            _cases(build_open_source_corpus, self.OPEN, rng)
            + _cases(build_struct_nested_corpus, self.STRUCT, rng)
            + _cases(build_vyper_corpus, self.VYPER, rng)
        )
        rng.shuffle(cases)
        self.items = _unique([_item(case.contract) for case in cases])

    def run_round(self, recorder: Optional[SpanRecorder] = None) -> Round:
        clear_program_cache()
        tool = SigRec()
        clock = time.perf_counter
        latencies, results, errors = [], [], []
        failed = 0
        with self._timed(recorder):
            started = clock()
            for item in self.items:
                begin = clock()
                try:
                    signatures = tool.recover(item.code)
                except Exception:
                    _record_error(errors)
                    signatures = None
                latencies.append(clock() - begin)
                if signatures is None:
                    failed += 1
                    signatures = []
                elif _truncated(tool.last_diagnostics):
                    failed += 1
                results.append(signatures)
            wall = clock() - started
        return Round(
            wall_s=wall,
            latencies=latencies,
            contracts=len(self.items),
            failed=failed,
            outputs=tuple(canonical(s) for s in results),
            counts=_memo_counts(tool),
            raw=results,
            errors=errors,
        )


class ChainReplay(Workload):
    """A chain indexer's stream through ``recover_batch`` with a ledger."""

    name = "chain-replay"
    LAYERS = _RECOVERY_LAYERS + (
        "batch", "obs.ledger.append", "cache.result.get", "cache.result.put",
    )
    FAMILIES = 120
    #: Distinct bytecodes per family: the compiled contract, two trailer
    #: clones and two selector-renamed recompiles.  An assumption, as is
    #: PREFILL_EVERY: no source gives these shares for a real chain.
    CLONES_PER_FAMILY = 3
    RENAMES_PER_FAMILY = 2
    #: Every 4th family's compiled contract is already cached at set-up.
    PREFILL_EVERY = 4
    #: Deployed contracts per distinct bytecode in the paper's corpus
    #: (37,009,570 deployed, 368,679 unique; see ``SigRec.recover_batch``).
    #: The stream has this many inputs per distinct bytecode, ~99%
    #: exact duplicates.
    DEPLOYED, UNIQUE = 37_009_570, 368_679

    #: ``build_clone_corpus`` gives a family 1 to 5 functions.  Every seed
    #: replays FAMILIES / 5 families of each count.  Drawn straight from
    #: the builder, a round's TASE steps spread 13% (IQR over median,
    #: ten seeds) from seed to seed; with equal counts, 4%.
    MAX_FUNCTIONS = 5

    def _families(self, rng: random.Random) -> list:
        """FAMILIES families, the same number with each function count,
        taken in the builder's order from batches drawn until each count
        has its share."""
        step, quota = self.CLONES_PER_FAMILY, self.FAMILIES // self.MAX_FUNCTIONS
        chosen: Dict[int, list] = {n: [] for n in range(1, self.MAX_FUNCTIONS + 1)}
        while any(len(group) < quota for group in chosen.values()):
            cases = build_clone_corpus(
                n_families=self.FAMILIES // 4,
                clones_per_family=step,
                max_functions=self.MAX_FUNCTIONS,
                seed=rng.randrange(1 << 30),
            ).cases
            for start in range(0, len(cases), step):
                group = chosen.get(len(cases[start].declared))
                if group is not None and len(group) < quota:
                    group.append(cases[start : start + step])
        families = [family for group in chosen.values() for family in group]
        rng.shuffle(families)
        return families

    def setup(self, seed: int) -> None:
        rng = random.Random(f"{self.name}:{seed}")
        distinct, prefilled = [], []
        for index, family in enumerate(self._families(rng)):
            base = family[0]
            members = [_item(case.contract) for case in family]
            for rename in range(self.RENAMES_PER_FAMILY):
                renamed = [
                    FunctionSignature(
                        f"{sig.name}_{index}r{rename}", sig.params, sig.visibility, sig.language
                    )
                    for sig in base.declared
                ]
                members.append(_item(compile_contract(renamed, base.options)))
            distinct += members
            if index % self.PREFILL_EVERY == 0:
                prefilled.append(members[0])
        self.distinct = _unique(distinct)
        deployed = round(len(self.distinct) * self.DEPLOYED / self.UNIQUE)
        stream = self.distinct + rng.choices(self.distinct, k=deployed - len(self.distinct))
        rng.shuffle(stream)
        self.items = stream
        self.prefill_dir = os.path.join(self.workdir, "prefilled")
        shutil.rmtree(self.prefill_dir, ignore_errors=True)
        clear_program_cache()
        SigRec().recover_batch(
            [item.code for item in prefilled], workers=0, cache_dir=self.prefill_dir
        )
        self.round_dir = os.path.join(self.workdir, "round")

    def prepare(self) -> None:
        """The cold reference every replayed result must equal (this also
        warms the process-wide tables)."""
        self.reference: Dict[bytes, tuple] = {}
        self.truncated: Dict[bytes, bool] = {}
        for item in self.distinct:
            tool = SigRec()
            self.reference[item.code] = canonical(tool.recover(item.code))
            self.truncated[item.code] = _truncated(tool.last_diagnostics)

    def run_round(self, recorder: Optional[SpanRecorder] = None) -> Round:
        """The whole stream in one ``recover_batch`` call, the way
        ``repro batch --ledger-out`` runs an input file."""
        shutil.rmtree(self.round_dir, ignore_errors=True)
        cache_dir = os.path.join(self.round_dir, "cache")
        shutil.copytree(self.prefill_dir, cache_dir)
        ledger_path = os.path.join(self.round_dir, "ledger.jsonl")
        clear_program_cache()
        tool = SigRec(ledger=RunLedger(ledger_path))
        clock = time.perf_counter
        codes = [item.code for item in self.items]
        errors: List[str] = []
        with self._timed(recorder):
            started = clock()
            try:
                results = tool.recover_batch(codes, workers=0, cache_dir=cache_dir)
            except Exception:
                _record_error(errors)
                results = [None] * len(codes)
            wall = clock() - started
        failed = 0
        for item, signatures in zip(self.items, results):
            if (
                signatures is None
                or self.truncated[item.code]
                or canonical(signatures) != self.reference[item.code]
            ):
                failed += 1
        return Round(
            wall_s=wall,
            latencies=[wall],
            contracts=len(self.items),
            failed=failed,
            outputs=tuple(
                canonical(s) if s is not None else None for s in results
            ),
            counts=self._ledger_counts(ledger_path),
            raw=[s if s is not None else [] for s in results],
            errors=errors,
        )

    def check(self, first: Round) -> Checks:
        """Score each distinct bytecode once, on its first result in the
        stream; every other result already had to equal the reference."""
        first_index = {}
        for index, item in enumerate(self.items):
            first_index.setdefault(item.code, index)
        items = [self.items[index] for index in first_index.values()]
        signature_lists = [first.raw[index] for index in first_index.values()]
        abi_docs, profile_docs = _static_documents(items, signature_lists)
        sig, abi, layout = _score(items, signature_lists, abi_docs, profile_docs)
        return Checks(sig, abi, layout, _schema_problems(abi_docs, profile_docs, self.schemas))

    @staticmethod
    def _ledger_counts(path: str) -> Dict[str, int]:
        """Work counts from the round's run ledger."""
        counts: Dict[str, int] = {"ledger.records": 0}
        for record in read_ledger(path):
            counts["ledger.records"] += 1
            tier = f"tier.{record['tier']}"
            counts[tier] = counts.get(tier, 0) + 1
            for key in ("memo", "inference_memo"):
                for outcome, value in record.get(key, {}).items():
                    name = f"{key}.{outcome}"
                    counts[name] = counts.get(name, 0) + value
            steps = record.get("tase", {}).get("steps", 0)
            counts["tase.steps"] = counts.get("tase.steps", 0) + steps
        return counts


class ProfileAbi(Workload):
    """``recover`` + ``abi`` + ``profile`` per contract."""

    name = "profile-abi"
    LAYERS = _RECOVERY_LAYERS + tuple(f"analysis.{name}" for name in PASS_NAMES)
    ABI, STORAGE = 200, 200

    def setup(self, seed: int) -> None:
        rng = random.Random(f"{self.name}:{seed}")
        cases = (
            _cases(build_abi_corpus, self.ABI, rng)
            + _cases(build_storage_corpus, self.STORAGE, rng)
        )
        rng.shuffle(cases)
        self.items = _unique([_item(case.contract) for case in cases])

    def prepare(self) -> None:
        warm = SigRec()
        for item in self.items[:4]:
            warm.profile(item.code, warm.recover(item.code))

    def run_round(self, recorder: Optional[SpanRecorder] = None) -> Round:
        clear_program_cache()
        tool = SigRec()
        clock = time.perf_counter
        latencies, results, errors = [], [], []
        failed = 0
        with self._timed(recorder):
            started = clock()
            for item in self.items:
                begin = clock()
                try:
                    signatures = tool.recover(item.code)
                    truncated = _truncated(tool.last_diagnostics)
                    abi = tool.abi(item.code, signatures)
                    profile = tool.profile(item.code, signatures)
                except Exception:
                    _record_error(errors)
                    signatures = None
                latencies.append(clock() - begin)
                if signatures is None:
                    failed += 1
                    results.append(([], [], None))
                    continue
                failed += truncated
                results.append((signatures, abi, profile))
            wall = clock() - started
        outputs = tuple(
            (
                canonical(signatures),
                json.dumps(abi, sort_keys=True),
                profile.to_json() if profile is not None else None,
            )
            for signatures, abi, profile in results
        )
        return Round(
            wall_s=wall,
            latencies=latencies,
            contracts=len(self.items),
            failed=failed,
            outputs=outputs,
            counts=_memo_counts(tool),
            raw=results,
            errors=errors,
        )

    def check(self, first: Round) -> Checks:
        signature_lists = [signatures for signatures, _a, _p in first.raw]
        abi_docs = [abi for _s, abi, _p in first.raw]
        profile_docs = [
            profile.to_dict() if profile is not None else {"storage": {"variables": []}}
            for _s, _a, profile in first.raw
        ]
        sig, abi, layout = _score(self.items, signature_lists, abi_docs, profile_docs)
        return Checks(sig, abi, layout, _schema_problems(abi_docs, profile_docs, self.schemas))


WORKLOADS = {cls.name: cls for cls in (ColdUnique, ChainReplay, ProfileAbi)}
