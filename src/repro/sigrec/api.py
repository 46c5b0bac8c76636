"""The public SigRec interface.

    >>> from repro import SigRec
    >>> tool = SigRec()
    >>> for sig in tool.recover(runtime_bytecode):
    ...     print(sig.selector_hex, sig.param_list)

``recover`` runs the full pipeline of Fig. 12: disassembly, dispatcher
exploration, TASE, and the rule-based inference, returning one
:class:`RecoveredSignature` per public/external function found.
"""

from __future__ import annotations

import hashlib
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.analysis.report import ContractAnalysis, Diagnostic, analyze, cross_check
from repro.obs import (
    NULL_REGISTRY,
    NULL_TRACER,
    HotLoopProfiler,
    MetricsRegistry,
    RunLedger,
    SpanTracer,
    phase_span,
)
from repro.obs.ledger import phase_delta, phase_snapshot
from repro.obs.profiler import top_hotspots
from repro.sigrec.engine import TASEEngine, TASEResult, merge_tase_results
from repro.sigrec.events import events_digest
from repro.sigrec.inference import PredicateMemo, infer_function
from repro.sigrec.rules import RuleTracker
from repro.sigrec.selectors import extract_selectors

#: How many engine results one SigRec instance keeps around so that
#: ``explain`` right after ``recover`` (the interactive workflow) does
#: not re-run TASE from scratch.
_RESULT_MEMO_SIZE = 8

#: How many static analyses one SigRec instance keeps.  ``recover``,
#: ``explain``, ``profile`` and sharded re-runs all need the same
#: per-bytecode analysis; the memo makes it one CFG/dispatcher walk
#: per bytecode per instance instead of one per call.
_ANALYSIS_MEMO_SIZE = 16


def _passes(
    selector: int, only: Optional[FrozenSet[int]], exclude: FrozenSet[int]
) -> bool:
    """The selector filter used by (contract, selector-group) units."""
    return (only is None or selector in only) and selector not in exclude


@dataclass(frozen=True)
class RecoveredSignature:
    """One recovered function signature (function id + parameter types)."""

    selector: int
    param_types: tuple
    language: str = "solidity"
    elapsed_seconds: float = 0.0
    fired_rules: tuple = ()
    # Parallel to param_types: "high" / "medium" / "low" evidence levels.
    confidences: tuple = ()

    @property
    def selector_hex(self) -> str:
        return f"0x{self.selector:08x}"

    @property
    def param_list(self) -> str:
        return ",".join(self.param_types)

    def canonical(self, name: str = "func") -> str:
        """Canonical form with a placeholder name (ids don't carry names)."""
        return f"{name}({self.param_list})"

    def __str__(self) -> str:
        return f"{self.selector_hex}({self.param_list})"


class SigRec:
    """Recovers function signatures from runtime EVM bytecode.

    One instance accumulates rule-usage statistics (:attr:`tracker`)
    across every contract it analyses, which is how the Fig.-19
    frequency study is produced.
    """

    def __init__(
        self,
        max_total_steps: int = 400_000,
        max_paths: int = 768,
        fork_bound: int = 3,
        loop_bound: int = 420,
        max_path_steps: int = 60_000,
        semantic_idioms: bool = True,
        scheduler: str = "priority",
        driver: str = "superblock",
        coarse_only: bool = False,
        static_check: bool = True,
        prune: bool = False,
        sharded: bool = True,
        memo: bool = True,
        memo_dir: Optional[str] = None,
        inference_memo: bool = True,
        inference_memo_dir: Optional[str] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[SpanTracer] = None,
        ledger: Optional[RunLedger] = None,
        profiler: Optional[HotLoopProfiler] = None,
    ) -> None:
        self.tracker = RuleTracker()
        # Observability backends: ``None`` means the shared null
        # singletons, whose instruments swallow everything.  None of
        # these are part of :meth:`options` — telemetry wiring never
        # changes what is recovered, so it must not perturb cache
        # fingerprints.
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.ledger = ledger
        self.profiler = profiler
        if ledger is not None and self.metrics is NULL_REGISTRY:
            # Ledger records attribute per-phase seconds as deltas of the
            # ``phase.seconds`` histograms, which need a real registry.
            self.metrics = MetricsRegistry()
        self.semantic_idioms = semantic_idioms
        self.coarse_only = coarse_only
        # ``static_check`` cross-validates TASE's selector set against
        # the static dispatcher analysis after every ``recover`` (see
        # :attr:`last_diagnostics`); ``prune`` additionally hands the
        # analysis to the engine as a pruning oracle.  Pruning is
        # output-preserving by construction but off by default so the
        # baseline configuration stays byte-for-byte the historical one.
        self.static_check = static_check
        self.prune = prune
        # ``sharded`` makes the *function* the unit of recovery: when
        # the static analysis fully resolves the dispatcher, each
        # selector is explored as an independent shard (own path/step
        # budgets, early-exitable) and the monolithic walk only backstops
        # contracts the dispatcher analysis cannot close.  ``memo``
        # additionally keys each shard's inferred signature by its code
        # region so clone-heavy corpora recover each shared body once;
        # ``memo_dir`` adds the persistent on-disk memo tier (it is
        # wiring, like ``metrics``, and not part of :meth:`options`).
        self.sharded = sharded
        self.memo = memo
        self.memo_dir = memo_dir
        self._fn_memo = None
        # ``inference_memo`` adds the third caching tier: inference
        # products keyed by the canonical event-stream digest
        # (:func:`repro.sigrec.events.events_digest`), so clones whose
        # *bytecode* differs but whose event streams normalize
        # identically skip rule inference entirely (TASE still runs).
        # ``inference_memo_dir`` adds its persistent on-disk tier; like
        # ``memo_dir`` it is wiring and not part of :meth:`options`.
        self.inference_memo = inference_memo
        self.inference_memo_dir = inference_memo_dir
        self._inf_memo = None
        #: "sharded" or "monolithic": which exploration strategy the
        #: most recent ``recover`` call actually used.
        self.last_strategy: str = "monolithic"
        #: Cache-tier outcome of the most recent ``recover`` call:
        #: "cold" (everything explored), "memo" (every wanted selector
        #: replayed from the function memo) or "memo-partial".  The
        #: "result-cache" tier is recorded by the batch parent, which
        #: never calls ``recover`` for those contracts.
        self._last_tier: str = "cold"
        #: (memo hits, memo misses) of the most recent ``recover``.
        self._last_memo: Tuple[int, int] = (0, 0)
        #: (inference-memo hits, misses) of the most recent ``recover``.
        self._last_inference_memo: Tuple[int, int] = (0, 0)
        #: Structured static/TASE divergence reports from the most
        #: recent ``recover`` call (empty when they agree, or when
        #: ``static_check`` is off).
        self.last_diagnostics: Tuple[Diagnostic, ...] = ()
        self._engine_opts = dict(
            max_total_steps=max_total_steps,
            max_paths=max_paths,
            fork_bound=fork_bound,
            loop_bound=loop_bound,
            max_path_steps=max_path_steps,
            semantic_idioms=semantic_idioms,
            # Path scheduling and step driver ride in the engine opts so
            # they reach every engine construction *and* the cache/memo
            # fingerprint via :meth:`options`: the driver is
            # output-preserving by construction, but the scheduler
            # changes which paths survive a truncated walk, so cached
            # recoveries must be keyed by both.
            scheduler=scheduler,
            driver=driver,
        )
        # Recent engine results, keyed by bytecode digest: ``recover``
        # deposits here and ``explain`` reuses instead of re-running TASE.
        self._result_memo: "OrderedDict[bytes, TASEResult]" = OrderedDict()
        # Recent static analyses, same keying: every consumer goes
        # through :meth:`_analyze` so one bytecode is walked once.
        self._analysis_memo: "OrderedDict[bytes, ContractAnalysis]" = (
            OrderedDict()
        )

    def options(self) -> Dict[str, object]:
        """Everything needed to build an equivalent instance.

        Used by the batch executor to construct per-worker tools and by
        the persistent cache as the invalidation fingerprint.
        """
        opts = dict(self._engine_opts)
        opts["coarse_only"] = self.coarse_only
        opts["static_check"] = self.static_check
        opts["prune"] = self.prune
        opts["sharded"] = self.sharded
        opts["memo"] = self.memo
        opts["inference_memo"] = self.inference_memo
        return opts

    def function_memo(self):
        """The function-body memo, created on first use (or ``None``).

        Exposed so the batch executor can share one per-process memo
        across worker tools via :meth:`set_function_memo`.
        """
        if not self.memo:
            return None
        if self._fn_memo is None:
            from repro.sigrec.cache import FunctionMemo

            self._fn_memo = FunctionMemo(
                self.options(), directory=self.memo_dir, metrics=self.metrics
            )
        return self._fn_memo

    def set_function_memo(self, memo) -> None:
        """Inject a shared :class:`FunctionMemo` (batch workers)."""
        self._fn_memo = memo

    def inference_memo_tier(self):
        """The inference memo, created on first use (or ``None``).

        Exposed so the batch executor can share one per-process memo
        across worker tools via :meth:`set_inference_memo`.
        """
        if not self.inference_memo:
            return None
        if self._inf_memo is None:
            from repro.sigrec.cache import InferenceMemo

            self._inf_memo = InferenceMemo(
                self.options(),
                directory=self.inference_memo_dir,
                metrics=self.metrics,
            )
        return self._inf_memo

    def set_inference_memo(self, memo) -> None:
        """Inject a shared :class:`InferenceMemo` (batch workers)."""
        self._inf_memo = memo

    def _analyze(self, bytecode: bytes) -> ContractAnalysis:
        """The memoized static analysis for ``bytecode``.

        Every pass is pure in the bytecode, so one instance keeps one
        :class:`ContractAnalysis` per bytecode and every consumer —
        ``recover``'s shard planner, the cross-check, the pruning
        engine, ``abi``, ``profile`` — shares it.  A miss pays only the
        CFG, jump and dispatcher passes (inside the ``static_analysis``
        span): that is all a recovery reads.  The other products are
        computed on first read — by ``abi`` or ``profile`` — on the same
        shared analysis, so each pass still runs at most once per
        bytecode.
        """
        digest = hashlib.sha256(bytecode).digest()
        analysis = self._analysis_memo.get(digest)
        if analysis is not None:
            self._analysis_memo.move_to_end(digest)
            return analysis
        with phase_span(self.metrics, self.tracer, "static_analysis"):
            analysis = analyze(
                bytecode, metrics=self.metrics, tracer=self.tracer
            )
        self._analysis_memo[digest] = analysis
        while len(self._analysis_memo) > _ANALYSIS_MEMO_SIZE:
            self._analysis_memo.popitem(last=False)
        return analysis

    def _run_engine(
        self, bytecode: bytes, analysis: Optional[ContractAnalysis] = None
    ) -> TASEResult:
        """Run TASE and remember the result for a follow-up ``explain``."""
        with phase_span(self.metrics, self.tracer, "disasm"):
            engine = TASEEngine(
                bytecode,
                analysis=analysis if self.prune else None,
                decoded=analysis,
                metrics=self.metrics,
                profiler=self.profiler,
                **self._engine_opts,
            )
        with phase_span(self.metrics, self.tracer, "tase"):
            result = engine.run()
        self._deposit_result(bytecode, result)
        return result

    def _deposit_result(self, bytecode: bytes, result: TASEResult) -> None:
        digest = hashlib.sha256(bytecode).digest()
        self._result_memo[digest] = result
        self._result_memo.move_to_end(digest)
        while len(self._result_memo) > _RESULT_MEMO_SIZE:
            self._result_memo.popitem(last=False)

    def recover(
        self,
        bytecode: bytes,
        *,
        only: Optional[FrozenSet[int]] = None,
        exclude: FrozenSet[int] = frozenset(),
    ) -> List[RecoveredSignature]:
        """Recover the signatures of all public/external functions.

        ``only``/``exclude`` restrict which selectors are inferred
        (a selector is recovered iff it passes both filters); the batch
        scheduler uses them to split one contract into independent
        (contract, selector-group) work units.  With the default
        ``None``/empty values the behavior is the historical whole-
        contract recovery.
        """
        publish = self.metrics is not NULL_REGISTRY
        fired_before = dict(self.tracker.counts) if publish else {}
        conflicts_before = dict(self.tracker.conflicts) if publish else {}
        partial = only is not None or bool(exclude)
        phases_before: Optional[Dict[str, float]] = None
        hot_before: Optional[Dict[int, int]] = None
        started = 0.0
        if self.ledger is not None:
            phases_before = phase_snapshot(self.metrics)
            if self.profiler is not None:
                hot_before = self.profiler.snapshot()
            started = time.perf_counter()
        self._last_tier = "cold"
        self._last_memo = (0, 0)
        self._last_inference_memo = (0, 0)
        with phase_span(
            self.metrics, self.tracer, "recover", bytes=len(bytecode)
        ):
            analysis: Optional[ContractAnalysis] = None
            if self.static_check or self.prune or self.sharded:
                analysis = self._analyze(bytecode)
            plan = self._shard_plan(analysis)
            if plan is not None:
                self.last_strategy = "sharded"
                recovered, result = self._recover_sharded(
                    bytecode, analysis, plan, only, exclude
                )
            else:
                self.last_strategy = "monolithic"
                result = self._run_engine(bytecode, analysis)
                recovered = []
                pred_memo = PredicateMemo()
                with phase_span(self.metrics, self.tracer, "inference"):
                    for selector in result.selectors:
                        if not _passes(selector, only, exclude):
                            continue
                        recovered.append(
                            self._infer_one(
                                selector, result.functions[selector],
                                pred_memo,
                            )
                        )
                inf_hits, inf_misses = self._last_inference_memo
                if inf_hits:
                    self._last_tier = (
                        "inference-memo"
                        if inf_misses == 0
                        else "inference-memo-partial"
                    )
            self.last_diagnostics = self._diagnose(
                analysis, result, partial=partial
            )
        if publish:
            self._publish_recover_metrics(
                recovered, fired_before, conflicts_before
            )
        if self.ledger is not None:
            self.ledger.append(
                self._ledger_record(
                    bytecode,
                    recovered,
                    result,
                    phases_before or {},
                    hot_before,
                    time.perf_counter() - started,
                    partial,
                )
            )
        return recovered

    def _ledger_record(
        self,
        bytecode: bytes,
        recovered: List[RecoveredSignature],
        result: TASEResult,
        phases_before: Dict[str, float],
        hot_before: Optional[Dict[int, int]],
        elapsed: float,
        partial: bool,
    ) -> dict:
        """One run-ledger record for the ``recover`` call just finished."""
        from repro.sigrec.cache import options_fingerprint

        memo_hits, memo_misses = self._last_memo
        record = {
            "code_sha256": hashlib.sha256(bytecode).hexdigest(),
            "bytes": len(bytecode),
            "fingerprint": options_fingerprint(self.options()),
            "strategy": self.last_strategy,
            "tier": self._last_tier,
            "partial": partial,
            "functions": len(recovered),
            "elapsed_seconds": round(elapsed, 9),
            "phases": {
                phase: round(seconds, 9)
                for phase, seconds in sorted(
                    phase_delta(
                        phases_before, phase_snapshot(self.metrics)
                    ).items()
                )
            },
            "memo": {"hits": memo_hits, "misses": memo_misses},
            "inference_memo": {
                "hits": self._last_inference_memo[0],
                "misses": self._last_inference_memo[1],
            },
            "tase": {
                "steps": result.total_steps,
                "paths": result.paths_explored,
                "forks": result.forks_taken,
                "forks_suppressed": result.pruned_forks,
                "budget_exhaustions": result.budget_exhaustions,
                "truncated_paths": result.truncated_paths,
                "truncated_steps": result.truncated_steps,
                "abandoned_states": result.abandoned_states,
            },
            "diagnostics": [
                {"kind": d.kind, "detail": d.detail}
                for d in self.last_diagnostics
            ],
        }
        if self.profiler is not None and hot_before is not None:
            hotspots = top_hotspots(self.profiler.delta(hot_before), 16)
            if hotspots:
                record["hotspots"] = [list(pair) for pair in hotspots]
        return record

    def _shard_plan(self, analysis: Optional[ContractAnalysis]):
        """The sorted selector list to shard on, or None → monolithic.

        Sharding requires a *trustworthy* dispatcher map: the jump
        fixpoint must have completed and the static walk must have found
        at least one entry.  Anything less falls back to the monolithic
        walk, which needs no static help.
        """
        if not self.sharded or analysis is None:
            return None
        if analysis.cfg.incomplete:
            return None
        if not analysis.dispatcher.entries:
            return None
        return tuple(sorted(analysis.dispatcher.entries))

    def _recover_sharded(
        self,
        bytecode: bytes,
        analysis: ContractAnalysis,
        plan: Tuple[int, ...],
        only: Optional[FrozenSet[int]],
        exclude: FrozenSet[int],
    ) -> Tuple[List[RecoveredSignature], TASEResult]:
        """Per-selector shards + residual walk + function-body memo."""
        from repro.sigrec.cache import FunctionRecord, InferenceRecord

        known = frozenset(plan)
        wanted = [s for s in plan if _passes(s, only, exclude)]
        memo = self.function_memo()
        inf_memo = self.inference_memo_tier()
        hits: Dict[int, object] = {}
        miss_keys: Dict[int, str] = {}
        with phase_span(self.metrics, self.tracer, "disasm"):
            engine = TASEEngine(
                bytecode,
                analysis=analysis if self.prune else None,
                decoded=analysis,
                metrics=self.metrics,
                profiler=self.profiler,
                **self._engine_opts,
            )
        with phase_span(self.metrics, self.tracer, "tase"):
            parts: List[TASEResult] = []
            for selector in wanted:
                if memo is not None:
                    preimage = analysis.function_preimage(selector)
                    if preimage is not None:
                        key = memo.key_for(preimage)
                        record = memo.get(key)
                        if record is not None:
                            hits[selector] = record
                            continue
                        miss_keys[selector] = key
                parts.append(engine.run_selector(selector, known))
            # The residual walk covers the fallback and any selector the
            # static dispatcher missed.  A selector-group unit whose
            # ``only`` set is fully covered by per-selector shards can
            # skip it: residual discoveries could not pass its filter.
            if only is None or (set(only) - set(plan)):
                parts.append(engine.run_residual(known))
            result = merge_tase_results(parts)
            result.selectors = sorted(set(result.functions) | set(hits))
            engine.publish_metrics(result)
        recovered: List[RecoveredSignature] = []
        fresh_inferred = 0
        inf_hits = inf_misses = 0
        pred_memo = PredicateMemo()
        with phase_span(self.metrics, self.tracer, "inference"):
            for selector in result.selectors:
                if not _passes(selector, only, exclude):
                    continue
                record = hits.get(selector)
                if record is not None:
                    # Memo hit: replay the recorded rule activity so the
                    # Fig.-19 aggregates match a memo-less run exactly.
                    self.tracker.merge(record.rule_counts)
                    for rule_id, count in record.conflicts.items():
                        self.tracker.conflict(rule_id, count)
                    recovered.append(record.to_signature())
                    continue
                events = result.functions[selector]
                inf_key = None
                if inf_memo is not None:
                    inf_key = inf_memo.key_for(events_digest(events))
                    inf_record = inf_memo.get(inf_key)
                    if inf_record is not None:
                        # Inference-memo hit: TASE ran, inference is
                        # replayed — counters exactly as a fresh run.
                        inf_hits += 1
                        self.tracker.merge(inf_record.rule_counts)
                        for rule_id, count in inf_record.conflicts.items():
                            self.tracker.conflict(rule_id, count)
                        recovered.append(inf_record.to_signature(selector))
                        # Backfill the function memo so the next run on
                        # this exact body hits the cheaper tier (which
                        # also skips TASE).
                        key = miss_keys.get(selector)
                        if memo is not None and key is not None:
                            memo.put(
                                key, inf_record.to_function_record(selector)
                            )
                        continue
                    inf_misses += 1
                fresh_inferred += 1
                local = RuleTracker()
                start = time.perf_counter()
                inferred = infer_function(
                    events, local,
                    semantic_idioms=self.semantic_idioms,
                    coarse_only=self.coarse_only,
                    memo=pred_memo,
                )
                elapsed = time.perf_counter() - start
                self.tracker.merge(local)
                signature = RecoveredSignature(
                    selector=selector,
                    param_types=tuple(inferred.param_types),
                    language=inferred.language,
                    elapsed_seconds=elapsed,
                    fired_rules=tuple(inferred.fired_rules),
                    confidences=tuple(inferred.confidences),
                )
                recovered.append(signature)
                key = miss_keys.get(selector)
                if memo is not None and key is not None:
                    memo.put(
                        key,
                        FunctionRecord(
                            selector=selector,
                            param_types=signature.param_types,
                            language=signature.language,
                            fired_rules=signature.fired_rules,
                            confidences=signature.confidences,
                            rule_counts={
                                r: c for r, c in local.counts.items() if c
                            },
                            conflicts=dict(local.conflicts),
                        ),
                    )
                if inf_memo is not None and inf_key is not None:
                    inf_memo.put(
                        inf_key,
                        InferenceRecord.from_inference(
                            signature.param_types,
                            signature.language,
                            signature.fired_rules,
                            signature.confidences,
                            local.counts,
                            local.conflicts,
                        ),
                    )
        self._last_memo = (len(hits), len(miss_keys))
        self._last_inference_memo = (inf_hits, inf_misses)
        if hits:
            self._last_tier = (
                "memo"
                if fresh_inferred == 0 and inf_hits == 0
                else "memo-partial"
            )
        elif inf_hits:
            self._last_tier = (
                "inference-memo"
                if fresh_inferred == 0
                else "inference-memo-partial"
            )
        if not hits:
            # Every function was actually explored, so the merged result
            # is a complete event map ``explain`` may reuse; with memo
            # hits it would be missing bodies and must not be deposited.
            self._deposit_result(bytecode, result)
        return recovered, result

    def _infer_one(
        self, selector: int, events, pred_memo: Optional[PredicateMemo] = None
    ) -> RecoveredSignature:
        """Monolithic-path inference for one function.

        Probes the inference memo first (the monolithic walk has no
        function-body preimage, so the event digest is its only memo
        key); a fresh inference runs against a local tracker merged
        into the shared one, so its counts are replayable on a later
        hit — the same Fig.-19 parity discipline as the sharded path.
        """
        from repro.sigrec.cache import InferenceRecord

        inf_memo = self.inference_memo_tier()
        inf_key = None
        if inf_memo is not None:
            inf_key = inf_memo.key_for(events_digest(events))
            inf_record = inf_memo.get(inf_key)
            hits, misses = self._last_inference_memo
            if inf_record is not None:
                self._last_inference_memo = (hits + 1, misses)
                self.tracker.merge(inf_record.rule_counts)
                for rule_id, count in inf_record.conflicts.items():
                    self.tracker.conflict(rule_id, count)
                return inf_record.to_signature(selector)
            self._last_inference_memo = (hits, misses + 1)
        local = RuleTracker()
        start = time.perf_counter()
        inferred = infer_function(
            events, local,
            semantic_idioms=self.semantic_idioms,
            coarse_only=self.coarse_only,
            memo=pred_memo,
        )
        elapsed = time.perf_counter() - start
        self.tracker.merge(local)
        signature = RecoveredSignature(
            selector=selector,
            param_types=tuple(inferred.param_types),
            language=inferred.language,
            elapsed_seconds=elapsed,
            fired_rules=tuple(inferred.fired_rules),
            confidences=tuple(inferred.confidences),
        )
        if inf_memo is not None and inf_key is not None:
            inf_memo.put(
                inf_key,
                InferenceRecord.from_inference(
                    signature.param_types,
                    signature.language,
                    signature.fired_rules,
                    signature.confidences,
                    local.counts,
                    local.conflicts,
                ),
            )
        return signature

    def _diagnose(
        self,
        analysis: Optional[ContractAnalysis],
        result: TASEResult,
        partial: bool = False,
    ) -> Tuple[Diagnostic, ...]:
        """Truncation warnings first, then the static/TASE cross-check.

        A ``max_paths``/step-limit truncation means the engine abandoned
        live exploration states, so the recovery may be missing whole
        functions — structurally different from a complete run that
        simply found few selectors, and invisible without this record.
        """
        diagnostics = []
        if result.truncated_paths:
            diagnostics.append(
                Diagnostic(
                    kind="tase-truncated-paths",
                    detail=(
                        f"path cap max_paths={self._engine_opts['max_paths']} "
                        f"reached; exploration abandoned "
                        f"{result.abandoned_states} pending state(s) and "
                        "the recovery may be incomplete"
                    ),
                )
            )
        if result.truncated_steps:
            diagnostics.append(
                Diagnostic(
                    kind="tase-truncated-steps",
                    detail=(
                        "step ceiling reached "
                        f"(max_total_steps={self._engine_opts['max_total_steps']}"
                        " or the per-path limit); the recovery may be incomplete"
                    ),
                )
            )
        if self.static_check and analysis is not None and not partial:
            # A filtered (selector-group) recovery only explores part of
            # the contract; comparing its selector set against the full
            # static map would report spurious divergences.
            diagnostics.extend(cross_check(analysis, result.selectors))
        return tuple(diagnostics)

    def _publish_recover_metrics(
        self,
        recovered: List[RecoveredSignature],
        fired_before: Dict[str, int],
        conflicts_before: Dict[str, int],
    ) -> None:
        """Per-recover counters, including this call's rule-fire deltas."""
        metrics = self.metrics
        metrics.counter("recover.calls").inc()
        metrics.counter("recover.functions").inc(len(recovered))
        for rule, count in self.tracker.counts.items():
            delta = count - fired_before.get(rule, 0)
            if delta:
                metrics.counter("rules.fired", rule=rule).inc(delta)
        for rule, count in self.tracker.conflicts.items():
            delta = count - conflicts_before.get(rule, 0)
            if delta:
                metrics.counter("rules.conflicts", rule=rule).inc(delta)

    def recover_map(self, bytecode: bytes) -> Dict[int, RecoveredSignature]:
        """Like :meth:`recover`, keyed by selector."""
        return {sig.selector: sig for sig in self.recover(bytecode)}

    def profile(
        self,
        bytecode: bytes,
        signatures: Optional[List[RecoveredSignature]] = None,
    ):
        """The contract profile: signatures + storage layout + static
        facts as one deterministic document.

        Runs a full recovery unless ``signatures`` (e.g. the result of
        an earlier :meth:`recover` call, or an empty list for a
        static-only profile) is given.  The static analysis is shared
        with ``recover`` through the per-instance memo, so
        ``recover`` + ``profile`` on the same bytecode walks the CFG
        once.
        """
        from repro.analysis.report import ContractProfile, build_profile

        if signatures is None:
            signatures = self.recover(bytecode)
        analysis = self._analyze(bytecode)
        with phase_span(self.metrics, self.tracer, "profile"):
            profile: ContractProfile = build_profile(analysis, signatures)
        return profile

    def abi(
        self,
        bytecode: bytes,
        signatures: Optional[List[RecoveredSignature]] = None,
    ) -> List[dict]:
        """A standard Solidity ABI JSON array, from the bytecode alone.

        Inputs come from signature recovery (run here unless
        ``signatures`` is supplied), ``stateMutability`` from the
        mutability pass, and ``outputs`` from the returns pass's
        word-granular skeletons (static words as ``uint256``, dynamic
        tails as ``bytes``).  The static verdicts never guess, but the
        ABI format cannot express uncertainty, so ``unknown``
        mutability degrades to ``nonpayable`` (the weakest claim) and
        an unknown return shape degrades to no declared outputs — the
        profile document (:meth:`profile`) keeps the honest verdicts.

        Functions are named ``func_<selector hex>``; entries are sorted
        by selector.  The array validates against
        ``docs/abi.schema.json``.
        """
        if signatures is None:
            signatures = self.recover(bytecode)
        analysis = self._analyze(bytecode)
        by_selector = {sig.selector: sig for sig in signatures}
        with phase_span(self.metrics, self.tracer, "abi"):
            mutability = analysis.mutability
            returns = analysis.returns
        entries: List[dict] = []
        for selector in sorted(set(analysis.selectors) | set(by_selector)):
            sig = by_selector.get(selector)
            inputs = [
                {"name": f"arg{i}", "type": rendered}
                for i, rendered in enumerate(sig.param_types)
            ] if sig is not None else []
            verdict = "unknown"
            if mutability is not None:
                verdict = mutability.functions.get(selector, "unknown")
            if verdict == "unknown":
                verdict = "nonpayable"
            shape: tuple = ()
            if returns is not None:
                recovered = returns.functions.get(selector)
                if recovered is not None and recovered.shape is not None:
                    shape = recovered.shape
            entries.append({
                "type": "function",
                "name": f"func_{selector:08x}",
                "inputs": inputs,
                "outputs": [{"name": "", "type": t} for t in shape],
                "stateMutability": verdict,
            })
        return entries

    def recover_batch(
        self,
        bytecodes: List[bytes],
        deduplicate: bool = True,
        workers: int = 0,
        cache_dir: Optional[str] = None,
        unit_size: Optional[int] = None,
    ) -> List[List[RecoveredSignature]]:
        """Recover many contracts; identical bytecodes analyze once.

        Mainnet contracts are massively duplicated (the paper's corpus:
        37,009,570 deployed contracts, only 368,679 unique bytecodes),
        so memoizing the analysis per unique bytecode is the difference
        between hours and minutes at chain scale.

        ``workers`` > 0 shards unique bytecodes across a process pool
        and ``cache_dir`` persists results on disk across runs; both are
        handled by :class:`repro.sigrec.batch.BatchRecovery`, and both
        produce the same signatures and merged rule counts as the
        default serial in-process path.  Every returned entry is an
        independent list — mutating one result never corrupts the result
        of a duplicated bytecode elsewhere in the batch.
        """
        if workers or cache_dir is not None:
            from repro.sigrec.batch import DEFAULT_UNIT_SIZE, BatchRecovery

            runner = BatchRecovery(
                tool=self,
                workers=workers,
                cache_dir=cache_dir,
                unit_size=(
                    unit_size if unit_size is not None else DEFAULT_UNIT_SIZE
                ),
            )
            return runner.recover_all(bytecodes, deduplicate=deduplicate)
        if not deduplicate:
            return [self.recover(code) for code in bytecodes]
        memo: Dict[bytes, List[RecoveredSignature]] = {}
        out: List[List[RecoveredSignature]] = []
        for code in bytecodes:
            if code not in memo:
                memo[code] = self.recover(code)
            out.append(list(memo[code]))
        return out

    def explain(self, bytecode: bytes, selector: int) -> str:
        """A human-readable account of one function's recovery.

        Lists the call-data accesses TASE observed (with their symbolic
        location expressions and guards), the type-revealing uses, the
        rules that fired, and the final parameter list — the evidence
        trail behind the answer.

        When ``recover`` (or a previous ``explain``) already analyzed
        this bytecode on this instance, the engine result is reused
        instead of re-running TASE and re-disassembling from scratch.
        """
        result = self._result_memo.get(hashlib.sha256(bytecode).digest())
        if result is None:
            result = self._run_engine(bytecode)
        events = result.functions.get(selector)
        if events is None:
            return f"0x{selector:08x}: function not found in the dispatcher"
        inferred = infer_function(
            events, RuleTracker(),
            semantic_idioms=self.semantic_idioms,
            coarse_only=self.coarse_only,
        )
        lines = [f"function 0x{selector:08x} ({inferred.language})"]
        lines.append("call-data loads:")
        for load in events.loads:
            guard_note = f"  [{len(load.guards)} guards]" if load.guards else ""
            lines.append(f"  pc={load.pc:#06x}  cd[{load.loc!r}]{guard_note}")
        if events.copies:
            lines.append("call-data copies:")
            for copy in events.copies:
                lines.append(
                    f"  pc={copy.pc:#06x}  src={copy.src!r} len={copy.length!r}"
                )
        if events.uses:
            lines.append("type-revealing uses:")
            for use in events.uses:
                operand = ""
                if use.operand is not None:
                    operand = (
                        f" operand={use.operand:#x}"
                        if use.operand < 1 << 64
                        else f" operand={use.operand:#066x}"
                    )
                lines.append(f"  pc={use.pc:#06x}  {use.kind}{operand}")
        lines.append(f"rules fired: {', '.join(inferred.fired_rules) or '(none)'}")
        lines.append(f"recovered: ({inferred.param_list()})")
        return "\n".join(lines)

    @staticmethod
    def extract_function_ids(bytecode: bytes) -> List[int]:
        """Static function-id extraction only (no type inference)."""
        return extract_selectors(bytecode)
