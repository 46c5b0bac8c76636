"""Per-layer spans for the traced benchmark run.

The program is not instrumented.  Instead, :func:`instrument` swaps the
public entry point of every layer for a wrapper that records a span
(layer name, start, end, parent span, root span) and the work counts
visible at that boundary, and restores the originals on exit.  Spans
stay in memory; :meth:`SpanRecorder.summary` turns them into per-layer
self times (span minus the part its child spans cover) and counts once
the run is over.

Layer names follow the module that owns the entry point:

* ``evm.predecode`` / ``evm.disasm`` -- the two bytecode decoders;
* ``analysis.<pass>`` -- each static pass's entry function;
* ``tase`` -- ``TASEEngine.run`` / ``run_selector`` / ``run_residual``;
* ``inference`` / ``events.digest`` -- rule inference and the
  event-stream digest that keys the inference memo;
* ``cache.<tier>.get`` / ``cache.<tier>.put`` for the result cache,
  the function memo and the inference memo;
* ``batch`` -- ``BatchRecovery.recover_all``;
* ``obs.ledger.append`` -- ``RunLedger.append``;
* ``api`` -- the public ``SigRec`` methods.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: The static passes, in pipeline order, with the module function that
#: is each pass's entry point.
ANALYSIS_PASSES: Tuple[Tuple[str, str, str], ...] = (
    ("cfg", "repro.evm.cfg", "build_cfg"),
    ("jumps", "repro.analysis.dataflow", "resolve_jumps"),
    ("stack", "repro.analysis.stackcheck", "verify_stack"),
    ("dispatcher", "repro.analysis.dispatcher", "extract_dispatch"),
    ("storage", "repro.analysis.storage", "recover_storage_layout"),
    ("reach", "repro.analysis.reachability", "compute_reachability"),
    ("mutability", "repro.analysis.mutability", "classify_mutability"),
    ("returns", "repro.analysis.returns", "recover_returns"),
    ("lint", "repro.analysis.lint", "lint_findings"),
)

PASS_NAMES: Tuple[str, ...] = tuple(name for name, _m, _f in ANALYSIS_PASSES)

CACHE_TIERS: Tuple[Tuple[str, str, str], ...] = (
    ("result", "repro.sigrec.cache", "ResultCache"),
    ("fnmemo", "repro.sigrec.cache", "FunctionMemo"),
    ("infmemo", "repro.sigrec.cache", "InferenceMemo"),
)

#: Layers whose self time is reported; their sum plus the residual is
#: the traced wall time.
SELF_TIME_LAYERS: Tuple[str, ...] = (
    ("evm.predecode", "evm.disasm")
    + tuple(f"analysis.{name}" for name in PASS_NAMES)
    + ("tase", "inference", "events.digest")
    + tuple(
        f"cache.{tier}.{op}"
        for tier, _m, _c in CACHE_TIERS
        for op in ("get", "put")
    )
    + ("batch", "obs.ledger.append", "api")
)

#: (parent index, layer, start, end, root index) per span.
Span = List[object]


class SpanRecorder:
    """In-memory spans plus the counts recorded at the same boundaries."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = defaultdict(int)
        #: Entry points :func:`instrument` could not find, as
        #: "owner.attribute (layer)".
        self.missing: List[str] = []
        self._open: List[int] = []

    def wrap(
        self,
        layer: str,
        fn: Callable,
        count: Optional[Callable[[Dict[str, int], tuple, object], None]] = None,
    ) -> Callable:
        """``fn`` recording one ``layer`` span per call.

        ``count(counts, args, result)`` runs after the call, outside the
        span, so counting never shows up as layer time.
        """
        spans = self.spans
        open_ = self._open
        counts = self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = open_[-1] if open_ else -1
            root = spans[parent][4] if parent >= 0 else index
            span: Span = [parent, layer, 0.0, 0.0, root]
            spans.append(span)
            open_.append(index)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                open_.pop()
            counts[layer + ".calls"] += 1
            if count is not None:
                count(counts, args, result)
            return result

        return wrapper

    def summary(self) -> Dict[str, float]:
        """Per-layer self seconds, calls and counts, plus covered time."""
        child_time = [0.0] * len(self.spans)
        covered = 0.0
        for parent, _layer, start, end, _root in self.spans:
            duration = end - start
            if parent >= 0:
                child_time[parent] += duration
            else:
                covered += duration
        out: Dict[str, float] = {f"{layer}.self_s": 0.0 for layer in SELF_TIME_LAYERS}
        for index, (_parent, layer, start, end, _root) in enumerate(self.spans):
            out[f"{layer}.self_s"] += (end - start) - child_time[index]
        out.update(self.counts)
        out["covered_s"] = covered
        return out

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.missing.clear()
        self._open.clear()


def _count_cfg(counts, _args, cfg) -> None:
    counts["analysis.cfg.blocks"] += len(cfg.blocks)


def _count_tase(counts, _args, result) -> None:
    counts["tase.steps"] += result.total_steps
    counts["tase.paths"] += result.paths_explored
    counts["tase.forks"] += result.forks_taken


def _count_inference(counts, args, _result) -> None:
    events = args[0]
    counts["inference.events"] += (
        len(events.loads) + len(events.copies) + len(events.uses)
    )


def _cache_get_counter(tier: str):
    def count(counts, _args, record) -> None:
        counts[f"cache.{tier}.{'misses' if record is None else 'hits'}"] += 1

    return count


def _cache_put_counter(tier: str):
    def count(counts, _args, _result) -> None:
        counts[f"cache.{tier}.writes"] += 1

    return count


def _count_batch(counts, args, _result) -> None:
    stats = args[0].stats
    counts["batch.units"] += stats.units
    counts["batch.contracts"] += stats.total
    counts["batch.unique"] += stats.unique


def _count_ledger(counts, args, _result) -> None:
    # Records written to a ledger file; batch units also append to a
    # per-unit in-memory ledger, whose time counts but records do not.
    if args[0].path:
        counts["obs.ledger.records"] += 1


def _targets() -> List[Tuple[object, str, str, Optional[Callable]]]:
    """(owner, attribute, layer, counter) for every wrapped entry point."""
    mod = importlib.import_module
    targets: List[Tuple[object, str, str, Optional[Callable]]] = [
        (mod("repro.sigrec.engine"), "_decode_program", "evm.predecode", None),
        (mod("repro.evm.cfg"), "disassemble", "evm.disasm", None),
        (mod("repro.sigrec.selectors"), "disassemble", "evm.disasm", None),
    ]
    for name, module, function in ANALYSIS_PASSES:
        counter = _count_cfg if name == "cfg" else None
        targets.append((mod(module), function, f"analysis.{name}", counter))
    engine = mod("repro.sigrec.engine").TASEEngine
    for method in ("run", "run_selector", "run_residual"):
        targets.append((engine, method, "tase", _count_tase))
    api = mod("repro.sigrec.api")
    targets.append((api, "infer_function", "inference", _count_inference))
    targets.append((api, "events_digest", "events.digest", None))
    for tier, module, cls in CACHE_TIERS:
        owner = getattr(mod(module), cls)
        targets.append((owner, "get", f"cache.{tier}.get", _cache_get_counter(tier)))
        targets.append((owner, "put", f"cache.{tier}.put", _cache_put_counter(tier)))
    targets.append(
        (mod("repro.sigrec.batch").BatchRecovery, "recover_all", "batch", _count_batch)
    )
    targets.append(
        (mod("repro.obs.ledger").RunLedger, "append", "obs.ledger.append", _count_ledger)
    )
    for method in ("recover", "recover_batch", "abi", "profile"):
        targets.append((api.SigRec, method, "api", None))
    return targets


@contextmanager
def instrument(recorder: SpanRecorder) -> Iterator[None]:
    """Wrap every layer entry point for the duration of the block.

    An entry point that no longer exists is not created: it is listed in
    ``recorder.missing``, which fails the run, because its layer would
    otherwise read zero seconds as if it had become free.
    """
    saved: List[Tuple[object, str, object]] = []
    try:
        targets = _targets()
    except (ImportError, AttributeError) as exc:
        # A module or class that owns entry points is gone.
        recorder.missing.append(repr(exc))
        targets = []
    try:
        for owner, attr, layer, counter in targets:
            if attr not in vars(owner):
                recorder.missing.append(
                    f"{getattr(owner, '__name__', owner)}.{attr} ({layer})"
                )
                continue
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(layer, original, counter))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
