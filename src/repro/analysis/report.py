"""The combined static-analysis result for one contract.

:func:`analyze` builds a :class:`ContractAnalysis` over the default
:class:`~repro.analysis.framework.AnalysisPipeline` — CFG construction,
jump resolution, stack verification, dispatcher extraction,
storage-layout recovery, reachability, mutability, return shapes,
linting — which is both the linter's input and the TASE engine's
pruning oracle.  Only the CFG, the jump fixpoint and the dispatcher
are computed up front; every other product is computed the first time
it is read, so a recovery never pays for the storage or ABI passes.
``analyze`` is *total*: it never raises on arbitrary byte strings (junk
decodes to UNKNOWN instructions, which the passes treat as opaque path
ends).

The engine-facing derived data is computed lazily:

* ``silent_halt_blocks`` — blocks that provably halt without emitting
  any TASE event (only PUSH/POP/JUMPDEST plus a STOP/REVERT/INVALID
  terminator): a symbolic path entering one can be cut immediately;
* ``closed_regions`` — per-selector statically reachable block sets,
  present only when every jump inside the region is resolved (an open
  region must not restrict the engine);
* ``unique_jump_targets`` — jump sites the dataflow proved one-target,
  letting the engine continue where it would otherwise abandon a path.

This module also defines the **contract profile**: the one-document
description of everything the static layer and the recovery engine
know about a bytecode (signatures + storage layout + dispatcher / CFG /
lint facts), with deterministic JSON rendering — sorted keys, no
timestamps — so profiles are byte-identical across runs, worker counts,
and cache temperature.  ``repro profile`` surfaces it on the CLI.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.analysis.dataflow import ResolvedCFG
from repro.analysis.dispatcher import DispatcherReport, region_preimage
from repro.analysis.framework import (
    AnalysisContext,
    AnalysisPipeline,
    pass_versions,
    schema_aggregate,
)
from repro.analysis.mutability import MutabilityReport
from repro.analysis.reachability import ReachabilityReport, region_closed
from repro.analysis.returns import ReturnsReport
from repro.analysis.stackcheck import Finding, StackReport
from repro.analysis.storage import StorageLayout
from repro.obs import MetricsRegistry, SpanTracer


def _analysis_schema_version() -> str:
    """Backward-compatible single scalar: the per-pass aggregate."""
    return schema_aggregate()


#: The derived aggregate of the per-pass schema versions.  Kept for
#: importers of the old single constant; the cache fingerprint now
#: folds the full per-pass dict (:func:`repro.analysis.framework.
#: pass_versions`) so one pass bump invalidates precisely and visibly.
ANALYSIS_SCHEMA_VERSION = _analysis_schema_version()

#: Opcodes that can appear in a block provably free of TASE events.
_SILENT_OPS = frozenset(
    ["POP", "JUMPDEST", "STOP", "REVERT", "INVALID"]
)
_SILENT_TERMINATORS = frozenset(["STOP", "REVERT", "INVALID"])


@dataclass(frozen=True)
class Diagnostic:
    """A structured divergence report from the static/TASE cross-check."""

    kind: str
    detail: str
    selectors: Tuple[int, ...] = ()

    def render(self) -> str:
        if self.selectors:
            shown = ", ".join(f"0x{s:08x}" for s in self.selectors)
            return f"{self.kind}: {self.detail} ({shown})"
        return f"{self.kind}: {self.detail}"


class ContractAnalysis:
    """All static passes over one runtime bytecode, plus derived views.

    ``cfg`` (the jump-resolved CFG) and ``dispatcher`` are computed when
    the analysis is built, since every client reads them.  The other
    products are read from the shared :class:`~repro.analysis.framework.
    AnalysisContext` on first access, so their passes run only for the
    clients that read them, once each; a product whose pass is not in
    the pipeline (e.g. ``storage`` under ``CORE_PIPELINE``) reads
    ``None``.
    """

    def __init__(self, context: AnalysisContext) -> None:
        self.context = context
        self.bytecode: bytes = context.bytecode
        self.cfg: ResolvedCFG = context["jumps"]
        self.dispatcher: DispatcherReport = context["dispatcher"]
        self._silent_halts: Optional[FrozenSet[int]] = None
        self._closed_regions: Optional[Dict[int, FrozenSet[int]]] = None
        self._unique_targets: Optional[Dict[int, int]] = None

    @property
    def stack(self) -> Optional[StackReport]:
        return self.context.get("stack")

    @property
    def storage(self) -> Optional[StorageLayout]:
        """Recovered storage layout."""
        return self.context.get("storage")

    @property
    def lint_findings(self) -> Optional[Tuple[Finding, ...]]:
        """The lint pass's findings."""
        return self.context.get("lint")

    @property
    def reach(self) -> Optional[ReachabilityReport]:
        """Per-selector reachability facts."""
        return self.context.get("reach")

    @property
    def mutability(self) -> Optional[MutabilityReport]:
        return self.context.get("mutability")

    @property
    def returns(self) -> Optional[ReturnsReport]:
        return self.context.get("returns")

    @property
    def findings(self) -> Tuple[Finding, ...]:
        return tuple(self.stack.findings) + tuple(self.dispatcher.findings)

    @property
    def selectors(self) -> Tuple[int, ...]:
        return self.dispatcher.selectors

    # -- engine-facing derived data ------------------------------------

    @property
    def silent_halt_blocks(self) -> FrozenSet[int]:
        """Starts of blocks that halt without any observable TASE event.

        Function entry blocks are excluded even when silent (an empty
        public function's body is PUSH/POP/STOP): entering one is how
        the engine *discovers* the selector, which is an observation.
        """
        if self._silent_halts is None:
            silent = set()
            entry_blocks = set(self.dispatcher.entries.values())
            for start, block in self.cfg.blocks.items():
                if start in entry_blocks:
                    continue
                terminator = block.terminator
                if terminator.op.name not in _SILENT_TERMINATORS:
                    continue
                if all(
                    ins.op.is_push or ins.op.name in _SILENT_OPS
                    for ins in block.instructions
                ):
                    silent.add(start)
            self._silent_halts = frozenset(silent)
        return self._silent_halts

    @property
    def closed_regions(self) -> Dict[int, FrozenSet[int]]:
        """selector -> region, only for regions with no unresolved jumps."""
        if self._closed_regions is None:
            closed: Dict[int, FrozenSet[int]] = {}
            if not self.cfg.incomplete:
                for selector, region in self.dispatcher.regions.items():
                    if region_closed(self.cfg, region):
                        closed[selector] = region
            self._closed_regions = closed
        return self._closed_regions

    def function_preimage(self, selector: int) -> Optional[bytes]:
        """Memoization preimage for one function, or ``None``.

        Only closed regions qualify: when every jump in the selector's
        region is resolved (and the CFG is complete), a sharded TASE run
        provably never leaves the dispatcher spine + region, so those
        bytes — plus the selector and the engine-options fingerprint —
        fully determine the recovered signature.  Open regions return
        ``None`` and are recovered fresh every time.
        """
        if self.cfg.incomplete or selector not in self.closed_regions:
            return None
        return region_preimage(self.cfg, self.dispatcher, self.bytecode, selector)

    @property
    def unique_jump_targets(self) -> Dict[int, int]:
        """Jump pcs the dataflow resolved to exactly one valid target."""
        if self._unique_targets is None:
            unique: Dict[int, int] = {}
            if not self.cfg.incomplete:
                for pc, targets in self.cfg.resolved_targets.items():
                    if (
                        len(targets) == 1
                        and pc not in self.cfg.unresolved_jumps
                        and pc not in self.cfg.invalid_targets
                    ):
                        unique[pc] = next(iter(targets))
            self._unique_targets = unique
        return self._unique_targets


def analyze(
    bytecode: bytes,
    metrics: Optional[MetricsRegistry] = None,
    tracer: Optional[SpanTracer] = None,
    pipeline: Optional[AnalysisPipeline] = None,
) -> ContractAnalysis:
    """The analysis of ``bytecode`` under ``pipeline``.

    With no ``pipeline`` argument, :func:`~repro.analysis.framework.
    default_pipeline` supplies the passes; pass e.g. ``CORE_PIPELINE``
    to restrict to the recovery-critical subset.  The CFG, jump and
    dispatcher passes run here; the rest run when their product is
    first read.  ``metrics``/``tracer`` flow to per-pass phase spans,
    whenever the pass runs.
    """
    return ContractAnalysis(
        AnalysisContext(bytecode, pipeline, metrics=metrics, tracer=tracer)
    )


def cross_check(analysis: ContractAnalysis, tase_selectors) -> Tuple[Diagnostic, ...]:
    """Compare the static selector set against TASE's discoveries."""
    static = set(analysis.selectors)
    dynamic = set(tase_selectors)
    diagnostics = []
    missing = sorted(static - dynamic)
    if missing:
        diagnostics.append(
            Diagnostic(
                kind="selector-missed-by-tase",
                detail=(
                    f"{len(missing)} selector(s) found in the static "
                    "dispatcher but not explored symbolically"
                ),
                selectors=tuple(missing),
            )
        )
    extra = sorted(dynamic - static)
    if extra:
        diagnostics.append(
            Diagnostic(
                kind="selector-missed-statically",
                detail=(
                    f"{len(extra)} selector(s) discovered by TASE but "
                    "invisible to the static dispatcher walk"
                ),
                selectors=tuple(extra),
            )
        )
    return tuple(diagnostics)


# ----------------------------------------------------------------------
# The contract profile.

#: Profile document schema version (the document *shape*; pass-semantic
#: changes are carried by the per-pass versions inside the document).
#: v2: the ``abi`` section (per-selector mutability + return shapes).
PROFILE_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class ContractProfile:
    """Everything recovered about one bytecode, as one document.

    Deterministic by construction: every field derives from the
    bytecode alone (plus engine options), values are sorted, and
    nothing time- or machine-dependent is admitted — ``to_json`` output
    is byte-identical across runs, worker counts, and cache hits.
    """

    bytecode_sha256: str
    code_size: int
    #: Per-pass schema versions of the pipeline that produced this.
    passes: Tuple[Tuple[str, int], ...]
    #: Recovered signatures (sorted by selector); empty when the
    #: profile was built without running recovery.
    signatures: Tuple[dict, ...]
    storage: dict
    #: Per-selector ABI completion facts: ``{"0x...": {"mutability":
    #: str, "returns": [types] | None}}``; empty when the pipeline ran
    #: without the mutability/returns passes.
    abi: dict
    dispatcher: dict
    cfg: dict
    lint: dict

    def to_dict(self) -> dict:
        return {
            "profile_schema": PROFILE_SCHEMA_VERSION,
            "bytecode_sha256": self.bytecode_sha256,
            "code_size": self.code_size,
            "passes": {name: version for name, version in self.passes},
            "signatures": list(self.signatures),
            "storage": self.storage,
            "abi": self.abi,
            "dispatcher": self.dispatcher,
            "cfg": self.cfg,
            "lint": self.lint,
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """Canonical JSON: sorted keys, stable separators."""
        if indent is None:
            return json.dumps(
                self.to_dict(), sort_keys=True, separators=(",", ":")
            )
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_dict(cls, data: dict) -> "ContractProfile":
        """Rehydrate a profile document (e.g. from the result cache).

        Round-trip exact: ``from_dict(p.to_dict()).to_json() ==
        p.to_json()`` — cached and freshly built profiles render
        byte-identically.
        """
        return cls(
            bytecode_sha256=data["bytecode_sha256"],
            code_size=data["code_size"],
            passes=tuple(sorted(
                (name, version) for name, version in data["passes"].items()
            )),
            signatures=tuple(data["signatures"]),
            storage=data["storage"],
            abi=data["abi"],
            dispatcher=data["dispatcher"],
            cfg=data["cfg"],
            lint=data["lint"],
        )

    def render_text(self) -> str:
        lines = [
            f"contract {self.bytecode_sha256[:16]}…  "
            f"({self.code_size} bytes, "
            f"{self.cfg['blocks']} blocks, "
            f"{len(self.dispatcher['selectors'])} selector(s))"
        ]
        if self.signatures:
            lines.append("functions:")
            for signature in self.signatures:
                params = ",".join(signature["param_types"])
                lines.append(
                    f"  {signature['selector']}({params})"
                    f"  [{signature['language']}]"
                )
        elif self.dispatcher["selectors"]:
            lines.append(
                "functions (selectors only, recovery not run): "
                + ", ".join(self.dispatcher["selectors"])
            )
        if self.abi:
            lines.append("abi:")
            for selector in sorted(self.abi):
                entry = self.abi[selector]
                returns = entry.get("returns")
                shown = (
                    "unknown" if returns is None
                    else "(" + ",".join(returns) + ")"
                )
                lines.append(
                    f"  {selector}: {entry['mutability']}, returns {shown}"
                )
        storage = self.storage
        variables = storage.get("variables", [])
        lines.append(
            f"storage: {len(variables)} variable(s), "
            f"{storage.get('resolved_sites', 0)}"
            f"/{storage.get('resolved_sites', 0) + storage.get('unresolved_sites', 0)}"
            " access sites resolved"
        )
        for variable in variables:
            where = f"slot {variable['slot']}"
            if variable["kind"] == "value" and variable["width"] != 32:
                end = variable["offset"] + variable["width"] - 1
                where += f" bytes {variable['offset']}..{end}"
            lines.append(
                f"  {where}: {variable['type']}  "
                f"({variable['reads']} reads, {variable['writes']} writes)"
            )
        lint = self.lint
        lines.append(
            ("lint: OK" if lint["ok"] else "lint: FAIL")
            + f" ({lint['errors']} errors, {lint['warnings']} warnings, "
            + f"{lint['notes']} notes)"
        )
        return "\n".join(lines)


def _signature_facts(signatures: Sequence) -> Tuple[dict, ...]:
    """Deterministic signature dicts (no ``elapsed_seconds``: timing is
    machine-dependent and reads 0.0 on cache hits)."""
    facts: List[dict] = []
    for signature in signatures:
        facts.append({
            "selector": f"0x{signature.selector:08x}",
            "param_types": list(signature.param_types),
            "language": signature.language,
            "confidences": list(signature.confidences),
            "fired_rules": sorted(signature.fired_rules),
        })
    facts.sort(key=lambda fact: fact["selector"])
    return tuple(facts)


def build_profile(
    analysis: ContractAnalysis,
    signatures: Sequence = (),
) -> ContractProfile:
    """Fold an analysis (and optional recovered signatures) into a
    :class:`ContractProfile`."""
    from repro.analysis.lint import lint_analysis

    bytecode = analysis.bytecode
    cfg = analysis.cfg
    dispatcher = analysis.dispatcher
    storage = analysis.storage if analysis.storage is not None else StorageLayout()
    lint = lint_analysis(analysis)
    counts = lint.counts()
    versions = pass_versions()
    abi: Dict[str, dict] = {}
    if analysis.mutability is not None or analysis.returns is not None:
        mutability = analysis.mutability
        returns = analysis.returns
        for selector in dispatcher.selectors:
            verdict = "unknown"
            if mutability is not None:
                verdict = mutability.functions.get(selector, "unknown")
            shape = None
            if returns is not None:
                recovered = returns.functions.get(selector)
                if recovered is not None and recovered.shape is not None:
                    shape = list(recovered.shape)
            abi[f"0x{selector:08x}"] = {
                "mutability": verdict,
                "returns": shape,
            }
    return ContractProfile(
        bytecode_sha256=hashlib.sha256(bytecode).hexdigest(),
        code_size=len(bytecode),
        passes=tuple(sorted(versions.items())),
        signatures=_signature_facts(signatures),
        storage=storage.to_dict(),
        abi=abi,
        dispatcher={
            "selectors": [f"0x{s:08x}" for s in dispatcher.selectors],
            "entries": {
                f"0x{selector:08x}": entry
                for selector, entry in sorted(dispatcher.entries.items())
            },
            "dispatcher_blocks": sorted(dispatcher.dispatcher_blocks),
            "unreachable_blocks": sorted(dispatcher.unreachable),
        },
        cfg={
            "blocks": len(cfg.blocks),
            "resolved_jumps": len(cfg.resolved_targets),
            "unresolved_jumps": sorted(cfg.unresolved_jumps),
            "invalid_jumps": sorted(cfg.invalid_targets),
            "incomplete": bool(cfg.incomplete),
        },
        lint={
            "ok": lint.ok,
            "errors": counts["error"],
            "warnings": counts["warning"],
            "notes": counts["info"],
            "findings": [
                {
                    "kind": f.kind,
                    "pc": f.pc,
                    "severity": f.severity,
                    "detail": f.detail,
                }
                for f in lint.findings
            ],
        },
    )


def profile_bytecode(bytecode: bytes, signatures: Sequence = ()) -> ContractProfile:
    """Analyze ``bytecode`` and build its profile in one call."""
    return build_profile(analyze(bytecode), signatures)
