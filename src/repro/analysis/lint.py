"""Bytecode linting: the analysis passes as a single verifier verdict.

:func:`lint_findings` is the **lint pass** of the analysis pipeline:
it folds the stack/dispatcher findings with the linter-only checks
(truncated trailing PUSH, unresolved jumps, unreachable code) into one
sorted finding tuple.  ``lint_bytecode`` runs the pipeline and wraps
the result in a :class:`LintReport` with text and JSON renderings for
the ``repro lint`` CLI command.

Severity semantics:

* ``error`` — the bytecode violates EVM stack/jump discipline on some
  statically reachable path; our own compiler output must never
  produce one (that is the sanitizer contract).
* ``warning`` — suspicious but not provably broken (a truncated PUSH,
  a conflicting dispatcher entry).
* ``info`` — facts worth surfacing (unreachable blocks, jumps only the
  symbolic executor can resolve).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.dataflow import ResolvedCFG
from repro.analysis.dispatcher import DispatcherReport
from repro.analysis.report import ContractAnalysis, analyze
from repro.analysis.stackcheck import Finding, StackReport
from repro.analysis.storage import StorageLayout, _selector_index


@dataclass
class LintReport:
    """The linter verdict for one runtime bytecode."""

    analysis: ContractAnalysis
    findings: Tuple[Finding, ...] = ()

    @property
    def ok(self) -> bool:
        return not any(f.severity == "error" for f in self.findings)

    def counts(self) -> Dict[str, int]:
        out = {"error": 0, "warning": 0, "info": 0}
        for finding in self.findings:
            out[finding.severity] = out.get(finding.severity, 0) + 1
        return out

    def render_text(self) -> str:
        cfg = self.analysis.cfg
        lines = [
            f"blocks: {len(cfg.blocks)}  "
            f"selectors: {len(self.analysis.selectors)}  "
            f"resolved jumps: {len(cfg.resolved_targets)}  "
            f"unresolved: {len(cfg.unresolved_jumps)}"
        ]
        for finding in self.findings:
            lines.append(finding.render())
        counts = self.counts()
        lines.append(
            ("OK" if self.ok else "FAIL")
            + f" ({counts['error']} errors, {counts['warning']} warnings, "
            + f"{counts['info']} notes)"
        )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        cfg = self.analysis.cfg
        return {
            "ok": self.ok,
            "blocks": len(cfg.blocks),
            "selectors": [f"0x{s:08x}" for s in self.analysis.selectors],
            "resolved_jumps": len(cfg.resolved_targets),
            "unresolved_jumps": sorted(cfg.unresolved_jumps),
            "findings": [
                {
                    "kind": f.kind,
                    "pc": f.pc,
                    "severity": f.severity,
                    "detail": f.detail,
                }
                for f in self.findings
            ],
        }


def _truncated_push(bytecode: bytes, rcfg: ResolvedCFG) -> List[Finding]:
    if not rcfg.blocks:
        return []
    last = rcfg.blocks[max(rcfg.blocks)].terminator  # blocks tile the code
    if last.op.is_push and last.pc + last.size > len(bytecode):
        return [
            Finding(
                "truncated-push",
                last.pc,
                f"{last.op.name} immediate runs {last.pc + last.size - len(bytecode)} "
                "byte(s) past the end of the code",
                severity="warning",
            )
        ]
    return []


def _storage_blind_spots(
    rcfg: ResolvedCFG,
    dispatcher: DispatcherReport,
    storage: StorageLayout,
) -> List[Finding]:
    """Per-selector unresolved storage-access counts as info findings.

    Sites whose slot expression stayed symbolic are exactly where the
    recovered layout is blind; surfacing them on ``repro lint --json``
    lets a consumer see *which* functions the blind spots live in.
    """
    unresolved_pcs = sorted({
        access.pc for access in storage.accesses if access.expr is None
    })
    if not unresolved_pcs:
        return []
    selector_of_pc = _selector_index(rcfg, dispatcher, unresolved_pcs)
    per_selector: Dict[int, List[int]] = {}
    unattributed: List[int] = []
    for pc in unresolved_pcs:
        selectors = selector_of_pc.get(pc, ())
        if selectors:
            for selector in selectors:
                per_selector.setdefault(selector, []).append(pc)
        else:
            unattributed.append(pc)
    findings = [
        Finding(
            "storage-unresolved", min(pcs),
            f"{len(pcs)} storage access site(s) reachable from "
            f"0x{selector:08x} have unresolved slot expressions",
            severity="info",
        )
        for selector, pcs in sorted(per_selector.items())
    ]
    if unattributed:
        findings.append(
            Finding(
                "storage-unresolved", unattributed[0],
                f"{len(unattributed)} storage access site(s) outside any "
                "dispatched function have unresolved slot expressions",
                severity="info",
            )
        )
    return findings


def lint_findings(
    bytecode: bytes,
    rcfg: ResolvedCFG,
    stack: StackReport,
    dispatcher: DispatcherReport,
    storage: Optional[StorageLayout] = None,
) -> Tuple[Finding, ...]:
    """The lint pass: all findings for one bytecode, sorted by pc.

    Takes the upstream pass products directly so the pipeline can run
    it without a :class:`ContractAnalysis` wrapper.  ``storage`` (when
    available) adds per-selector unresolved-site blind-spot notes.
    """
    findings: List[Finding] = list(stack.findings) + list(dispatcher.findings)
    findings.extend(_truncated_push(bytecode, rcfg))
    if storage is not None:
        findings.extend(_storage_blind_spots(rcfg, dispatcher, storage))
    for pc in sorted(rcfg.unresolved_jumps):
        findings.append(
            Finding(
                "unresolved-jump", pc,
                "target is input-dependent; only symbolic execution can "
                "resolve it",
                severity="info",
            )
        )
    unreachable = dispatcher.unreachable
    if unreachable:
        first = min(unreachable)
        findings.append(
            Finding(
                "unreachable-code", first,
                f"{len(unreachable)} block(s) unreachable from the entry "
                "(dead code or trailing data)",
                severity="info",
            )
        )
    findings.sort(key=lambda f: (f.pc, f.kind))
    return tuple(findings)


def lint_analysis(analysis: ContractAnalysis) -> LintReport:
    """Fold an existing analysis into a lint verdict.

    Reuses the lint pass's product when the analysis carries one (the
    default pipeline always does); re-derives it otherwise.
    """
    findings = analysis.lint_findings
    if findings is None:
        findings = lint_findings(
            analysis.bytecode, analysis.cfg, analysis.stack,
            analysis.dispatcher, storage=analysis.storage,
        )
    return LintReport(analysis=analysis, findings=tuple(findings))


def lint_bytecode(bytecode: bytes) -> LintReport:
    """Analyze and lint ``bytecode`` in one call."""
    return lint_analysis(analyze(bytecode))
