"""Frozen reference: the lint pass's own checks, with the storage
pass's whole-contract pc -> selector index."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis.dataflow import ResolvedCFG
from repro.analysis.dispatcher import DispatcherReport
from repro.analysis.stackcheck import Finding, StackReport
from repro.analysis.storage import StorageLayout

from .storage import _selector_index


def _truncated_push(bytecode: bytes, rcfg: ResolvedCFG) -> List[Finding]:
    instructions = []
    for block in rcfg.blocks.values():
        instructions.extend(block.instructions)
    if not instructions:
        return []
    last = max(instructions, key=lambda ins: ins.pc)
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
    selector_of_pc = _selector_index(rcfg, dispatcher)
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
