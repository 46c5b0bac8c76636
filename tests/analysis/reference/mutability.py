"""Frozen reference: mutability with its own CALLVALUE-guard walker."""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.analysis.dataflow import ResolvedCFG
from repro.analysis.dispatcher import DispatcherReport
from repro.analysis.mutability import MutabilityReport
from repro.analysis.reachability import ReachabilityReport, ReachableFunction

#: Ops whose reachability forbids ``view`` (they mutate chain state).
MUTATING_OPS = frozenset([
    "SSTORE", "LOG0", "LOG1", "LOG2", "LOG3", "LOG4",
    "CALL", "CALLCODE", "DELEGATECALL",
    "CREATE", "CREATE2", "SELFDESTRUCT",
])

#: Ops whose reachability forbids ``pure`` (they read chain state).
#: ``CALLVALUE`` is deliberately absent: the non-payable guard itself
#: reads it, including in ``pure`` functions.
STATE_READ_OPS = frozenset([
    "SLOAD", "BALANCE", "SELFBALANCE",
    "EXTCODESIZE", "EXTCODECOPY", "EXTCODEHASH",
    "BLOCKHASH", "STATICCALL",
])

_STACK_LIMIT = 32


def _always_reverts(rcfg: ResolvedCFG, start: int) -> bool:
    """Entering the block at ``start`` always throws."""
    block = rcfg.blocks.get(start)
    return block is not None and block.terminator.op.name in (
        "REVERT", "INVALID"
    )


def _entry_has_guard(rcfg: ResolvedCFG, function: ReachableFunction) -> bool:
    """The function's entry block ends in a value-rejecting ``JUMPI``.

    A tiny within-block token walk tracks which stack slots hold a
    ``CALLVALUE``-derived word and how many ``ISZERO``s inverted it;
    everything else is opaque.  When the terminating ``JUMPI``'s
    condition is value-derived, the *rejecting* side (the fallthrough
    for the ``ISZERO`` form, the jump targets for the raw form) must
    provably revert for this to count as a guard.
    """
    block = rcfg.blocks.get(function.entry)
    if block is None:
        return False

    # Stack of Optional[(tag, inverted)] tokens; None = opaque.
    stack: List[Optional[Tuple[str, bool]]] = []

    def pop() -> Optional[Tuple[str, bool]]:
        return stack.pop(0) if stack else None

    def push(token: Optional[Tuple[str, bool]]) -> None:
        stack.insert(0, token)
        del stack[_STACK_LIMIT:]

    for ins in block.instructions:
        op = ins.op
        name = op.name
        if name == "CALLVALUE":
            push(("cv", False))
        elif name == "ISZERO":
            token = pop()
            push(("cv", not token[1]) if token else None)
        elif op.is_push:
            push(None)
        elif op.is_dup:
            depth = op.code - 0x7F
            push(stack[depth - 1] if depth <= len(stack) else None)
        elif op.is_swap:
            depth = op.code - 0x8F
            while len(stack) < depth + 1:
                stack.append(None)
            stack[0], stack[depth] = stack[depth], stack[0]
        elif name == "JUMPI":
            pop()  # the target
            condition = pop()
            if condition is None:
                return False
            inverted = condition[1]
            if inverted:
                # Jump taken when CALLVALUE == 0: falling through is
                # the rejecting side.
                return _always_reverts(rcfg, ins.pc + 1)
            # Raw CALLVALUE condition: the jump itself rejects.
            targets = rcfg.resolved_targets.get(ins.pc, frozenset())
            if not targets:
                # All-invalid targets: taking the jump always throws.
                return ins.pc in rcfg.invalid_targets
            return all(_always_reverts(rcfg, t) for t in targets)
        else:
            for _ in range(op.pops):
                pop()
            for _ in range(op.pushes):
                push(None)
    return False


def _classify(rcfg: ResolvedCFG, function: ReachableFunction) -> str:
    if not function.complete:
        return "unknown"
    if not _entry_has_guard(rcfg, function):
        return "payable"
    if function.ops & MUTATING_OPS:
        return "nonpayable"
    if function.ops & STATE_READ_OPS:
        return "view"
    return "pure"


def classify_mutability(
    rcfg: ResolvedCFG,
    dispatcher: DispatcherReport,
    reach: ReachabilityReport,
) -> MutabilityReport:
    """Classify every dispatched function's state mutability."""
    return MutabilityReport(functions={
        selector: _classify(rcfg, function)
        for selector, function in reach.functions.items()
    })
