"""Per-selector reachability: which instructions can a function touch?

The dispatcher pass already computes each selector's *region* — the
blocks statically reachable from its body entry over resolved jump
edges.  Because jump resolution follows the return-address dispatch of
internal calls (several callers pushing different return targets into
one shared block), a region is naturally **interprocedural**: the
blocks of every internal function a body can call are part of it.

This pass turns regions into an explicit reachability product the
mutability and returns passes consume:

* ``blocks`` — the region's block starts;
* ``ops`` — the set of opcode names appearing anywhere in the region
  (the input to "does this function ever write state?" questions);
* ``complete`` — the safety valve.  ``True`` only when the CFG fixpoint
  finished (``not rcfg.incomplete``) *and* every ``JUMP``/``JUMPI``
  terminator inside the region was classified (resolved or provably
  invalid, never unresolved).  An open region may reach code the static
  walk cannot see, so downstream passes must degrade to "unknown"
  instead of trusting the op set — the same posture as
  ``ContractAnalysis.closed_regions``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet

from repro.analysis.dataflow import ResolvedCFG
from repro.analysis.dispatcher import DispatcherReport


@dataclass(frozen=True)
class ReachableFunction:
    """The statically reachable footprint of one public function."""

    selector: int
    entry: int
    blocks: FrozenSet[int]
    #: Opcode names appearing anywhere in the region.
    ops: FrozenSet[str]
    #: True when the region is closed: every jump inside it classified
    #: and the CFG fixpoint complete.  When False the footprint is a
    #: lower bound only — never base a verdict on it.
    complete: bool


@dataclass
class ReachabilityReport:
    """selector -> :class:`ReachableFunction`, plus the global valve."""

    functions: Dict[int, ReachableFunction]
    #: Mirrors ``ResolvedCFG.incomplete``: the fixpoint hit its safety
    #: valve, so *every* function is incomplete regardless of region.
    incomplete: bool

    def complete_for(self, selector: int) -> bool:
        function = self.functions.get(selector)
        return bool(function and function.complete)


def region_closed(rcfg: ResolvedCFG, region: FrozenSet[int]) -> bool:
    """Every jump terminator in the region classified by the dataflow
    (one never classified at all stays conservative: not closed)."""
    blocks = rcfg.blocks
    for start in region:
        block = blocks.get(start)
        if block is None:
            return False
        terminator = block.terminator
        if terminator.op.name in ("JUMP", "JUMPI"):
            if terminator.pc in rcfg.unresolved_jumps:
                return False
            if (
                terminator.pc not in rcfg.resolved_targets
                and terminator.pc not in rcfg.invalid_targets
            ):
                return False
    return True


def compute_reachability(
    rcfg: ResolvedCFG, dispatcher: DispatcherReport
) -> ReachabilityReport:
    """Fold dispatcher regions into per-selector reachability facts."""
    functions: Dict[int, ReachableFunction] = {}
    for selector, entry in dispatcher.entries.items():
        region = frozenset(dispatcher.regions.get(selector, frozenset()))
        complete = not rcfg.incomplete and region_closed(rcfg, region)
        ops = set()
        for start in region:
            block = rcfg.blocks.get(start)
            if block is None:
                continue
            for ins in block.instructions:
                ops.add(ins.op.name)
        functions[selector] = ReachableFunction(
            selector=selector,
            entry=entry,
            blocks=region,
            ops=frozenset(ops),
            complete=complete,
        )
    return ReachabilityReport(
        functions=functions, incomplete=bool(rcfg.incomplete)
    )
