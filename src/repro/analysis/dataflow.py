"""Jump-target resolution via push-constant stack dataflow.

The base CFG (:mod:`repro.evm.cfg`) only resolves jumps whose ``PUSH``
target immediately precedes them; everything else is left to the
symbolic executor.  This pass closes most of that gap statically: it
runs a fixpoint over the CFG with an abstract stack whose values are
small *sets of constants* (or unknown), executing PUSH/DUP/SWAP/POP and
constant-foldable arithmetic exactly.  A jump whose abstract target is a
constant set becomes a set of static edges — including the
return-address dispatch of internal calls, where several callers push
different return targets into one shared block.

The result is a :class:`ResolvedCFG`: the base CFG plus the augmented
edge set, a per-jump resolution table, and the jumps that remain
genuinely input-dependent.  Soundness: an abstract value is either the
exact set of every constant that can occupy that slot, or unknown —
operations the fold does not model always produce unknown, so a
resolved target set over-approximates nothing and misses nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.walker import FOLDS, Jump, Machine, record_jump, walk
from repro.evm.cfg import BasicBlock, ControlFlowGraph, build_cfg

#: An abstract stack slot: a frozenset of possible constants, or None
#: for "any value".
AbsValue = Optional[FrozenSet[int]]

#: Constant sets wider than this collapse to unknown.
MAX_SET = 8
#: Abstract stacks deeper than this drop their bottom entries.
MAX_STACK = 64
#: Fixpoint safety valve: worklist pops before the pass gives up and
#: reports itself incomplete (monotone lattice ⇒ normally unreachable).
_MAX_VISITS_PER_BLOCK = 4 * (MAX_SET + 2) * MAX_STACK

_MASK = (1 << 256) - 1


@dataclass
class ResolvedCFG:
    """The base CFG with dataflow-resolved jump edges layered on top."""

    base: ControlFlowGraph
    #: Block start -> full successor set (static + resolved edges).
    successors: Dict[int, FrozenSet[int]]
    #: Jump pc -> the valid-JUMPDEST targets the dataflow proved.
    resolved_targets: Dict[int, FrozenSet[int]]
    #: Jump pcs whose target remains input-dependent after the pass.
    unresolved_jumps: FrozenSet[int]
    #: Jump pc -> constant targets that are *not* valid JUMPDESTs
    #: (taking the jump with one of these always throws).
    invalid_targets: Dict[int, FrozenSet[int]]
    #: True when the fixpoint hit its safety valve; resolution data is
    #: then a partial under-approximation and must not drive pruning.
    incomplete: bool = False

    @property
    def blocks(self) -> Dict[int, BasicBlock]:
        return self.base.blocks

    @property
    def entry(self) -> int:
        return self.base.entry

    @property
    def valid_jumpdests(self) -> FrozenSet[int]:
        return self.base.valid_jumpdests

    def reachable_from(self, start: int) -> FrozenSet[int]:
        """Block starts reachable from ``start`` along resolved edges."""
        seen: Set[int] = set()
        work = [start]
        blocks = self.base.blocks
        while work:
            current = work.pop()
            if current in seen or current not in blocks:
                continue
            seen.add(current)
            work.extend(self.successors.get(current, ()))
        return frozenset(seen)


def _join_values(a: AbsValue, b: AbsValue) -> AbsValue:
    if a is None or b is None:
        return None
    union = a | b
    return union if len(union) <= MAX_SET else None


def _join_stacks(
    a: Tuple[AbsValue, ...], b: Tuple[AbsValue, ...]
) -> Tuple[AbsValue, ...]:
    """Elementwise join, aligned at the stack top (index 0)."""
    depth = min(len(a), len(b))
    return tuple(_join_values(a[i], b[i]) for i in range(depth))


def _folder(fold):
    def handler(_flow, _ins, a: AbsValue, b: AbsValue) -> AbsValue:
        if a is None or b is None:
            return None
        out = {fold(x, y) for x in a for y in b}
        return frozenset(out) if len(out) <= MAX_SET else None

    return handler


def _not(_flow, _ins, a: AbsValue) -> AbsValue:
    return frozenset((~x) & _MASK for x in a) if a is not None else None


_MACHINE = Machine(
    unknown=None,
    cap=MAX_STACK,
    const=lambda value: frozenset((value,)),
    handlers={
        "JUMP": record_jump,
        "JUMPI": record_jump,
        "NOT": _not,
        **{name: _folder(fold) for name, fold in FOLDS.items()},
    },
)


def resolve_jumps(cfg: ControlFlowGraph) -> ResolvedCFG:
    """Run the push-constant dataflow and return the augmented CFG."""
    blocks = cfg.blocks
    dests = cfg.valid_jumpdests

    # In-states are top-first tuples (index 0 = stack top), so joins
    # align at the top by position.
    in_states: Dict[int, Tuple[AbsValue, ...]] = {cfg.entry: ()}
    resolved: Dict[int, Set[int]] = {}
    invalid: Dict[int, Set[int]] = {}
    unresolved: Set[int] = set()
    # Resolved edges only; static ones are read off the blocks.
    added: Dict[int, Set[int]] = {}

    visits: Dict[int, int] = {}
    incomplete = False
    work: List[int] = [cfg.entry] if cfg.entry in blocks else []
    on_work: Set[int] = set(work)
    flow = Jump()

    def propagate(target: int, out_stack: Tuple[AbsValue, ...]) -> None:
        if target not in blocks:
            return
        current = in_states.get(target)
        if current is None:
            joined = out_stack
        elif current == out_stack:
            return
        else:
            joined = _join_stacks(current, out_stack)
            if joined == current:
                return
        in_states[target] = joined
        if target not in on_work:
            work.append(target)
            on_work.add(target)

    while work:
        start = work.pop()
        on_work.discard(start)
        count = visits.get(start, 0) + 1
        visits[start] = count
        if count > _MAX_VISITS_PER_BLOCK:
            incomplete = True
            continue
        block = blocks[start]
        flow.jumped = False
        stack = walk(_MACHINE, flow, block, list(reversed(in_states.get(start, ()))))
        stack.reverse()
        out_stack = tuple(stack)
        terminator = block.terminator
        if flow.jumped:
            jump_pc = terminator.pc
            if flow.target is None:
                unresolved.add(jump_pc)
            else:
                unresolved.discard(jump_pc)
                good = resolved.setdefault(jump_pc, set())
                bad = invalid.setdefault(jump_pc, set())
                for target in flow.target:
                    (good if target in dests else bad).add(target)
                added.setdefault(start, set()).update(good)
                for target in good:
                    propagate(target, out_stack)
                if not bad:
                    invalid.pop(jump_pc, None)
        if block.falls_through:
            propagate(terminator.next_pc, out_stack)

    # A jump that stayed unresolved on every visit but also never saw a
    # constant is input-dependent; one resolved on a later visit leaves
    # the unresolved set above.  Jumps in blocks the fixpoint never
    # reached (dead code) are reported as neither.
    return ResolvedCFG(
        base=cfg,
        successors={
            start: frozenset(block.successors.union(added.get(start, ())))
            for start, block in blocks.items()
        },
        resolved_targets={pc: frozenset(v) for pc, v in resolved.items()},
        unresolved_jumps=frozenset(unresolved),
        invalid_targets={pc: frozenset(v) for pc, v in invalid.items()},
        incomplete=incomplete,
    )


def resolve_bytecode(bytecode: bytes) -> ResolvedCFG:
    """Convenience: CFG construction plus jump resolution."""
    return resolve_jumps(build_cfg(bytecode))
