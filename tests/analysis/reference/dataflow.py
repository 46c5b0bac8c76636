"""Frozen reference: jump resolution with its own block walker."""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.dataflow import ResolvedCFG
from repro.evm.cfg import BasicBlock, ControlFlowGraph

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

_WORD = 1 << 256
_MASK = _WORD - 1

_FOLD = {
    "ADD": lambda a, b: (a + b) & _MASK,
    "SUB": lambda a, b: (a - b) & _MASK,
    "MUL": lambda a, b: (a * b) & _MASK,
    "DIV": lambda a, b: (a // b) & _MASK if b else 0,
    "MOD": lambda a, b: (a % b) & _MASK if b else 0,
    "EXP": lambda a, b: pow(a, b, _WORD),
    "AND": lambda a, b: a & b,
    "OR": lambda a, b: a | b,
    "XOR": lambda a, b: a ^ b,
    "SHL": lambda a, b: (b << a) & _MASK if a < 256 else 0,
    "SHR": lambda a, b: b >> a if a < 256 else 0,
}


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


def _cross_fold(fold, a: FrozenSet[int], b: FrozenSet[int]) -> AbsValue:
    out: Set[int] = set()
    for x in a:
        for y in b:
            out.add(fold(x, y))
            if len(out) > MAX_SET:
                return None
    return frozenset(out)


class _BlockFlow:
    """Transfer-function output for one block under one in-state."""

    __slots__ = ("out_stack", "jump_targets", "jump_pc")

    def __init__(self) -> None:
        self.out_stack: Tuple[AbsValue, ...] = ()
        self.jump_targets: AbsValue = None
        self.jump_pc: Optional[int] = None


def _transfer(block: BasicBlock, in_stack: Tuple[AbsValue, ...]) -> _BlockFlow:
    """Abstractly execute ``block`` from ``in_stack`` (top-first)."""
    stack: List[AbsValue] = list(in_stack)

    def pop() -> AbsValue:
        return stack.pop(0) if stack else None

    def push(value: AbsValue) -> None:
        stack.insert(0, value)
        if len(stack) > MAX_STACK:
            del stack[MAX_STACK:]

    flow = _BlockFlow()
    for ins in block.instructions:
        op = ins.op
        name = op.name
        if op.is_push:
            push(frozenset((ins.operand or 0,)))
        elif op.is_dup:
            depth = op.code - 0x7F
            push(stack[depth - 1] if depth <= len(stack) else None)
        elif op.is_swap:
            depth = op.code - 0x8F
            while len(stack) < depth + 1:
                stack.append(None)
            stack[0], stack[depth] = stack[depth], stack[0]
        elif name in ("JUMP", "JUMPI"):
            flow.jump_pc = ins.pc
            flow.jump_targets = pop()
            if name == "JUMPI":
                pop()
        elif name in _FOLD:
            a, b = pop(), pop()
            if a is not None and b is not None:
                push(_cross_fold(_FOLD[name], a, b))
            else:
                push(None)
        elif name == "NOT":
            a = pop()
            push(
                frozenset((~x) & _MASK for x in a) if a is not None else None
            )
        else:
            for _ in range(op.pops):
                pop()
            for _ in range(op.pushes):
                push(None)
    flow.out_stack = tuple(stack)
    return flow


def resolve_jumps(cfg: ControlFlowGraph) -> ResolvedCFG:
    """Run the push-constant dataflow and return the augmented CFG."""
    blocks = cfg.blocks
    dests = cfg.valid_jumpdests

    in_states: Dict[int, Tuple[AbsValue, ...]] = {cfg.entry: ()}
    resolved: Dict[int, Set[int]] = {}
    invalid: Dict[int, Set[int]] = {}
    unresolved: Set[int] = set()
    successors: Dict[int, Set[int]] = {
        start: set(block.successors) for start, block in blocks.items()
    }

    visits: Dict[int, int] = {}
    incomplete = False
    work: List[int] = [cfg.entry] if cfg.entry in blocks else []
    on_work: Set[int] = set(work)

    def propagate(target: int, out_stack: Tuple[AbsValue, ...]) -> None:
        if target not in blocks:
            return
        current = in_states.get(target)
        joined = out_stack if current is None else _join_stacks(current, out_stack)
        if current is None or joined != current:
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
        flow = _transfer(block, in_states.get(start, ()))
        terminator = block.terminator
        name = terminator.op.name

        if flow.jump_pc is not None:
            if flow.jump_targets is None:
                unresolved.add(flow.jump_pc)
            else:
                unresolved.discard(flow.jump_pc)
                good = resolved.setdefault(flow.jump_pc, set())
                bad = invalid.setdefault(flow.jump_pc, set())
                for target in flow.jump_targets:
                    (good if target in dests else bad).add(target)
                for target in good:
                    if target not in successors[start]:
                        successors[start].add(target)
                    propagate(target, flow.out_stack)
                if not bad:
                    invalid.pop(flow.jump_pc, None)
        if name == "JUMPI" or (
            flow.jump_pc is None
            and not terminator.op.is_terminator
            and name != "UNKNOWN"
        ):
            propagate(terminator.next_pc, flow.out_stack)

    # A jump that stayed unresolved on every visit but also never saw a
    # constant is input-dependent; one resolved on a later visit leaves
    # the unresolved set above.  Jumps in blocks the fixpoint never
    # reached (dead code) are reported as neither.
    return ResolvedCFG(
        base=cfg,
        successors={s: frozenset(v) for s, v in successors.items()},
        resolved_targets={pc: frozenset(v) for pc, v in resolved.items()},
        unresolved_jumps=frozenset(unresolved),
        invalid_targets={pc: frozenset(v) for pc, v in invalid.items()},
        incomplete=incomplete,
    )
