"""Frozen reference: the static dispatcher walk with its own block walker."""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.dataflow import ResolvedCFG
from repro.analysis.dispatcher import DispatcherReport
from repro.analysis.stackcheck import Finding

_SHIFT_224 = 224
_DIV_2_224 = 1 << 224
_SELECTOR_MASK = 0xFFFFFFFF

# Token kinds.
_CONST = "c"
_CD0 = "cd0"  # CALLDATALOAD(0): the raw first call-data word
_FID = "fid"  # the extracted 4-byte function id
_SELCMP = "sel"  # EQ(fid, <constant>)
_UNKNOWN = "?"

_Token = Tuple  # ("c", v) | ("cd0",) | ("fid",) | ("sel", v) | ("?",)

#: How often one block may be (re)walked with distinct abstract states;
#: real dispatchers are acyclic, so this only guards crafted loops.
_MAX_VISITS = 32
_MAX_STACK = 32


def _unknown_token() -> _Token:
    return (_UNKNOWN,)


def _is_const(token: _Token, value: Optional[int] = None) -> bool:
    return token[0] == _CONST and (value is None or token[1] == value)


def _binop_token(name: str, a: _Token, b: _Token) -> _Token:
    """a = stack top (popped first), b = next — EVM operand order."""
    if name == "CALLDATALOAD":
        raise AssertionError("handled by caller")
    if name == "DIV" and a[0] == _CD0 and _is_const(b, _DIV_2_224):
        return (_FID,)
    if name == "SHR" and _is_const(a, _SHIFT_224) and b[0] == _CD0:
        return (_FID,)
    if name == "AND":
        if a[0] == _FID and _is_const(b, _SELECTOR_MASK):
            return (_FID,)
        if b[0] == _FID and _is_const(a, _SELECTOR_MASK):
            return (_FID,)
    if name == "EQ":
        if a[0] == _FID and _is_const(b) and b[1] <= _SELECTOR_MASK:
            return (_SELCMP, b[1])
        if b[0] == _FID and _is_const(a) and a[1] <= _SELECTOR_MASK:
            return (_SELCMP, a[1])
    return _unknown_token()


def _walk_block(
    block, stack: List[_Token]
) -> Tuple[List[_Token], Optional[_Token], Optional[_Token]]:
    """Execute one block; returns (out_stack, jump_target, jump_cond)."""
    jump_target: Optional[_Token] = None
    jump_cond: Optional[_Token] = None

    def pop() -> _Token:
        return stack.pop(0) if stack else _unknown_token()

    def push(token: _Token) -> None:
        stack.insert(0, token)
        del stack[_MAX_STACK:]

    for ins in block.instructions:
        op = ins.op
        name = op.name
        if op.is_push:
            push((_CONST, ins.operand or 0))
        elif op.is_dup:
            depth = op.code - 0x7F
            push(stack[depth - 1] if depth <= len(stack) else _unknown_token())
        elif op.is_swap:
            depth = op.code - 0x8F
            while len(stack) < depth + 1:
                stack.append(_unknown_token())
            stack[0], stack[depth] = stack[depth], stack[0]
        elif name == "CALLDATALOAD":
            loc = pop()
            push((_CD0,) if _is_const(loc, 0) else _unknown_token())
        elif name == "JUMP":
            jump_target = pop()
        elif name == "JUMPI":
            jump_target = pop()
            jump_cond = pop()
        elif op.pops == 2 and op.pushes == 1:
            a, b = pop(), pop()
            push(_binop_token(name, a, b))
        else:
            for _ in range(op.pops):
                pop()
            for _ in range(op.pushes):
                push(_unknown_token())
    return stack, jump_target, jump_cond


def extract_dispatch(rcfg: ResolvedCFG) -> DispatcherReport:
    """Walk the dispatcher statically and map selectors to entry blocks."""
    blocks = rcfg.blocks
    findings: List[Finding] = []
    entries: Dict[int, int] = {}
    visited_blocks: Set[int] = set()
    if rcfg.entry not in blocks:
        return DispatcherReport(findings=tuple(findings))

    visits: Dict[int, int] = {}
    work: List[Tuple[int, Tuple[_Token, ...]]] = [(rcfg.entry, ())]
    seen_states: Set[Tuple[int, Tuple[_Token, ...]]] = {(rcfg.entry, ())}

    while work:
        start, in_stack = work.pop()
        block = blocks.get(start)
        if block is None:
            continue
        count = visits.get(start, 0) + 1
        if count > _MAX_VISITS:
            continue
        visits[start] = count
        visited_blocks.add(start)

        out, target, cond = _walk_block(block, list(in_stack))
        terminator = block.terminator
        name = terminator.op.name

        def enqueue(succ: int, stack_out: List[_Token]) -> None:
            state = (succ, tuple(stack_out))
            if succ in blocks and state not in seen_states:
                seen_states.add(state)
                work.append(state)

        if name == "JUMPI" and cond is not None and cond[0] == _SELCMP:
            selector = cond[1]
            if target is not None and _is_const(target):
                dest = target[1]
                if dest in rcfg.valid_jumpdests:
                    previous = entries.get(selector)
                    if previous is not None and previous != dest:
                        findings.append(
                            Finding(
                                "dispatcher-conflict",
                                terminator.pc,
                                f"selector 0x{selector:08x} dispatched to "
                                f"both {previous:#x} and {dest:#x}",
                                severity="warning",
                            )
                        )
                    else:
                        entries[selector] = dest
            # Continue down the not-matched side only.
            enqueue(terminator.next_pc, out)
            continue

        if name == "JUMP":
            for succ in rcfg.resolved_targets.get(terminator.pc, ()):
                enqueue(succ, out)
        elif name == "JUMPI":
            for succ in rcfg.resolved_targets.get(terminator.pc, ()):
                enqueue(succ, out)
            enqueue(terminator.next_pc, out)
        elif not terminator.op.is_terminator and name != "UNKNOWN":
            enqueue(terminator.next_pc, out)

    regions = {
        selector: rcfg.reachable_from(entry)
        for selector, entry in entries.items()
    }
    unreachable = frozenset(blocks) - rcfg.reachable_from(rcfg.entry)
    return DispatcherReport(
        selectors=tuple(sorted(entries)),
        entries=entries,
        dispatcher_blocks=frozenset(visited_blocks),
        regions=regions,
        unreachable=unreachable,
        findings=tuple(findings),
    )
