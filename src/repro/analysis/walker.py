"""One abstract stack machine under the static passes.

The passes that execute blocks — ``jumps``, ``dispatcher``, ``storage``,
``returns`` and ``mutability`` — differ only in their tokens and in the
few opcodes each models.  A block compiles once, on first use, into an
op stream through one table indexed by opcode byte, kept on the
:class:`~repro.evm.cfg.BasicBlock` (so it dies with its CFG).
:func:`walk` runs a stream over a list whose top is at the end: PUSH,
DUP, SWAP and "pop the operands, push one unknown" run inline, and a
pass's handler runs only for an opcode its :class:`Machine` models.  A
handler gets the walk state, the instruction and the popped operands
(top first) and returns the token to push.  A pop past the bottom reads
the unknown token, a push past the cap drops the bottom entry, and a
SWAP deeper than the stack first pads the bottom with unknown tokens.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.evm.opcodes import OPCODES, opcode_by_name

_WORD = 1 << 256
_MASK = _WORD - 1

#: 256-bit constant folds, ``fold(a, b)`` with ``a`` the stack top.
FOLDS: Dict[str, Callable[[int, int], int]] = {
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

# A stream entry is (tag, a, b, instruction):
#   PUSH    tag -1, a = value, b = ("c", value)
#   DUPn    tag -2, a = -n (index of the copied entry)
#   SWAPn   tag -3, a = -(n + 1) (index swapped with the top), b = n + 1
#   other   tag = opcode byte (256 for UNKNOWN), a = pops, b = pushes (0/1)
_PUSH, _DUP, _SWAP = -1, -2, -3


def _table_entry(code: int) -> Tuple[int, int, int]:
    op = OPCODES.get(code)
    if op is None:
        return (256, 0, 0)
    if op.is_push:
        return (_PUSH, 0, 0)
    if op.is_dup:
        return (_DUP, 0x7F - code, 0)
    if op.is_swap:
        return (_SWAP, 0x8E - code, code - 0x8E)
    return (code, op.pops, op.pushes)


#: Indexed by opcode byte; UNKNOWN's code, -1, reads the last entry.
_TABLE: List[Tuple[int, int, int]] = [_table_entry(code) for code in range(257)]


def _compile(block) -> tuple:
    table = _TABLE
    out = []
    append = out.append
    for ins in block.instructions:
        tag, a, b = table[ins.op.code]
        if tag == _PUSH:
            a = ins.operand or 0
            b = ("c", a)
        append((tag, a, b, ins))
    ops = block.ops = tuple(out)
    return ops


class Machine:
    """A pass's tokens and the opcodes it models.

    ``unknown`` is the token of an untracked value, ``cap`` the stack
    depth limit, ``const(value)`` a PUSH's token (``None``: the
    ``("c", value)`` tuple), ``handlers`` mnemonic -> handler.
    """

    __slots__ = ("unknown", "cap", "const", "handlers")

    def __init__(
        self,
        unknown: object,
        cap: int,
        handlers: Dict[str, Callable[..., object]],
        const: Optional[Callable[[int], object]] = None,
    ) -> None:
        self.unknown = unknown
        self.cap = cap
        self.const = const
        self.handlers: List[Optional[Callable[..., object]]] = [None] * 257
        for name, handler in handlers.items():
            code = opcode_by_name(name).code
            if _TABLE[code][0] < 0:
                raise ValueError(f"{name} is a stack-shape op the kernel owns")
            self.handlers[code] = handler


class Jump:
    """Walk state: the operands of the block's terminating JUMP/JUMPI."""

    __slots__ = ("jumped", "target", "cond")

    def __init__(self) -> None:
        self.jumped = False
        self.target: object = None
        self.cond: object = None


def record_jump(state: Jump, _ins, target: object, cond: object = None) -> None:
    """The JUMP/JUMPI handler of a pass whose state is a :class:`Jump`."""
    state.jumped = True
    state.target = target
    state.cond = cond


def walk(machine: Machine, state: object, block, stack: list) -> list:
    """Run ``block`` over ``stack`` (top at the end) in place."""
    ops = block.ops
    if ops is None:
        ops = _compile(block)
    unknown = machine.unknown
    cap = machine.cap
    const = machine.const
    handlers = machine.handlers
    append = stack.append
    pop = stack.pop
    for tag, a, b, ins in ops:
        if tag >= 0:
            handler = handlers[tag]
            if handler is None:
                if a:
                    del stack[-a:]
                if not b:
                    continue
                value = unknown
            elif a == 2:
                top = pop() if stack else unknown
                value = handler(state, ins, top, pop() if stack else unknown)
            elif a == 1:
                value = handler(state, ins, pop() if stack else unknown)
            else:
                value = handler(state, ins, *[pop() if stack else unknown for _ in range(a)])
            if b:
                append(value)
                if len(stack) > cap:
                    del stack[0]
        elif tag == _PUSH:
            append(b if const is None else const(a))
            if len(stack) > cap:
                del stack[0]
        elif tag == _DUP:
            append(stack[a] if -a <= len(stack) else unknown)
            if len(stack) > cap:
                del stack[0]
        else:
            if len(stack) < b:
                stack[:0] = [unknown] * (b - len(stack))
            stack[-1], stack[a] = stack[a], stack[-1]
    return stack


def explore(blocks: dict, initial: tuple, max_visits: int, visit) -> None:
    """Visit each distinct node ``(block start, *abstract state)`` once,
    depth-first, and each block at most ``max_visits`` times;
    ``visit(block, node)`` returns the successor nodes."""
    visits: Dict[int, int] = {}
    work = [initial]
    seen = {initial}
    while work:
        node = work.pop()
        start = node[0]
        block = blocks.get(start)
        if block is None:
            continue
        count = visits.get(start, 0) + 1
        if count > max_visits:
            continue
        visits[start] = count
        for successor in visit(block, node):
            if successor[0] in blocks and successor not in seen:
                seen.add(successor)
                work.append(successor)
