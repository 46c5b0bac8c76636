"""Frozen reference: return-shape recovery with its own RETURN-site simulator."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis.dataflow import ResolvedCFG
from repro.analysis.dispatcher import DispatcherReport
from repro.analysis.reachability import ReachabilityReport, ReachableFunction
from repro.analysis.returns import FunctionReturns, ReturnsReport

_MASK = (1 << 256) - 1
_MAX_STACK = 24
#: Highest memory offset tracked (and cap on tracked words): return
#: buffers live in low memory; unbounded tracking would let crafted
#: bytecode blow up the state space.
_MEMORY_LIMIT = 1 << 24
_MAX_MEMORY_WORDS = 256
#: Largest head believed: 16 words is far beyond any real signature.
_MAX_WORDS = 16

#: One RETURN site: (pc, offset, length, memory image).  ``None`` for
#: offset/length means symbolic; memory maps const offsets to const
#: values or ``None`` for runtime-computed stores.
_Site = Tuple[int, Optional[int], Optional[int], Dict[int, Optional[int]]]


def _fold(name: str, a: Optional[int], b: Optional[int]) -> Optional[int]:
    """Constant-fold ``name(a, b)`` with EVM operand order (a popped
    first); ``None`` operands poison the result."""
    if a is None or b is None:
        return None
    if name == "ADD":
        return (a + b) & _MASK
    if name == "SUB":
        return (a - b) & _MASK
    if name == "MUL":
        return (a * b) & _MASK
    if name == "AND":
        return a & b
    if name == "OR":
        return a | b
    if name == "XOR":
        return a ^ b
    if name == "SHL":
        return (b << a) & _MASK if a < 256 else 0
    if name == "SHR":
        return b >> a if a < 256 else 0
    return None


def _block_site(block) -> Optional[_Site]:
    """Simulate one RETURN-terminated block from an unknown entry state.

    Returns the block's RETURN site, or ``None`` when the block does
    not RETURN.  Values inherited from predecessors are symbolic: a
    pop past the simulated stack yields ``None``, as does a load of an
    untracked memory word.
    """
    stack: List[Optional[int]] = []
    memory: Dict[int, Optional[int]] = {}

    def pop() -> Optional[int]:
        return stack.pop(0) if stack else None

    def push(value: Optional[int]) -> None:
        stack.insert(0, value)
        del stack[_MAX_STACK:]

    for ins in block.instructions:
        op = ins.op
        name = op.name
        if op.is_push:
            push(ins.operand or 0)
        elif op.is_dup:
            depth = op.code - 0x7F
            push(stack[depth - 1] if depth <= len(stack) else None)
        elif op.is_swap:
            depth = op.code - 0x8F
            while len(stack) < depth + 1:
                stack.append(None)
            stack[0], stack[depth] = stack[depth], stack[0]
        elif name == "MSTORE":
            loc, value = pop(), pop()
            if loc is not None and loc < _MEMORY_LIMIT:
                if loc in memory or len(memory) < _MAX_MEMORY_WORDS:
                    memory[loc] = value
            # Symbolic-offset stores do not clobber the tracked
            # image: our return buffers are written last, and the
            # storage pass documents the same free-memory-pointer
            # rationale.
        elif name == "MLOAD":
            loc = pop()
            if loc is not None and loc in memory:
                push(memory[loc])
            else:
                push(None)
        elif name in ("CALLDATACOPY", "CODECOPY", "RETURNDATACOPY"):
            dest, _src, length = pop(), pop(), pop()
            if dest is not None and length is not None:
                end = min(dest + length, _MEMORY_LIMIT)
                word = dest - dest % 32
                while word < end and len(memory) < _MAX_MEMORY_WORDS:
                    memory[word] = None
                    word += 32
        elif name == "RETURN":
            offset, length = pop(), pop()
            return (ins.pc, offset, length, memory)
        elif op.pops == 2 and op.pushes == 1:
            a, b = pop(), pop()
            push(_fold(name, a, b))
        else:
            for _ in range(op.pops):
                pop()
            for _ in range(op.pushes):
                push(None)
    return None


def _return_sites(rcfg: ResolvedCFG) -> Dict[int, _Site]:
    """block start -> RETURN site, simulated once for the contract."""
    sites: Dict[int, _Site] = {}
    for start, block in rcfg.blocks.items():
        if any(ins.op.name == "RETURN" for ins in block.instructions):
            site = _block_site(block)
            if site is not None:
                sites[start] = site
    return sites


def _site_shape(
    offset: Optional[int], length: Optional[int], memory: Dict[int, Optional[int]]
) -> Optional[Tuple[str, ...]]:
    """The head/tail skeleton of one RETURN site, or ``None``."""
    if offset is None or length is None:
        return None
    if length == 0:
        return ()
    if length % 32 or length // 32 > _MAX_WORDS:
        return None
    boundary = length
    words: List[str] = []
    index = 0
    while index * 32 < boundary:
        value = memory.get(offset + 32 * index)
        if (
            value is not None
            and 32 <= value < length
            and value % 32 == 0
            and value > index * 32
        ):
            # A plausible dynamic-tail offset; the word it points at
            # must hold a length that fits inside the buffer.
            tail_length = memory.get(offset + value)
            if tail_length is None:
                return None
            padded = (tail_length + 31) // 32 * 32
            if value + 32 + padded > length:
                return None
            words.append("bytes")
            boundary = min(boundary, value)
        else:
            words.append("uint256")
        index += 1
    return tuple(words)


def _function_returns(
    function: ReachableFunction, sites_by_block: Dict[int, _Site]
) -> FunctionReturns:
    selector = function.selector
    if not function.complete:
        return FunctionReturns(selector=selector, shape=None)
    if "RETURN" not in function.ops:
        # Every path halts via STOP/REVERT: provably no outputs.
        return FunctionReturns(selector=selector, shape=())
    sites = sorted(
        sites_by_block[start]
        for start in function.blocks
        if start in sites_by_block
    )
    if not sites:
        # RETURN appears in the region but no site was recoverable —
        # report unknown rather than claiming "no outputs".
        return FunctionReturns(selector=selector, shape=None)
    shapes = {
        _site_shape(offset, length, memory)
        for _pc, offset, length, memory in sites
    }
    pcs = tuple(sorted({pc for pc, _o, _l, _m in sites}))
    if len(shapes) != 1 or None in shapes:
        return FunctionReturns(selector=selector, shape=None, sites=pcs)
    return FunctionReturns(selector=selector, shape=shapes.pop(), sites=pcs)


def recover_returns(
    rcfg: ResolvedCFG,
    dispatcher: DispatcherReport,
    reach: ReachabilityReport,
) -> ReturnsReport:
    """Recover every dispatched function's output skeleton."""
    sites_by_block = _return_sites(rcfg)
    return ReturnsReport(functions={
        selector: _function_returns(function, sites_by_block)
        for selector, function in reach.functions.items()
    })
