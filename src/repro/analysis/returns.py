"""Return-shape recovery: output type skeletons from RETURN sites.

The ABI encodes a function's outputs exactly like its inputs: a *head*
of 32-byte words — the value itself for static types, an offset into
the *tail* for dynamic ones — followed by the tail (length word plus
padded data for ``bytes``/``string``).  A compiler therefore ends every
value-returning path with ``RETURN(p, l)`` over a buffer it just
populated, and the buffer's shape betrays the output types:

* ``l`` is a multiple of 32: the word count is the head size;
* a head word holding a **constant** that is word-aligned, inside the
  buffer, and past its own position is a dynamic-tail offset, and the
  word it points at must hold a plausible length — that output is a
  ``bytes``-like skeleton;
* any other head word (computed at run time) is a static 32-byte word,
  reported as the ``uint256`` skeleton.

Compilers emit the encode-and-RETURN sequence as one straight line —
constant offsets pushed, head and tail words stored, ``RETURN`` — so
the whole site sits inside the basic block the ``RETURN`` terminates.
This pass exploits that: every RETURN-terminated block is simulated
**once per contract** with a constant-folding stack and a
constant-offset memory image, starting from an *unknown* entry state
(pops past the simulated stack yield symbolic values, loads of
untracked memory yield symbolic words).  Per function, the sites of
the blocks inside its reachable region are collected and one shape is
inferred per site.  The per-function verdict never guesses:

* region not complete -> ``None`` (unknown);
* sites disagree, or any site's offset/length/layout stays symbolic ->
  ``None`` — a value flowing in from a predecessor block reads as
  symbolic, degrading toward unknown, never toward a wrong shape;
* ``RETURN`` unreachable (all paths ``STOP``/``REVERT``) -> ``()``,
  the empty output list.

Skeletons deliberately stop at word granularity: a static word reads
as ``uint256`` whether the source declared ``address`` or ``bool``
(indistinguishable at the RETURN site), and every dynamic tail reads
as ``bytes``.  Ground-truth scoring maps declared types through the
same skeleton (``repro.compiler.effects.returns_skeleton``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.dataflow import ResolvedCFG
from repro.analysis.dispatcher import DispatcherReport
from repro.analysis.reachability import ReachabilityReport, ReachableFunction
from repro.analysis.walker import FOLDS, Machine, walk

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


@dataclass(frozen=True)
class FunctionReturns:
    """One function's recovered output skeleton."""

    selector: int
    #: ``None`` = unknown; ``()`` = provably no outputs; otherwise a
    #: tuple of ``"uint256"`` / ``"bytes"`` skeleton types.
    shape: Optional[Tuple[str, ...]]
    #: The RETURN pcs the verdict is based on (sorted).
    sites: Tuple[int, ...] = ()


@dataclass
class ReturnsReport:
    """selector -> :class:`FunctionReturns`."""

    functions: Dict[int, FunctionReturns]


class _Buffer:
    """Walk state: the memory image and the RETURN operands."""

    __slots__ = ("memory", "offset", "length")

    def __init__(self) -> None:
        self.memory: Dict[int, Optional[int]] = {}
        self.offset = self.length = None


def _folder(fold):
    """A constant fold; ``None`` operands poison the result."""

    def handler(_site, _ins, a: Optional[int], b: Optional[int]) -> Optional[int]:
        if a is None or b is None:
            return None
        return fold(a, b)

    return handler


def _mstore(site: _Buffer, _ins, loc: Optional[int], value: Optional[int]) -> None:
    memory = site.memory
    if loc is not None and loc < _MEMORY_LIMIT:
        if loc in memory or len(memory) < _MAX_MEMORY_WORDS:
            memory[loc] = value
    # Symbolic-offset stores do not clobber the tracked image: our
    # return buffers are written last, and the storage pass documents
    # the same free-memory-pointer rationale.


def _mload(site: _Buffer, _ins, loc: Optional[int]) -> Optional[int]:
    return site.memory.get(loc)  # untracked (or symbolic) -> None


def _copy(site: _Buffer, _ins, dest, _src, length) -> None:
    """CALLDATACOPY/CODECOPY/RETURNDATACOPY: runtime words over
    ``[dest, dest + length)``."""
    if dest is not None and length is not None:
        memory = site.memory
        end = min(dest + length, _MEMORY_LIMIT)
        word = dest - dest % 32
        while word < end and len(memory) < _MAX_MEMORY_WORDS:
            memory[word] = None
            word += 32


def _return(site: _Buffer, _ins, offset: Optional[int], length: Optional[int]) -> None:
    site.offset = offset
    site.length = length


_MACHINE = Machine(
    unknown=None,
    cap=_MAX_STACK,
    const=int,
    handlers={
        **{
            name: _folder(FOLDS[name])
            for name in ("ADD", "SUB", "MUL", "AND", "OR", "XOR", "SHL", "SHR")
        },
        "MSTORE": _mstore,
        "MLOAD": _mload,
        "CALLDATACOPY": _copy,
        "CODECOPY": _copy,
        "RETURNDATACOPY": _copy,
        "RETURN": _return,
    },
)


def _return_sites(rcfg: ResolvedCFG) -> Dict[int, _Site]:
    """block start -> RETURN site, simulated once for the contract from
    an unknown entry state (a pop past the simulated stack and a load
    of an untracked word yield ``None``)."""
    sites: Dict[int, _Site] = {}
    for start, block in rcfg.blocks.items():
        terminator = block.terminator
        if terminator.op.name == "RETURN":
            site = _Buffer()
            walk(_MACHINE, site, block, [])
            sites[start] = (terminator.pc, site.offset, site.length, site.memory)
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
