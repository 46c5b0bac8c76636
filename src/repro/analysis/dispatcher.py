"""Static dispatcher analysis: the selector → entry-block map.

Walks the resolved CFG from the entry with a four-value token domain —
constants, "the first call-data word", "the extracted function id", and
"a comparison of the function id with constant *c*" — precise enough to
recognize every dispatcher shape our compilers (and real solc/vyper)
emit without executing anything:

* ``DIV 2^224`` (pre-Constantinople), ``DIV`` + ``AND 0xffffffff``, and
  ``SHR 224`` function-id extraction;
* linear ``EQ`` chains and binary-search trees (``GT`` splits whose
  leaves are short ``EQ`` chains);
* the optional ``CALLDATASIZE < 4`` fallback check.

A ``JUMPI`` whose condition is ``EQ(<id>, c)`` and whose target is a
resolved constant records ``c → target``; the walk continues down the
not-matched side only, so function bodies are never entered.  Everything
else (size checks, ``GT`` splits) is followed both ways.

The per-selector *region* — the blocks statically reachable from the
entry block along resolved edges — is what the TASE engine uses to
restrict exploration, and the full selector set is the cross-check
oracle for the symbolic dispatcher walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.dataflow import ResolvedCFG
from repro.analysis.stackcheck import Finding
from repro.analysis.walker import Jump, Machine, explore, record_jump, walk

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


@dataclass
class DispatcherReport:
    """Everything the static dispatcher walk discovered."""

    selectors: Tuple[int, ...] = ()
    #: selector -> entry-block start pc.
    entries: Dict[int, int] = field(default_factory=dict)
    #: Block starts visited while walking the dispatcher itself.
    dispatcher_blocks: FrozenSet[int] = frozenset()
    #: selector -> block starts statically reachable from its entry.
    regions: Dict[int, FrozenSet[int]] = field(default_factory=dict)
    #: Block starts unreachable from the contract entry (dead code or
    #: trailing data).
    unreachable: FrozenSet[int] = frozenset()
    findings: Tuple[Finding, ...] = ()


def region_preimage(
    rcfg, report: "DispatcherReport", bytecode: bytes, selector: int
) -> Optional[bytes]:
    """The byte string that determines one function's recovery.

    A selector-sharded TASE run is a deterministic function of (a) the
    dispatcher spine it walks from pc 0 to the function entry and (b)
    the function's statically reachable region — both taken as raw
    (start, bytes) block spans, so absolute jump targets are part of
    the key and two layouts never collide.  Hashing this preimage
    (together with the selector and the engine-options fingerprint) is
    what lets a proxy/clone corpus — identical code bodies under
    differing metadata trailers or sibling constants — recover each
    shared body once.

    Returns ``None`` when the selector has no entry or its region is
    unknown; the caller must additionally gate on the region being
    *closed* (every jump resolved) before trusting the preimage.
    """
    if selector not in report.entries:
        return None
    region = report.regions.get(selector)
    if region is None:
        return None
    blocks = rcfg.blocks
    parts = [b"sigrec-fn-region:v1", selector.to_bytes(4, "big")]
    for label, starts in ((b"spine", report.dispatcher_blocks),
                         (b"region", region)):
        parts.append(label)
        for start in sorted(starts):
            block = blocks.get(start)
            if block is None:
                return None
            parts.append(start.to_bytes(4, "big"))
            parts.append(bytecode[block.start:block.end])
    return b"\x00".join(parts)


_UNKNOWN_TOKEN: _Token = (_UNKNOWN,)


def _is_const(token: _Token, value: Optional[int] = None) -> bool:
    return token[0] == _CONST and (value is None or token[1] == value)


def _calldataload(_state, _ins, loc: _Token) -> _Token:
    return (_CD0,) if _is_const(loc, 0) else _UNKNOWN_TOKEN


def _binop(_state, ins, a: _Token, b: _Token) -> _Token:
    """a = stack top (popped first), b = next — EVM operand order."""
    name = ins.op.name
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
    return _UNKNOWN_TOKEN


_MACHINE = Machine(
    unknown=_UNKNOWN_TOKEN,
    cap=_MAX_STACK,
    handlers={
        "CALLDATALOAD": _calldataload,
        "JUMP": record_jump,
        "JUMPI": record_jump,
        **dict.fromkeys(("DIV", "SHR", "AND", "EQ"), _binop),
    },
)


def extract_dispatch(rcfg: ResolvedCFG) -> DispatcherReport:
    """Walk the dispatcher statically and map selectors to entry blocks."""
    blocks = rcfg.blocks
    findings: List[Finding] = []
    entries: Dict[int, int] = {}
    visited_blocks: Set[int] = set()
    if rcfg.entry not in blocks:
        return DispatcherReport(findings=tuple(findings))

    jump = Jump()

    def visit(block, node):
        start, in_stack = node
        visited_blocks.add(start)
        jump.target = jump.cond = None
        out = tuple(walk(_MACHINE, jump, block, list(in_stack)))
        target, cond = jump.target, jump.cond
        terminator = block.terminator
        if cond is not None and cond[0] == _SELCMP:  # a JUMPI's condition
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
            return [(terminator.next_pc, out)]

        successors = list(rcfg.resolved_targets.get(terminator.pc, ()))
        if block.falls_through:
            successors.append(terminator.next_pc)
        return [(successor, out) for successor in successors]

    explore(blocks, (rcfg.entry, ()), _MAX_VISITS, visit)

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
