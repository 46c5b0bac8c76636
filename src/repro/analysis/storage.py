"""Storage-layout recovery: slot/offset/type from SLOAD/SSTORE shapes.

Calldata signatures describe a contract's *inputs*; its persistent
state lives in the 2^256-slot storage array, addressed by compiler-
fixed layout rules ("Precise Static Identification of Ethereum Storage
Variables", PAPERS.md):

* plain variables sit at small constant slots, several small ones
  *packed* into one slot and extracted with shift+mask idioms
  (``SHR k`` / ``DIV 2^k`` followed by ``AND (2^m - 1)``);
* a mapping's values live at ``keccak256(key . slot)`` — the compiler
  stores the key at scratch memory 0x00 and the declaration slot at
  0x20, then hashes 0x40 bytes (nested mappings chain the pattern,
  hashing the previous hash as the new slot);
* a dynamic array keeps its length at the declaration slot and its
  data from ``keccak256(slot)`` upward (``SHA3`` over 0x20 bytes),
  elements addressed base-plus-index.

This pass walks the resolved CFG (the jump-resolution product the
pipeline already computes) with a small token domain — constants,
environment values, hash-derived slot expressions, and tagged storage
words — plus an abstract scratch memory for constant-offset ``MSTORE``s
below 0x60, which is exactly the region solc's hashing idiom uses.
Every ``SLOAD``/``SSTORE`` site is recorded with its resolved slot
expression (or counted as unresolved), shift/mask refinements on loaded
words become packed sub-slot fields, and the fold classifies each root
slot as a value variable, a mapping (with nesting depth and key tags),
or a dynamic array.

Soundness posture: like the dispatcher walk this is a *recognizer*, not
a verifier — an unrecognized shape degrades to an unresolved access,
never a wrong variable.  The one deliberate heuristic: ``MSTORE``s at
unknown offsets do not clobber the tracked scratch region (solc's free
memory pointer starts at 0x80, so computed stores never alias the
hashing scratch); hand-written assembly violating that convention can
at worst mislabel a mapping's key tag.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.dataflow import ResolvedCFG
from repro.analysis.dispatcher import DispatcherReport
from repro.analysis.walker import FOLDS, Machine, explore, walk

_MASK = (1 << 256) - 1

# Token kinds.
_CONST = "c"
_ENV = "env"  # CALLER / ORIGIN / ADDRESS — address-typed environment
_HASH = "h"  # a hash-derived slot expression (see expr grammar below)
_SVAL = "sv"  # a word loaded from storage: ("sv", access id, shift bits)
_UNKNOWN = "?"

_Token = Tuple

# Slot-expression grammar (nested tuples, innermost = declaration slot):
#   ("const", n)                      a constant slot
#   ("map", keytag, inner)            keccak(key . inner); keytag is
#                                     "address" or "word"
#   ("arr", inner)                    keccak(inner): dynamic-array data
#   ("elt", inner)                    inner + offset (array element /
#                                     struct member past the hash)
_EXPR_DEPTH_LIMIT = 6

#: Environment opcodes that push a 160-bit address-typed word.
_ADDRESS_ENVS = frozenset(["CALLER", "ORIGIN", "ADDRESS", "COINBASE"])

#: Re-walk budget per block; dispatcher-style loops are bounded, this
#: only guards crafted cyclic storage code.
_MAX_VISITS = 24
_MAX_STACK = 24
#: Scratch memory offsets tracked for the keccak idiom (solc hashes
#: from 0x00; 0x40/0x50 appear in some layouts).
_SCRATCH_LIMIT = 0x60


@dataclass(frozen=True)
class StorageAccess:
    """One classified SLOAD/SSTORE site."""

    pc: int
    op: str  # "load" | "store"
    expr: Optional[Tuple]  # slot expression, or None when unresolved


@dataclass(frozen=True)
class StorageVariable:
    """One recovered storage variable (or packed sub-slot field)."""

    slot: int
    offset: int  # byte offset inside the slot (packed fields)
    width: int  # bytes; 32 for whole-slot variables
    kind: str  # "value" | "mapping" | "dynamic_array"
    type: str  # rendered solidity-style type
    depth: int = 0  # mapping nesting depth
    reads: int = 0  # distinct SLOAD sites touching this root slot
    writes: int = 0  # distinct SSTORE sites touching this root slot
    selectors: Tuple[int, ...] = ()  # functions whose region touches it

    def render(self) -> str:
        sel = ""
        if self.selectors:
            sel = "  [" + ", ".join(f"0x{s:08x}" for s in self.selectors) + "]"
        where = f"slot {self.slot}"
        if self.kind == "value" and self.width != 32:
            where += f" bytes {self.offset}..{self.offset + self.width - 1}"
        return (
            f"{where}: {self.type}  "
            f"({self.reads} reads, {self.writes} writes){sel}"
        )

    def to_dict(self) -> dict:
        return {
            "slot": self.slot,
            "offset": self.offset,
            "width": self.width,
            "kind": self.kind,
            "type": self.type,
            "depth": self.depth,
            "reads": self.reads,
            "writes": self.writes,
            "selectors": [f"0x{s:08x}" for s in self.selectors],
        }


@dataclass
class StorageLayout:
    """The recovered layout: variables plus access accounting."""

    variables: Tuple[StorageVariable, ...] = ()
    accesses: Tuple[StorageAccess, ...] = ()
    #: Distinct SLOAD/SSTORE pcs whose slot stayed unrecognized.
    unresolved: int = 0

    @property
    def resolved(self) -> int:
        return sum(1 for access in self.accesses if access.expr is not None)

    def variables_at(self, slot: int) -> Tuple[StorageVariable, ...]:
        return tuple(v for v in self.variables if v.slot == slot)

    def to_dict(self) -> dict:
        return {
            "variables": [v.to_dict() for v in self.variables],
            "access_sites": len(self.accesses),
            "resolved_sites": self.resolved,
            "unresolved_sites": self.unresolved,
        }

    def render_text(self) -> str:
        if not self.variables and not self.accesses and not self.unresolved:
            return "storage: none"
        lines = [
            f"storage: {len(self.variables)} variable(s), "
            f"{self.resolved}/{self.resolved + self.unresolved} "
            "access sites resolved"
        ]
        for variable in self.variables:
            lines.append("  " + variable.render())
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The abstract state.


_UNKNOWN_TOKEN: _Token = (_UNKNOWN,)


def _expr_depth(expr: Tuple) -> int:
    depth = 0
    while expr[0] != "const":
        depth += 1
        expr = expr[-1]
    return depth


def _low_mask_bits(value: int) -> Optional[int]:
    """``value == 2^m - 1`` -> m (byte-aligned only), else None."""
    bits = value.bit_length()
    if value and value == (1 << bits) - 1 and bits % 8 == 0:
        return bits
    return None


class _Walk:
    """One storage walk: what the handlers record, plus the scratch
    memory of the block being walked (``dirty`` once an MSTORE hit it)."""

    __slots__ = ("sites", "loads", "fields", "memory", "dirty")

    def __init__(self) -> None:
        # (pc, op, expr-or-None), deduplicated: revisit order and count
        # must not perturb the layout (determinism under any schedule).
        self.sites: Set[Tuple[int, str, Optional[Tuple]]] = set()
        # access id -> (pc, slot) for loaded-word field refinement.
        self.loads: List[Tuple[int, int]] = []
        # (slot, offset bytes, width bytes, signed) field observations.
        self.fields: Set[Tuple[int, int, int, bool]] = set()
        self.memory: Dict[int, _Token] = {}
        self.dirty = False

    def record(self, pc: int, op: str, slot: _Token) -> None:
        if slot[0] == _CONST:
            self.sites.add((pc, op, ("const", slot[1])))
        else:
            self.sites.add((pc, op, slot[1] if slot[0] == _HASH else None))

    def field(self, access_id: int, shift_bits: int, mask_bits: int,
              signed: bool = False) -> None:
        if shift_bits % 8 or shift_bits >= 256:
            return
        _pc, slot = self.loads[access_id]
        self.fields.add((slot, shift_bits // 8, mask_bits // 8, signed))


# -- opcode handlers: (walk, instruction, operands top first) -> token --


def _address_env(_state, ins) -> _Token:
    return (_ENV, ins.op.name)


def _sload(state: _Walk, ins, slot: _Token) -> _Token:
    state.record(ins.pc, "load", slot)
    if slot[0] == _CONST:
        access_id = len(state.loads)
        state.loads.append((ins.pc, slot[1]))
        return (_SVAL, access_id, 0)
    return _UNKNOWN_TOKEN


def _sstore(state: _Walk, ins, slot: _Token, _value: _Token) -> None:
    state.record(ins.pc, "store", slot)


def _mstore(state: _Walk, _ins, loc: _Token, value: _Token) -> None:
    if loc[0] == _CONST and loc[1] < _SCRATCH_LIMIT:
        state.memory[loc[1]] = value
        state.dirty = True
    # Unknown/high offsets: scratch survives (see module doc).


def _sha3(state: _Walk, _ins, offset: _Token, length: _Token) -> _Token:
    if not (offset[0] == _CONST and length[0] == _CONST):
        return _UNKNOWN_TOKEN
    memory = state.memory
    base = offset[1]
    if length[1] == 0x40:
        key = memory.get(base, _UNKNOWN_TOKEN)
        slot_source = memory.get(base + 0x20, _UNKNOWN_TOKEN)
        inner: Optional[Tuple] = None
        if slot_source[0] == _CONST:
            inner = ("const", slot_source[1])
        elif slot_source[0] == _HASH:
            inner = slot_source[1]
        if inner is None or _expr_depth(inner) >= _EXPR_DEPTH_LIMIT:
            return _UNKNOWN_TOKEN
        keytag = "address" if key[0] == _ENV else "word"
        return (_HASH, ("map", keytag, inner))
    if length[1] == 0x20:
        base_token = memory.get(base, _UNKNOWN_TOKEN)
        if base_token[0] == _CONST:
            return (_HASH, ("arr", ("const", base_token[1])))
        if base_token[0] == _HASH:
            inner = base_token[1]
            if _expr_depth(inner) >= _EXPR_DEPTH_LIMIT:
                return _UNKNOWN_TOKEN
            return (_HASH, ("arr", inner))
    return _UNKNOWN_TOKEN


def _add(_state, a: _Token, b: _Token) -> _Token:
    """A hash-derived slot plus an offset."""
    for x in (a, b):
        if x[0] == _HASH:
            inner = x[1]
            if inner[0] == "elt":  # keep elt chains flat
                return x
            if _expr_depth(inner) >= _EXPR_DEPTH_LIMIT:
                return _UNKNOWN_TOKEN
            return (_HASH, ("elt", inner))
    return _UNKNOWN_TOKEN


def _and(state: _Walk, a: _Token, b: _Token) -> _Token:
    for value, mask in ((a, b), (b, a)):
        if value[0] == _SVAL and mask[0] == _CONST:
            bits = _low_mask_bits(mask[1])
            if bits is not None:
                # shift-then-mask: a packed field read.
                state.field(value[1], value[2], bits)
                return value
            # Read-modify-write clear mask: ~mask is a contiguous
            # byte-aligned field — the write side of a packed slot.
            hole = (~mask[1]) & _MASK
            if hole:
                low = (hole & -hole).bit_length() - 1
                width = hole.bit_length() - low
                if (
                    hole == ((1 << width) - 1) << low
                    and low % 8 == 0 and width % 8 == 0
                ):
                    _pc, slot = state.loads[value[1]]
                    state.fields.add((slot, low // 8, width // 8, False))
                return (_SVAL, value[1], value[2])
            return _UNKNOWN_TOKEN
    return _UNKNOWN_TOKEN


def _shr(_state, a: _Token, b: _Token) -> _Token:
    """SHR(k, sv): the loaded word shifted right by k bits."""
    if a[0] == _CONST and b[0] == _SVAL:
        return (_SVAL, b[1], b[2] + a[1])
    return _UNKNOWN_TOKEN


def _folding(fold, otherwise=None):
    """Fold two constants; hand anything else to ``otherwise``."""

    def handler(state: _Walk, _ins, a: _Token, b: _Token) -> _Token:
        if a[0] == _CONST and b[0] == _CONST:
            return (_CONST, fold(a[1], b[1]))
        return otherwise(state, a, b) if otherwise else _UNKNOWN_TOKEN

    return handler


def _div(_state, _ins, a: _Token, b: _Token) -> _Token:
    """DIV(sv, 2^k): the pre-Constantinople right shift."""
    if a[0] == _SVAL and b[0] == _CONST:
        shift = b[1].bit_length() - 1
        if b[1] == 1 << shift:
            return (_SVAL, a[1], a[2] + shift)
    return _UNKNOWN_TOKEN


def _signextend(state: _Walk, _ins, a: _Token, b: _Token) -> _Token:
    if a[0] == _CONST and b[0] == _SVAL and a[1] < 32:
        state.field(b[1], b[2], 8 * (a[1] + 1), signed=True)
        return b
    return _UNKNOWN_TOKEN


_MACHINE = Machine(
    unknown=_UNKNOWN_TOKEN,
    cap=_MAX_STACK,
    handlers={
        **{name: _address_env for name in _ADDRESS_ENVS},
        **{name: _folding(FOLDS[name]) for name in ("SUB", "MUL", "OR", "SHL")},
        "ADD": _folding(FOLDS["ADD"], _add),
        "AND": _folding(FOLDS["AND"], _and),
        "SHR": _folding(FOLDS["SHR"], _shr),
        "DIV": _div,
        "SIGNEXTEND": _signextend,
        "SLOAD": _sload,
        "SSTORE": _sstore,
        "MSTORE": _mstore,
        "SHA3": _sha3,
    },
)


def _root_slot(expr: Tuple) -> Optional[int]:
    """The declaration slot at the bottom of a slot expression."""
    while expr[0] != "const":
        expr = expr[-1]
    return expr[1]


def _classify(expr: Tuple) -> Tuple[str, int, Tuple[str, ...]]:
    """(kind, mapping depth, key tags outermost-first) of an expression."""
    depth = 0
    keytags: List[str] = []
    is_array = False
    node = expr
    while node[0] != "const":
        if node[0] == "map":
            depth += 1
            keytags.append(node[1])
        elif node[0] == "arr":
            is_array = True
        node = node[-1]
    if depth:
        return "mapping", depth, tuple(keytags)
    if is_array:
        return "dynamic_array", 0, ()
    return "value", 0, ()


def _value_type(width: int, signed: bool) -> str:
    if signed:
        return f"int{width * 8}"
    if width == 32:
        return "uint256"
    if width == 20:
        return "address"
    if width == 1:
        return "uint8"
    return f"uint{width * 8}"


def _mapping_type(keytags: Tuple[str, ...]) -> str:
    rendered = "uint256"
    for tag in reversed(keytags):
        key = "address" if tag == "address" else "uint256"
        rendered = f"mapping({key} => {rendered})"
    return rendered


def recover_storage_layout(
    rcfg: ResolvedCFG, dispatcher: Optional[DispatcherReport] = None
) -> StorageLayout:
    """Recover the storage layout from a resolved CFG.

    ``dispatcher`` (when available) attributes each variable to the
    selectors whose statically reachable region touches it.
    """
    state = _Walk()
    ordered: Dict[int, Tuple[int, ...]] = {}

    def visit(block, node):
        start, stack_state, memory_state = node
        state.memory = dict(memory_state)
        state.dirty = False
        out_stack = tuple(walk(_MACHINE, state, block, list(stack_state)))
        out_memory = tuple(sorted(state.memory.items())) if state.dirty else memory_state
        successors = ordered.get(start)
        if successors is None:
            successors = ordered[start] = tuple(sorted(rcfg.successors.get(start, ())))
        return [(successor, out_stack, out_memory) for successor in successors]

    explore(rcfg.blocks, (rcfg.entry, (), ()), _MAX_VISITS, visit)

    accesses = tuple(
        StorageAccess(pc, op, expr)
        for pc, op, expr in sorted(
            state.sites, key=lambda site: (site[0], site[1], repr(site[2]))
        )
    )
    unresolved = len({a.pc for a in accesses if a.expr is None})

    # -- fold sites into per-root-slot variables -----------------------
    by_root: Dict[int, List[StorageAccess]] = {}
    for access in accesses:
        if access.expr is None:
            continue
        root = _root_slot(access.expr)
        if root is None:
            continue
        by_root.setdefault(root, []).append(access)

    selector_of_pc = (
        _selector_index(rcfg, dispatcher, {a.pc for a in accesses})
        if dispatcher else {}
    )

    variables: List[StorageVariable] = []
    for root in sorted(by_root):
        root_accesses = by_root[root]
        reads = len({a.pc for a in root_accesses if a.op == "load"})
        writes = len({a.pc for a in root_accesses if a.op == "store"})
        selectors = tuple(sorted({
            selector
            for access in root_accesses
            for selector in selector_of_pc.get(access.pc, ())
        }))
        kinds = [_classify(a.expr) for a in root_accesses]
        map_depth = max((depth for _k, depth, _t in kinds), default=0)
        if map_depth:
            keytags = max(
                (tags for _k, depth, tags in kinds if depth == map_depth),
                key=len,
                default=(),
            )
            variables.append(StorageVariable(
                slot=root, offset=0, width=32, kind="mapping",
                type=_mapping_type(keytags), depth=map_depth,
                reads=reads, writes=writes, selectors=selectors,
            ))
            continue
        if any(kind == "dynamic_array" for kind, _d, _t in kinds):
            # Direct loads/stores of the root slot are the length word.
            variables.append(StorageVariable(
                slot=root, offset=0, width=32, kind="dynamic_array",
                type="uint256[]", reads=reads, writes=writes,
                selectors=selectors,
            ))
            continue
        fields = sorted(
            (offset, width, signed)
            for slot, offset, width, signed in state.fields
            if slot == root
        )
        if not fields:
            variables.append(StorageVariable(
                slot=root, offset=0, width=32, kind="value",
                type="uint256", reads=reads, writes=writes,
                selectors=selectors,
            ))
            continue
        # Packed slot: one variable per distinct (offset, width); a
        # signed observation wins over an unsigned one at the same spot.
        merged: Dict[Tuple[int, int], bool] = {}
        for offset, width, signed in fields:
            merged[(offset, width)] = merged.get((offset, width), False) or signed
        for (offset, width), signed in sorted(merged.items()):
            variables.append(StorageVariable(
                slot=root, offset=offset, width=width, kind="value",
                type=_value_type(width, signed),
                reads=reads, writes=writes, selectors=selectors,
            ))

    return StorageLayout(
        variables=tuple(variables), accesses=accesses, unresolved=unresolved
    )


def _selector_index(
    rcfg: ResolvedCFG, dispatcher: DispatcherReport, pcs: Iterable[int]
) -> Dict[int, Tuple[int, ...]]:
    """pc -> selectors whose region contains that pc's block, for the
    instruction pcs ``pcs``."""
    selectors_of_block: Dict[int, Set[int]] = {}
    for selector, region in dispatcher.regions.items():
        for start in region:
            selectors_of_block.setdefault(start, set()).add(selector)
    # Blocks tile the instruction stream in pc order, so an
    # instruction's block is the last one starting at or before it.
    starts = sorted(rcfg.blocks)
    return {
        pc: tuple(sorted(selectors_of_block.get(starts[bisect_right(starts, pc) - 1], ())))
        for pc in pcs
    }
