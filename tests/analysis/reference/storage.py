"""Frozen reference: storage-layout recovery with its own block walker."""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.dataflow import ResolvedCFG
from repro.analysis.dispatcher import DispatcherReport
from repro.analysis.storage import StorageAccess, StorageLayout, StorageVariable

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


# ----------------------------------------------------------------------
# The abstract walk.


def _unknown() -> _Token:
    return (_UNKNOWN,)


def _is_const(token: _Token, value: Optional[int] = None) -> bool:
    return token[0] == _CONST and (value is None or token[1] == value)


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
    """One storage walk over a resolved CFG."""

    def __init__(self, rcfg: ResolvedCFG) -> None:
        self.rcfg = rcfg
        # (pc, op, expr-or-None), deduplicated: revisit order and count
        # must not perturb the layout (determinism under any schedule).
        self.sites: Set[Tuple[int, str, Optional[Tuple]]] = set()
        # access id -> (pc, slot) for loaded-word field refinement.
        self.loads: List[Tuple[int, int]] = []
        # (slot, offset bytes, width bytes, signed) field observations.
        self.fields: Set[Tuple[int, int, int, bool]] = set()

    # -- token helpers -------------------------------------------------

    def _record(self, pc: int, op: str, expr: Optional[Tuple]) -> None:
        self.sites.add((pc, op, expr))

    def _field(self, access_id: int, shift_bits: int, mask_bits: int,
               signed: bool = False) -> None:
        if shift_bits % 8 or shift_bits >= 256:
            return
        _pc, slot = self.loads[access_id]
        self.fields.add((slot, shift_bits // 8, mask_bits // 8, signed))

    def _binop(self, name: str, a: _Token, b: _Token) -> _Token:
        """a = stack top (popped first), b = next — EVM operand order."""
        if _is_const(a) and _is_const(b):
            va, vb = a[1], b[1]
            if name == "ADD":
                return (_CONST, (va + vb) & _MASK)
            if name == "SUB":
                return (_CONST, (va - vb) & _MASK)
            if name == "MUL":
                return (_CONST, (va * vb) & _MASK)
            if name == "AND":
                return (_CONST, va & vb)
            if name == "OR":
                return (_CONST, va | vb)
            if name == "SHL":
                return (_CONST, (vb << va) & _MASK if va < 256 else 0)
            if name == "SHR":
                return (_CONST, vb >> va if va < 256 else 0)
            return _unknown()
        if name == "ADD":
            for x, y in ((a, b), (b, a)):
                if x[0] == _HASH:
                    inner = x[1]
                    if inner[0] == "elt":  # keep elt chains flat
                        return x
                    if _expr_depth(inner) >= _EXPR_DEPTH_LIMIT:
                        return _unknown()
                    return (_HASH, ("elt", inner))
            return _unknown()
        if name in ("SHR", "DIV") and b[0] == _SVAL:
            # SHR(k, sv) or DIV(sv, 2^k): a is the shift/divisor...
            # operand order differs: SHR pops shift first, DIV pops the
            # numerator first.
            return _unknown()
        return _unknown()

    # -- the per-block transfer ---------------------------------------

    def walk_block(
        self, block, stack: List[_Token], memory: Dict[int, _Token]
    ) -> None:
        """Execute one block in place over (stack, memory)."""

        def pop() -> _Token:
            return stack.pop(0) if stack else _unknown()

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
                push(stack[depth - 1] if depth <= len(stack) else _unknown())
            elif op.is_swap:
                depth = op.code - 0x8F
                while len(stack) < depth + 1:
                    stack.append(_unknown())
                stack[0], stack[depth] = stack[depth], stack[0]
            elif name in _ADDRESS_ENVS:
                push((_ENV, name))
            elif name == "SLOAD":
                slot = pop()
                if _is_const(slot):
                    access_id = len(self.loads)
                    self.loads.append((ins.pc, slot[1]))
                    self._record(ins.pc, "load", ("const", slot[1]))
                    push((_SVAL, access_id, 0))
                elif slot[0] == _HASH:
                    self._record(ins.pc, "load", slot[1])
                    push(_unknown())
                else:
                    self._record(ins.pc, "load", None)
                    push(_unknown())
            elif name == "SSTORE":
                slot = pop()
                pop()  # the stored value
                if _is_const(slot):
                    self._record(ins.pc, "store", ("const", slot[1]))
                elif slot[0] == _HASH:
                    self._record(ins.pc, "store", slot[1])
                else:
                    self._record(ins.pc, "store", None)
            elif name == "MSTORE":
                loc, value = pop(), pop()
                if _is_const(loc) and loc[1] < _SCRATCH_LIMIT:
                    memory[loc[1]] = value
                # Unknown/high offsets: scratch survives (see module doc).
            elif name == "SHA3":
                offset, length = pop(), pop()
                push(self._sha3(offset, length, memory))
            elif name == "AND":
                a, b = pop(), pop()
                push(self._and(a, b))
            elif name in ("SHR", "DIV"):
                a, b = pop(), pop()
                if name == "SHR" and _is_const(a) and b[0] == _SVAL:
                    push((_SVAL, b[1], b[2] + a[1]))
                elif name == "DIV" and a[0] == _SVAL and _is_const(b):
                    shift = b[1].bit_length() - 1
                    if b[1] == 1 << shift:
                        push((_SVAL, a[1], a[2] + shift))
                    else:
                        push(_unknown())
                else:
                    push(self._binop(name, a, b))
            elif name == "SIGNEXTEND":
                a, b = pop(), pop()
                if _is_const(a) and b[0] == _SVAL and a[1] < 32:
                    self._field(b[1], b[2], 8 * (a[1] + 1), signed=True)
                    push(b)
                else:
                    push(_unknown())
            elif name == "JUMP":
                pop()
            elif name == "JUMPI":
                pop()
                pop()
            elif op.pops == 2 and op.pushes == 1:
                a, b = pop(), pop()
                push(self._binop(name, a, b))
            else:
                for _ in range(op.pops):
                    pop()
                for _ in range(op.pushes):
                    push(_unknown())

    def _and(self, a: _Token, b: _Token) -> _Token:
        for value, mask in ((a, b), (b, a)):
            if value[0] == _SVAL and _is_const(mask):
                bits = _low_mask_bits(mask[1])
                if bits is not None:
                    # shift-then-mask: a packed field read.
                    self._field(value[1], value[2], bits)
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
                        _pc, slot = self.loads[value[1]]
                        self.fields.add((slot, low // 8, width // 8, False))
                    return (_SVAL, value[1], value[2])
                return _unknown()
        return self._binop("AND", a, b)

    def _sha3(
        self, offset: _Token, length: _Token, memory: Dict[int, _Token]
    ) -> _Token:
        if not (_is_const(offset) and _is_const(length)):
            return _unknown()
        base = offset[1]
        if length[1] == 0x40:
            key = memory.get(base, _unknown())
            slot_source = memory.get(base + 0x20, _unknown())
            inner: Optional[Tuple] = None
            if _is_const(slot_source):
                inner = ("const", slot_source[1])
            elif slot_source[0] == _HASH:
                inner = slot_source[1]
            if inner is None or _expr_depth(inner) >= _EXPR_DEPTH_LIMIT:
                return _unknown()
            keytag = "address" if key[0] == _ENV else "word"
            return (_HASH, ("map", keytag, inner))
        if length[1] == 0x20:
            base_token = memory.get(base, _unknown())
            if _is_const(base_token):
                return (_HASH, ("arr", ("const", base_token[1])))
            if base_token[0] == _HASH:
                inner = base_token[1]
                if _expr_depth(inner) >= _EXPR_DEPTH_LIMIT:
                    return _unknown()
                return (_HASH, ("arr", inner))
        return _unknown()


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
    walk = _Walk(rcfg)
    blocks = rcfg.blocks
    if rcfg.entry in blocks:
        visits: Dict[int, int] = {}
        initial = (rcfg.entry, (), ())
        work: List[Tuple[int, Tuple, Tuple]] = [initial]
        seen: Set[Tuple[int, Tuple, Tuple]] = {initial}
        while work:
            start, stack_state, memory_state = work.pop()
            block = blocks.get(start)
            if block is None:
                continue
            count = visits.get(start, 0) + 1
            if count > _MAX_VISITS:
                continue
            visits[start] = count
            stack = list(stack_state)
            memory = dict(memory_state)
            walk.walk_block(block, stack, memory)
            out_stack = tuple(stack)
            out_memory = tuple(sorted(memory.items()))
            for successor in sorted(rcfg.successors.get(start, ())):
                state = (successor, out_stack, out_memory)
                if successor in blocks and state not in seen:
                    seen.add(state)
                    work.append(state)

    accesses = tuple(
        StorageAccess(pc, op, expr)
        for pc, op, expr in sorted(
            walk.sites, key=lambda site: (site[0], site[1], repr(site[2]))
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

    selector_of_pc = _selector_index(rcfg, dispatcher) if dispatcher else {}

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
            for slot, offset, width, signed in walk.fields
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
    rcfg: ResolvedCFG, dispatcher: DispatcherReport
) -> Dict[int, Tuple[int, ...]]:
    """pc -> selectors whose region contains that pc's block."""
    block_of_pc: Dict[int, int] = {}
    for start, block in rcfg.blocks.items():
        for ins in block.instructions:
            block_of_pc[ins.pc] = start
    selectors_of_block: Dict[int, Set[int]] = {}
    for selector, region in dispatcher.regions.items():
        for start in region:
            selectors_of_block.setdefault(start, set()).add(selector)
    return {
        pc: tuple(sorted(selectors_of_block.get(start, ())))
        for pc, start in block_of_pc.items()
    }
