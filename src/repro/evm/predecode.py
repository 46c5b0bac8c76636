"""Pre-decoded instruction streams and superblocks.

Every execution driver in this repository (the concrete interpreter,
the TASE engine, the differential replay) used to rebuild the same
per-pc dispatch dict — ``{pc: (Instruction, handler, ...)}`` — from the
disassembly on every construction, and then pay a dict lookup, a tuple
unpack and two property calls (``Instruction.next_pc``) per executed
step.  This module lowers bytecode **once** per ``(bytecode, domain
class)`` pair into a :class:`DecodedProgram`:

* one pass over the linear-sweep disassembly (:func:`repro.evm.disasm.
  disassemble`, or the list the CFG was cut from when the caller has
  one) classifies every slot into a ``(kind, arg, handler,
  instruction)`` entry — ``kind``/``arg`` let fused drivers inline
  the pure stack-shuffle opcodes (PUSH/DUP/SWAP/POP, roughly half of
  all executed steps), ``handler`` is the pre-bound fallback the
  per-step drivers use;
* **superblocks** — maximal straight-line runs ending at the first
  control-transfer opcode — materialize lazily per entry pc as one
  C-speed ``bytearray.find`` plus a tuple slice of the shared entry
  list, so overlapping blocks (a JUMPDEST mid-run) share slot entries
  instead of re-decoding them;
* the per-pc index and legacy-shaped dispatch dict build on first use.

Superblock entries are the initial pc, JUMPDESTs and JUMPI
fall-throughs.  Repeated explorations — per-selector shards, replay
over a fuzz corpus — amortize everything after the first decode via
the module-level program cache.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Type

from repro.evm.disasm import _UNKNOWN, Instruction, disassemble, instruction_index
from repro.evm.opcodes import OPCODES

#: Mnemonics whose handler may transfer control (return an int target
#: or the HALT sentinel).  Every other handler always returns None, so
#: a run of them executes straight-line — the superblock invariant.
CONTROL_OPS = frozenset(
    ["JUMP", "JUMPI", "STOP", "RETURN", "REVERT", "INVALID",
     "SELFDESTRUCT", "UNKNOWN"]
)

#: Instruction kinds precomputed per slot so a fused driver can inline
#: the pure stack-shuffle opcodes instead of paying a handler call for
#: them.  ``KIND_GENERIC`` ops go through the pre-bound handler; the
#: others carry their decoded argument (PUSH immediate, DUP/SWAP
#: depth) in the slot entry.
KIND_GENERIC = 0
KIND_PUSH = 1  # arg = immediate value (0 for PUSH0)
KIND_DUP = 2   # arg = n: push stack[-n]
KIND_SWAP = 3  # arg = n: swap stack[-1] and stack[-n-1]
KIND_POP = 4
KIND_UNOP = 5  # arg = domain method: push arg(dom, ins, pop())
KIND_BINOP = 6  # arg = domain method: push arg(dom, ins, pop(), pop())
KIND_NOP = 7  # JUMPDEST: no effect in every domain

#: byte -> (Op-or-UNKNOWN, immediate size, kind, arg, is control).
#: Everything derivable from the byte alone is resolved once at import
#: so the classifying pass in ``DecodedProgram.__init__`` is a single
#: table-indexed loop.
_BYTE_TABLE: List[Tuple] = []
for _byte in range(256):
    _op = OPCODES.get(_byte)
    if _op is None:
        _BYTE_TABLE.append((_UNKNOWN, 0, KIND_GENERIC, 0, True))
        continue
    if 0x5F <= _byte <= 0x7F:  # PUSH0..PUSH32
        _kind, _arg = KIND_PUSH, 0
    elif 0x80 <= _byte <= 0x8F:  # DUP1..DUP16
        _kind, _arg = KIND_DUP, _byte - 0x7F
    elif 0x90 <= _byte <= 0x9F:  # SWAP1..SWAP16
        _kind, _arg = KIND_SWAP, _byte - 0x8F
    elif _byte == 0x50:  # POP
        _kind, _arg = KIND_POP, 0
    else:
        _kind, _arg = KIND_GENERIC, 0
    _BYTE_TABLE.append(
        (_op, _op.immediate_size, _kind, _arg, _op.name in CONTROL_OPS)
    )
del _byte, _op, _kind, _arg

#: Per-domain-class fused decode tables:
#: byte -> (Op, imm, kind, arg, is_ctrl, handler).  Built once per
#: domain class — this is where GENERIC slots whose handler exposes an
#: ``inner`` domain method (the unop/binop wrappers in
#: repro.evm.semantics) are promoted to KIND_UNOP/KIND_BINOP with the
#: method as ``arg``, and JUMPDEST to KIND_NOP, so fused drivers skip
#: the wrapper frame entirely.
_DOMAIN_TABLES: Dict[Type, List[Tuple]] = {}


def _domain_table(domain_cls: Type) -> List[Tuple]:
    dtab = _DOMAIN_TABLES.get(domain_cls)
    if dtab is not None:
        return dtab
    from repro.evm.semantics import dispatch_table

    table = dispatch_table(domain_cls)
    dtab = []
    for byte in range(256):
        op, imm, kind, arg, ctrl = _BYTE_TABLE[byte]
        handler = table[op.code]
        if kind == KIND_GENERIC and not ctrl:
            if byte == 0x5B:  # JUMPDEST
                kind = KIND_NOP
            else:
                inner = getattr(handler, "inner", None)
                if inner is not None:
                    arity = handler.arity
                    if arity == 2:
                        kind, arg = KIND_BINOP, inner
                    elif arity == 1:
                        kind, arg = KIND_UNOP, inner
        dtab.append((op, imm, kind, arg, ctrl, handler))
    _DOMAIN_TABLES[domain_cls] = dtab
    return dtab


class SuperBlock:
    """One maximal straight-line run plus its terminating control op.

    ``pairs`` holds ``(kind, arg, handler, instruction)`` for the
    non-control prefix; ``ctrl``/``ctrl_ins`` the terminator (``None``
    when the instruction stream simply ends — running off the code
    halts like STOP); ``fall_pc`` the pc after the terminator (the
    JUMPI fall-through target).
    """

    __slots__ = ("pairs", "n", "ctrl", "ctrl_ins", "fall_pc")

    def __init__(
        self,
        pairs: Tuple,
        ctrl: Optional[object],
        ctrl_ins: Optional[Instruction],
        fall_pc: int,
    ) -> None:
        self.pairs = pairs
        self.n = len(pairs)
        self.ctrl = ctrl
        self.ctrl_ins = ctrl_ins
        self.fall_pc = fall_pc


class DecodedProgram:
    """One bytecode lowered against one domain class.

    The classifying pass runs once in ``__init__``, over
    ``instructions`` when given (a linear-sweep disassembly of
    ``bytecode``, whose objects the program then shares) or else over
    a fresh disassembly; per-pc views (``by_pc``, ``dispatch``) and
    superblocks materialize lazily and are cached on the program,
    which is itself shared by every engine over the same bytecode via
    the module decode cache.
    """

    __slots__ = (
        "bytecode", "domain_cls", "instructions", "jumpdests",
        "_entries", "_is_ctrl", "_pc_index",
        "_by_pc", "_dispatch", "_blocks",
    )

    def __init__(
        self,
        bytecode: bytes,
        domain_cls: Type,
        instructions: Optional[List[Instruction]] = None,
    ) -> None:
        self.bytecode = bytecode
        self.domain_cls = domain_cls
        if instructions is None:
            instructions = disassemble(bytecode)
        dtab = _domain_table(domain_cls)
        # One classifying pass over the linear-sweep disassembly:
        # per-slot driver entries, a control-op bitmap (so block
        # building is a bytearray.find), the pc -> slot index, and the
        # JUMPDEST set.  The byte is read from the code, not the Op:
        # undecodable bytes share the one UNKNOWN Op.
        code = bytecode
        entries: List[Tuple] = []
        is_ctrl = bytearray()
        pc_index: Dict[int, int] = {}
        dests: List[int] = []
        eapp = entries.append
        capp = is_ctrl.append
        for i, ins in enumerate(instructions):
            pos = ins.pc
            byte = code[pos]
            _op, imm, kind, arg, ctrl, handler = dtab[byte]
            pc_index[pos] = i
            if imm:
                eapp((KIND_PUSH, ins.operand, handler, ins))
                capp(0)
                continue
            eapp((kind, arg, handler, ins))
            capp(1 if ctrl else 0)
            if byte == 0x5B:
                dests.append(pos)
        self.instructions = instructions
        self._entries = entries
        self._is_ctrl = is_ctrl
        self._pc_index = pc_index
        self.jumpdests = frozenset(dests)
        self._by_pc: Optional[Dict[int, Instruction]] = None
        self._dispatch: Optional[Dict[int, tuple]] = None
        self._blocks: Dict[int, Optional[SuperBlock]] = {}

    # -- lazily materialized per-pc views -------------------------------

    @property
    def handlers(self) -> List:
        """Pre-bound handler per instruction slot."""
        return [entry[2] for entry in self._entries]

    @property
    def by_pc(self) -> Dict[int, Instruction]:
        """pc -> instruction (lazy: only diagnostics walk it)."""
        index = self._by_pc
        if index is None:
            index = instruction_index(self.instructions)
            self._by_pc = index
        return index

    @property
    def dispatch(self) -> Dict[int, tuple]:
        """Per-pc dispatch: ``pc -> (ins, handler, gas, next_pc)``.

        The shape the per-step drivers (concrete interpreter, legacy
        TASE driver, differential replay) consume; built once per
        program on first use.
        """
        table = self._dispatch
        if table is None:
            table = {
                entry[3].pc: (
                    entry[3], entry[2], entry[3].op.gas, entry[3].next_pc
                )
                for entry in self._entries
            }
            self._dispatch = table
        return table

    # -- superblocks ----------------------------------------------------

    def block(self, pc: int) -> Optional[SuperBlock]:
        """The superblock starting at ``pc`` (lazily built, cached).

        Returns ``None`` when ``pc`` is not an instruction start —
        past the end of code, or inside a PUSH immediate — which a
        driver treats exactly like the legacy dispatch-miss: the path
        ends as if running off the code.
        """
        blocks = self._blocks
        block = blocks.get(pc, _UNBUILT)
        if block is not _UNBUILT:
            return block
        i = self._pc_index.get(pc)
        if i is None:
            blocks[pc] = None
            return None
        entries = self._entries
        j = self._is_ctrl.find(1, i)
        if j == -1:
            block = SuperBlock(tuple(entries[i:]), None, None, -1)
        else:
            ctrl_ins = entries[j][3]
            block = SuperBlock(
                tuple(entries[i:j]), entries[j][2], ctrl_ins,
                ctrl_ins.next_pc,
            )
        blocks[pc] = block
        return block


_UNBUILT = object()

#: Decode cache: ``(bytecode, domain class) -> DecodedProgram``.
#: Bounded FIFO — batch runs over large corpora must not pin every
#: bytecode in memory forever.
_PROGRAM_CACHE: Dict[Tuple[bytes, Type], DecodedProgram] = {}
_PROGRAM_CACHE_MAX = 128


def decode(
    bytecode: bytes,
    domain_cls: Type,
    instructions: Optional[List[Instruction]] = None,
) -> DecodedProgram:
    """The cached :class:`DecodedProgram` for ``(bytecode, domain_cls)``.

    Engines over the same bytecode and domain share one decode: the
    sharded TASE walks, repeated interpreter constructions in a fuzzing
    loop, and the differential replay all skip the sweep and every
    lazily-built artifact after the first call.  ``instructions`` — an
    existing disassembly of ``bytecode``, e.g. the CFG's — is
    classified on a cache miss instead of decoding the bytes again.
    """
    key = (bytecode, domain_cls)
    program = _PROGRAM_CACHE.get(key)
    if program is None:
        program = DecodedProgram(bytecode, domain_cls, instructions)
        if len(_PROGRAM_CACHE) >= _PROGRAM_CACHE_MAX:
            _PROGRAM_CACHE.pop(next(iter(_PROGRAM_CACHE)))
        _PROGRAM_CACHE[key] = program
    return program


def clear_program_cache() -> None:
    """Drop every cached decode (benchmarks measuring cold cost)."""
    _PROGRAM_CACHE.clear()
