"""Basic-block recovery and control-flow graph construction.

SigRec's front end (paper §4.1) disassembles the bytecode and recognizes
basic blocks before running TASE.  Block boundaries are the standard
ones: JUMPDEST starts a block; JUMP/JUMPI/terminators end one.  Edges
for direct jumps (``PUSH addr; JUMP``) are resolved statically; computed
jumps are left for the symbolic executor to resolve, so the CFG exposes
both static successors and an ``has_dynamic_jump`` flag per block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set

from repro.evm.disasm import Instruction, disassemble, jumpdests


@dataclass
class BasicBlock:
    """A maximal straight-line instruction sequence."""

    start: int
    instructions: List[Instruction] = field(default_factory=list)
    successors: Set[int] = field(default_factory=set)
    predecessors: Set[int] = field(default_factory=set)
    has_dynamic_jump: bool = False
    # The terminator is a JUMP/JUMPI whose statically-known PUSH target
    # is not a valid JUMPDEST: taking that jump always throws.  The
    # block keeps no (taken) successor, but the defect is recorded
    # instead of silently dropped.
    invalid_static_jump: bool = False
    #: The op stream the static passes walk, compiled on first use
    #: by :func:`repro.analysis.walker.walk`.
    ops: Optional[tuple] = field(default=None, repr=False, compare=False)

    @property
    def end(self) -> int:
        last = self.instructions[-1]
        return last.pc + last.size

    @property
    def terminator(self) -> Instruction:
        return self.instructions[-1]

    @property
    def falls_through(self) -> bool:
        """Control can continue at the next instruction (JUMPI included)."""
        op = self.instructions[-1].op
        return not op.is_terminator and op.name != "UNKNOWN"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BasicBlock({self.start:#x}..{self.end:#x}, succ={sorted(self.successors)})"


@dataclass
class ControlFlowGraph:
    """CFG over the basic blocks of one runtime bytecode."""

    blocks: Dict[int, BasicBlock]
    entry: int
    valid_jumpdests: FrozenSet[int]
    #: The linear-sweep disassembly the blocks were cut from.  The TASE
    #: engine's decode classifies these objects instead of decoding the
    #: bytes a second time (:func:`repro.evm.predecode.decode`).
    instructions: List[Instruction] = field(default_factory=list)

    def block_at(self, pc: int) -> Optional[BasicBlock]:
        return self.blocks.get(pc)

    def reachable_from(self, start: int) -> Set[int]:
        """Block starts reachable from ``start`` along static edges."""
        seen: Set[int] = set()
        work = [start]
        while work:
            current = work.pop()
            if current in seen or current not in self.blocks:
                continue
            seen.add(current)
            work.extend(self.blocks[current].successors)
        return seen

    def __len__(self) -> int:
        return len(self.blocks)


def _leaders(instructions: List[Instruction]) -> List[int]:
    """Block-leader pcs: the first instruction, every JUMPDEST, and every
    instruction following a control transfer.

    Valid JUMPDESTs need no separate treatment as jump *targets*: being
    JUMPDESTs already makes them leaders.
    """
    leaders: Set[int] = set()
    if instructions:
        leaders.add(instructions[0].pc)
    for i, ins in enumerate(instructions):
        name = ins.op.name
        if name == "JUMPDEST":
            leaders.add(ins.pc)
        if name in ("JUMP", "JUMPI") or ins.op.is_terminator or name == "UNKNOWN":
            if i + 1 < len(instructions):
                leaders.add(instructions[i + 1].pc)
    return sorted(leaders)


def build_cfg(bytecode: bytes) -> ControlFlowGraph:
    """Disassemble ``bytecode`` and build its CFG.

    Static edges cover fall-through, JUMPI both-ways when the target is a
    ``PUSH`` immediately preceding the jump, and direct JUMPs.  Jumps
    whose target is not a preceding PUSH set ``has_dynamic_jump``; a
    pushed target that is *not* a valid JUMPDEST sets
    ``invalid_static_jump`` (the jump always throws at runtime).
    """
    instructions = disassemble(bytecode)
    dests = jumpdests(instructions)
    leaders = _leaders(instructions)
    leader_set = set(leaders)

    blocks: Dict[int, BasicBlock] = {}
    current: Optional[BasicBlock] = None
    for ins in instructions:
        if ins.pc in leader_set:
            current = BasicBlock(start=ins.pc)
            blocks[ins.pc] = current
        assert current is not None
        current.instructions.append(ins)

    for block in blocks.values():
        last = block.terminator
        name = last.op.name
        prev = block.instructions[-2] if len(block.instructions) >= 2 else None
        static_target = (
            prev.operand
            if prev is not None and prev.op.is_push and prev.operand is not None
            else None
        )
        if name == "JUMP":
            if static_target is not None and static_target in dests:
                block.successors.add(static_target)
            elif static_target is None:
                block.has_dynamic_jump = True
            else:
                block.invalid_static_jump = True
        elif name == "JUMPI":
            if static_target is not None and static_target in dests:
                block.successors.add(static_target)
            elif static_target is None:
                block.has_dynamic_jump = True
            else:
                block.invalid_static_jump = True
            if last.next_pc in blocks:
                block.successors.add(last.next_pc)
        elif not last.op.is_terminator and name != "UNKNOWN":
            if last.next_pc in blocks:
                block.successors.add(last.next_pc)

    for block in blocks.values():
        for succ in block.successors:
            if succ in blocks:
                blocks[succ].predecessors.add(block.start)

    entry = instructions[0].pc if instructions else 0
    return ControlFlowGraph(
        blocks=blocks, entry=entry, valid_jumpdests=dests,
        instructions=instructions,
    )
