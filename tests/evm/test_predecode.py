"""One decode: a program classified from the CFG's disassembly equals one
decoded from the bytes, and a recovery — pruned or not — sweeps the code
once."""

from hypothesis import given, settings, strategies as st

from repro.abi.signature import FunctionSignature
from repro.analysis import analyze
from repro.compiler import compile_contract
from repro.evm import predecode
from repro.evm.disasm import Instruction, disassemble, jumpdests
from repro.evm.opcodes import OPCODES
from repro.evm.predecode import (
    CONTROL_OPS,
    KIND_PUSH,
    DecodedProgram,
    clear_program_cache,
)
from repro.sigrec.api import SigRec
from repro.sigrec.engine import SymbolicDomain, TASEEngine

#: Bytes outside the opcode table (decoded as UNKNOWN).
_UNDEFINED = [byte for byte in range(256) if byte not in OPCODES]


@st.composite
def _bytecodes(draw):
    body = draw(st.binary(max_size=120))
    body += draw(st.sampled_from([b"", b"\x5b", b"\x56", b"\x5b\x57"]))
    junk = draw(st.lists(st.sampled_from(_UNDEFINED), max_size=4))
    # A trailing PUSHn cut short: its immediate runs past the code.
    width = draw(st.integers(min_value=0, max_value=32))
    tail = b""
    if width:
        tail = bytes([0x5F + width]) + draw(st.binary(max_size=width - 1))
    return body + bytes(junk) + tail


def _slot(entry):
    kind, arg, handler, ins = entry
    return (kind, arg, handler, ins.pc, ins.op, ins.operand)


def _expected_block(listing, pc):
    """The superblock at ``pc`` derived from the listing alone."""
    starts = [ins.pc for ins in listing]
    if pc not in starts:
        return None
    run = listing[starts.index(pc):]
    for j, ins in enumerate(run):
        if ins.op.name in CONTROL_OPS:
            return run[:j], ins
    return run, None


def _block_shape(block):
    if block is None:
        return None
    ctrl = block.ctrl_ins
    return (
        [_slot(pair) for pair in block.pairs],
        block.ctrl,
        None if ctrl is None else (ctrl.pc, ctrl.op, ctrl.operand),
        block.fall_pc,
    )


@settings(max_examples=200, deadline=None)
@given(_bytecodes())
def test_program_from_instruction_list_equals_program_from_bytes(code):
    listing = disassemble(code)
    shared = DecodedProgram(code, SymbolicDomain, instructions=listing)
    fresh = DecodedProgram(code, SymbolicDomain)
    assert shared.instructions is listing
    assert [_slot(e) for e in shared._entries] == [_slot(e) for e in fresh._entries]
    assert [(i.pc, i.op, i.operand) for i in fresh.instructions] == [
        (i.pc, i.op, i.operand) for i in listing
    ]
    assert shared.jumpdests == fresh.jumpdests == jumpdests(listing)
    for (kind, arg, _handler, ins) in shared._entries:
        if ins.op.is_push:
            width = ins.op.immediate_size
            raw = code[ins.pc + 1:ins.pc + 1 + width].ljust(width, b"\x00")
            assert kind == KIND_PUSH and arg == int.from_bytes(raw, "big")
    # Superblock entries: every instruction start, plus pcs that are
    # not one (inside a PUSH immediate, past the end).
    for pc in range(len(code) + 2):
        block = shared.block(pc)
        assert _block_shape(block) == _block_shape(fresh.block(pc))
        expected = _expected_block(listing, pc)
        if expected is None:
            assert block is None
            continue
        body, ctrl = expected
        assert [pair[3] for pair in block.pairs] == body
        assert block.ctrl_ins is ctrl


def _assert_recover_creates_instructions_once(monkeypatch, tool):
    code = compile_contract([
        FunctionSignature.parse("f(uint8,address)"),
        FunctionSignature.parse("g(bytes)"),
    ]).bytecode
    created = []
    original = Instruction.__init__

    def counting(self, pc, op, operand=None):
        created.append(pc)
        original(self, pc, op, operand)

    clear_program_cache()
    monkeypatch.setattr(Instruction, "__init__", counting)
    assert tool.recover(code)
    monkeypatch.undo()
    analysis = tool._analyze(code)
    program = predecode._PROGRAM_CACHE[(code, SymbolicDomain)]
    assert program.instructions is analysis.cfg.base.instructions
    assert sorted(created) == [ins.pc for ins in analysis.cfg.base.instructions]


def test_pruned_recover_creates_instructions_once(monkeypatch):
    _assert_recover_creates_instructions_once(monkeypatch, SigRec(prune=True))


def test_default_recover_creates_instructions_once(monkeypatch):
    """Default options (no pruning) share the CFG's disassembly too."""
    tool = SigRec()
    assert not tool.prune
    _assert_recover_creates_instructions_once(monkeypatch, tool)


def test_unsharded_default_recover_creates_instructions_once(monkeypatch):
    _assert_recover_creates_instructions_once(monkeypatch, SigRec(sharded=False))


def test_stale_analysis_is_not_shared():
    """An analysis of other bytes never lends its disassembly."""
    code = compile_contract([FunctionSignature.parse("f(uint8)")]).bytecode
    other = compile_contract([FunctionSignature.parse("g(bool)")]).bytecode
    stale = analyze(other)
    clear_program_cache()
    engine = TASEEngine(code, analysis=stale)
    assert engine._program.instructions is not stale.cfg.base.instructions
    assert [(i.pc, i.op, i.operand) for i in engine._program.instructions] == [
        (i.pc, i.op, i.operand) for i in disassemble(code)
    ]
