"""Static selector extraction."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abi.signature import FunctionSignature
from repro.compiler import CodegenOptions, compile_contract
from repro.compiler.options import DispatcherStyle
from repro.evm.disasm import disassemble
from repro.evm.opcodes import OPCODES
from repro.sigrec.selectors import extract_selectors


def test_extracts_all_selectors():
    sigs = [
        FunctionSignature.parse("transfer(address,uint256)"),
        FunctionSignature.parse("approve(address,uint256)"),
        FunctionSignature.parse("totalSupply()"),
    ]
    contract = compile_contract(sigs)
    found = extract_selectors(contract.bytecode)
    assert found == sorted(int.from_bytes(s.selector, "big") for s in sigs)


def test_styles_equivalent():
    sigs = [FunctionSignature.parse("f(uint256)")]
    per_style = {
        style: extract_selectors(compile_contract(sigs, CodegenOptions(dispatcher=style)).bytecode)
        for style in DispatcherStyle
    }
    values = list(per_style.values())
    assert all(v == values[0] for v in values)


def test_empty_bytecode():
    assert extract_selectors(b"") == []


def test_push4_without_eq_not_counted():
    # A PUSH4 used as a plain constant is not a dispatcher comparison.
    from repro.evm.asm import Assembler

    asm = Assembler()
    asm.push(0xAABBCCDD, width=4).op("POP").op("STOP")
    assert extract_selectors(asm.assemble()) == []


# -- equivalence with a disassembly-based scan --------------------------

_UNDEFINED = [byte for byte in range(256) if byte not in OPCODES]


def _oracle(bytecode: bytes):
    """The selector scan over ``Instruction`` objects."""
    instructions = disassemble(bytecode)
    found = set()
    for i, ins in enumerate(instructions):
        if ins.op.is_push and ins.op.immediate_size == 4:
            if any(nxt.op.name == "EQ" for nxt in instructions[i + 1:i + 3]):
                found.add(ins.operand or 0)
    return sorted(found)


@st.composite
def _dispatcher_like(draw):
    """PUSH4/EQ-dense code with undefined bytes, other PUSHes whose
    immediates hide 0x63/0x14, and often a PUSH4 cut short at the end."""
    pieces = st.one_of(
        st.just(b"\x14"),
        st.just(b"\x80"),
        st.just(b"\x81"),
        st.binary(min_size=4, max_size=4).map(lambda imm: b"\x63" + imm),
        st.sampled_from(_UNDEFINED).map(lambda byte: bytes([byte])),
        st.binary(min_size=0, max_size=3).map(lambda imm: bytes([0x5F + len(imm)]) + imm),
        st.binary(min_size=1, max_size=2),
    )
    code = b"".join(draw(st.lists(pieces, max_size=40)))
    tail = draw(st.sampled_from([b"", b"\x63", b"\x63\xaa", b"\x63\xaa\xbb\xcc",
                                 b"\x63\xaa\xbb\xcc\xdd", b"\x63\xaa\xbb\xcc\xdd\x14"]))
    return code + tail


@settings(max_examples=400, deadline=None)
@given(_dispatcher_like())
def test_scan_equals_disassembly_oracle(code):
    assert extract_selectors(code) == _oracle(code)


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=300))
def test_scan_equals_disassembly_oracle_on_random_bytes(code):
    assert extract_selectors(code) == _oracle(code)


def test_truncated_push4_at_end_is_not_a_selector():
    for code in (b"\x63", b"\x63\xaa\xbb", b"\x63\xaa\xbb\xcc\xdd", b"\x14\x63\xaa\xbb\xcc"):
        assert extract_selectors(code) == _oracle(code) == []
    assert extract_selectors(b"\x63\xaa\xbb\xcc\xdd\x14") == [0xAABBCCDD]
    # EQ as the second following instruction, past an undefined byte.
    assert extract_selectors(b"\x63\xaa\xbb\xcc\xdd\x0c\x14") == [0xAABBCCDD]
    # ...but not as the third.
    assert extract_selectors(b"\x63\xaa\xbb\xcc\xdd\x0c\x0c\x14") == []


def test_disassemble_stays_importable_from_selectors():
    from repro.sigrec import selectors

    assert selectors.disassemble is disassemble
