"""The shared block walker against the frozen pre-walker passes.

Every static pass that walks blocks now runs on
:mod:`repro.analysis.walker`; ``tests/analysis/reference`` keeps the
passes as they were, each with its own abstract stack machine.  This
suite runs both over the same inputs and requires every product to be
identical — field by field, in dict order — and the profile and ABI
documents built from them to be byte-identical.

Inputs: every codegen variant, the ABI, storage and Vyper corpora,
hand-made edge cases (stacks past every pass's cap, DUP/SWAP deeper
than the stack, undefined opcodes), and Hypothesis-mutated and random
bytecode.
"""

import dataclasses
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.abi.signature import FunctionSignature
from repro.analysis import dataflow, dispatcher, mutability, reachability, returns
from repro.analysis import framework, storage
from repro.analysis.framework import DEFAULT_PIPELINE, AnalysisContext
from repro.analysis.reachability import ReachableFunction
from repro.compiler import compile_contract
from repro.compiler.contract import CodegenOptions, DispatcherStyle, Language
from repro.corpus.datasets import (
    build_abi_corpus,
    build_storage_corpus,
    build_vyper_corpus,
)
from repro.evm.asm import Assembler
from repro.evm.cfg import build_cfg
from repro.evm.disasm import Instruction
from repro.evm.opcodes import OPCODES
from repro.sigrec.api import SigRec
from tests.analysis import reference
from tests.analysis.reference import reference_pipeline

SIG_SETS = [
    ["transfer(address,uint256)", "setData(bytes,uint256[3])", "flag()"],
    ["f(uint8,address)", "g(bytes)", "h(uint256[2],bool)", "k(int128,bytes32)"],
]

VARIANTS = [
    CodegenOptions(dispatcher=style, optimize=optimize, obfuscate=obfuscate)
    for style in DispatcherStyle
    for optimize in (False, True)
    for obfuscate in (False, True)
] + [
    CodegenOptions(language=Language.VYPER, version="0.2.8"),
]


def _canon(value):
    """A structure equal for two products exactly when every field,
    dict order included, is equal (instructions compare by value)."""
    if isinstance(value, Instruction):
        return ("ins", value.pc, value.op.code, value.operand)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (type(value).__name__,) + tuple(
            (f.name, _canon(getattr(value, f.name)))
            for f in dataclasses.fields(value)
            if f.compare  # not BasicBlock.ops, a cache
        )
    if isinstance(value, dict):
        return ("dict", [(_canon(k), _canon(v)) for k, v in value.items()])
    if isinstance(value, (set, frozenset)):
        return ("set", sorted((_canon(v) for v in value), key=repr))
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [_canon(v) for v in value])
    return value


def _outcome(run, *args):
    """The canonical product, or the exception the pass raised: a
    crash on some input must stay the same crash."""
    try:
        return _canon(run(*args))
    except Exception as exc:  # noqa: BLE001 - compared, not hidden
        return ("raises", type(exc).__name__, str(exc))


def _same(new, old, *args):
    assert _outcome(new, *args) == _outcome(old, *args)


def assert_products_identical(code: bytes) -> None:
    """Each walking pass, new vs frozen, on identical inputs; then every
    product of the production pipeline against the reference one."""
    ref = reference
    cfg = build_cfg(code)
    _same(dataflow.resolve_jumps, ref.dataflow.resolve_jumps, cfg)
    jumps = dataflow.resolve_jumps(cfg)
    _same(dispatcher.extract_dispatch, ref.dispatcher.extract_dispatch, jumps)
    report = dispatcher.extract_dispatch(jumps)
    store, ref_store = storage.recover_storage_layout, ref.storage.recover_storage_layout
    _same(store, ref_store, jumps, report)
    _same(store, ref_store, jumps)
    reach = reachability.compute_reachability(jumps, report)
    _same(
        mutability.classify_mutability,
        ref.mutability.classify_mutability, jumps, report, reach,
    )
    _same(returns.recover_returns, ref.returns.recover_returns, jumps, report, reach)
    # Every block, not just the dispatched ones: each RETURN site, and
    # each block read as a function entry by the guard check.
    _same(returns._return_sites, ref.returns._return_sites, jumps)
    for start in jumps.blocks:
        entry = ReachableFunction(0, start, frozenset(), frozenset(), True)
        _same(mutability._entry_has_guard, ref.mutability._entry_has_guard, jumps, entry)

    new = AnalysisContext(code, DEFAULT_PIPELINE)
    old = AnalysisContext(code, reference_pipeline())
    for name in DEFAULT_PIPELINE.names():
        assert _outcome(lambda: new[name]) == _outcome(lambda: old[name]), name


def _documents(code: bytes):
    tool = SigRec()
    signatures = tool.recover(code)
    return (
        [str(s) for s in signatures],
        _outcome(lambda: tool.profile(code, signatures).to_json()),
        _outcome(lambda: json.dumps(tool.abi(code, signatures), sort_keys=True)),
    )


def assert_documents_identical(code: bytes, monkeypatch) -> None:
    """Signatures, profile JSON and ABI JSON through the public API."""
    new = _documents(code)
    with monkeypatch.context() as patch:
        ref = reference_pipeline()
        patch.setattr(framework, "default_pipeline", lambda: ref)
        old = _documents(code)
    assert new == old


def _variant_id(options: CodegenOptions) -> str:
    return (
        f"{options.language.value}-{options.dispatcher.value}"
        f"{'-opt' if options.optimize else ''}{'-obf' if options.obfuscate else ''}"
    )


@pytest.mark.parametrize("options", VARIANTS, ids=[_variant_id(o) for o in VARIANTS])
def test_every_codegen_variant(options, monkeypatch):
    for texts in SIG_SETS:
        code = compile_contract(
            [FunctionSignature.parse(t) for t in texts], options
        ).bytecode
        assert_products_identical(code)
    assert_documents_identical(code, monkeypatch)


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_abi_corpus(n_contracts=14, seed=23),
        lambda: build_storage_corpus(n_contracts=12, seed=21),
        lambda: build_vyper_corpus(n_contracts=10, seed=4),
    ],
    ids=["abi", "storage", "vyper"],
)
def test_corpora(build, monkeypatch):
    corpus = build()
    for case in corpus.cases:
        assert_products_identical(case.contract.bytecode)
    for case in corpus.cases[:4]:
        assert_documents_identical(case.contract.bytecode, monkeypatch)


def _asm(*parts) -> bytes:
    out = bytearray()
    for part in parts:
        out += bytes(part) if isinstance(part, (list, tuple)) else part
    return bytes(out)


PUSH1, POP, JUMP, JUMPI, JUMPDEST = 0x60, 0x50, 0x56, 0x57, 0x5B


def _program(build) -> bytes:
    asm = Assembler()
    build(asm)
    return asm.assemble()


def _held_through(depth: int, then) -> bytes:
    """A value pushed first, ``depth - 1`` constants on top of it (a
    stack exactly ``depth`` deep), those popped again, then ``then``
    reads the value: it survives exactly when a pass's cap is at least
    ``depth``."""

    def build(asm):
        then(asm, first=True)
        for i in range(depth - 1):
            asm.push(i & 0xFF)
        for _ in range(depth - 1):
            asm.op("POP")
        then(asm, first=False)

    return _program(build)


def _jump_target(asm, first):  # jumps: a constant jump target
    if first:
        asm.push_label("dest")
    else:
        asm.op("JUMP").label("dest").op("JUMPDEST").op("STOP")


def _function_id(asm, first):  # dispatcher: the extracted function id
    if first:
        asm.push(0).op("CALLDATALOAD").push(0xE0).op("SHR")
    else:
        asm.push(0x12345678, width=4).op("EQ").push_label("fn").op("JUMPI")
        asm.op("STOP").label("fn").op("JUMPDEST").op("STOP")


def _storage_slot(asm, first):  # storage: a constant slot
    if first:
        asm.push(7)
    else:
        asm.op("SLOAD").op("STOP")


def _return_length(asm, first):  # returns: a constant RETURN length
    if first:
        asm.push(0x20)
    else:
        asm.push(0).op("RETURN")


def _guard_value(asm, first):  # mutability: a CALLVALUE-derived word
    if first:
        asm.op("CALLVALUE")
    else:
        asm.op("ISZERO").push_label("ok").op("JUMPI")
        asm.push(0).op("DUP1").op("REVERT").label("ok").op("JUMPDEST").op("STOP")


def _mapping(key: str) -> bytes:
    """``mapping(key => ...)`` at slot 1, the key stored and hashed in
    two different blocks (scratch memory must flow along the edge)."""

    def build(asm):
        asm.op(key).push(0).op("MSTORE").push(1).push(0x20).op("MSTORE")
        asm.push_label("hash").op("JUMP").label("hash").op("JUMPDEST")
        asm.push(0x40).push(0).op("SHA3").op("SLOAD").op("STOP")

    return _program(build)


EDGE_CASES = {
    # Each cap, at the depth it still holds and one past it.
    **{
        f"{name}-depth-{depth}": _held_through(depth, then)
        for name, then, cap in (
            ("jump-target", _jump_target, dataflow.MAX_STACK),
            ("function-id", _function_id, 32),
            ("storage-slot", _storage_slot, 24),
            ("return-length", _return_length, 24),
            ("callvalue", _guard_value, 32),
        )
        for depth in (cap, cap + 1)
    },
    "stack-past-every-cap": _held_through(70, _jump_target),
    # A SWAP deeper than the stack pads its bottom: the constant
    # swapped down resurfaces after the pads are popped.
    "short-stack-swap": _program(
        lambda asm: asm.push_label("dest").op("SWAP2").op("POP").op("POP")
        .op("JUMP").label("dest").op("JUMPDEST").op("STOP")
    ),
    "short-stack-dup": _program(
        lambda asm: asm.push_label("dest").op("DUP2").op("POP").op("DUP1")
        .op("JUMP").label("dest").op("JUMPDEST").op("STOP")
    ),
    "short-stack-everything": _asm(
        [0x9F, 0x8F, 0x95, 0x84, POP, POP],  # SWAP16 DUP16 SWAP6 DUP5 POP POP
        [0x54, 0x55, 0x20, 0x52, 0x51],  # SLOAD SSTORE SHA3 MSTORE MLOAD
        [0x01, 0x19, 0x16, 0x1C, 0x04],  # ADD NOT AND SHR DIV
        [0xF3],  # RETURN on an empty stack
    ),
    "short-stack-jumps": _asm([0x9F, JUMPI, JUMPDEST, 0x8F, JUMP]),
    **{f"mapping-by-{key.lower()}": _mapping(key)
       for key in ("CALLER", "ORIGIN", "ADDRESS", "COINBASE", "CALLVALUE")},
    "folded-jump-target": _program(
        lambda asm: asm.push(~0x2A & (2**256 - 1)).op("NOT").push(0x100).op("MUL")
        .push(8).op("SHR").op("JUMP").label("dest").op("JUMPDEST").op("STOP")
    ),
    "return-folds": _program(
        lambda asm: asm.push(0x60).push(0x40).op("XOR").push(0x01).push(0x01)
        .op("SHL").push(0x3F).op("AND").op("MSTORE").push(0x20).push(0).op("RETURN")
    ),
    "return-buffer-via-mload": _program(
        lambda asm: asm.push(0x20).push(0x40).op("MSTORE").push(0x40).op("MLOAD")
        .push(0).op("MSTORE").push(0x20).push(0).op("RETURN")
    ),
    "unknown-opcodes": _asm(
        [PUSH1, 0x07, 0x0C, JUMP, 0xEF, 0x21],
        [JUMPDEST, 0xFB, PUSH1, 0x00, 0x35, PUSH1, 0xE0, 0x1C],
        [0x63, 0xAA, 0xBB, 0xCC, 0xDD, 0x14, PUSH1, 0x07, JUMPI, 0x0D],
    ),
    "truncated-push": _asm([PUSH1, 0x04, JUMP, JUMPDEST, 0x7F, 0x01, 0x02]),
    "self-loop": _asm(
        [JUMPDEST, PUSH1, 0x01, 0x01, 0x80, 0x54, POP, PUSH1, 0x00, JUMP]
    ),
    # DIV of a loaded word by a constant 0: both versions raise.
    "sload-div-zero": _asm([PUSH1, 0x00, PUSH1, 0x00, 0x54, 0x04, 0x00]),
    "empty": b"",
}


@pytest.mark.parametrize("code", list(EDGE_CASES.values()), ids=list(EDGE_CASES))
def test_edge_cases(code, monkeypatch):
    assert_products_identical(code)
    assert_documents_identical(code, monkeypatch)


def test_cap_cases_sit_on_the_caps():
    """A cap case's value survives at the cap and is lost one past it."""
    held = dataflow.resolve_bytecode(EDGE_CASES["jump-target-depth-64"])
    lost = dataflow.resolve_bytecode(EDGE_CASES["jump-target-depth-65"])
    assert held.resolved_targets and not held.unresolved_jumps
    assert lost.unresolved_jumps and not lost.resolved_targets
    folded = dataflow.resolve_bytecode(EDGE_CASES["folded-jump-target"])
    assert list(folded.resolved_targets.values()) == [frozenset({0x2A})]
    for name, kept in (("function-id-depth-32", True), ("function-id-depth-33", False)):
        report = dispatcher.extract_dispatch(dataflow.resolve_bytecode(EDGE_CASES[name]))
        assert bool(report.entries) is kept


# Contracts to mutate: small enough to keep each example fast.
_BASES = [
    compile_contract([FunctionSignature.parse(t) for t in texts], options).bytecode
    for texts, options in (
        (SIG_SETS[0], CodegenOptions()),
        (SIG_SETS[1], CodegenOptions(dispatcher=DispatcherStyle.SHR, calldatasize_check=False)),
        (["a(uint256)", "b(address[])"], CodegenOptions(optimize=True, obfuscate=True)),
    )
] + [case.contract.bytecode for case in build_storage_corpus(n_contracts=3, seed=5).cases]

#: Byte values weighted toward what the passes model.
_INTERESTING = sorted(
    {0x01, 0x02, 0x03, 0x04, 0x0A, 0x10, 0x14, 0x15, 0x16, 0x17, 0x19, 0x1B, 0x1C,
     0x0B, 0x20, 0x33, 0x34, 0x35, 0x37, 0x39, 0x50, 0x51, 0x52, 0x54, 0x55, 0x56,
     0x57, 0x5B, 0x5F, 0x60, 0x61, 0x63, 0x80, 0x81, 0x8F, 0x90, 0x91, 0x9F, 0xF3,
     0xFD, 0xFE, 0x0C, 0xEF}
)


@st.composite
def mutated(draw):
    code = bytearray(draw(st.sampled_from(_BASES)))
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["flip", "insert", "delete", "truncate"]))
        if not code:
            break
        at = draw(st.integers(0, len(code) - 1))
        byte = draw(st.one_of(st.sampled_from(_INTERESTING), st.integers(0, 255)))
        if kind == "flip":
            code[at] = byte
        elif kind == "insert":
            code.insert(at, byte)
        elif kind == "delete":
            del code[at]
        else:
            del code[at:]
    return bytes(code)


@st.composite
def opcode_soup(draw):
    """Random programs over defined and undefined opcodes, PUSH
    immediates included, biased toward the modelled ones."""
    out = bytearray()
    for _ in range(draw(st.integers(0, 120))):
        byte = draw(st.one_of(st.sampled_from(_INTERESTING), st.integers(0, 255)))
        out.append(byte)
        op = OPCODES.get(byte)
        if op is not None and op.immediate_size:
            out += draw(st.binary(min_size=0, max_size=op.immediate_size))
    return bytes(out)


#: Snippets the structured programs are made of: the idioms the passes
#: model, plus stack shuffles and opcodes they treat as opaque.
_SNIPPETS = [
    *(lambda asm, d: asm.push(d.draw(st.integers(0, 0xFF))),) * 4,
    lambda asm, d: asm.push(d.draw(st.sampled_from([0, 0x20, 0x40, 0xE0, 2**160 - 1,
                                                    0xFFFFFFFF, 1 << 224, 2**256 - 1]))),
    lambda asm, d: asm.op(f"DUP{d.draw(st.integers(1, 16))}"),
    lambda asm, d: asm.op(f"SWAP{d.draw(st.integers(1, 16))}"),
    lambda asm, d: asm.op("POP"),
    lambda asm, d: asm.op(d.draw(st.sampled_from(
        ["ADD", "SUB", "MUL", "DIV", "MOD", "EXP", "AND", "OR", "XOR", "SHL",
         "SHR", "NOT", "ISZERO", "EQ", "LT", "GT", "SIGNEXTEND", "BYTE", "SAR"]))),
    lambda asm, d: asm.op(d.draw(st.sampled_from(
        ["CALLER", "ORIGIN", "ADDRESS", "COINBASE", "CALLVALUE", "CALLDATASIZE"]))),
    lambda asm, d: asm.push(0).op("CALLDATALOAD").push(0xE0).op("SHR"),
    lambda asm, d: asm.push(d.draw(st.sampled_from([0, 0x20, 0x40, 0x80]))).op(
        d.draw(st.sampled_from(["MSTORE", "MLOAD"]))),
    lambda asm, d: asm.push(0).op("MSTORE").push(d.draw(st.integers(0, 3))).push(0x20)
    .op("MSTORE").push(0x40).push(0).op("SHA3"),
    lambda asm, d: asm.push(d.draw(st.integers(0, 3))).push(0).op("MSTORE")
    .push(0x20).push(0).op("SHA3"),
    lambda asm, d: asm.push(d.draw(st.integers(0, 3))).op("SLOAD"),
    lambda asm, d: asm.op(d.draw(st.sampled_from(["SLOAD", "SSTORE"]))),
    lambda asm, d: asm.push(d.draw(st.sampled_from([0, 8, 16, 160]))).op("SHR")
    .push(d.draw(st.sampled_from([0xFF, 0xFFFF, 2**160 - 1]))).op("AND"),
    lambda asm, d: asm.push(1 << d.draw(st.sampled_from([0, 8, 160]))).op("SWAP1").op("DIV"),
    lambda asm, d: asm.push(d.draw(st.sampled_from([0, 1, 31]))).op("SIGNEXTEND"),
    lambda asm, d: asm.push(~(0xFF << d.draw(st.sampled_from([0, 8, 16]))) & (2**256 - 1))
    .op("AND"),
    lambda asm, d: asm.push(0x20).push(0).push(0x40)
    .op(d.draw(st.sampled_from(["CALLDATACOPY", "CODECOPY", "RETURNDATACOPY"]))),
    lambda asm, d: asm.raw(bytes([d.draw(st.sampled_from([0x0C, 0xEF, 0x21]))])),
]


@st.composite
def structured(draw):
    """Labelled blocks of snippets, each ending in a jump to another
    block, a selector or CALLVALUE branch, a RETURN, a halt or a plain
    fall-through."""
    n_blocks = draw(st.integers(1, 6))
    asm = Assembler()
    for index in range(n_blocks):
        asm.label(f"b{index}").op("JUMPDEST")
        for _ in range(draw(st.integers(0, 12))):
            draw(st.sampled_from(_SNIPPETS))(asm, _Drawer(draw))
        target = f"b{draw(st.integers(0, n_blocks - 1))}"
        end = draw(st.sampled_from(
            ["jump", "jumpi", "select", "guard", "return", "stop", "revert", "through"]))
        if end == "jump":
            asm.push_label(target).op("JUMP")
        elif end == "jumpi":
            asm.push_label(target).op("JUMPI")
        elif end == "select":
            asm.op("DUP1").push(draw(st.integers(0, 2**32 - 1)), width=4).op("EQ")
            asm.push_label(target).op("JUMPI")
        elif end == "guard":
            asm.op("CALLVALUE").op("DUP1").op("ISZERO").push_label(target).op("JUMPI")
        elif end == "return":
            asm.push(draw(st.sampled_from([0, 0x20, 0x40, 0x60]))).push(0).op("RETURN")
        elif end in ("stop", "revert"):
            asm.push(0).op("DUP1").op(end.upper())
    return asm.assemble()


class _Drawer:
    """Lets a snippet draw its own operands."""

    def __init__(self, draw) -> None:
        self.draw = draw


_FUZZ = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@_FUZZ
@given(mutated())
def test_mutated_bytecode(code):
    assert_products_identical(code)


@_FUZZ
@given(opcode_soup())
def test_opcode_soup(code):
    assert_products_identical(code)


@_FUZZ
@given(st.binary(max_size=400))
def test_random_bytes(code):
    assert_products_identical(code)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(structured())
def test_structured_programs(code):
    assert_products_identical(code)


@settings(max_examples=25, deadline=None)
@given(mutated())
def test_mutated_documents(code):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_documents_identical(code, monkeypatch)
