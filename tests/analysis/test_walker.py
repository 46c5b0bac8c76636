"""The shared block walker's stack rules, on hand-made blocks."""

import pytest

from repro.analysis.walker import Machine, walk
from repro.evm.cfg import build_cfg


def _block(code: bytes):
    (block,) = build_cfg(code).blocks.values()
    return block


def _recording(log):
    def handler(_state, ins, *operands):
        log.append((ins.op.name, operands))
        return ("sum", operands)

    return handler


def test_handler_gets_operands_top_first_and_its_result_is_pushed():
    log = []
    machine = Machine(unknown="?", cap=8, handlers={"SUB": _recording(log)})
    # PUSH1 1 PUSH1 2 SUB: SUB pops a = 2 (the top), then b = 1.
    stack = walk(machine, None, _block(bytes([0x60, 1, 0x60, 2, 0x03])), [])
    assert log == [("SUB", (("c", 2), ("c", 1)))]
    assert stack == [("sum", (("c", 2), ("c", 1)))]


def test_pops_past_the_bottom_read_unknown():
    log = []
    machine = Machine(unknown="?", cap=8, handlers={"ADD": _recording(log)})
    # POP on an empty stack, then ADD with one entry, then ISZERO
    # (not modelled: pops the sum, pushes one unknown).
    stack = walk(machine, None, _block(bytes([0x50, 0x60, 7, 0x01, 0x15])), [])
    assert log == [("ADD", (("c", 7), "?"))]
    assert stack == ["?"]


def test_a_push_past_the_cap_drops_the_bottom_entry():
    machine = Machine(unknown="?", cap=2, handlers={}, const=lambda value: value)
    code = bytes([0x60, 1, 0x60, 2, 0x60, 3, 0x80])  # PUSH 1, 2, 3, DUP1
    assert walk(machine, None, _block(code), []) == [3, 3]


def test_short_stack_dup_and_swap():
    machine = Machine(unknown="?", cap=8, handlers={}, const=lambda value: value)
    # DUP2 of a one-entry stack pushes unknown; SWAP3 of a two-entry
    # stack pads the bottom first, then swaps the top down.
    assert walk(machine, None, _block(bytes([0x60, 5, 0x81])), []) == [5, "?"]
    assert walk(machine, None, _block(bytes([0x92])), ["a", "b"]) == ["b", "?", "a", "?"]


def test_stack_shape_ops_cannot_be_modelled():
    with pytest.raises(ValueError):
        Machine(unknown=None, cap=8, handlers={"SWAP1": lambda *args: None})
