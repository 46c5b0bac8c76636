"""The inference layer in isolation: hand-built events, no codegen.

These tests pin the rules' behaviour independently of what the bundled
compiler happens to emit — the contract between the engine's event
vocabulary and the classifier.
"""

from repro.sigrec import expr as E
from repro.sigrec.engine import _cmp
from repro.sigrec.events import (
    CalldataCopyEvent,
    CalldataLoadEvent,
    FunctionEvents,
    Guard,
    UseEvent,
)
from repro.sigrec.inference import infer_function
from repro.sigrec.rules import RuleTracker


def _load(pc, loc, guards=()):
    return CalldataLoadEvent(pc, loc, E.calldata(loc), tuple(guards))


def _infer(events):
    return infer_function(events, RuleTracker())


def _head(pc, slot, guards=()):
    return _load(pc, E.const(slot), guards)


def test_single_basic_param():
    events = FunctionEvents(selector=1)
    events.add_load(_head(0x10, 4))
    inferred = _infer(events)
    assert inferred.param_types == ["uint256"]


def test_mask_use_refines_width():
    events = FunctionEvents(selector=1)
    head = _head(0x10, 4)
    events.add_load(head)
    events.add_use(UseEvent(0x12, "and_mask", head.result.labels, 0xFFFF))
    inferred = _infer(events)
    assert inferred.param_types == ["uint16"]


def test_param_order_follows_head_slots():
    events = FunctionEvents(selector=1)
    second = _head(0x20, 36)
    first = _head(0x30, 4)  # read later in code, earlier in the layout
    events.add_load(second)
    events.add_load(first)
    events.add_use(UseEvent(0x22, "bool_mask", second.result.labels))
    inferred = _infer(events)
    assert inferred.param_types == ["uint256", "bool"]


def test_offset_num_pair_without_items_defaults_string():
    events = FunctionEvents(selector=1)
    head = _head(0x10, 4)
    events.add_load(head)
    num_loc = E.binop("add", E.const(4), head.result)
    events.add_load(_load(0x14, num_loc))
    inferred = _infer(events)
    assert inferred.param_types == ["string"]


def test_strided_items_make_dynamic_array():
    events = FunctionEvents(selector=1)
    head = _head(0x10, 4)
    events.add_load(head)
    num_loc = E.binop("add", E.const(4), head.result)
    num_load = _load(0x14, num_loc)
    events.add_load(num_load)
    index = E.env("i")
    guard = Guard(_cmp("lt", index, num_load.result), True, 0x16)
    item_loc = E.binop(
        "add", E.const(36),
        E.binop("add", E.binop("mul", E.const(32), index), head.result),
    )
    events.add_load(_load(0x18, item_loc, (guard,)))
    inferred = _infer(events)
    assert inferred.param_types == ["uint256[]"]


def test_copy_with_rounded_length_is_blob():
    events = FunctionEvents(selector=1)
    head = _head(0x10, 4)
    events.add_load(head)
    num_loc = E.binop("add", E.const(4), head.result)
    num_load = _load(0x14, num_loc)
    events.add_load(num_load)
    rounded = E.binop(
        "and", E.bit_not(E.const(31)),
        E.binop("add", E.const(31), num_load.result),
    )
    events.add_copy(
        CalldataCopyEvent(
            0x18, E.const(0x80), E.binop("add", E.const(36), head.result),
            rounded, 0x18,
        )
    )
    inferred = _infer(events)
    assert inferred.param_types == ["string"]  # no byte access seen


def test_byte_use_turns_blob_into_bytes():
    events = FunctionEvents(selector=1)
    head = _head(0x10, 4)
    events.add_load(head)
    num_loc = E.binop("add", E.const(4), head.result)
    num_load = _load(0x14, num_loc)
    events.add_load(num_load)
    rounded = E.binop(
        "and", E.bit_not(E.const(31)),
        E.binop("add", E.const(31), num_load.result),
    )
    events.add_copy(
        CalldataCopyEvent(
            0x18, E.const(0x80), E.binop("add", E.const(36), head.result),
            rounded, 0x18,
        )
    )
    data_value = E.mem_read(0x18, E.const(0x80), frozenset())
    events.add_use(UseEvent(0x20, "byte", data_value.labels))
    inferred = _infer(events)
    assert inferred.param_types == ["bytes"]


def test_vyper_markers_flip_language_and_rules():
    events = FunctionEvents(selector=1)
    head = _head(0x10, 4)
    events.add_load(head)
    events.add_use(
        UseEvent(0x12, "lt_bound", head.result.labels, 1 << 160)
    )
    events.vyper_markers = 1
    inferred = _infer(events)
    assert inferred.language == "vyper"
    assert inferred.param_types == ["address"]
    assert "R20" in inferred.fired_rules
    assert "R27" in inferred.fired_rules


def test_coarse_only_skips_refinement():
    events = FunctionEvents(selector=1)
    head = _head(0x10, 4)
    events.add_load(head)
    events.add_use(UseEvent(0x12, "bool_mask", head.result.labels))
    inferred = infer_function(events, RuleTracker(), coarse_only=True)
    assert inferred.param_types == ["uint256"]


def test_function_id_slot_excluded():
    events = FunctionEvents(selector=1)
    events.add_load(_load(0x02, E.const(0)))  # the dispatcher's read
    events.add_load(_head(0x10, 4))
    inferred = _infer(events)
    assert len(inferred.param_types) == 1


def test_empty_events_is_parameterless():
    inferred = _infer(FunctionEvents(selector=7))
    assert inferred.param_types == []


def test_recovery_leaves_the_module_arena_unchanged():
    """Inference probes must not intern engine expressions process-wide:
    each interned node would pin its contract's expression graph."""
    from repro.abi.signature import FunctionSignature
    from repro.compiler import compile_contract
    from repro.sigrec.api import SigRec

    code = compile_contract([
        FunctionSignature.parse("f(bytes,uint256[])"),
        FunctionSignature.parse("g(string)"),
    ]).bytecode
    before = len(E._DEFAULT_ARENA)
    for _ in range(2):
        assert SigRec().recover(code)
    assert len(E._DEFAULT_ARENA) == before
