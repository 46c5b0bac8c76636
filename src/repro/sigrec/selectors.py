"""Static extraction of function ids from the dispatcher.

Independent of TASE: a linear scan for the ``PUSH4 <id> EQ``/``EQ PUSH4``
dispatcher comparisons Solidity and Vyper emit.  Used as a cross-check
of the symbolic dispatcher exploration, by batch recovery to plan its
units, and by the database baselines, which only need function ids (not
types).
"""

from __future__ import annotations

from typing import List, Set

from repro.evm.disasm import disassemble  # noqa: F401 - perfbench wraps this name
from repro.evm.opcodes import OPCODES

_PUSH4 = 0x63
_EQ = 0x14

#: byte -> instruction size (undefined bytes decode as 1-byte UNKNOWN).
_SIZES = bytes(
    1 + OPCODES[byte].immediate_size if byte in OPCODES else 1
    for byte in range(256)
)


def extract_selectors(bytecode: bytes) -> List[int]:
    """Function ids referenced by dispatcher comparisons, sorted.

    Recognizes the two common shapes::

        DUP1 PUSH4 <id> EQ PUSH<n> <dest> JUMPI
        PUSH4 <id> DUP2 EQ ...

    A PUSH4 immediately compared with EQ (within the next two
    instructions) is taken as a candidate selector.  The scan steps
    through the linear-sweep instruction boundaries with a per-byte
    size table; it builds no instructions.
    """
    sizes = _SIZES
    length = len(bytecode)
    selectors: Set[int] = set()
    pc = 0
    while pc < length:
        byte = bytecode[pc]
        if byte == _PUSH4:
            following = pc + 5
            # Both look-ahead instructions exist only past a complete
            # immediate, so a truncated PUSH4 at the end never matches.
            if following < length and (
                bytecode[following] == _EQ
                or (
                    following + sizes[bytecode[following]] < length
                    and bytecode[following + sizes[bytecode[following]]] == _EQ
                )
            ):
                selectors.add(int.from_bytes(bytecode[pc + 1:following], "big"))
        pc += sizes[byte]
    return sorted(selectors)
