"""Linear-sweep EVM disassembler.

Turns raw bytecode into a list of :class:`Instruction` records.  The sweep is
linear: every byte offset that is not inside a ``PUSH`` immediate becomes an
instruction.  Data trailing the code section (e.g. constructor arguments or
metadata) disassembles to ``UNKNOWN``/``INVALID`` instructions, which the
decompiler simply never reaches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.evm.opcodes import Opcode, opcode_by_value


@dataclass(frozen=True)
class Instruction:
    """One decoded instruction: its code offset, opcode, and push operand."""

    offset: int
    opcode: Opcode
    operand: Optional[int] = None

    @property
    def name(self) -> str:
        return self.opcode.name

    @property
    def size(self) -> int:
        return 1 + self.opcode.immediate_size

    @property
    def next_offset(self) -> int:
        return self.offset + self.size

    def __str__(self) -> str:
        if self.operand is not None:
            return "0x%04x %s 0x%x" % (self.offset, self.name, self.operand)
        return "0x%04x %s" % (self.offset, self.name)


def disassemble(code: bytes) -> List[Instruction]:
    """Disassemble ``code`` into instructions by linear sweep."""
    return list(iter_code(code))


def instruction_map(code: bytes) -> Dict[int, Instruction]:
    """Map each code offset to its instruction."""
    return {ins.offset: ins for ins in disassemble(code)}


def jumpdest_offsets(code: bytes) -> List[int]:
    """Offsets of all valid ``JUMPDEST`` instructions (jump targets)."""
    return [ins.offset for ins in disassemble(code) if ins.name == "JUMPDEST"]


def format_disassembly(code: bytes) -> str:
    """Human-readable multi-line disassembly listing."""
    return "\n".join(str(ins) for ins in disassemble(code))


def iter_code(code: bytes) -> Iterator[Instruction]:
    """Iterate instructions lazily: the linear sweep behind :func:`disassemble`."""
    offset = 0
    length = len(code)
    while offset < length:
        opcode = opcode_by_value(code[offset])
        size = opcode.immediate_size
        if size:
            # A PUSH whose immediate is truncated by end-of-code reads zeros,
            # matching EVM semantics.
            raw = code[offset + 1 : offset + 1 + size].ljust(size, b"\x00")
            yield Instruction(offset, opcode, int.from_bytes(raw, "big"))
        else:
            yield Instruction(offset, opcode)
        offset += 1 + size
