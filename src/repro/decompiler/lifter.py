"""Context-sensitive lifting of EVM bytecode to three-address code.

The algorithm (in the style of Gigahorse/Vandal):

1. Split bytecode into *static blocks* in one linear pass over the
   disassembly: a ``JUMPDEST``, or the instruction after any
   control-altering one, closes the current block and opens the next.  A
   block falls through to the next one unless it ends in a terminator.
2. Abstractly interpret the operand stack.  An abstract value is a TAC
   variable that may carry a known constant.  Each static block is *cloned
   per context*, where a context is the tuple of constants visible on the
   entry stack — this distinguishes call sites that pushed different return
   addresses, so the ``PUSH ret; PUSH fn; JUMP ... JUMP`` internal-call
   convention resolves to precise return edges instead of a blown-up
   context-insensitive mush.
3. Each instance's symbolic execution emits TAC statements; values flowing
   along edges into non-constant entry positions become ``PHI`` statements.

Safety caps keep pathological inputs bounded: when a static block exceeds
``max_clones`` contexts, further edges collapse into a single all-unknown
instance; a global state cap aborts with :class:`LiftError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.evm.disassembler import Instruction, iter_code
from repro.evm.hashing import UINT_MAX
from repro.ir.tac import TACBlock, TACProgram, TACStatement

# Opcodes we constant-fold during lifting (helps resolve computed jumps in
# foreign bytecode; our own compiler pushes jump targets directly).
_FOLDABLE = {
    "ADD": lambda a, b: (a + b) & UINT_MAX,
    "SUB": lambda a, b: (a - b) & UINT_MAX,
    "MUL": lambda a, b: (a * b) & UINT_MAX,
    "AND": lambda a, b: a & b,
    "OR": lambda a, b: a | b,
    "XOR": lambda a, b: a ^ b,
    "SHL": lambda a, b: (b << a) & UINT_MAX if a < 256 else 0,
    "SHR": lambda a, b: b >> a if a < 256 else 0,
    "EQ": lambda a, b: 1 if a == b else 0,
}


class LiftError(Exception):
    """Decompilation failed (cap exceeded or irrecoverably malformed code)."""


@dataclass
class _AbstractValue:
    """A stack slot: a TAC variable name plus an optional known constant."""

    var: str
    const: Optional[int] = None


@dataclass
class _StaticBlock:
    offset: int
    instructions: List[Instruction]
    fallthrough: Optional[int]  # next block offset if control falls through


@dataclass
class _Instance:
    """One context-clone of a static block."""

    ident: str
    offset: int
    entry_stack: List[_AbstractValue]
    # phi inputs per entry position (only for non-constant positions)
    phi_inputs: Dict[int, Set[str]] = field(default_factory=dict)
    statements: List[TACStatement] = field(default_factory=list)
    successors: List[str] = field(default_factory=list)
    taken_successor: Optional[str] = None
    fallthrough_successor: Optional[str] = None
    processed: bool = False


def _split_blocks(code: bytes) -> Dict[int, _StaticBlock]:
    blocks: Dict[int, _StaticBlock] = {}
    block: Optional[_StaticBlock] = None
    for ins in iter_code(code):
        if block is None:
            block = blocks[ins.offset] = _StaticBlock(ins.offset, [ins], None)
            continue
        last = block.instructions[-1].opcode
        if last.alters_control_flow or ins.opcode.name == "JUMPDEST":
            if not last.is_terminator:
                block.fallthrough = ins.offset
            block = blocks[ins.offset] = _StaticBlock(ins.offset, [ins], None)
        else:
            block.instructions.append(ins)
    return blocks


class _Lifter:
    def __init__(
        self,
        code: bytes,
        max_stack: int = 128,
        max_clones: int = 64,
        max_states: int = 20_000,
        deadline=None,
    ):
        self.code = code
        self.static_blocks = _split_blocks(code)
        self.max_stack = max_stack
        self.max_clones = max_clones
        self.max_states = max_states
        # Duck-typed cooperative budget (``check()`` raises when spent) —
        # see repro.core.pipeline.Deadline.  Checked per worklist item so a
        # state-explosion-prone lift cannot blow through the budget.
        self.deadline = deadline
        self.instances: Dict[Tuple[int, Optional[Tuple[Optional[int], ...]]], _Instance] = {}
        self.clone_count: Dict[int, int] = {}
        self.worklist: List[_Instance] = []
        self.var_counter = 0
        self.const_value: Dict[str, int] = {}
        self.unresolved: List[str] = []

    # ------------------------------------------------------------- helpers

    def _fresh_var(self, hint: str = "v") -> str:
        self.var_counter += 1
        return "%s%d" % (hint, self.var_counter)

    def _context_key(
        self, offset: int, stack: Sequence[_AbstractValue]
    ) -> Tuple[int, Optional[Tuple[Optional[int], ...]]]:
        return offset, tuple(av.const for av in stack)

    def _get_instance(
        self, offset: int, incoming: List[_AbstractValue]
    ) -> Optional[_Instance]:
        """Find or create the instance of ``offset`` for the incoming stack."""
        if offset not in self.static_blocks:
            return None
        if len(incoming) > self.max_stack:
            incoming = incoming[-self.max_stack :]

        key = self._context_key(offset, incoming)
        collapsed = False
        if key not in self.instances and self.clone_count.get(offset, 0) >= self.max_clones:
            # Collapse: one all-unknown instance per (offset, depth).
            key = (offset, (None,) * len(incoming))
            collapsed = True

        instance = self.instances.get(key)
        if instance is None:
            if len(self.instances) >= self.max_states:
                raise LiftError(
                    "state explosion: more than %d block instances" % self.max_states
                )
            self.clone_count[offset] = self.clone_count.get(offset, 0) + 1
            ident = "B%x_%d" % (offset, self.clone_count[offset])
            entry_stack = []
            for position, av in enumerate(incoming):
                const = None if collapsed else av.const
                entry_stack.append(
                    _AbstractValue(var="%s_s%d" % (ident, position), const=const)
                )
            instance = _Instance(ident=ident, offset=offset, entry_stack=entry_stack)
            self.instances[key] = instance
            self.worklist.append(instance)
        return instance

    def _connect(
        self,
        source: _Instance,
        out_stack: List[_AbstractValue],
        target_offset: int,
        kind: str,
    ) -> None:
        """Add an edge from ``source`` to the instance for ``target_offset``."""
        target = self._get_instance(target_offset, out_stack)
        if target is None:
            return
        if target.ident not in source.successors:
            source.successors.append(target.ident)
        if kind == "taken":
            source.taken_successor = target.ident
        elif kind == "fallthrough":
            source.fallthrough_successor = target.ident
        # Register phi inputs for non-constant entry positions.
        for position, av in enumerate(out_stack[-len(target.entry_stack) :] if target.entry_stack else []):
            entry = target.entry_stack[position]
            if entry.const is None:
                target.phi_inputs.setdefault(position, set()).add(av.var)

    # ------------------------------------------------------------- driving

    def run(self) -> TACProgram:
        entry = self._get_instance(0, [])
        if entry is None:
            return TACProgram()
        while self.worklist:
            if self.deadline is not None:
                self.deadline.check()
            instance = self.worklist.pop()
            if instance.processed:
                continue
            instance.processed = True
            self._execute(instance)
        return self._finalize(entry)

    def _execute(self, instance: _Instance) -> None:
        block = self.static_blocks[instance.offset]
        ident = instance.ident
        stack: List[_AbstractValue] = list(instance.entry_stack)
        emit = instance.statements.append
        const_value = self.const_value
        fresh_var = self._fresh_var
        seq = 0

        # Materialize constants for constant entry positions.
        for av in instance.entry_stack:
            if av.const is not None:
                const_value[av.var] = av.const
                emit(
                    TACStatement(
                        ident="%s_entry%d" % (ident, seq),
                        opcode="CONST",
                        defs=[av.var],
                        uses=[],
                        pc=instance.offset,
                        block=ident,
                    )
                )
                seq += 1

        def pop() -> _AbstractValue:
            if stack:
                return stack.pop()
            # Stack underflow relative to the entry: synthesize an unknown
            # (happens only for malformed code or collapsed contexts).
            return _AbstractValue(var=fresh_var("u"))

        def pad(depth: int) -> None:
            while len(stack) < depth:
                stack.insert(0, _AbstractValue(var=fresh_var("u")))

        for ins in block.instructions:
            opcode = ins.opcode
            if opcode.is_push:
                var = fresh_var()
                value = ins.operand or 0
                const_value[var] = value
                seq += 1
                emit(
                    TACStatement(
                        ident="%s_%d" % (ident, seq),
                        opcode="CONST",
                        defs=[var],
                        uses=[],
                        pc=ins.offset,
                        block=ident,
                    )
                )
                stack.append(_AbstractValue(var=var, const=value))
                continue
            if opcode.is_dup:
                n = opcode.value - 0x80 + 1
                pad(n)
                stack.append(stack[-n])
                continue
            if opcode.is_swap:
                n = opcode.value - 0x90 + 1
                pad(n + 1)
                stack[-1], stack[-n - 1] = stack[-n - 1], stack[-1]
                continue
            name = opcode.name
            if name == "POP":
                pop()
                continue
            if name == "JUMPDEST":
                continue

            # Everything else emits one statement over its popped operands.
            operands = [pop() for _ in range(opcode.pops)]
            seq += 1
            statement = TACStatement(
                ident="%s_%d" % (ident, seq),
                opcode=name,
                defs=[],
                uses=[op.var for op in operands],
                pc=ins.offset,
                block=ident,
            )
            if opcode.pushes:
                const = None
                fold = _FOLDABLE.get(name)
                if fold is not None:
                    left, right = operands
                    if left.const is not None and right.const is not None:
                        const = fold(left.const, right.const)
                var = fresh_var()
                if const is not None:
                    const_value[var] = const
                statement.defs.append(var)
                stack.append(_AbstractValue(var=var, const=const))
            emit(statement)
            if not opcode.alters_control_flow:
                continue
            # A jump connects its successors; a terminator just ends here.
            if name in ("JUMP", "JUMPI"):
                target = operands[0]
                out = list(stack)
                if target.const is not None:
                    self._connect(instance, out, target.const, "taken")
                else:
                    self.unresolved.append(statement.ident)
                if name == "JUMPI" and block.fallthrough is not None:
                    self._connect(instance, out, block.fallthrough, "fallthrough")
            return

        # Fell off the end of the block.
        if block.fallthrough is not None:
            self._connect(instance, list(stack), block.fallthrough, "fallthrough")

    # ----------------------------------------------------------- finishing

    def _finalize(self, entry: _Instance) -> TACProgram:
        program = TACProgram(entry=entry.ident, const_value=dict(self.const_value))
        program.unresolved_jumps = list(self.unresolved)
        for instance in self.instances.values():
            block = TACBlock(
                ident=instance.ident,
                offset=instance.offset,
                successors=list(instance.successors),
                taken_successor=instance.taken_successor,
                fallthrough_successor=instance.fallthrough_successor,
            )
            # PHI statements for joined entry positions.
            phi_statements: List[TACStatement] = []
            for position, av in enumerate(instance.entry_stack):
                if av.const is not None:
                    continue
                inputs = instance.phi_inputs.get(position)
                if not inputs:
                    continue
                phi_statements.append(
                    TACStatement(
                        ident="%s_phi%d" % (instance.ident, position),
                        opcode="PHI",
                        defs=[av.var],
                        uses=sorted(inputs),
                        pc=instance.offset,
                        block=instance.ident,
                    )
                )
            block.statements = phi_statements + instance.statements
            program.blocks[block.ident] = block
        # Fill predecessor lists.
        for block in program.blocks.values():
            for successor in block.successors:
                if successor in program.blocks:
                    program.blocks[successor].predecessors.append(block.ident)
        return program


def lift(code: bytes, **caps) -> TACProgram:
    """Decompile ``code`` into a :class:`TACProgram`.

    Keyword caps: ``max_stack``, ``max_clones``, ``max_states``, plus an
    optional cooperative ``deadline`` — see :class:`_Lifter`.  Raises
    :class:`LiftError` on state explosion; a spent deadline raises the
    deadline's own exception mid-lift.
    """
    return _Lifter(code, **caps).run()
