"""The Figure 3/4 inference rules as Datalog, run on :mod:`repro.datalog`.

The paper implements Ethainter "as a set of several hundred declarative
rules in the Datalog language" executed by Soufflé (§5).  This module states
the distilled formal model in exactly that style — the rules below are a
line-by-line transliteration of Figures 3 and 4 — and evaluates it on our
semi-naive engine.  The test suite checks the resulting relations coincide
with the hand-written fixpoint of :mod:`repro.core.abstract_analysis` on
both crafted and randomly generated programs.
"""

from __future__ import annotations

import functools
from typing import Dict, Set, Tuple

from repro.core.abstract_analysis import AbstractResult, analyze_abstract
from repro.core.lang import (
    AbstractProgram,
    Call,
    Const,
    Guard,
    Hash,
    Input,
    Op,
    SENDER,
    SLoad,
    SStore,
    Sink,
)
from repro.datalog import Database, Engine, Rule, parse_program

# The rule text mirrors Figures 3 and 4; relation names follow Figure 2.
ETHAINTER_RULES = r"""
// ---- Figure 4: sender-keyed data structures -------------------------
DS(x) :- SenderVar(x).                        // DS-SenderKey
DSA(x) :- HashStmt(x, y), DS(y).              // DS-Lookup
DSA(x) :- HashStmt(x, y), DSA(y).             // DSA-Lookup
DSA(x) :- OpUse(x, y), DSA(y).                // DS-AddrOp-1/2
DS(t)  :- SLoadStmt(f, t), DSA(f).            // DSA-Load

// ---- Figure 3: information flow -------------------------------------
InputTaintedVar(x) :- InputStmt(x).                          // LoadInput
InputTaintedVar(x) :- OpUse(x, y), InputTaintedVar(y).       // Operation-1/2
StorageTaintedVar(x) :- OpUse(x, y), StorageTaintedVar(y).
InputTaintedVar(x) :- HashStmt(x, y), InputTaintedVar(y).    // hash extension
StorageTaintedVar(x) :- HashStmt(x, y), StorageTaintedVar(y).

StorageTaintedVar(x) :- GuardStmt(x, p, y), StorageTaintedVar(y).   // Guard-1
InputTaintedVar(x) :- GuardStmt(x, p, y), InputTaintedVar(y),
                      NonSanitizingGuard(p).                        // Guard-2

TaintedVar(x) :- InputTaintedVar(x).
TaintedVar(x) :- StorageTaintedVar(x).

TaintedStorage(v) :- SStoreStmt(f, t), TaintedVar(f), ConstVal(t, v).   // StorageWrite-1
TaintedStorage(v) :- SStoreStmt(f, t), TaintedVar(f), TaintedVar(t),
                     !HasConst(t), KnownSlot(v).                        // StorageWrite-2

StorageTaintedVar(t) :- SLoadStmt(f, t), ConstVal(f, v),
                        TaintedStorage(v).                              // StorageLoad

Violation(x) :- SinkStmt(x), TaintedVar(x).                             // Violation

NonSanitizingGuard(p) :- EqStmt(p, y, z), SenderVar(y),
                         Alias(z, v), TaintedStorage(v).                // Uguard-T
NonSanitizingGuard(p) :- EqStmt(p, y, z), SenderVar(z),
                         Alias(y, v), TaintedStorage(v).
NonSanitizingGuard(p) :- EqStmt(p, y, z), !DS(y), !DS(z).               // Uguard-NDS

// ---- §4.5: computed sinks ("tainted owner variable") ----------------
SinkSlot(v) :- GuardStmt(g, p, x), EqStmt(p, y, z), SenderVar(y),
               Alias(z, v), TaintedVar(x).
SinkSlot(v) :- GuardStmt(g, p, x), EqStmt(p, y, z), SenderVar(z),
               Alias(y, v), TaintedVar(x).

// ---- Reentrancy ordering stratum ------------------------------------
// Straight-line instruction order is precomputed into the EDB (the
// engine has no arithmetic): CallBeforeStore(c, v) when a non-static
// call c precedes an SSTORE to constant slot v, CallPathRead(c, v) when
// an SLOAD of v precedes c.  A call that re-reads a slot it later
// rewrites re-enters against a stale check; a bare write-after is the
// weaker checks-effects-interactions residue, derived in a later
// stratum so it never doubles a ReentrantCall.
ReentrantCall(c) :- CallStmt(c), CallBeforeStore(c, v), CallPathRead(c, v).
StateWriteAfterCall(c) :- CallStmt(c), CallBeforeStore(c, v), !ReentrantCall(c).
"""


def facts_from_program(program: AbstractProgram) -> Database:
    """Extract the EDB relations from an abstract program.

    ``ConstVal`` and ``Alias`` mirror the conventional value-flow/alias
    analyses the paper takes as given; they are computed here by the shared
    pre-stratum code in :mod:`repro.core.abstract_analysis` so that both
    implementations see identical auxiliary relations.
    """
    database = Database()
    database.add("SenderVar", (SENDER,))

    # Reuse the reference implementation's pre-stratum results for
    # ConstValue and StorageAliasVar (they are defined before any taint).
    reference = analyze_abstract(AbstractProgram(instructions=list(program.instructions)))

    for variable, value in reference.const_value.items():
        database.add("ConstVal", (variable, value))
        database.add("HasConst", (variable,))
    for variable, slots in reference.storage_alias.items():
        for slot in slots:
            database.add("Alias", (variable, slot))

    known_slots: Set[int] = set()
    for ins in program.instructions:
        if isinstance(ins, Input):
            database.add("InputStmt", (ins.x,))
        elif isinstance(ins, Op):
            database.add("OpUse", (ins.x, ins.y))
            if ins.z is not None:
                database.add("OpUse", (ins.x, ins.z))
            if ins.is_equality and ins.z is not None:
                database.add("EqStmt", (ins.x, ins.y, ins.z))
        elif isinstance(ins, Hash):
            database.add("HashStmt", (ins.x, ins.y))
        elif isinstance(ins, Guard):
            database.add("GuardStmt", (ins.x, ins.p, ins.y))
        elif isinstance(ins, SStore):
            database.add("SStoreStmt", (ins.f, ins.t))
            slot = reference.const_value.get(ins.t)
            if slot is not None:
                known_slots.add(slot)
        elif isinstance(ins, SLoad):
            database.add("SLoadStmt", (ins.f, ins.t))
            slot = reference.const_value.get(ins.f)
            if slot is not None:
                known_slots.add(slot)
        elif isinstance(ins, Sink):
            database.add("SinkStmt", (ins.x,))
        elif isinstance(ins, Const):
            pass  # already covered by ConstVal
    for slot in known_slots:
        database.add("KnownSlot", (slot,))

    # Reentrancy ordering EDB: straight-line position precomputed here so
    # the rules stay order-free (the engine has no comparisons).
    for position, ins in enumerate(program.instructions):
        if not isinstance(ins, Call) or ins.static:
            continue
        database.add("CallStmt", (ins.ident,))
        for earlier in program.instructions[:position]:
            if isinstance(earlier, SLoad):
                slot = reference.const_value.get(earlier.f)
                if slot is not None:
                    database.add("CallPathRead", (ins.ident, slot))
        for later in program.instructions[position + 1 :]:
            if isinstance(later, SStore):
                slot = reference.const_value.get(later.t)
                if slot is not None:
                    database.add("CallBeforeStore", (ins.ident, slot))
    return database


@functools.lru_cache(maxsize=None)
def _ethainter_rules() -> Tuple[Rule, ...]:
    """``ETHAINTER_RULES``, parsed once per process (a shared tuple)."""
    return tuple(parse_program(ETHAINTER_RULES).rules)


def analyze_with_datalog(
    program: AbstractProgram, use_plans: bool = True
) -> AbstractResult:
    """Run the Figure 3/4 rules on the Datalog engine; package the result
    in the same :class:`AbstractResult` shape as the direct fixpoint.
    ``use_plans=False`` runs the legacy interpreter (benchmark baseline)."""
    database = facts_from_program(program)
    engine = Engine(_ethainter_rules(), use_plans=use_plans)
    engine.evaluate(database)

    result = AbstractResult()
    result.engine_stats = engine.stats.as_dict()
    result.input_tainted = {row[0] for row in database.facts("InputTaintedVar")}
    result.storage_tainted = {row[0] for row in database.facts("StorageTaintedVar")}
    result.tainted_storage = {row[0] for row in database.facts("TaintedStorage")}
    result.non_sanitizing = {row[0] for row in database.facts("NonSanitizingGuard")}
    result.ds = {row[0] for row in database.facts("DS")}
    result.dsa = {row[0] for row in database.facts("DSA")}
    result.violations = {row[0] for row in database.facts("Violation")}
    result.computed_sinks = {row[0] for row in database.facts("SinkSlot")}
    result.reentrant_calls = {row[0] for row in database.facts("ReentrantCall")}
    result.state_write_after_call = {
        row[0] for row in database.facts("StateWriteAfterCall")
    }

    const_value: Dict[str, int] = {}
    for variable, value in database.facts("ConstVal"):
        const_value[variable] = value
    result.const_value = const_value
    alias: Dict[str, Set[int]] = {}
    for variable, slot in database.facts("Alias"):
        alias.setdefault(variable, set()).add(slot)
    result.storage_alias = alias
    return result
