"""A Datalog engine with semi-naive evaluation and stratified negation.

Stands in for the Soufflé engine (Jordan et al., CAV'16) that executes the
Ethainter rules in the paper.  Supports:

* mutually recursive rules evaluated semi-naively (delta relations),
* stratified negation (negative dependencies may not occur inside a
  recursive component — checked at stratification time),
* compiled join plans (:mod:`repro.datalog.planner`): literals reordered
  by a sideways-information-passing heuristic, compiled once per process
  and cached, each run as a generated join kernel, constants and facts
  interned to dense ints, indexes registered eagerly, per-rule
  :class:`~repro.datalog.planner.EngineStats` profiling,
* wildcard ``_`` arguments, constants, and Python filter predicates,
* a textual parser for a Soufflé-like surface syntax (``:-``, ``!``, ``.``)
  with parse-time arity checking,
* a program linter (:mod:`repro.datalog.lint`) covering range restriction,
  negation safety, arity consistency, unused relations, and a
  stratification preview.

The engine is deliberately generic: the Ethainter core rules
(:mod:`repro.core.datalog_rules`) and the abstract-language formalism both
run on it, and its fixpoints are cross-checked against hand-written
fixpoint code in the test suite.
"""

from repro.datalog.terms import Atom, Literal, Rule, Variable, var
from repro.datalog.engine import Database, Engine, StratificationError
from repro.datalog.planner import EngineStats, PlanningError
from repro.datalog.parser import (
    DatalogSyntaxError,
    parse_program,
    parse_program_lenient,
    parse_rule,
)

__all__ = [
    "Variable",
    "var",
    "Atom",
    "Literal",
    "Rule",
    "Database",
    "Engine",
    "EngineStats",
    "PlanningError",
    "StratificationError",
    "DatalogSyntaxError",
    "parse_program",
    "parse_program_lenient",
    "parse_rule",
]
