"""Query planning and compilation for the Datalog engine.

The paper's whole-chain run rests on Soufflé *compiling* Datalog rules to
specialized join code once and then evaluating the compiled program per
input (§5–6); an interpreter that rediscovers bound positions and
allocates closures on every derivation cannot keep up.  This module
performs the equivalent ahead-of-time work for
:class:`~repro.datalog.engine.Engine`:

* **Stratification** — relations are grouped into strongly connected
  components of the rule dependency graph; a negative edge inside an SCC
  is a :class:`StratificationError`.  Components are ordered
  topologically, so a negated relation is fully computed before it is
  read.
* **Join ordering** — body literals are reordered once per rule by a
  sideways-information-passing (SIP) heuristic: at each step the literal
  with the most bound argument positions wins, ties broken by estimated
  relation size (smaller first) and then by source order.  Filters and
  negated literals are attached as *guards* to the earliest generator that
  binds all of their variables, so they prune as soon as possible.
* **Slot compilation** — rule variables are mapped to dense integer slots;
  at evaluation time a binding is a flat list indexed by slot, not a dict
  keyed by :class:`~repro.datalog.terms.Variable`.
* **Index signatures** — every join step precomputes its bound positions
  and key layout, so the engine registers the needed hash indexes eagerly
  (before the fixpoint starts) instead of building them lazily mid-round.
* **Delta variants** — for each recursive body position, a separate plan
  variant treats that literal as the semi-naive delta: it is preferred
  early in the join order (deltas are small), and when probed it uses a
  per-round delta index, so both sides of a recursive join are indexed.

Plans are *compiled* once and *bound* once per evaluation.  A compiled
plan (:class:`RulePlan`, :class:`PlanVariant`, :class:`JoinStep`,
:class:`NegGuard`, :class:`FilterGuard`) is immutable — assigning to it
raises — and holds raw constants, so one plan backs any number of live
engines at once.  Binding is the engine's job: it interns the constants
against one database's symbol table and captures that database's index,
relation and column references in bound objects the engine owns.

Compilation is cached per process, keyed by content.
:func:`compile_program` keys a rule program on every rule's text, head
and body (a :class:`~repro.datalog.terms.Filter` compares by its
predicate object, so programs that differ only in a predicate never share
plans) and caches its :class:`CompiledProgram`: the strata, the relation
roles per stratum, and the static plans.  Each variant is cached on
``(rule, delta position, size ranks)``: the ordering heuristic only ever
*compares* the sizes of a rule's positive body relations, so replacing
the sizes by their dense ranks within the rule yields the same join order
and the key is exact.  Both caches are LRUs bounded by module constants;
:func:`cache_info` reports their counters.  :class:`EngineStats` is the
observability record the engine fills while executing plans.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.datalog.terms import Filter, Literal, Rule, Variable


class StratificationError(Exception):
    """The program uses negation through recursion."""


class PlanningError(ValueError):
    """A rule cannot be compiled into a join plan.

    Raised for rules that would die with an opaque ``KeyError`` in a naive
    interpreter: a wildcard in a negated literal, a negated or filter
    variable no positive literal ever binds, or an unbindable head
    variable.  Safety-checked rules never trigger this; rules built with
    ``check=False`` (the linter's path) can.
    """


@dataclass
class EngineStats:
    """Per-engine observability counters (the ``--profile`` payload).

    ``rule_derivations`` counts *new* facts per rule (first derivations);
    ``rule_matches`` counts every head tuple a rule produced, including
    duplicates — the gap between the two is re-derivation overhead.
    ``join_probes`` counts candidate-source fetches (index probes plus
    relation/delta scans), ``index_hits`` the full-relation index probes
    that returned at least one candidate.

    The columnar executor fills ``batches`` (join steps executed
    block-wise), ``batch_rows`` (rows surviving each step), and
    ``rule_batches`` (batch executions per rule).  Incremental repair
    (:meth:`~repro.datalog.engine.Engine.apply_changes`) fills
    ``incremental_applies``, ``overdeleted_facts``/``rederived_facts``
    (the DRed delete/restore pair), ``delta_derived_facts`` and
    ``rule_delta_derivations`` (facts added by delta propagation, per
    rule), ``retracted_facts`` (net facts leaving the database), and
    ``strata_recomputed`` (strata that fell back to a from-scratch rerun
    because a negated dependency changed).
    """

    evaluations: int = 0
    iterations: int = 0
    stratum_iterations: List[int] = field(default_factory=list)
    derived_facts: int = 0
    matches: int = 0
    join_probes: int = 0
    index_probes: int = 0
    index_hits: int = 0
    index_builds: int = 0
    delta_index_builds: int = 0
    batches: int = 0
    batch_rows: int = 0
    incremental_applies: int = 0
    overdeleted_facts: int = 0
    rederived_facts: int = 0
    delta_derived_facts: int = 0
    retracted_facts: int = 0
    strata_recomputed: int = 0
    rule_derivations: Dict[str, int] = field(default_factory=dict)
    rule_matches: Dict[str, int] = field(default_factory=dict)
    rule_batches: Dict[str, int] = field(default_factory=dict)
    rule_delta_derivations: Dict[str, int] = field(default_factory=dict)

    def count_rule(self, rule_key: str, matches: int, derived: int) -> None:
        """Fold one plan execution's per-rule counters in."""
        if matches:
            self.matches += matches
            self.rule_matches[rule_key] = (
                self.rule_matches.get(rule_key, 0) + matches
            )
        if derived:
            self.derived_facts += derived
            self.rule_derivations[rule_key] = (
                self.rule_derivations.get(rule_key, 0) + derived
            )

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready snapshot (per-rule maps sorted by count, descending)."""
        def ranked(counter: Dict[str, int]) -> Dict[str, int]:
            return dict(
                sorted(counter.items(), key=lambda item: (-item[1], item[0]))
            )

        payload = self.scalar_counters()
        payload["stratum_iterations"] = list(self.stratum_iterations)
        payload["rule_derivations"] = ranked(self.rule_derivations)
        payload["rule_matches"] = ranked(self.rule_matches)
        payload["rule_batches"] = ranked(self.rule_batches)
        payload["rule_delta_derivations"] = ranked(self.rule_delta_derivations)
        return payload

    def scalar_counters(self) -> Dict[str, int]:
        """The flat integer counters only (batch summaries, CI artifacts)."""
        return {
            "evaluations": self.evaluations,
            "iterations": self.iterations,
            "derived_facts": self.derived_facts,
            "matches": self.matches,
            "join_probes": self.join_probes,
            "index_probes": self.index_probes,
            "index_hits": self.index_hits,
            "index_builds": self.index_builds,
            "delta_index_builds": self.delta_index_builds,
            "batches": self.batches,
            "batch_rows": self.batch_rows,
            "incremental_applies": self.incremental_applies,
            "overdeleted_facts": self.overdeleted_facts,
            "rederived_facts": self.rederived_facts,
            "delta_derived_facts": self.delta_derived_facts,
            "retracted_facts": self.retracted_facts,
            "strata_recomputed": self.strata_recomputed,
        }


# ------------------------------------------------------------ plan structure
#
# A *spec* is a tuple of (from_slot, value) pairs: from_slot=True reads the
# environment slot ``value``; from_slot=False is a raw constant (the engine
# interns it when it binds the plan to a database).

Spec = Tuple[Tuple[bool, Any], ...]


class _Compiled:
    """Base of the compiled plan objects: read-only once constructed, so
    one cached plan can back many live engines at once."""

    __slots__ = ()

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(
            "compiled %s is immutable (tried to set %r)"
            % (type(self).__name__, name)
        )

    def __delattr__(self, name: str) -> None:
        raise AttributeError(
            "compiled %s is immutable (tried to delete %r)"
            % (type(self).__name__, name)
        )

    def _init(self, **fields: Any) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)


def _has_constant(spec: Spec) -> bool:
    return any(not from_slot for from_slot, _ in spec)


class JoinStep(_Compiled):
    """One positive body literal, compiled: where its candidates come from
    (full relation or delta, scan or index probe) and how a candidate fact
    extends the environment (``outs``) or is checked against it
    (``checks``).  ``const_key`` says whether ``key_spec`` holds constants
    the engine must intern when it binds the step.

    The columnar executor additionally uses ``arity`` (to shape delta
    columns), ``check_pairs`` (same-literal repeated-variable checks as
    column-pair comparisons) and ``live_after`` (the slots worth
    materializing after this step — everything later steps, guards, or
    the head still read)."""

    __slots__ = (
        "relation",
        "delta",
        "positions",
        "key_spec",
        "const_key",
        "outs",
        "checks",
        "check_pairs",
        "guards",
        "orig_index",
        "arity",
        "live_after",
    )

    def __init__(
        self,
        relation: str,
        delta: bool,
        positions: Tuple[int, ...],
        key_spec: Spec,
        outs: Tuple[Tuple[int, int], ...],
        checks: Tuple[Tuple[int, int], ...],
        orig_index: int,
        arity: int = 0,
        check_pairs: Tuple[Tuple[int, int], ...] = (),
        guards: Tuple[Any, ...] = (),
        live_after: Tuple[int, ...] = (),
    ):
        self._init(
            relation=relation,
            delta=delta,
            positions=positions,
            key_spec=key_spec,
            const_key=_has_constant(key_spec),
            outs=outs,
            checks=checks,
            check_pairs=check_pairs,
            guards=guards,
            orig_index=orig_index,
            arity=arity,
            live_after=live_after,
        )

    def __repr__(self) -> str:
        source = "Δ" if self.delta else ""
        return "<join %s%s key=%r>" % (source, self.relation, self.positions)


class NegGuard(_Compiled):
    """A negated literal, compiled to a full-tuple membership probe."""

    __slots__ = ("relation", "key_spec", "const_key", "orig_index")

    def __init__(self, relation: str, key_spec: Spec, orig_index: int):
        self._init(
            relation=relation,
            key_spec=key_spec,
            const_key=_has_constant(key_spec),
            orig_index=orig_index,
        )

    def __repr__(self) -> str:
        return "<neg %s>" % self.relation


class FilterGuard(_Compiled):
    """A Python filter predicate, compiled; slot values are decoded back to
    raw constants before the predicate sees them, so a filter needs no
    binding and executes as compiled."""

    __slots__ = ("predicate", "arg_spec", "name", "orig_index")

    def __init__(self, predicate: Callable[..., bool], arg_spec: Spec, name: str, orig_index: int):
        self._init(
            predicate=predicate,
            arg_spec=arg_spec,
            name=name,
            orig_index=orig_index,
        )

    def __repr__(self) -> str:
        return "<filter %s>" % self.name


class PlanVariant(_Compiled):
    """One executable ordering of a rule's body.

    ``key`` is the rule's text (the per-rule :class:`EngineStats` key).
    ``delta_relation`` names the relation the variant's delta step scans
    (None for the seed/naive variant).  ``prelude`` holds guards whose
    variables are bound before any generator runs (constant-only filters
    and negations).  ``ground_head`` says the head is all constants;
    ``const_head`` that it has at least one."""

    __slots__ = (
        "rule",
        "key",
        "delta_position",
        "delta_relation",
        "prelude",
        "steps",
        "head_relation",
        "head_spec",
        "const_head",
        "ground_head",
        "n_slots",
    )

    def __init__(
        self,
        rule: Rule,
        delta_position: Optional[int],
        prelude: Tuple[Any, ...],
        steps: Tuple[JoinStep, ...],
        head_spec: Spec,
        n_slots: int,
        key: Optional[str] = None,
    ):
        self._init(
            rule=rule,
            key=repr(rule) if key is None else key,
            delta_position=delta_position,
            delta_relation=(
                None
                if delta_position is None
                else rule.body[delta_position].atom.relation
            ),
            prelude=prelude,
            steps=steps,
            head_relation=rule.head.relation,
            head_spec=head_spec,
            const_head=_has_constant(head_spec),
            ground_head=all(not from_slot for from_slot, _ in head_spec),
            n_slots=n_slots,
        )

    def order(self) -> List[str]:
        """Relation names in execution order (tests / debugging)."""
        return [step.relation for step in self.steps]

    def __repr__(self) -> str:
        return "<plan %s :- %s>" % (
            self.head_relation,
            ", ".join(self.order()) or "true",
        )


class RulePlan(_Compiled):
    """All compiled variants of one rule: the seed (all-full) variant plus
    one delta-specialized variant per recursive body position."""

    __slots__ = ("rule", "key", "seed", "delta_variants")

    def __init__(
        self,
        rule: Rule,
        seed: PlanVariant,
        delta_variants: Dict[int, PlanVariant],
    ):
        self._init(
            rule=rule,
            key=seed.key,
            seed=seed,
            delta_variants=delta_variants,
        )

    def variants(self) -> List[PlanVariant]:
        """Every variant (seed first)."""
        return [self.seed] + list(self.delta_variants.values())

    def __repr__(self) -> str:
        return "<rule-plan %s (%d delta variant(s))>" % (
            self.key,
            len(self.delta_variants),
        )


# -------------------------------------------------------------- compilation


def _guard_variables(item: Any) -> List[Variable]:
    """Non-wildcard variables a guard (filter or negated literal) reads."""
    args = item.atom.args if isinstance(item, Literal) else item.args
    return [
        arg for arg in args if isinstance(arg, Variable) and not arg.is_wildcard
    ]


def _bound_argument_count(literal: Literal, bound: Set[Variable]) -> int:
    """How many of the literal's argument positions are bound (constants
    always are; wildcards never)."""
    count = 0
    for arg in literal.atom.args:
        if isinstance(arg, Variable):
            if not arg.is_wildcard and arg in bound:
                count += 1
        else:
            count += 1
    return count


def _order_body(
    rule: Rule,
    delta_position: Optional[int],
    size_of: Callable[[str], int],
) -> Tuple[List[Tuple[int, Any]], List[Tuple[int, Any]], Dict[int, List[Tuple[int, Any]]]]:
    """Schedule the rule body: returns ``(generators, prelude_guards,
    guards_after)`` where ``generators`` is the ordered list of
    ``(orig_index, Literal)`` positive literals, ``prelude_guards`` the
    guards runnable before any generator, and ``guards_after`` maps a
    generator's orig_index to the guards that become runnable right after
    it.

    Sizes are only ever compared with each other (never added or scaled),
    which is what makes the plan cache's rank key exact."""
    positives: List[Tuple[int, Literal]] = []
    guards: List[Tuple[int, Any]] = []
    for index, item in enumerate(rule.body):
        if isinstance(item, Literal) and not item.negated:
            positives.append((index, item))
        else:
            if isinstance(item, Literal):
                for arg in item.atom.args:
                    if isinstance(arg, Variable) and arg.is_wildcard:
                        raise PlanningError(
                            "wildcard in negated literal %r of rule %r"
                            % (item, rule)
                        )
            guards.append((index, item))

    bound: Set[Variable] = set()
    generators: List[Tuple[int, Literal]] = []
    prelude: List[Tuple[int, Any]] = []
    guards_after: Dict[int, List[Tuple[int, Any]]] = {}

    def flush_guards(after: Optional[int]) -> None:
        nonlocal guards
        still_pending = []
        for entry in guards:
            if all(variable in bound for variable in _guard_variables(entry[1])):
                if after is None:
                    prelude.append(entry)
                else:
                    guards_after.setdefault(after, []).append(entry)
            else:
                still_pending.append(entry)
        guards = still_pending

    def schedule(index: int, literal: Literal) -> None:
        generators.append((index, literal))
        bound.update(literal.atom.variables())
        flush_guards(index)

    flush_guards(None)
    remaining = list(positives)
    if delta_position is not None:
        chosen = next(
            entry for entry in remaining if entry[0] == delta_position
        )
        remaining.remove(chosen)
        # The delta literal still competes in the ordering, but with an
        # effective size of -1 it is preferred at equal bound counts.
        remaining.insert(0, chosen)

    pending = remaining
    while pending:
        best = None
        best_score = None
        for entry in pending:
            index, literal = entry
            size = -1 if index == delta_position else size_of(literal.atom.relation)
            score = (_bound_argument_count(literal, bound), -size, -index)
            if best_score is None or score > best_score:
                best, best_score = entry, score
        pending = [entry for entry in pending if entry is not best]
        schedule(*best)

    if guards:
        index, item = guards[0]
        unbound = [
            variable
            for variable in _guard_variables(item)
            if variable not in bound
        ]
        kind = "negated literal" if isinstance(item, Literal) else "filter"
        raise PlanningError(
            "variable(s) %s of %s %r are never bound by a positive literal "
            "in rule %r" % (unbound, kind, item, rule)
        )
    return generators, prelude, guards_after


def _compile_guard(item: Any, orig_index: int, slot_of: Dict[Variable, int]) -> Any:
    """Compile a filter or negated literal into its guard object."""
    if isinstance(item, Literal):
        key_spec = []
        for arg in item.atom.args:
            if isinstance(arg, Variable):
                key_spec.append((True, slot_of[arg]))
            else:
                key_spec.append((False, arg))
        return NegGuard(item.atom.relation, tuple(key_spec), orig_index)
    arg_spec = []
    for arg in item.args:
        if isinstance(arg, Variable):
            if arg.is_wildcard or arg not in slot_of:
                raise PlanningError(
                    "filter %r reads variable %r that is never bound"
                    % (item, arg)
                )
            arg_spec.append((True, slot_of[arg]))
        else:
            arg_spec.append((False, arg))
    return FilterGuard(item.predicate, tuple(arg_spec), item.name, orig_index)


_compiles = 0  # compile_variant calls in this process (see cache_info)


def compile_variant(
    rule: Rule,
    delta_position: Optional[int] = None,
    size_of: Optional[Callable[[str], int]] = None,
    key: Optional[str] = None,
) -> PlanVariant:
    """Compile one ordering of ``rule`` (seed, or delta-specialized on the
    body literal at ``delta_position``).  Uncached: the engine reaches
    this through :meth:`CompiledProgram.plans`, which caches variants."""
    global _compiles
    _compiles += 1
    if size_of is None:
        size_of = lambda relation: 0  # noqa: E731 - trivial default
    generators, prelude_items, guards_after = _order_body(
        rule, delta_position, size_of
    )

    slot_of: Dict[Variable, int] = {}
    # JoinStep fields per generator; the steps are built once liveness is
    # known, since compiled steps are immutable.
    step_fields: List[Dict[str, Any]] = []
    for orig_index, literal in generators:
        positions: List[int] = []
        key_spec: List[Tuple[bool, Any]] = []
        outs: List[Tuple[int, int]] = []
        checks: List[Tuple[int, int]] = []
        check_pairs: List[Tuple[int, int]] = []
        new_here: Set[Variable] = set()
        out_position_of: Dict[int, int] = {}
        for position, arg in enumerate(literal.atom.args):
            if isinstance(arg, Variable):
                if arg.is_wildcard:
                    continue
                slot = slot_of.get(arg)
                if slot is None:
                    slot = slot_of[arg] = len(slot_of)
                    new_here.add(arg)
                    outs.append((position, slot))
                    out_position_of[slot] = position
                elif arg in new_here:
                    # Repeated occurrence bound earlier in this same
                    # literal: compare, don't probe.  ``check_pairs``
                    # records the same comparison as a column pair for
                    # the batch executor.
                    checks.append((position, slot))
                    check_pairs.append((position, out_position_of[slot]))
                else:
                    positions.append(position)
                    key_spec.append((True, slot))
            else:
                positions.append(position)
                key_spec.append((False, arg))
        step_fields.append(
            dict(
                relation=literal.atom.relation,
                delta=orig_index == delta_position,
                positions=tuple(positions),
                key_spec=tuple(key_spec),
                outs=tuple(outs),
                checks=tuple(checks),
                orig_index=orig_index,
                arity=literal.atom.arity,
                check_pairs=tuple(check_pairs),
                guards=tuple(
                    _compile_guard(item, guard_index, slot_of)
                    for guard_index, item in guards_after.get(orig_index, ())
                ),
            )
        )

    prelude = tuple(
        _compile_guard(item, guard_index, slot_of)
        for guard_index, item in prelude_items
    )

    head_spec: List[Tuple[bool, Any]] = []
    for arg in rule.head.args:
        if isinstance(arg, Variable):
            if arg.is_wildcard:
                raise PlanningError("wildcard in rule head: %r" % rule)
            slot = slot_of.get(arg)
            if slot is None:
                raise PlanningError(
                    "head variable %r of rule %r is never bound" % (arg, rule)
                )
            head_spec.append((True, slot))
        else:
            head_spec.append((False, arg))

    live = _live_slots(step_fields, tuple(head_spec))
    return PlanVariant(
        rule=rule,
        delta_position=delta_position,
        prelude=prelude,
        steps=tuple(
            JoinStep(live_after=live_after, **fields)
            for fields, live_after in zip(step_fields, live)
        ),
        head_spec=tuple(head_spec),
        n_slots=len(slot_of),
        key=key,
    )


def _guard_slots(guard: Any) -> Set[int]:
    """Environment slots a compiled guard reads."""
    spec = guard.key_spec if isinstance(guard, NegGuard) else guard.arg_spec
    return {value for from_slot, value in spec if from_slot}


def _live_slots(
    step_fields: List[Dict[str, Any]], head_spec: Spec
) -> List[Tuple[int, ...]]:
    """Backward liveness pass for the batch executor: ``live_after`` of a
    step is every slot that a later step's key/guards or the head still
    reads, restricted to slots actually bound by then — the batch
    materializes exactly these columns and drops the rest."""
    needed: Set[int] = {value for from_slot, value in head_spec if from_slot}
    live: List[Set[int]] = [set()] * len(step_fields)
    for index in range(len(step_fields) - 1, -1, -1):
        fields = step_fields[index]
        wanted = set(needed)
        for guard in fields["guards"]:
            wanted |= _guard_slots(guard)
        live[index] = wanted
        out_slots = {slot for _, slot in fields["outs"]}
        key_slots = {
            value for from_slot, value in fields["key_spec"] if from_slot
        }
        needed = (wanted - out_slots) | key_slots
    bound: Set[int] = set()
    result: List[Tuple[int, ...]] = []
    for index, fields in enumerate(step_fields):
        bound |= {slot for _, slot in fields["outs"]}
        result.append(tuple(sorted(live[index] & bound)))
    return result


def compile_rule(
    rule: Rule,
    recursive_relations: Optional[Set[str]] = None,
    size_of: Optional[Callable[[str], int]] = None,
) -> RulePlan:
    """Compile ``rule`` into its seed variant plus one delta variant per
    body literal whose relation is in ``recursive_relations`` (the heads of
    the rule's stratum).  Uncached (tests and debugging)."""
    recursive_relations = recursive_relations or set()
    key = repr(rule)
    seed = compile_variant(rule, None, size_of, key)
    delta_variants: Dict[int, PlanVariant] = {}
    for position, item in enumerate(rule.body):
        if (
            isinstance(item, Literal)
            and not item.negated
            and item.atom.relation in recursive_relations
        ):
            delta_variants[position] = compile_variant(
                rule, position, size_of, key
            )
    return RulePlan(rule, seed, delta_variants)


# ----------------------------------------------------------- stratification
#
# The SCC machinery is shared with the program linter's stratification
# preview (:mod:`repro.datalog.lint`).


def rule_dependency_graph(
    rules: Sequence[Rule],
) -> Tuple[Set[str], List[Tuple[str, str, bool]]]:
    """The relation dependency graph of ``rules``.

    Returns ``(relations, edges)`` where each edge is
    ``(body relation, head relation, negated)``.
    """
    relations: Set[str] = set()
    edges: List[Tuple[str, str, bool]] = []
    for rule in rules:
        relations.add(rule.head.relation)
        for item in rule.body:
            if isinstance(item, Literal):
                relations.add(item.atom.relation)
                edges.append((item.atom.relation, rule.head.relation, item.negated))
    return relations, edges


def strongly_connected_components(
    relations: Iterable[str], successors: Dict[str, Set[str]]
) -> Tuple[List[List[str]], Dict[str, int]]:
    """Tarjan SCC (iterative).  Returns ``(components, component_of)``;
    components are emitted in reverse topological order."""
    index_counter = [0]
    stack: List[str] = []
    lowlink: Dict[str, int] = {}
    index: Dict[str, int] = {}
    on_stack: Set[str] = set()
    component_of: Dict[str, int] = {}
    components: List[List[str]] = []

    def strongconnect(node: str) -> None:
        worklist = [(node, iter(successors.get(node, ())))]
        index[node] = lowlink[node] = index_counter[0]
        index_counter[0] += 1
        stack.append(node)
        on_stack.add(node)
        while worklist:
            current, successor_iter = worklist[-1]
            advanced = False
            for successor in successor_iter:
                if successor not in index:
                    index[successor] = lowlink[successor] = index_counter[0]
                    index_counter[0] += 1
                    stack.append(successor)
                    on_stack.add(successor)
                    worklist.append((successor, iter(successors.get(successor, ()))))
                    advanced = True
                    break
                if successor in on_stack:
                    lowlink[current] = min(lowlink[current], index[successor])
            if advanced:
                continue
            worklist.pop()
            if worklist:
                parent = worklist[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[current])
            if lowlink[current] == index[current]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component_of[member] = len(components)
                    component.append(member)
                    if member == current:
                        break
                components.append(component)

    for rel in relations:
        if rel not in index:
            strongconnect(rel)
    return components, component_of


def condensation_levels(
    components: List[List[str]],
    component_of: Dict[str, int],
    edges: List[Tuple[str, str, bool]],
) -> Dict[int, int]:
    """Stratum level per component: Kahn-style longest path over the SCC
    condensation of ``edges``."""
    condensed: Dict[int, Set[int]] = {i: set() for i in range(len(components))}
    for source, target, _ in edges:
        s, t = component_of[source], component_of[target]
        if s != t:
            condensed[s].add(t)
    indegree: Dict[int, int] = {i: 0 for i in range(len(components))}
    for source_component, targets in condensed.items():
        for target_component in targets:
            indegree[target_component] += 1
    queue = [c for c, d in indegree.items() if d == 0]
    level: Dict[int, int] = {c: 0 for c in queue}
    while queue:
        current = queue.pop()
        for target_component in condensed[current]:
            level[target_component] = max(
                level.get(target_component, 0), level[current] + 1
            )
            indegree[target_component] -= 1
            if indegree[target_component] == 0:
                queue.append(target_component)
    return level


def stratify(rules: Sequence[Rule]) -> Tuple[Tuple[Rule, ...], ...]:
    """Group ``rules`` into strata, lowest first (rules keep source order
    within a stratum); raises :class:`StratificationError` for negation
    through recursion."""
    relations, edges = rule_dependency_graph(rules)
    successors: Dict[str, Set[str]] = {rel: set() for rel in relations}
    for source, target, _ in edges:
        successors[source].add(target)

    components, component_of = strongly_connected_components(
        relations, successors
    )

    # Negative edge inside one SCC => not stratifiable.
    for source, target, negated in edges:
        if negated and component_of[source] == component_of[target]:
            raise StratificationError(
                "negation of %r is recursive with %r" % (source, target)
            )

    level = condensation_levels(components, component_of, edges)
    max_level = max(level.values(), default=0)
    strata: List[List[Rule]] = [[] for _ in range(max_level + 1)]
    for rule in rules:
        component = component_of[rule.head.relation]
        strata[level.get(component, 0)].append(rule)
    return tuple(tuple(stratum) for stratum in strata if stratum)


# --------------------------------------------------------------- plan cache
#
# Bounds of the per-process caches (LRU).  The shipped programs have a few
# dozen rules and ~70 plan variants each; a 1,000-contract corpus needs a
# few hundred variants in all.

PROGRAM_CACHE_SIZE = 64  # compiled programs kept
PLAN_CACHE_SIZE = 4096  # compiled plan variants kept


class _LRU:
    """A bounded least-recently-used map with hit/miss counters.  Callers
    hold ``_CACHE_LOCK`` around every access."""

    __slots__ = ("maxsize", "data", "hits", "misses")

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self.data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable) -> Any:
        value = self.data.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
            self.data.move_to_end(key)
        return value

    def put(self, key: Hashable, value: Any) -> None:
        self.data[key] = value
        while len(self.data) > self.maxsize:
            self.data.popitem(last=False)


# One lock for both caches: the serve daemon's threads construct engines
# concurrently, and an OrderedDict's get/move/evict sequence is not atomic.
_CACHE_LOCK = threading.Lock()
_PROGRAMS = _LRU(PROGRAM_CACHE_SIZE)
# Programs by the identity of the tuple they were built from, so callers
# that hold their parsed rules in a tuple skip the content-key work.  The
# entry keeps the tuple alive, so its id cannot be reused while cached.
_PROGRAMS_BY_ID = _LRU(PROGRAM_CACHE_SIZE)
_VARIANTS = _LRU(PLAN_CACHE_SIZE)


class _RuleKey:
    """Content key of one rule: its text (which is also its stats key),
    head and body.  A :class:`~repro.datalog.terms.Filter` compares by its
    predicate object, so rules that differ only in a predicate differ
    here; the text tells apart constants that compare equal across types
    (``1`` and ``True``).  The hash is computed once."""

    __slots__ = ("text", "content", "hash")

    def __init__(self, rule: Rule):
        self.text = repr(rule)
        self.content = (self.text, rule.head, tuple(rule.body))
        self.hash = hash(self.content)

    def __hash__(self) -> int:
        return self.hash

    def __eq__(self, other: Any) -> bool:
        return self is other or (
            isinstance(other, _RuleKey)
            and self.hash == other.hash
            and self.content == other.content
        )


def _size_ranks(
    relations: Tuple[str, ...], size_of: Callable[[str], int]
) -> Tuple[int, ...]:
    """Dense ranks of the sizes of a rule's positive body relations (in
    body order): the part of the sizes that join ordering can observe."""
    if len(relations) < 2:
        return (0,) * len(relations)
    sizes = [size_of(relation) for relation in relations]
    distinct = sorted(set(sizes))
    if len(distinct) == 1:
        return (0,) * len(sizes)
    rank_of = {size: rank for rank, size in enumerate(distinct)}
    return tuple(rank_of[size] for size in sizes)


class _RuleEntry:
    """Per-rule planning inputs of a :class:`CompiledProgram`."""

    __slots__ = ("rule", "key", "relations", "deltas", "all_deltas")

    def __init__(self, rule: Rule, stratum_heads: Set[str]):
        positives = [
            (position, item.atom.relation)
            for position, item in enumerate(rule.body)
            if isinstance(item, Literal) and not item.negated
        ]
        self.rule = rule
        self.key = _RuleKey(rule)
        self.relations = tuple(relation for _, relation in positives)
        # Delta variants for body literals recursive within the stratum;
        # DRed repair needs one for every positive literal, since changes
        # can arrive in any body relation (EDB or lower-stratum IDB).
        self.deltas = tuple(
            position
            for position, relation in positives
            if relation in stratum_heads
        )
        self.all_deltas = tuple(position for position, _ in positives)


class CompiledProgram:
    """The data-independent half of a rule program, built once per process
    by :func:`compile_program` and shared by every engine that runs the
    program: its strata, the relation roles per stratum (head, positively
    read, negated), and the plans, compiled on demand per size ordering."""

    __slots__ = (
        "strata",
        "stratum_heads",
        "stratum_pos",
        "stratum_neg",
        "_entries",
        "_static",
    )

    def __init__(self, rules: Sequence[Rule]):
        self.strata = stratify(rules)
        heads_per: List[frozenset] = []
        pos_per: List[frozenset] = []
        neg_per: List[frozenset] = []
        entries: List[Tuple[_RuleEntry, ...]] = []
        for stratum in self.strata:
            heads: Set[str] = set()
            reads_pos: Set[str] = set()
            reads_neg: Set[str] = set()
            for rule in stratum:
                heads.add(rule.head.relation)
                for item in rule.body:
                    if isinstance(item, Literal):
                        if item.negated:
                            reads_neg.add(item.atom.relation)
                        else:
                            reads_pos.add(item.atom.relation)
            heads_per.append(frozenset(heads))
            pos_per.append(frozenset(reads_pos))
            neg_per.append(frozenset(reads_neg))
            entries.append(tuple(_RuleEntry(rule, heads) for rule in stratum))
        self.stratum_heads = tuple(heads_per)
        self.stratum_pos = tuple(pos_per)
        self.stratum_neg = tuple(neg_per)
        self._entries = tuple(entries)
        self._static: Optional[Tuple[Tuple[RulePlan, ...], ...]] = None

    def static_plans(self) -> Tuple[Tuple[RulePlan, ...], ...]:
        """Plans against no size estimates.  Compiling them surfaces
        :class:`PlanningError` (wildcards in negation, unbindable filter
        variables); a program whose static plans compile compiles under
        every size ordering, since sizes only reorder literals."""
        static = self._static
        if static is None:
            static = self.plans(lambda relation: 0)
            self._static = static  # idempotent: equal plans on a race
        return static

    def plans(
        self, size_of: Callable[[str], int], all_deltas: bool = False
    ) -> Tuple[Tuple[RulePlan, ...], ...]:
        """Plans for every stratum, ordered by the relation sizes
        ``size_of`` reports.  Variants come from the process-wide plan
        cache; only a (rule, delta position, size ranks) key never seen
        before is compiled."""
        ranked = [
            [(entry, _size_ranks(entry.relations, size_of)) for entry in stratum]
            for stratum in self._entries
        ]
        out: List[Tuple[RulePlan, ...]] = []
        with _CACHE_LOCK:
            for stratum in ranked:
                stratum_plans: List[RulePlan] = []
                for entry, ranks in stratum:
                    seed = _cached_variant(entry, None, ranks)
                    positions = entry.all_deltas if all_deltas else entry.deltas
                    stratum_plans.append(
                        RulePlan(
                            entry.rule,
                            seed,
                            {
                                position: _cached_variant(
                                    entry, position, ranks
                                )
                                for position in positions
                            },
                        )
                    )
                out.append(tuple(stratum_plans))
        return tuple(out)


def _cached_variant(
    entry: _RuleEntry,
    delta_position: Optional[int],
    ranks: Tuple[int, ...],
) -> PlanVariant:
    """The variant for one plan-cache key, compiled on a miss.  The delta
    literal's own size never matters (it always sorts as -1), so the full
    rank tuple is a finer key than needed and still exact."""
    key = (entry.key, delta_position, ranks)
    variant = _VARIANTS.get(key)
    if variant is None:
        rank_of = dict(zip(entry.relations, ranks))
        variant = compile_variant(
            entry.rule, delta_position, rank_of.__getitem__, entry.key.text
        )
        _VARIANTS.put(key, variant)
    return variant


def compile_program(rules: Sequence[Rule]) -> CompiledProgram:
    """The :class:`CompiledProgram` for ``rules``, from the program cache
    when an equal rule sequence was compiled before.  Raises
    :class:`StratificationError` for an unstratifiable program (nothing
    is cached then)."""
    by_id = isinstance(rules, tuple)
    with _CACHE_LOCK:
        if by_id:
            entry = _PROGRAMS_BY_ID.get(id(rules))
            if entry is not None and entry[0] is rules:
                return entry[1]
    # Source lines join the program key (not the plan key) so the rules a
    # cached program records in provenance match the caller's in every
    # field; re-parsed identical text still hits.
    key = tuple((_RuleKey(rule), rule.line) for rule in rules)
    with _CACHE_LOCK:
        program = _PROGRAMS.get(key)
    if program is None:
        program = CompiledProgram(rules)
        with _CACHE_LOCK:
            _PROGRAMS.put(key, program)
    if by_id:
        with _CACHE_LOCK:
            _PROGRAMS_BY_ID.put(id(rules), (rules, program))
    return program


def cache_info() -> Dict[str, int]:
    """Counters of the per-process plan caches: ``compiles`` is every
    :func:`compile_variant` call so far (cache misses plus direct calls);
    ``plan_*``/``program_*`` are the variant and program LRUs' hits,
    misses, current size and bound."""
    with _CACHE_LOCK:
        return {
            "compiles": _compiles,
            "plan_hits": _VARIANTS.hits,
            "plan_misses": _VARIANTS.misses,
            "plans": len(_VARIANTS.data),
            "plan_maxsize": _VARIANTS.maxsize,
            "program_hits": _PROGRAMS.hits + _PROGRAMS_BY_ID.hits,
            "program_misses": _PROGRAMS.misses,
            "programs": len(_PROGRAMS.data),
            "program_maxsize": _PROGRAMS.maxsize,
        }


def cache_clear() -> None:
    """Drop every cached program and plan (counters are kept), so the next
    engine compiles from scratch — the cold side of exactness tests."""
    with _CACHE_LOCK:
        _PROGRAMS.data.clear()
        _PROGRAMS_BY_ID.data.clear()
        _VARIANTS.data.clear()
