"""Semi-naive, stratified Datalog evaluation over compiled join plans.

Evaluation pipeline:

1. **Stratification** — relations are grouped into strongly connected
   components of the rule dependency graph; a negative edge inside an SCC is
   a :class:`StratificationError` (the program is not stratifiable).  SCCs
   are evaluated in topological order, so a negated relation is always fully
   computed before it is read.  Done once per program and cached (see
   :func:`~repro.datalog.planner.compile_program`).
2. **Query planning** — each rule is compiled (see
   :mod:`repro.datalog.planner`) into immutable join plans: body literals
   reordered by a sideways-information-passing heuristic, per-literal index
   signatures precomputed, and one delta-specialized variant per recursive
   body position.  Plans are cached per process on (rule, delta position,
   size ranks); each evaluation binds them to its database (constants
   interned, indexes registered eagerly) in bound objects the engine owns,
   and executes the bound plans with a flat, non-recursive interpreter.
3. **Semi-naive iteration** — within a recursive SCC, each round runs the
   delta variants whose delta relation gained facts in the previous round,
   probing per-round delta indexes so both sides of a recursive join are
   indexed.

The database interns every constant into a dense symbol table, so stored
tuples are int-only: hashing, equality, and index keys never touch the
original (possibly string) values.  The legacy closure-recursion
interpreter is kept behind ``Engine(use_plans=False)`` as the equivalence
baseline; both paths produce byte-identical fixpoints and provenance.
"""

from __future__ import annotations

import os
from array import array
from itertools import repeat
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.datalog.planner import (
    EngineStats,
    JoinStep,
    NegGuard,
    PlanningError,
    PlanVariant,
    RulePlan,
    StratificationError,  # noqa: F401 - re-exported by repro.datalog
    compile_program,
)
from repro.datalog.terms import (
    Atom,
    Binding,
    Filter,
    Literal,
    Rule,
    Variable,
    match,
    substitute,
)


# ------------------------------------------------------------ columnar store


def _intersect_runs(left: Sequence[int], right: Sequence[int]) -> List[int]:
    """Intersection of two ascending row-id runs (merge walk)."""
    out: List[int] = []
    append = out.append
    i = j = 0
    len_left = len(left)
    len_right = len(right)
    while i < len_left and j < len_right:
        x = left[i]
        y = right[j]
        if x == y:
            append(x)
            i += 1
            j += 1
        elif x < y:
            i += 1
        else:
            j += 1
    return out


def _probe_runs(
    postings: Sequence[Dict[int, Sequence[int]]], key: Sequence[int]
) -> Optional[Sequence[int]]:
    """Row ids matching ``key`` across per-position postings: the first
    position's run, narrowed by sorted-run intersection with each further
    position's run.  Runs append in insertion order so they are ascending
    by construction.  Returns None on a miss."""
    run = postings[0].get(key[0])
    if not run:
        return None
    for index in range(1, len(key)):
        other = postings[index].get(key[index])
        if not other:
            return None
        run = _intersect_runs(run, other)
        if not run:
            return None
    return run


class ColumnarRelation:
    """Column-oriented storage for one relation: parallel ``array('q')``
    columns of interned ids (one per argument position) plus per-position
    postings mapping a key id to the ascending run of row ids carrying it.

    Rows only append (the engine's fixpoint is monotone within an
    evaluation); a removal invalidates row ids, so the database drops the
    whole view and the next columnar bind rebuilds it."""

    __slots__ = ("arity", "rows", "columns", "postings")

    def __init__(self, arity: int):
        self.arity = arity
        self.rows = 0
        self.columns: List[array] = [array("q") for _ in range(arity)]
        self.postings: Dict[int, Dict[int, array]] = {}

    def append(self, fact: Tuple[int, ...]) -> None:
        row = self.rows
        for column, value in zip(self.columns, fact):
            column.append(value)
        self.rows = row + 1
        for position, posting in self.postings.items():
            key = fact[position]
            run = posting.get(key)
            if run is None:
                posting[key] = array("q", (row,))
            else:
                run.append(row)

    def register_posting(self, position: int) -> Dict[int, array]:
        """Ensure the posting index for ``position`` exists (built by one
        scan of the column; appends keep it fresh)."""
        posting = self.postings.get(position)
        if posting is None:
            posting = {}
            for row, key in enumerate(self.columns[position]):
                run = posting.get(key)
                if run is None:
                    posting[key] = array("q", (row,))
                else:
                    run.append(row)
            self.postings[position] = posting
        return posting

    def row_ids(
        self, positions: Tuple[int, ...], key: Tuple[int, ...]
    ) -> Sequence[int]:
        """Rows whose values at ``positions`` equal ``key`` (interned),
        via sorted-run intersection of the per-position postings."""
        postings = [self.register_posting(position) for position in positions]
        run = _probe_runs(postings, key)
        return run if run is not None else ()


class Database:
    """Interned fact storage with eagerly maintainable hash indexes.

    Every constant is interned into a dense symbol table on first sight, so
    relations store tuples of small ints: hashing, equality, and index keys
    are int-only no matter how large the original values are.  The public
    API (``add``/``facts``/``lookup``/``contains``) still speaks raw
    values — interning is invisible to callers.

    Indexes live per relation (``_indexes[relation][positions]``) so an
    insert only maintains the inserted relation's indexes; they are
    registered eagerly by compiled join plans (:meth:`register_index`) and
    updated incrementally by every subsequent insert.
    """

    def __init__(self) -> None:
        self._intern: Dict[Any, int] = {}
        self._symbols: List[Any] = []
        # relation -> set of interned tuples
        self._relations: Dict[str, Set[Tuple[int, ...]]] = {}
        # relation -> {bound positions: {interned key: [interned facts]}} —
        # nested by relation so inserts only touch the inserted relation's
        # indexes (a flat map made every add() scan every index).
        self._indexes: Dict[str, Dict[Tuple[int, ...], Dict[Tuple, List[Tuple]]]] = {}
        # relation -> cached frozenset of decoded facts (facts() result),
        # invalidated on insert.
        self._decoded: Dict[str, frozenset] = {}
        # relation -> {interned fact: decoded fact} memo for lookup().
        self._fact_memo: Dict[str, Dict[Tuple, Tuple]] = {}
        # relation -> ColumnarRelation, registered by columnar plan binds
        # and kept fresh by inserts; dropped wholesale on removal.
        self._columnar: Dict[str, ColumnarRelation] = {}

    # ---------------------------------------------------------- interning

    def intern_value(self, value: Any) -> int:
        """Dense id for ``value``, allocating one on first sight."""
        ident = self._intern.get(value)
        if ident is None:
            ident = len(self._symbols)
            self._intern[value] = ident
            self._symbols.append(value)
        return ident

    def decode(self, fact: Tuple[int, ...]) -> Tuple:
        """Raw-value tuple for an interned fact."""
        symbols = self._symbols
        return tuple(symbols[ident] for ident in fact)

    # ------------------------------------------------------------ mutation

    def add(self, relation: str, fact: Iterable) -> bool:
        """Insert one fact (raw values); returns True if it was new."""
        intern = self._intern
        symbols = self._symbols
        interned: List[int] = []
        for value in fact:
            ident = intern.get(value)
            if ident is None:
                ident = len(symbols)
                intern[value] = ident
                symbols.append(value)
            interned.append(ident)
        return self._add_interned(relation, tuple(interned))

    def _add_interned(self, relation: str, fact: Tuple[int, ...]) -> bool:
        """Insert an already-interned fact; returns True if it was new."""
        rel = self._relations.get(relation)
        if rel is None:
            rel = self._relations[relation] = set()
        if fact in rel:
            return False
        rel.add(fact)
        indexes = self._indexes.get(relation)
        if indexes:
            for positions, index in indexes.items():
                key = tuple(fact[position] for position in positions)
                bucket = index.get(key)
                if bucket is None:
                    index[key] = [fact]
                else:
                    bucket.append(fact)
        view = self._columnar.get(relation)
        if view is not None:
            view.append(fact)
        self._decoded.pop(relation, None)
        return True

    def add_all(self, relation: str, facts: Iterable[Iterable]) -> int:
        """Insert many facts; returns how many were new."""
        return sum(1 for fact in facts if self.add(relation, fact))

    def remove(self, relation: str, fact: Iterable) -> bool:
        """Remove one fact (raw values); returns True if it was present."""
        intern = self._intern
        interned: List[int] = []
        for value in fact:
            ident = intern.get(value)
            if ident is None:
                return False
            interned.append(ident)
        return self.remove_interned(relation, tuple(interned))

    def remove_interned(self, relation: str, fact: Tuple[int, ...]) -> bool:
        """Remove an already-interned fact, maintaining hash indexes and
        invalidating caches; returns True if it was present.

        Columnar views are append-only (row ids would dangle), so the
        relation's view is dropped and rebuilt at the next columnar bind."""
        rel = self._relations.get(relation)
        if rel is None or fact not in rel:
            return False
        rel.discard(fact)
        indexes = self._indexes.get(relation)
        if indexes:
            for positions, index in indexes.items():
                key = tuple(fact[position] for position in positions)
                bucket = index.get(key)
                if bucket is not None:
                    try:
                        bucket.remove(fact)
                    except ValueError:
                        pass
                    if not bucket:
                        del index[key]
        self._decoded.pop(relation, None)
        self._columnar.pop(relation, None)
        return True

    # -------------------------------------------------------------- reads

    def facts(self, relation: str) -> frozenset:
        """Immutable snapshot of ``relation``'s facts (raw values).

        The frozenset is cached until the relation next changes, so
        repeated reads of a settled relation are free and callers can no
        longer corrupt the store by mutating the result.
        """
        cached = self._decoded.get(relation)
        if cached is None:
            symbols = self._symbols
            cached = frozenset(
                tuple(symbols[ident] for ident in fact)
                for fact in self._relations.get(relation, ())
            )
            self._decoded[relation] = cached
        return cached

    def relations(self) -> List[str]:
        """Names of all non-empty relations."""
        return [name for name, rel in self._relations.items() if rel]

    def contains(self, relation: str, fact: Iterable) -> bool:
        """Membership test for one fact (raw values)."""
        intern = self._intern
        interned: List[int] = []
        for value in fact:
            ident = intern.get(value)
            if ident is None:
                return False
            interned.append(ident)
        return tuple(interned) in self._relations.get(relation, ())

    def count(self, relation: str) -> int:
        """Number of facts in ``relation``."""
        return len(self._relations.get(relation, ()))

    def lookup(
        self, relation: str, positions: Tuple[int, ...], key: Tuple
    ) -> Iterable[Tuple]:
        """Facts whose values at ``positions`` equal ``key``.

        With bound positions this probes (building if needed) the matching
        hash index and returns a list of decoded facts; with no positions
        it returns the cached :meth:`facts` frozenset instead of copying
        the whole relation.
        """
        if not positions:
            return self.facts(relation)
        relation_indexes = self._indexes.setdefault(relation, {})
        index = relation_indexes.get(positions)
        if index is None:
            index = self._build_index(relation, positions)
        intern = self._intern
        interned_key: List[int] = []
        for value in key:
            ident = intern.get(value)
            if ident is None:
                return []
            interned_key.append(ident)
        bucket = index.get(tuple(interned_key))
        if not bucket:
            return []
        memo = self._fact_memo.setdefault(relation, {})
        symbols = self._symbols
        out: List[Tuple] = []
        for fact in bucket:
            decoded = memo.get(fact)
            if decoded is None:
                decoded = memo[fact] = tuple(symbols[ident] for ident in fact)
            out.append(decoded)
        return out

    def clone_relation(self, relation: str) -> Set[Tuple]:
        """A mutable copy of one relation's decoded fact set."""
        return set(self.facts(relation))

    # ----------------------------------------------------- engine plumbing

    def register_index(
        self, relation: str, positions: Tuple[int, ...]
    ) -> Tuple[Dict[Tuple, List[Tuple]], bool]:
        """Ensure a hash index on ``positions`` exists (compiled plans call
        this eagerly at bind time, before the fixpoint starts).

        Returns ``(index, built)`` where ``built`` says whether this call
        created it; the returned dict is live — inserts keep it fresh.
        """
        relation_indexes = self._indexes.setdefault(relation, {})
        index = relation_indexes.get(positions)
        if index is not None:
            return index, False
        return self._build_index(relation, positions), True

    def _build_index(
        self, relation: str, positions: Tuple[int, ...]
    ) -> Dict[Tuple, List[Tuple]]:
        index: Dict[Tuple, List[Tuple]] = {}
        for fact in self._relations.get(relation, ()):
            key = tuple(fact[position] for position in positions)
            index.setdefault(key, []).append(fact)
        self._indexes.setdefault(relation, {})[positions] = index
        return index

    def relation_view(self, relation: str) -> Set[Tuple[int, ...]]:
        """The live *interned* fact set of ``relation``, created on demand
        so bind-time captured references stay valid as facts arrive."""
        rel = self._relations.get(relation)
        if rel is None:
            rel = self._relations[relation] = set()
        return rel

    def columnar_view(self, relation: str, arity: int) -> ColumnarRelation:
        """The live columnar view of ``relation``, built from the current
        fact set on first request and maintained by subsequent inserts."""
        view = self._columnar.get(relation)
        if view is None:
            view = ColumnarRelation(arity)
            for fact in self._relations.get(relation, ()):
                view.append(fact)
            self._columnar[relation] = view
        return view


class _BoundStep:
    """A compiled :class:`~repro.datalog.planner.JoinStep` bound to one
    database: its structure plus the interned key (``key_spec``, and
    ``static_key`` when every key value is a constant) and the live
    index / relation / column references the executors read."""

    __slots__ = (
        "relation",
        "delta",
        "positions",
        "key_spec",
        "static_key",
        "outs",
        "checks",
        "check_pairs",
        "guards",
        "orig_index",
        "arity",
        "live_after",
        "rel_set",
        "index",
        "columnar",
        "postings",
    )

    def __init__(
        self,
        step: JoinStep,
        key_spec,
        static_key: Optional[Tuple],
        guards: Tuple[Any, ...],
        rel_set: Optional[Set[Tuple]],
        index: Optional[Dict[Tuple, List[Tuple]]],
        columnar: Optional[ColumnarRelation],
        postings: Optional[Tuple[Dict[int, Any], ...]],
    ) -> None:
        self.relation = step.relation
        self.delta = step.delta
        self.positions = step.positions
        self.key_spec = key_spec
        self.static_key = static_key
        self.outs = step.outs
        self.checks = step.checks
        self.check_pairs = step.check_pairs
        self.guards = guards
        self.orig_index = step.orig_index
        self.arity = step.arity
        self.live_after = step.live_after
        self.rel_set = rel_set
        self.index = index
        self.columnar = columnar
        self.postings = postings


class _BoundNeg:
    """A compiled negation guard bound to one database: interned probe
    spec plus the live fact set it probes."""

    __slots__ = ("relation", "key_spec", "rel_set")

    def __init__(self, relation: str, key_spec, rel_set: Set[Tuple]) -> None:
        self.relation = relation
        self.key_spec = key_spec
        self.rel_set = rel_set


class _BoundVariant:
    """A compiled plan variant bound to one database."""

    __slots__ = (
        "key",
        "delta_relation",
        "prelude",
        "steps",
        "head_spec",
        "static_head",
        "n_slots",
    )

    def __init__(
        self, variant: PlanVariant, prelude, steps, head_spec, static_head
    ) -> None:
        self.key = variant.key
        self.delta_relation = variant.delta_relation
        self.prelude = prelude
        self.steps = steps
        self.head_spec = head_spec
        self.static_head = static_head
        self.n_slots = variant.n_slots


class _BoundPlan:
    """A compiled rule plan bound to one database: the seed variant and
    the delta variants (in body order), ready for the executors."""

    __slots__ = ("rule", "key", "seed", "deltas")

    def __init__(self, plan: RulePlan, variants: List[_BoundVariant]) -> None:
        self.rule = plan.rule
        self.key = plan.key
        self.seed = variants[0]
        self.deltas = tuple(variants[1:])


class Engine:
    """Evaluates a rule set over a database to fixpoint.

    Construction looks the program up in the planner's per-process cache
    (:func:`~repro.datalog.planner.compile_program`): stratification,
    relation roles and the static plans are computed once per distinct
    rule set, so building an engine per contract costs a lookup.  Each
    :meth:`evaluate` fetches the plans for the database's relation-size
    ordering from the same cache and binds them — interned constants and
    live index references in bound objects this engine owns — so cached
    plans are never mutated and any number of engines share them.
    ``use_plans=False`` selects the legacy closure-recursion interpreter,
    kept as the equivalence and benchmark baseline.  ``stats`` accumulates
    :class:`EngineStats` counters across evaluations on either path.

    With ``track_provenance=True`` the engine records, for each derived
    fact, the rule and body facts of its *first* derivation; ``explain``
    then renders the derivation tree down to the EDB — the "why" behind an
    analysis warning.

    ``columnar=True`` selects the block-wise columnar executor: relations
    are additionally bound as parallel int columns with row-id postings,
    and each join step extends a whole batch of environment rows at once
    instead of backtracking one tuple at a time.  Fixpoints are
    byte-identical across all executors.  ``columnar=None`` (the default)
    consults the ``REPRO_DATALOG_COLUMNAR`` environment variable, so a CI
    leg can swing every Engine in a test run onto the columnar path.

    After an ``evaluate()`` the engine remembers the database and its EDB
    (the facts present before derivation started); :meth:`apply_changes`
    then accepts EDB additions/retractions and repairs the fixpoint
    incrementally with DRed (overdelete / rederive / insert) instead of
    recomputing from scratch.
    """

    def __init__(
        self,
        rules: Sequence[Rule],
        track_provenance: bool = False,
        use_plans: bool = True,
        columnar: Optional[bool] = None,
    ):
        self.rules = list(rules)
        self.track_provenance = track_provenance
        self.use_plans = use_plans
        if columnar is None:
            flag = os.environ.get("REPRO_DATALOG_COLUMNAR", "")
            columnar = flag.lower() not in ("", "0", "false", "no")
        self.columnar = bool(columnar) and use_plans
        self.stats = EngineStats()
        # (relation, fact) -> (rule, [(relation, fact), ...]) of 1st proof.
        self.provenance: Dict[Tuple[str, Tuple], Tuple[Rule, List[Tuple[str, Tuple]]]] = {}
        # Raises StratificationError for negation through recursion.
        program = compile_program(rules if isinstance(rules, tuple) else self.rules)
        self.program = program
        self.strata = program.strata
        # Per-stratum relation roles, used by incremental maintenance to
        # route changes: head relations, positively read relations, and
        # negated relations.
        self._stratum_heads = program.stratum_heads
        self._stratum_pos = program.stratum_pos
        self._stratum_neg = program.stratum_neg
        # Incremental (DRed) state: the database of the last evaluate(),
        # its EDB snapshot, and the lazily fetched all-delta repair plans
        # (compiled, and bound to that database).
        self._inc_db: Optional[Database] = None
        self._inc_edb: Optional[Dict[str, Set[Tuple[int, ...]]]] = None
        self._inc_plans: Optional[Tuple[Tuple[RulePlan, ...], ...]] = None
        self._inc_bound: Optional[List[List[_BoundPlan]]] = None
        # The static plans (no size estimates) surface PlanningErrors —
        # wildcards in negation, unbindable filter variables — at
        # construction; they are compiled once per program.  evaluate()
        # fetches the plans for the live relation sizes.
        self.plans: Tuple[Tuple[RulePlan, ...], ...] = (
            program.static_plans() if use_plans else ()
        )

    # ------------------------------------------------------------ evaluation

    def evaluate(
        self,
        database: Database,
        max_iterations: int = 1_000_000,
        deadline=None,
    ) -> Database:
        """Run all strata to fixpoint, mutating and returning ``database``.

        ``deadline`` is an optional cooperative budget (duck-typed:
        ``check()`` raises when spent), consulted once per semi-naive
        iteration so runaway recursion respects the caller's cutoff.
        """
        self.stats.evaluations += 1
        self._inc_plans = None
        self._inc_bound = None
        if self.use_plans:
            # Snapshot the EDB (everything present before derivation) so
            # apply_changes() can later tell explicit facts from derived
            # ones; plan every stratum against the live EDB sizes so the
            # SIP heuristic orders joins by actual cardinalities, then
            # bind each stratum's plans (intern constants, register
            # indexes) just before it runs.
            self._inc_db = database
            self._inc_edb = {
                relation: set(facts)
                for relation, facts in database._relations.items()
                if facts
            }
            self.plans = self.program.plans(database.count)
            for stratum_plans in self.plans:
                self._evaluate_stratum_compiled(
                    database,
                    self._bind_plans(database, stratum_plans),
                    max_iterations,
                    deadline,
                )
        else:
            self._inc_db = None
            self._inc_edb = None
            for stratum in self.strata:
                self._evaluate_stratum(database, stratum, max_iterations, deadline)
        return database

    # ----------------------------------------------------- compiled executor

    def _bind_plans(
        self,
        database: Database,
        plans: Sequence[RulePlan],
        columnar: Optional[bool] = None,
    ) -> List[_BoundPlan]:
        """Bind every variant of every plan to ``database``: intern plan
        constants, capture live relation views, and eagerly register the
        indexes the join steps declared.  The compiled plans are only
        read; everything database-specific lands in new bound objects."""
        if columnar is None:
            columnar = self.columnar
        bind = self._bind_variant
        return [
            _BoundPlan(
                plan,
                [bind(database, variant, columnar) for variant in plan.variants()],
            )
            for plan in plans
        ]

    def _bind_variant(
        self, database: Database, variant: PlanVariant, columnar: bool
    ) -> _BoundVariant:
        # Constants intern in plan order (prelude, then per step its key
        # and guards, then the head), so symbol ids — and with them set
        # iteration order and provenance — do not depend on the cache.
        intern = database.intern_value
        prelude = tuple(
            self._bind_guard(database, guard) for guard in variant.prelude
        )
        steps: List[_BoundStep] = []
        for step in variant.steps:
            key_spec = step.key_spec
            static_key = None
            if step.const_key:
                key_spec = tuple(
                    (True, value) if from_slot else (False, intern(value))
                    for from_slot, value in key_spec
                )
                if all(not from_slot for from_slot, _ in key_spec):
                    static_key = tuple(value for _, value in key_spec)
            rel_set = index = view = postings = None
            if step.delta:
                pass  # candidates come from the per-round delta sets
            elif columnar:
                view = database.columnar_view(step.relation, step.arity)
                if step.positions:
                    runs = []
                    for position in step.positions:
                        if position not in view.postings:
                            self.stats.index_builds += 1
                        runs.append(view.register_posting(position))
                    postings = tuple(runs)
            elif step.positions:
                index, built = database.register_index(
                    step.relation, step.positions
                )
                if built:
                    self.stats.index_builds += 1
            else:
                rel_set = database.relation_view(step.relation)
            guards = step.guards
            if guards:
                guards = tuple(
                    self._bind_guard(database, guard) for guard in guards
                )
            steps.append(
                _BoundStep(
                    step, key_spec, static_key, guards,
                    rel_set, index, view, postings,
                )
            )
        head_spec = variant.head_spec
        static_head = None
        if variant.const_head:
            head_spec = tuple(
                (True, value) if from_slot else (False, intern(value))
                for from_slot, value in head_spec
            )
        if variant.ground_head:
            static_head = tuple(value for _, value in head_spec)
        return _BoundVariant(variant, prelude, tuple(steps), head_spec, static_head)

    @staticmethod
    def _bind_guard(database: Database, guard):
        if guard.__class__ is NegGuard:
            key_spec = guard.key_spec
            if guard.const_key:
                key_spec = tuple(
                    (True, value)
                    if from_slot
                    else (False, database.intern_value(value))
                    for from_slot, value in key_spec
                )
            return _BoundNeg(
                guard.relation, key_spec, database.relation_view(guard.relation)
            )
        # FilterGuard constants stay raw (predicates see original values),
        # so a filter runs as compiled.
        return guard

    def _evaluate_stratum_compiled(
        self,
        database: Database,
        plans: List[_BoundPlan],
        max_iterations: int,
        deadline=None,
        runner=None,
    ) -> None:
        if runner is None:
            runner = (
                self._run_variant_columnar if self.columnar
                else self._run_variant
            )
        stats = self.stats
        tracking = self.track_provenance
        heads = {plan.rule.head.relation for plan in plans}

        def flush(plan: _BoundPlan, matches, delta_out) -> None:
            derived = 0
            relation = plan.rule.head.relation
            for head_fact, support in matches:
                if database._add_interned(relation, head_fact):
                    derived += 1
                    delta_out[relation].add(head_fact)
                    if tracking:
                        self._record_interned(
                            database, plan.rule, head_fact, support
                        )
            stats.count_rule(plan.key, len(matches), derived)

        # Naive first round to seed deltas, then semi-naive iteration.
        delta: Dict[str, Set[Tuple]] = {rel: set() for rel in heads}
        for plan in plans:
            flush(plan, runner(database, plan.seed, None, None), delta)

        iterations = 0
        while any(delta.values()):
            iterations += 1
            if iterations > max_iterations:
                raise RuntimeError("datalog evaluation did not converge")
            if deadline is not None:
                deadline.check()
            stats.iterations += 1
            new_delta: Dict[str, Set[Tuple]] = {rel: set() for rel in heads}
            delta_index_cache: Dict = {}
            for plan in plans:
                for variant in plan.deltas:
                    if not delta.get(variant.delta_relation):
                        continue
                    flush(
                        plan,
                        runner(database, variant, delta, delta_index_cache),
                        new_delta,
                    )
            delta = new_delta
        stats.stratum_iterations.append(iterations)

    def _run_variant(
        self,
        database: Database,
        variant: _BoundVariant,
        delta: Optional[Dict[str, Set[Tuple]]],
        delta_index_cache: Optional[Dict],
    ) -> List[Tuple[Tuple, list]]:
        """Execute one bound plan variant: a flat backtracking join over
        resumable candidate iterators.  Returns ``(head fact, support)``
        pairs (support is empty unless provenance tracking is on)."""
        env: List[Any] = [None] * variant.n_slots
        for guard in variant.prelude:
            if not self._eval_guard(database, guard, env):
                return []
        steps = variant.steps
        depth = len(steps)
        if depth == 0:
            return [(variant.static_head, [])]
        tracking = self.track_provenance
        results: List[Tuple[Tuple, list]] = []
        iters: List[Any] = [None] * depth
        trail: List[Any] = [None] * depth
        head_spec = variant.head_spec
        static_head = variant.static_head
        level = 0
        iters[0] = self._candidates(steps[0], env, delta, delta_index_cache)
        while level >= 0:
            step = steps[level]
            descended = False
            for fact in iters[level]:
                ok = True
                for position, slot in step.outs:
                    env[slot] = fact[position]
                for position, slot in step.checks:
                    if fact[position] != env[slot]:
                        ok = False
                        break
                if ok:
                    for guard in step.guards:
                        if not self._eval_guard(database, guard, env):
                            ok = False
                            break
                if not ok:
                    continue
                if tracking:
                    trail[level] = (step.orig_index, step.relation, fact)
                if level + 1 == depth:
                    head = static_head
                    if head is None:
                        head = tuple(
                            env[value] if from_slot else value
                            for from_slot, value in head_spec
                        )
                    results.append((head, list(trail) if tracking else []))
                    continue
                level += 1
                iters[level] = self._candidates(
                    steps[level], env, delta, delta_index_cache
                )
                descended = True
                break
            if not descended:
                level -= 1
        return results

    # ----------------------------------------------------- columnar executor

    def _run_variant_columnar(
        self,
        database: Database,
        variant: _BoundVariant,
        delta: Optional[Dict[str, Set[Tuple]]],
        delta_index_cache: Optional[Dict],
    ) -> List[Tuple[Tuple, list]]:
        """Execute one bound plan variant block-wise.

        The environment is a *batch*: parallel slot columns (plain int
        lists) plus a row count.  Each join step extends the whole batch
        at once — posting probes per distinct environment row, column
        slicing to materialize the surviving rows — and intermediate
        batches are deduplicated on their live slots, so redundant
        derivation paths collapse early instead of multiplying.  Returns
        the same ``(head fact, support)`` pairs as :meth:`_run_variant`;
        fixpoints are byte-identical.
        """
        stats = self.stats
        for guard in variant.prelude:
            if not self._eval_guard(database, guard, ()):
                return []
        steps = variant.steps
        if not steps:
            return [(variant.static_head, [])]
        tracking = self.track_provenance
        stats.rule_batches[variant.key] = (
            stats.rule_batches.get(variant.key, 0) + 1
        )
        n_slots = variant.n_slots
        cols: List[Optional[list]] = [None] * n_slots
        count = 1
        # Provenance trails ride along as extra row-id columns, one per
        # completed step, decoded against that step's source columns.
        trail_cols: List[list] = []
        trail_sources: List[Tuple[int, str, Sequence]] = []
        last_step = steps[-1]
        for step in steps:
            stats.batches += 1
            # A batch step issues one candidate fetch per environment row
            # when keyed (count), one scan otherwise.
            stats.join_probes += count if step.positions else 1
            if step.delta:
                src_cols, src_rows, src_postings = self._delta_columns(
                    step, delta, delta_index_cache
                )
            else:
                view = step.columnar
                src_cols = view.columns
                src_rows = view.rows
                src_postings = step.postings
            # ---- select (environment row, source row) pairs
            positions = step.positions
            sel_env: Optional[list]
            if not positions:
                if count == 1:
                    sel_env = None
                    sel_rid: Sequence[int] = range(src_rows)
                else:
                    sel_env = [
                        i for i in range(count) for _ in range(src_rows)
                    ]
                    sel_rid = list(range(src_rows)) * count
            elif step.static_key is not None:
                stats.index_probes += 1
                run = _probe_runs(src_postings, step.static_key)
                if run is None:
                    return []
                stats.index_hits += 1
                if count == 1:
                    sel_env = None
                    sel_rid = run
                else:
                    sel_env = [i for i in range(count) for _ in run]
                    sel_rid = list(run) * count
            elif len(positions) == 1:
                posting_get = src_postings[0].get
                keys = cols[step.key_spec[0][1]]
                stats.index_probes += count
                sel_env = []
                sel_rid = []
                extend_env = sel_env.extend
                extend_rid = sel_rid.extend
                hits = 0
                for i, key in enumerate(keys):
                    run = posting_get(key)
                    if run:
                        hits += 1
                        extend_env(repeat(i, len(run)))
                        extend_rid(run)
                stats.index_hits += hits
            else:
                parts = [
                    cols[value] if from_slot else repeat(value, count)
                    for from_slot, value in step.key_spec
                ]
                stats.index_probes += count
                sel_env = []
                sel_rid = []
                extend_env = sel_env.extend
                extend_rid = sel_rid.extend
                hits = 0
                for i, key in enumerate(zip(*parts)):
                    run = _probe_runs(src_postings, key)
                    if run:
                        hits += 1
                        extend_env(repeat(i, len(run)))
                        extend_rid(run)
                stats.index_hits += hits
            matched = len(sel_rid)
            # ---- same-literal repeated-variable checks (column pairs)
            if matched:
                for position, out_position in step.check_pairs:
                    left = src_cols[position]
                    right = src_cols[out_position]
                    keep = [
                        j for j, r in enumerate(sel_rid) if left[r] == right[r]
                    ]
                    if len(keep) != matched:
                        sel_rid = [sel_rid[j] for j in keep]
                        if sel_env is not None:
                            sel_env = [sel_env[j] for j in keep]
                        matched = len(keep)
                        if not matched:
                            break
            if not matched:
                return []
            stats.batch_rows += matched
            # ---- materialize the surviving rows: carried live slots
            #      (column slices) plus this step's new bindings
            new_cols: List[Optional[list]] = [None] * n_slots
            if sel_env is None:
                for slot in step.live_after:
                    col = cols[slot]
                    if col is not None:
                        new_cols[slot] = [col[0]] * matched
                if tracking and trail_cols:
                    trail_cols = [[tc[0]] * matched for tc in trail_cols]
            else:
                for slot in step.live_after:
                    col = cols[slot]
                    if col is not None:
                        new_cols[slot] = [col[i] for i in sel_env]
                if tracking and trail_cols:
                    trail_cols = [
                        [tc[i] for i in sel_env] for tc in trail_cols
                    ]
            live_set = set(step.live_after)
            for position, slot in step.outs:
                if slot in live_set:
                    src = src_cols[position]
                    new_cols[slot] = [src[r] for r in sel_rid]
            if tracking:
                trail_cols.append(list(sel_rid))
                trail_sources.append((step.orig_index, step.relation, src_cols))
            cols = new_cols
            count = matched
            # ---- guards prune whole batch rows
            for guard in step.guards:
                if guard.__class__ is _BoundNeg:
                    rel_set = guard.rel_set
                    parts = [
                        cols[value] if from_slot else repeat(value, count)
                        for from_slot, value in guard.key_spec
                    ]
                    keep = [
                        j for j, probe in enumerate(zip(*parts))
                        if probe not in rel_set
                    ]
                else:
                    symbols = database._symbols
                    predicate = guard.predicate
                    arg_spec = guard.arg_spec
                    keep = [
                        j for j in range(count)
                        if predicate(*[
                            symbols[cols[value][j]] if from_slot else value
                            for from_slot, value in arg_spec
                        ])
                    ]
                if len(keep) != count:
                    cols = [
                        [col[j] for j in keep] if col is not None else None
                        for col in cols
                    ]
                    if tracking:
                        trail_cols = [
                            [tc[j] for j in keep] for tc in trail_cols
                        ]
                    count = len(keep)
                    if not count:
                        return []
            # ---- collapse duplicate rows on the live slots: redundant
            #      derivation paths are indistinguishable downstream
            #      (skipped when tracking, where trails differ per path)
            if not tracking and count > 1 and step is not last_step:
                live_cols = [col for col in cols if col is not None]
                if not live_cols:
                    count = 1
                else:
                    seen: Set = set()
                    add = seen.add
                    if len(live_cols) == 1:
                        only = live_cols[0]
                        keep = [
                            j for j, value in enumerate(only)
                            if value not in seen and not add(value)
                        ]
                    else:
                        keep = [
                            j for j, row in enumerate(zip(*live_cols))
                            if row not in seen and not add(row)
                        ]
                    if len(keep) != count:
                        cols = [
                            [col[j] for j in keep] if col is not None else None
                            for col in cols
                        ]
                        count = len(keep)
        # ---- emit head facts (and per-row supports when tracking)
        static_head = variant.static_head
        if static_head is not None:
            heads: Iterable[Tuple] = repeat(static_head, 1 if not tracking else count)
        else:
            parts = [
                cols[value] if from_slot else repeat(value, count)
                for from_slot, value in variant.head_spec
            ]
            heads = zip(*parts)
        if not tracking:
            return [(head, []) for head in heads]
        results: List[Tuple[Tuple, list]] = []
        for j, head in enumerate(heads):
            support = [
                (orig_index, relation, tuple(col[tc[j]] for col in src))
                for (orig_index, relation, src), tc in zip(
                    trail_sources, trail_cols
                )
            ]
            results.append((head, support))
        return results

    def _delta_columns(
        self, step, delta: Dict[str, Set[Tuple]], cache: Dict
    ) -> Tuple[Sequence, int, Optional[List[Dict[int, list]]]]:
        """Columnar view of a per-round delta set, cached per round: the
        delta's facts as parallel columns plus per-position postings for
        the positions this step probes."""
        relation = step.relation
        entry = cache.get(relation)
        if entry is None:
            facts = delta.get(relation, ())
            if facts:
                columns: Sequence = list(zip(*facts))
                rows = len(facts)
            else:
                columns = [() for _ in range(step.arity)]
                rows = 0
            entry = cache[relation] = (columns, rows, {})
        columns, rows, postings_by_position = entry
        if not step.positions:
            return columns, rows, None
        postings = []
        for position in step.positions:
            posting = postings_by_position.get(position)
            if posting is None:
                posting = {}
                for row, key in enumerate(columns[position]):
                    run = posting.get(key)
                    if run is None:
                        posting[key] = [row]
                    else:
                        run.append(row)
                postings_by_position[position] = posting
                self.stats.delta_index_builds += 1
            postings.append(posting)
        return columns, rows, postings

    def _candidates(
        self,
        step,
        env: List[Any],
        delta: Optional[Dict[str, Set[Tuple]]],
        delta_index_cache: Optional[Dict],
    ):
        """Iterator over a join step's candidate facts: delta set/index for
        delta steps, registered index probe or full scan otherwise."""
        stats = self.stats
        stats.join_probes += 1
        if step.delta:
            facts = delta.get(step.relation, ())
            if not step.positions:
                return iter(facts)
            cache_key = (step.relation, step.positions)
            index = delta_index_cache.get(cache_key)
            if index is None:
                index = {}
                for fact in facts:
                    key = tuple(fact[position] for position in step.positions)
                    index.setdefault(key, []).append(fact)
                delta_index_cache[cache_key] = index
                stats.delta_index_builds += 1
            key = step.static_key
            if key is None:
                key = tuple(
                    env[value] if from_slot else value
                    for from_slot, value in step.key_spec
                )
            return iter(index.get(key, ()))
        if not step.positions:
            return iter(step.rel_set)
        key = step.static_key
        if key is None:
            key = tuple(
                env[value] if from_slot else value
                for from_slot, value in step.key_spec
            )
        stats.index_probes += 1
        bucket = step.index.get(key)
        if bucket is None:
            return iter(())
        stats.index_hits += 1
        return iter(bucket)

    def _eval_guard(self, database: Database, guard, env: List[Any]) -> bool:
        """Evaluate a bound negation or filter guard against the current
        slot environment."""
        if guard.__class__ is _BoundNeg:
            probe = tuple(
                env[value] if from_slot else value
                for from_slot, value in guard.key_spec
            )
            return probe not in guard.rel_set
        symbols = database._symbols
        values = [
            symbols[env[value]] if from_slot else value
            for from_slot, value in guard.arg_spec
        ]
        return bool(guard.predicate(*values))

    # ------------------------------------------- incremental (DRed) repair

    def apply_changes(
        self,
        additions: Optional[Dict[str, Iterable[Iterable]]] = None,
        retractions: Optional[Dict[str, Iterable[Iterable]]] = None,
        max_iterations: int = 1_000_000,
        deadline=None,
    ) -> Database:
        """Apply EDB additions/retractions after an :meth:`evaluate` and
        incrementally repair the IDB (delete-and-rederive).

        Retractions must name facts that were explicitly added (EDB facts
        of the last evaluation, or earlier ``apply_changes`` additions) —
        retracting a derived fact raises :class:`ValueError`.  Per
        stratum, the repair runs DRed: an overdeletion fixpoint marks
        everything derivable from a deleted fact, a one-step rederivation
        restores facts with surviving alternative proofs, and a
        semi-naive insertion pass propagates additions.  Strata whose
        *negated* dependencies changed are recomputed from scratch
        instead (DRed cannot reason through negation).  Provenance stays
        consistent: overdeletion pops the proofs of every fact whose
        recorded premises died, and rederivation records fresh ones.

        Returns the repaired database (the same object ``evaluate`` ran
        on); the fixpoint is identical to a cold re-evaluation of the
        mutated EDB.
        """
        database = self._inc_db
        if database is None:
            raise RuntimeError(
                "apply_changes() needs a prior evaluate() on a compiled "
                "engine (use_plans=True)"
            )
        stats = self.stats
        stats.incremental_applies += 1
        edb = self._inc_edb
        tracking = self.track_provenance
        all_heads: Set[str] = set()
        for heads in self._stratum_heads:
            all_heads |= heads

        # ---- normalize the change set against the EDB bookkeeping
        retract: Dict[str, Set[Tuple[int, ...]]] = {}
        for relation, facts in (retractions or {}).items():
            known = edb.get(relation, set())
            interned: Set[Tuple[int, ...]] = set()
            for fact in facts:
                ifact = self._intern_known(database, fact)
                if ifact is None or ifact not in known:
                    raise ValueError(
                        "cannot retract %s%r: not an explicitly added "
                        "(EDB) fact" % (relation, tuple(fact))
                    )
                interned.add(ifact)
            if interned:
                retract[relation] = interned
        insert: Dict[str, Set[Tuple[int, ...]]] = {}
        for relation, facts in (additions or {}).items():
            interned = {
                tuple(database.intern_value(value) for value in fact)
                for fact in facts
            }
            if interned:
                insert[relation] = interned
        for relation in list(insert):
            gone = retract.get(relation)
            if gone:
                # Retract + re-add of the same fact cancels out.
                both = insert[relation] & gone
                insert[relation] -= both
                gone -= both
                if not gone:
                    del retract[relation]
            existing = edb.get(relation)
            if existing:
                insert[relation] -= existing  # re-adding EDB facts: no-op
            if not insert[relation]:
                del insert[relation]

        for relation, facts in retract.items():
            edb[relation] -= facts
        for relation, facts in insert.items():
            edb.setdefault(relation, set()).update(facts)

        # ---- net changesets, accumulated stratum by stratum
        changes_add: Dict[str, Set[Tuple[int, ...]]] = {}
        changes_rem: Dict[str, Set[Tuple[int, ...]]] = {}
        for relation, facts in insert.items():
            new: Set[Tuple[int, ...]] = set()
            for fact in facts:
                if database._add_interned(relation, fact):
                    new.add(fact)
                elif tracking:
                    # The fact already existed as a derived fact; now that
                    # it is explicitly added it is EDB, and a cold engine
                    # would record no proof for it.
                    self.provenance.pop(
                        (relation, database.decode(fact)), None
                    )
            if new:
                changes_add[relation] = new
        # Retractions on relations no rule derives leave immediately; on
        # head relations the owning stratum's overdeletion decides (the
        # fact may have surviving derivations).
        pending_retract: Dict[str, Set[Tuple[int, ...]]] = {}
        for relation, facts in retract.items():
            if relation in all_heads:
                pending_retract[relation] = set(facts)
            else:
                removed = {
                    fact for fact in facts
                    if database.remove_interned(relation, fact)
                }
                if removed:
                    changes_rem[relation] = removed
                    stats.retracted_facts += len(removed)
        if not changes_add and not changes_rem and not pending_retract:
            return database

        plans = self._incremental_plans(database)
        for level, stratum_plans in enumerate(plans):
            heads = self._stratum_heads[level]
            reads_pos = self._stratum_pos[level]
            reads_neg = self._stratum_neg[level]
            stratum_pending = {
                relation: pending_retract.pop(relation)
                for relation in list(pending_retract)
                if relation in heads
            }
            if any(
                changes_add.get(relation) or changes_rem.get(relation)
                for relation in reads_neg
            ):
                self._recompute_stratum(
                    database, level, stratum_plans,
                    changes_add, changes_rem, max_iterations, deadline,
                )
                continue
            touched = stratum_pending or any(
                changes_add.get(relation) or changes_rem.get(relation)
                for relation in (reads_pos | heads)
            )
            if not touched:
                continue
            self._dred_stratum(
                database, stratum_plans, heads, reads_pos, stratum_pending,
                changes_add, changes_rem, max_iterations, deadline,
            )
        return database

    @staticmethod
    def _intern_known(database: Database, fact: Iterable) -> Optional[Tuple[int, ...]]:
        """Interned form of ``fact`` if every value is already known."""
        intern = database._intern
        out: List[int] = []
        for value in fact:
            ident = intern.get(value)
            if ident is None:
                return None
            out.append(ident)
        return tuple(out)

    def _incremental_plans(self, database: Database) -> List[List[_BoundPlan]]:
        """Repair plans: delta variants for *every* positive body position
        (changes arrive in any relation), fetched from the plan cache and
        bound once to the database with hash indexes — repair always runs
        the tuple executor, because removals invalidate columnar row ids
        mid-flight."""
        bound = self._inc_bound
        if bound is None:
            self._inc_plans = self.program.plans(
                database.count, all_deltas=True
            )
            bound = [
                self._bind_plans(database, stratum_plans, columnar=False)
                for stratum_plans in self._inc_plans
            ]
            self._inc_bound = bound
        return bound

    def _dred_stratum(
        self,
        database: Database,
        plans: List[_BoundPlan],
        heads: Set[str],
        reads_pos: Set[str],
        pending_retract: Dict[str, Set[Tuple[int, ...]]],
        changes_add: Dict[str, Set[Tuple[int, ...]]],
        changes_rem: Dict[str, Set[Tuple[int, ...]]],
        max_iterations: int,
        deadline=None,
    ) -> None:
        stats = self.stats
        tracking = self.track_provenance
        edb = self._inc_edb

        # ---- overdeletion fixpoint: mark everything derivable from a
        #      deleted fact.  Joins must see the pre-deletion database, so
        #      facts already removed by lower strata are resurrected for
        #      the duration and marked facts stay in place until the end.
        overdeleted: Dict[str, Set[Tuple[int, ...]]] = {}
        round_delta: Dict[str, Set[Tuple[int, ...]]] = {}
        resurrected: List[Tuple[str, Tuple[int, ...]]] = []
        for relation in reads_pos:
            if relation in heads:
                continue
            gone = changes_rem.get(relation)
            if gone:
                for fact in gone:
                    if database._add_interned(relation, fact):
                        resurrected.append((relation, fact))
                round_delta[relation] = set(gone)
        for relation, facts in pending_retract.items():
            present = database._relations.get(relation, ())
            marked = {fact for fact in facts if fact in present}
            if marked:
                overdeleted[relation] = set(marked)
                round_delta.setdefault(relation, set()).update(marked)
        iterations = 0
        while round_delta:
            iterations += 1
            if iterations > max_iterations:
                raise RuntimeError("overdeletion did not converge")
            if deadline is not None:
                deadline.check()
            delta_index_cache: Dict = {}
            new_round: Dict[str, Set[Tuple[int, ...]]] = {}
            for plan in plans:
                relation = plan.rule.head.relation
                rel_view = database._relations.get(relation, ())
                rel_edb = edb.get(relation, ())
                for variant in plan.deltas:
                    if not round_delta.get(variant.delta_relation):
                        continue
                    for head_fact, _support in self._run_variant(
                        database, variant, round_delta, delta_index_cache
                    ):
                        if (
                            head_fact not in rel_view
                            or head_fact in rel_edb
                        ):
                            continue
                        marked = overdeleted.get(relation)
                        if marked is None:
                            marked = overdeleted[relation] = set()
                        if head_fact not in marked:
                            marked.add(head_fact)
                            new_round.setdefault(relation, set()).add(
                                head_fact
                            )
            round_delta = new_round
        for relation, facts in overdeleted.items():
            stats.overdeleted_facts += len(facts)
            for fact in facts:
                database.remove_interned(relation, fact)
                if tracking:
                    self.provenance.pop(
                        (relation, database.decode(fact)), None
                    )
        for relation, fact in resurrected:
            database.remove_interned(relation, fact)

        # ---- rederivation: one step over the repaired database restores
        #      overdeleted facts that still have an alternative proof
        #      (recursive consequences return via insertion propagation)
        added_back: Dict[str, Set[Tuple[int, ...]]] = {}
        if overdeleted:
            for plan in plans:
                relation = plan.rule.head.relation
                candidates = overdeleted.get(relation)
                if not candidates:
                    continue
                matches = self._run_variant(database, plan.seed, None, None)
                derived = 0
                for head_fact, support in matches:
                    if database._add_interned(relation, head_fact):
                        derived += 1
                        if tracking:
                            self._record_interned(
                                database, plan.rule, head_fact, support
                            )
                        added_back.setdefault(relation, set()).add(head_fact)
                        if head_fact in candidates:
                            stats.rederived_facts += 1
                if matches:
                    stats.count_rule(plan.key, len(matches), derived)

        # ---- insertion propagation: semi-naive over the delta variants,
        #      seeded by upstream additions and rederived facts
        ins_delta: Dict[str, Set[Tuple[int, ...]]] = {}
        for relation in reads_pos | heads:
            gained = changes_add.get(relation)
            if gained:
                ins_delta[relation] = set(gained)
        added_net: Dict[str, Set[Tuple[int, ...]]] = {}
        for relation, facts in added_back.items():
            ins_delta.setdefault(relation, set()).update(facts)
            added_net[relation] = set(facts)
        iterations = 0
        while ins_delta:
            iterations += 1
            if iterations > max_iterations:
                raise RuntimeError("insertion propagation did not converge")
            if deadline is not None:
                deadline.check()
            delta_index_cache = {}
            new_delta: Dict[str, Set[Tuple[int, ...]]] = {}
            for plan in plans:
                relation = plan.rule.head.relation
                for variant in plan.deltas:
                    if not ins_delta.get(variant.delta_relation):
                        continue
                    matches = self._run_variant(
                        database, variant, ins_delta, delta_index_cache
                    )
                    derived = 0
                    for head_fact, support in matches:
                        if database._add_interned(relation, head_fact):
                            derived += 1
                            if tracking:
                                self._record_interned(
                                    database, plan.rule, head_fact, support
                                )
                            new_delta.setdefault(relation, set()).add(
                                head_fact
                            )
                            added_net.setdefault(relation, set()).add(
                                head_fact
                            )
                    if matches:
                        stats.count_rule(plan.key, len(matches), derived)
                        if derived:
                            stats.delta_derived_facts += derived
                            stats.rule_delta_derivations[plan.key] = (
                                stats.rule_delta_derivations.get(plan.key, 0)
                                + derived
                            )
            ins_delta = new_delta

        # ---- fold this stratum's net effect into the global changesets
        for relation in heads:
            over = overdeleted.get(relation, set())
            added = added_net.get(relation, set())
            present = database._relations.get(relation, ())
            net_removed = {fact for fact in over if fact not in present}
            net_added = added - over
            if net_removed:
                changes_rem.setdefault(relation, set()).update(net_removed)
                stats.retracted_facts += len(net_removed)
            if net_added:
                changes_add.setdefault(relation, set()).update(net_added)

    def _recompute_stratum(
        self,
        database: Database,
        level: int,
        plans: List[_BoundPlan],
        changes_add: Dict[str, Set[Tuple[int, ...]]],
        changes_rem: Dict[str, Set[Tuple[int, ...]]],
        max_iterations: int,
        deadline=None,
    ) -> None:
        """Fallback when a stratum's negated dependency changed: clear the
        stratum's derived facts and rerun its fixpoint, then diff old vs
        new into the global changesets."""
        stats = self.stats
        stats.strata_recomputed += 1
        tracking = self.track_provenance
        edb = self._inc_edb
        heads = self._stratum_heads[level]
        old: Dict[str, Set[Tuple[int, ...]]] = {}
        for relation in heads:
            current = database._relations.get(relation, set())
            old[relation] = set(current)
            keep = edb.get(relation, ())
            for fact in list(current):
                if fact not in keep:
                    database.remove_interned(relation, fact)
                    if tracking:
                        self.provenance.pop(
                            (relation, database.decode(fact)), None
                        )
        runner = self._run_variant
        if self.columnar:
            # Removals dropped the affected columnar views; binding the
            # stratum's plans columnar rebuilds them from the cleared
            # store, so the recompute runs on the batch executor.  The
            # tuple-bound repair plans stay as they are: the hash indexes
            # they captured are maintained through removals, so later
            # DRed passes keep using them.
            plans = self._bind_plans(
                database, self._inc_plans[level], columnar=True
            )
            runner = self._run_variant_columnar
        self._evaluate_stratum_compiled(
            database, plans, max_iterations, deadline, runner=runner
        )
        for relation in heads:
            new = database._relations.get(relation, set())
            before = old[relation]
            net_added = new - before
            net_removed = before - new
            if net_added:
                changes_add.setdefault(relation, set()).update(net_added)
            if net_removed:
                changes_rem.setdefault(relation, set()).update(net_removed)
                stats.retracted_facts += len(net_removed)

    # ------------------------------------------------------- legacy executor

    def _evaluate_stratum(
        self,
        database: Database,
        rules: List[Rule],
        max_iterations: int,
        deadline=None,
    ) -> None:
        stats = self.stats
        heads = {rule.head.relation for rule in rules}

        # Naive first round to seed deltas, then semi-naive iteration.
        delta: Dict[str, Set[Tuple]] = {rel: set() for rel in heads}
        for rule in rules:
            results = self._derive(database, rule, None, {})
            derived = 0
            for fact, support in results:
                if database.add(rule.head.relation, fact):
                    delta[rule.head.relation].add(fact)
                    derived += 1
                    self._record(rule, fact, support)
            stats.count_rule(repr(rule), len(results), derived)

        iterations = 0
        while any(delta.values()):
            iterations += 1
            if iterations > max_iterations:
                raise RuntimeError("datalog evaluation did not converge")
            if deadline is not None:
                deadline.check()
            stats.iterations += 1
            new_delta: Dict[str, Set[Tuple]] = {rel: set() for rel in heads}
            for rule in rules:
                rule_key = None
                recursive_positions = [
                    position
                    for position, item in enumerate(rule.body)
                    if isinstance(item, Literal)
                    and not item.negated
                    and item.atom.relation in heads
                    and delta.get(item.atom.relation)
                ]
                for delta_position in recursive_positions:
                    results = self._derive(database, rule, delta_position, delta)
                    derived = 0
                    for fact, support in results:
                        if database.add(rule.head.relation, fact):
                            new_delta[rule.head.relation].add(fact)
                            derived += 1
                            self._record(rule, fact, support)
                    if results:
                        if rule_key is None:
                            rule_key = repr(rule)
                        stats.count_rule(rule_key, len(results), derived)
            delta = new_delta
        stats.stratum_iterations.append(iterations)

    def _derive(
        self,
        database: Database,
        rule: Rule,
        delta_position: Optional[int],
        delta: Dict[str, Set[Tuple]],
    ):
        """Yield (head fact, supporting body facts) pairs from ``rule``.

        When ``delta_position`` is given, that body literal iterates only the
        delta facts (semi-naive restriction).  Support lists are collected
        only when provenance tracking is on (empty otherwise).
        """
        results: List[Tuple[Tuple, List[Tuple[str, Tuple]]]] = []
        tracking = self.track_provenance

        def join(
            position: int, binding: Binding, support: List[Tuple[str, Tuple]]
        ) -> None:
            if position == len(rule.body):
                results.append((substitute(rule.head, binding), support))
                return
            item = rule.body[position]
            if isinstance(item, Filter):
                values = [
                    binding[arg] if isinstance(arg, Variable) else arg
                    for arg in item.args
                ]
                if item.predicate(*values):
                    join(position + 1, binding, support)
                return
            atom, negated = item.atom, item.negated
            if negated:
                probe = []
                for arg in atom.args:
                    if isinstance(arg, Variable):
                        if arg.is_wildcard or arg not in binding:
                            raise PlanningError(
                                "unbound or wildcard variable %r in negated "
                                "literal %r of rule %r" % (arg, item, rule)
                            )
                        probe.append(binding[arg])
                    else:
                        probe.append(arg)
                if not database.contains(atom.relation, tuple(probe)):
                    join(position + 1, binding, support)
                return
            if position == delta_position:
                candidates: Iterable[Tuple] = delta.get(atom.relation, ())
                for fact in candidates:
                    extended = match(atom.args, fact, binding)
                    if extended is not None:
                        join(
                            position + 1,
                            extended,
                            support + [(atom.relation, fact)] if tracking else support,
                        )
                return
            # Indexed lookup on bound positions.
            bound_positions: List[int] = []
            key_values: List[Any] = []
            for argument_position, arg in enumerate(atom.args):
                if isinstance(arg, Variable):
                    if not arg.is_wildcard and arg in binding:
                        bound_positions.append(argument_position)
                        key_values.append(binding[arg])
                else:
                    bound_positions.append(argument_position)
                    key_values.append(arg)
            for fact in database.lookup(
                atom.relation, tuple(bound_positions), tuple(key_values)
            ):
                extended = match(atom.args, fact, binding)
                if extended is not None:
                    join(
                        position + 1,
                        extended,
                        support + [(atom.relation, fact)] if tracking else support,
                    )

        join(0, {}, [])
        return results

    # ----------------------------------------------------------- provenance

    def _record(
        self, rule: Rule, fact: Tuple, support: List[Tuple[str, Tuple]]
    ) -> None:
        if not self.track_provenance:
            return
        key = (rule.head.relation, fact)
        if key not in self.provenance:
            self.provenance[key] = (rule, support)

    def _record_interned(
        self, database: Database, rule: Rule, fact: Tuple, support: list
    ) -> None:
        """Record a compiled-path derivation: decode the head and supports
        and restore original body order (supports sort by body index)."""
        key = (rule.head.relation, database.decode(fact))
        if key in self.provenance:
            return
        decoded = [
            (relation, database.decode(body_fact))
            for _, relation, body_fact in sorted(support)
        ]
        self.provenance[key] = (rule, decoded)

    def explain(
        self, relation: str, fact: Iterable, max_depth: int = 32
    ) -> Optional[dict]:
        """Derivation tree for ``fact``: ``{"fact", "rule", "premises"}``.

        EDB facts (never derived by a rule) get ``{"rule": None}`` leaves.
        Returns None if the fact has no recorded derivation and therefore
        must be an EDB fact or underivable.
        """
        key = (relation, tuple(fact))
        entry = self.provenance.get(key)
        node = {"fact": "%s%r" % (relation, tuple(fact)), "rule": None, "premises": []}
        if entry is None or max_depth == 0:
            return node
        rule, support = entry
        node["rule"] = repr(rule)
        for premise_relation, premise_fact in support:
            node["premises"].append(
                self.explain(premise_relation, premise_fact, max_depth - 1)
            )
        return node

    def format_explanation(self, relation: str, fact: Iterable) -> str:
        """Human-readable indented derivation tree."""
        lines: List[str] = []

        def walk(node: dict, depth: int) -> None:
            lines.append("  " * depth + node["fact"])
            if node["rule"]:
                lines.append("  " * depth + "  via " + node["rule"])
            for premise in node["premises"]:
                walk(premise, depth + 1)

        tree = self.explain(relation, fact)
        if tree is not None:
            walk(tree, 0)
        return "\n".join(lines)


def run(rules: Sequence[Rule], database: Database) -> Database:
    """Convenience one-shot evaluation."""
    return Engine(rules).evaluate(database)
