"""Randomized equivalence: naive, semi-naive, compiled-kernel, and
reference-interpreter evaluation must produce identical fixpoints on
generated stratified programs (and the same provenance coverage when
tracking is on); DRed incremental repair after random EDB add/retract
batches must match a from-scratch fixpoint over the mutated EDB."""

from hypothesis import given, settings, strategies as st

from repro.datalog import Atom, Database, Engine, Literal, Rule, Variable
from repro.datalog.terms import Filter
from tests import datalog_oracle

# EDB relations are never rule heads and negation only targets them, so
# every generated program is stratifiable by construction.
EDB_ARITY = {"E": 2, "N": 1, "F": 2}
IDB_ARITY = {"P": 2, "Q": 1, "R": 1, "S": 1}
ARITY = {**EDB_ARITY, **IDB_ARITY}
CONSTANTS = ["a", "b", "c", 1, 2]
VARIABLES = [Variable("v%d" % i) for i in range(4)]


def _is_string(value) -> bool:
    """Deterministic filter predicate used by generated rules."""
    return isinstance(value, str)


@st.composite
def _rule(draw):
    body = []
    bound = []
    for _ in range(draw(st.integers(1, 3))):
        relation = draw(st.sampled_from(sorted(ARITY)))
        args = []
        for _ in range(ARITY[relation]):
            if draw(st.booleans()):
                variable = draw(st.sampled_from(VARIABLES))
                args.append(variable)
                if variable not in bound:
                    bound.append(variable)
            else:
                args.append(draw(st.sampled_from(CONSTANTS)))
        body.append(Literal(Atom(relation, *args)))
    if bound and draw(st.booleans()):
        relation = draw(st.sampled_from(sorted(EDB_ARITY)))
        args = [
            draw(st.sampled_from(bound)) if draw(st.booleans())
            else draw(st.sampled_from(CONSTANTS))
            for _ in range(EDB_ARITY[relation])
        ]
        body.append(Literal(Atom(relation, *args), negated=True))
    if bound and draw(st.booleans()):
        body.append(
            Filter(_is_string, draw(st.sampled_from(bound)), name="is_string")
        )
    head_relation = draw(st.sampled_from(sorted(IDB_ARITY)))
    head_args = [
        draw(st.sampled_from(bound)) if bound and draw(st.booleans())
        else draw(st.sampled_from(CONSTANTS))
        for _ in range(IDB_ARITY[head_relation])
    ]
    return Rule(Atom(head_relation, *head_args), body)


@st.composite
def _program(draw):
    rules = draw(st.lists(_rule(), min_size=1, max_size=6))
    facts = {}
    for relation, arity in EDB_ARITY.items():
        facts[relation] = draw(
            st.lists(
                st.tuples(*[st.sampled_from(CONSTANTS)] * arity),
                max_size=8,
            )
        )
    return rules, facts


def _load(facts) -> Database:
    database = Database()
    for relation, rows in facts.items():
        database.add_all(relation, rows)
    return database


def _naive(rules, facts) -> Database:
    """Reference fixpoint: naive bottom-up iteration, no deltas."""
    database = _load(facts)
    engine = Engine(rules, use_plans=False)
    for stratum in engine.strata:
        changed = True
        while changed:
            changed = False
            for rule in stratum:
                for fact, _support in engine._derive(database, rule, None, {}):
                    if database.add(rule.head.relation, fact):
                        changed = True
    return database


def _semi_naive(rules, facts, use_plans, track=False):
    database = _load(facts)
    engine = Engine(rules, track_provenance=track, use_plans=use_plans)
    engine.evaluate(database)
    return database, engine


def _snapshot(database: Database):
    return {
        relation: database.facts(relation)
        for relation in sorted(set(database.relations()) | set(IDB_ARITY))
    }


class TestEngineEquivalence:
    @given(_program())
    @settings(max_examples=60, deadline=None)
    def test_four_evaluation_modes_agree(self, program):
        rules, facts = program
        reference = _snapshot(_naive(rules, facts))
        legacy_db, _ = _semi_naive(rules, facts, use_plans=False)
        compiled_db, _ = _semi_naive(rules, facts, use_plans=True)
        with datalog_oracle.executor("reference"):
            interpreted_db, _ = _semi_naive(rules, facts, use_plans=True)
        assert _snapshot(legacy_db) == reference
        assert _snapshot(compiled_db) == reference
        assert _snapshot(interpreted_db) == reference

    @given(_program())
    @settings(max_examples=40, deadline=None)
    def test_provenance_coverage_matches(self, program):
        """Every engine records a first derivation for exactly the derived
        (IDB) facts; trees may differ, coverage may not."""
        rules, facts = program
        legacy_db, legacy = _semi_naive(rules, facts, use_plans=False, track=True)
        compiled_db, compiled = _semi_naive(rules, facts, use_plans=True, track=True)
        assert set(legacy.provenance) == set(compiled.provenance)
        derived = {
            (relation, fact)
            for relation in IDB_ARITY
            for fact in compiled_db.facts(relation)
        }
        assert set(compiled.provenance) == derived

    @given(_program())
    @settings(max_examples=30, deadline=None)
    def test_compiled_stats_count_all_derivations(self, program):
        """Per-rule derivation counts sum to the number of IDB facts."""
        rules, facts = program
        database, engine = _semi_naive(rules, facts, use_plans=True)
        derived = sum(
            len(database.facts(relation)) for relation in IDB_ARITY
        )
        assert engine.stats.derived_facts == derived
        assert sum(engine.stats.rule_derivations.values()) == derived


@st.composite
def _program_with_changes(draw):
    """A program plus 1-3 EDB change batches (additions and retraction
    picks; picks index into the then-current EDB at apply time)."""
    rules, facts = draw(_program())
    batches = []
    for _ in range(draw(st.integers(1, 3))):
        additions = {}
        for relation, arity in EDB_ARITY.items():
            additions[relation] = draw(
                st.lists(
                    st.tuples(*[st.sampled_from(CONSTANTS)] * arity),
                    max_size=4,
                )
            )
        picks = draw(st.lists(st.integers(0, 10_000), max_size=5))
        batches.append((additions, picks))
    return rules, facts, batches


class TestIncrementalEquivalence:
    """DRed repair after random EDB mutation must match a from-scratch
    fixpoint over the mutated EDB — fact-for-fact, and (when tracking)
    provenance-coverage-for-coverage."""

    def _run(self, program, track=False):
        rules, facts, batches = program
        edb = {
            relation: set(rows)
            for relation, rows in facts.items()
        }
        database = _load(facts)
        engine = Engine(rules, track_provenance=track, use_plans=True)
        engine.evaluate(database)
        for additions, picks in batches:
            pool = sorted(
                (
                    (relation, fact)
                    for relation, rows in edb.items()
                    for fact in rows
                ),
                key=repr,
            )
            added = {
                relation: set(rows) for relation, rows in additions.items()
            }
            retracted = {}
            for pick in picks:
                if not pool:
                    break
                relation, fact = pool[pick % len(pool)]
                if fact in added.get(relation, ()):
                    continue  # keep batches unambiguous: no add+retract
                retracted.setdefault(relation, set()).add(fact)
            engine.apply_changes(additions=added, retractions=retracted)
            for relation, rows in added.items():
                edb[relation] |= rows
            for relation, rows in retracted.items():
                edb[relation] -= rows
        cold_db, cold = _semi_naive(
            rules,
            {relation: sorted(rows, key=repr) for relation, rows in edb.items()},
            use_plans=True,
            track=track,
        )
        return database, engine, cold_db, cold

    @given(_program_with_changes())
    @settings(max_examples=40, deadline=None)
    def test_compiled_repair_matches_cold_fixpoint(self, program):
        database, _, cold_db, _ = self._run(program)
        assert _snapshot(database) == _snapshot(cold_db)

    @given(_program_with_changes())
    @settings(max_examples=25, deadline=None)
    def test_repair_preserves_provenance_coverage(self, program):
        """After repair the warm engine explains exactly the facts a cold
        tracking engine derives — nothing stale, nothing missing."""
        database, engine, cold_db, cold = self._run(program, track=True)
        assert set(engine.provenance) == set(cold.provenance)
        derived = {
            (relation, fact)
            for relation in IDB_ARITY
            for fact in cold_db.facts(relation)
        }
        assert set(engine.provenance) == derived
