"""Planner and storage-layer units: join ordering, plan safety errors,
interned storage behavior, EngineStats observability, and the plan
cache (exactness against fresh compiles, immutability, content keys)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.datalog import (
    Atom,
    Database,
    Engine,
    EngineStats,
    Literal,
    PlanningError,
    Rule,
    Variable,
    parse_program,
    parse_rule,
    var,
)
from repro.datalog import planner
from repro.datalog.planner import compile_rule, compile_variant
from repro.datalog.terms import Filter


class TestJoinOrdering:
    def test_bound_variable_count_drives_order(self):
        """After the first literal binds x, the literal sharing x runs
        before the unconnected one (sideways information passing)."""
        rule = parse_rule("Out(x, z) :- A(x), B(x, y), C(z).")
        sizes = {"A": 10, "B": 10, "C": 10}
        variant = compile_variant(rule, size_of=lambda rel: sizes[rel])
        assert variant.order() == ["A", "B", "C"]

    def test_smaller_relation_breaks_ties(self):
        rule = parse_rule("Out(x, y) :- Big(x), Small(y).")
        sizes = {"Big": 1000, "Small": 3}
        variant = compile_variant(rule, size_of=lambda rel: sizes[rel])
        assert variant.order() == ["Small", "Big"]

    def test_constant_arguments_count_as_bound(self):
        rule = parse_rule('Out(y) :- Any(x), Keyed("k", y).')
        sizes = {"Any": 5, "Keyed": 5}
        variant = compile_variant(rule, size_of=lambda rel: sizes[rel])
        assert variant.order()[0] == "Keyed"

    def test_source_order_is_the_final_tiebreak(self):
        rule = parse_rule("Out(x, y) :- First(x), Second(y).")
        variant = compile_variant(rule, size_of=lambda rel: 7)
        assert variant.order() == ["First", "Second"]

    def test_delta_variant_prefers_delta_literal(self):
        rule = parse_rule("Path(x, z) :- Path(x, y), Edge(y, z).")
        plan = compile_rule(
            rule, recursive_relations={"Path"}, size_of=lambda rel: 100
        )
        assert plan.seed.delta_position is None
        (variant,) = plan.delta_variants.values()
        assert variant.delta_relation == "Path"
        assert variant.steps[0].delta

    def test_delta_variant_per_recursive_position(self):
        rule = parse_rule("P(x, z) :- P(x, y), P(y, z).")
        plan = compile_rule(rule, recursive_relations={"P"})
        assert sorted(plan.delta_variants) == [0, 1]

    def test_index_signature_covers_bound_and_constant_positions(self):
        rule = parse_rule('Out(y) :- A(x), E(x, "c", y).')
        variant = compile_variant(rule, size_of=lambda rel: 1)
        # The constant argument makes E 1-bound, so it runs first, keyed on
        # the constant position; A then probes on the now-bound x.
        assert variant.order() == ["E", "A"]
        step = variant.steps[0]
        assert step.positions == (1,)
        assert [position for position, _slot in step.outs] == [0, 2]
        assert variant.steps[1].positions == (0,)


class TestPlanningErrors:
    def test_wildcard_in_negated_literal_rejected(self):
        x = Variable("x")
        rule = Rule(
            Atom("Out", x),
            [
                Literal(Atom("In", x)),
                Literal(Atom("Seen", x, Variable("_")), negated=True),
            ],
            check=False,
        )
        with pytest.raises(PlanningError):
            compile_variant(rule)

    def test_engine_construction_surfaces_planning_errors(self):
        x = Variable("x")
        rule = Rule(
            Atom("Out", x),
            [
                Literal(Atom("In", x)),
                Literal(Atom("Seen", Variable("_")), negated=True),
            ],
            check=False,
        )
        with pytest.raises(PlanningError):
            Engine([rule])

    def test_legacy_derive_rejects_wildcard_negation(self):
        """The legacy interpreter errors explicitly instead of dying with a
        bare KeyError from binding[arg]."""
        x = Variable("x")
        rule = Rule(
            Atom("Out", x),
            [
                Literal(Atom("In", x)),
                Literal(Atom("Seen", Variable("_")), negated=True),
            ],
            check=False,
        )
        engine = Engine([parse_rule("Ok(x) :- In(x).")], use_plans=False)
        db = Database()
        db.add("In", ("a",))
        db.add("Seen", ("a",))
        with pytest.raises(PlanningError):
            engine._derive(db, rule, None, {})

    def test_unbound_filter_variable_rejected(self):
        x, y = var("x y")
        rule = Rule(
            Atom("Out", x),
            [Literal(Atom("In", x)), Filter(lambda v: True, y, name="loose")],
            check=False,
        )
        with pytest.raises(PlanningError):
            compile_variant(rule)

    def test_safety_flags_wildcard_negation(self):
        x = Variable("x")
        rule = Rule(
            Atom("Out", x),
            [
                Literal(Atom("In", x)),
                Literal(Atom("Seen", x, Variable("_")), negated=True),
            ],
            check=False,
        )
        assert any(
            "wildcard in negated literal" in violation
            for violation in rule.safety_violations()
        )

    def test_safe_rules_still_construct(self):
        Rule(
            Atom("Out", Variable("x")),
            [
                Literal(Atom("In", Variable("x"))),
                Literal(Atom("Seen", Variable("x")), negated=True),
            ],
        )


class TestLintWildcardNegation:
    def test_lint_reports_wildcard_negation_code(self):
        from repro.datalog.lint import ERROR, lint_text

        findings = lint_text("Out(x) :- In(x), !Seen(x, _).")
        codes = {finding.code for finding in findings}
        assert "wildcard-negation" in codes
        assert all(
            finding.severity == ERROR
            for finding in findings
            if finding.code == "wildcard-negation"
        )

    def test_clean_negation_not_flagged(self):
        from repro.datalog.lint import lint_text

        findings = lint_text("Out(x) :- In(x), !Seen(x).")
        assert not any(
            finding.code == "wildcard-negation" for finding in findings
        )


class TestInternedDatabase:
    def test_facts_returns_cached_frozenset(self):
        db = Database()
        db.add("R", ("a", 1))
        first = db.facts("R")
        assert isinstance(first, frozenset)
        assert first is db.facts("R")  # cached until the relation changes
        db.add("R", ("b", 2))
        second = db.facts("R")
        assert second == {("a", 1), ("b", 2)}
        assert first == {("a", 1)}  # old snapshot unaffected

    def test_facts_cannot_corrupt_store(self):
        db = Database()
        db.add("R", ("a",))
        with pytest.raises(AttributeError):
            db.facts("R").add(("b",))  # frozenset has no add

    def test_lookup_empty_positions_is_the_cached_snapshot(self):
        db = Database()
        db.add_all("R", [("a",), ("b",)])
        assert db.lookup("R", (), ()) is db.facts("R")

    def test_lookup_unknown_value_is_empty(self):
        db = Database()
        db.add("E", ("a", "b"))
        assert db.lookup("E", (0,), ("never-seen",)) == []

    def test_interning_is_invisible_to_callers(self):
        db = Database()
        db.add("R", ("addr", 7))
        assert db.contains("R", ("addr", 7))
        assert db.facts("R") == {("addr", 7)}
        assert db.lookup("R", (1,), (7,)) == [("addr", 7)]

    def test_register_index_is_eager_and_incremental(self):
        db = Database()
        db.add("E", ("a", "b"))
        index, built = db.register_index("E", (0,))
        assert built
        _, built_again = db.register_index("E", (0,))
        assert not built_again
        db.add("E", ("a", "z"))  # maintained without a rebuild
        assert ("a", "z") in db.lookup("E", (0,), ("a",))

    def test_relation_view_is_live(self):
        db = Database()
        view = db.relation_view("R")
        assert len(view) == 0
        db.add("R", ("a",))
        assert len(view) == 1


class TestEngineStats:
    def _closure(self, use_plans):
        rules = [
            parse_rule("Path(x, y) :- Edge(x, y)."),
            parse_rule("Path(x, z) :- Path(x, y), Edge(y, z)."),
        ]
        db = Database()
        db.add_all("Edge", [("a", "b"), ("b", "c"), ("c", "d")])
        engine = Engine(rules, use_plans=use_plans)
        engine.evaluate(db)
        return engine

    def test_per_rule_derivation_counts(self):
        engine = self._closure(use_plans=True)
        stats = engine.stats
        assert stats.evaluations == 1
        assert stats.derived_facts == 6
        assert sum(stats.rule_derivations.values()) == 6
        recursive = repr(parse_rule("Path(x, z) :- Path(x, y), Edge(y, z)."))
        assert stats.rule_derivations[recursive] == 3

    def test_legacy_path_counts_too(self):
        engine = self._closure(use_plans=False)
        assert engine.stats.derived_facts == 6
        assert engine.stats.stratum_iterations  # per-stratum rounds recorded

    def test_compiled_path_probes_indexes(self):
        engine = self._closure(use_plans=True)
        stats = engine.stats
        assert stats.index_builds >= 1
        assert stats.index_probes > 0
        assert stats.join_probes >= stats.index_probes

    def test_as_dict_shape(self):
        stats = self._closure(use_plans=True).stats.as_dict()
        for key in (
            "evaluations",
            "iterations",
            "stratum_iterations",
            "derived_facts",
            "matches",
            "join_probes",
            "index_probes",
            "index_hits",
            "index_builds",
            "delta_index_builds",
            "rule_derivations",
            "rule_matches",
        ):
            assert key in stats
        assert stats == EngineStats(**{
            key: value for key, value in stats.items()
        }).as_dict()


class TestStatsThreading:
    def test_datalog_engine_result_carries_stats(self):
        from repro.core.bytecode_datalog import analyze_with_datalog
        from repro.corpus import generate_corpus

        contract = generate_corpus(1, seed=11)[0]
        result = analyze_with_datalog(runtime_bytecode=contract.runtime)
        assert result.engine_stats is not None
        assert result.engine_stats["derived_facts"] > 0
        assert result.engine_stats["rule_derivations"]

    def test_legacy_config_value_matches_compiled_warnings(self):
        from repro.core.analysis import AnalysisConfig, analyze_bytecode
        from repro.corpus import generate_corpus

        def rows(result):
            return [
                (w.kind, w.pc, w.statement, w.slot, w.detail)
                for w in result.warnings
            ]

        for contract in generate_corpus(4, seed=11):
            compiled = analyze_bytecode(
                contract.runtime, AnalysisConfig(engine="datalog")
            )
            legacy = analyze_bytecode(
                contract.runtime, AnalysisConfig(engine="datalog-legacy")
            )
            assert rows(compiled) == rows(legacy)
            assert compiled.datalog_stats is not None
            assert legacy.datalog_stats is not None


# ----------------------------------------------------------- plan cache


def _load(edb) -> Database:
    database = Database()
    for relation, rows in edb.items():
        database.add_all(relation, rows)
    return database


def _fixpoint(database: Database):
    return {
        relation: database.facts(relation)
        for relation in sorted(database.relations())
    }


def _template_programs():
    """(template, rules, EDB) for four contracts of every corpus template,
    extracted the way ``analyze_with_datalog`` does."""
    from repro.core.bytecode_datalog import _facts_to_edb, _rules
    from repro.core.facts import extract_facts
    from repro.core.guards import build_guard_model
    from repro.core.ordering import build_call_order_model
    from repro.core.storage_model import build_storage_model
    from repro.core.taint import TaintOptions
    from repro.corpus import REENTRANCY_TEMPLATES, TEMPLATES, generate_corpus
    from repro.decompiler import lift

    options = TaintOptions()
    programs = []
    names = sorted(TEMPLATES) + sorted(REENTRANCY_TEMPLATES)
    for seed, name in enumerate(names):
        for contract in generate_corpus(4, seed=seed, templates=[name]):
            facts = extract_facts(lift(contract.runtime))
            storage = build_storage_model(facts)
            guards = build_guard_model(facts, storage)
            ordering = build_call_order_model(facts, storage, guards)
            edb = _facts_to_edb(facts, storage, guards, options, ordering=ordering)
            rules = _rules(options, reentrancy="ReentrancyCall" in edb)
            programs.append((name, rules, edb))
    return programs


class TestPlanCacheExactness:
    """The cache key replaces relation sizes by their dense ranks within
    each rule; a plan compiled for one contract's sizes then serves every
    contract whose sizes compare the same way.  These tests pin that the
    shared plans order, count, prove and derive exactly like fresh ones."""

    def test_corpus_templates_match_fresh_compiles(self):
        programs = _template_programs()
        planner.cache_clear()
        before = planner.cache_info()
        warm = []
        for name, rules, edb in programs:
            database = _load(edb)
            engine = Engine(rules, track_provenance=True)
            engine.evaluate(database)
            warm.append((engine, database))
        info = planner.cache_info()
        evaluated = sum(
            len(plan.variants())
            for engine, _ in warm
            for stratum in engine.plans
            for plan in stratum
        )
        # Most variants came out of the cache, compiled for other sizes.
        assert info["compiles"] - before["compiles"] < evaluated // 4

        for (name, rules, edb), (engine, database) in zip(programs, warm):
            sizes = {relation: len(rows) for relation, rows in edb.items()}
            for stratum, stratum_plans in zip(engine.strata, engine.plans):
                heads = {rule.head.relation for rule in stratum}
                for plan in stratum_plans:
                    fresh = compile_rule(
                        plan.rule, heads, size_of=lambda rel: sizes.get(rel, 0)
                    )
                    assert plan.seed.order() == fresh.seed.order(), name
                    assert {
                        position: variant.order()
                        for position, variant in plan.delta_variants.items()
                    } == {
                        position: variant.order()
                        for position, variant in fresh.delta_variants.items()
                    }, name

            planner.cache_clear()
            cold_db = _load(edb)
            cold = Engine(rules, track_provenance=True)
            cold.evaluate(cold_db)
            assert engine.stats.as_dict() == cold.stats.as_dict(), name
            assert list(engine.provenance.items()) == list(
                cold.provenance.items()
            ), name
            assert _fixpoint(database) == _fixpoint(cold_db), name


# Programs with constants in probed positions (``E(x, "c", y)``), in
# negations and in heads: exactly the values a shared plan must not
# intern in place.  EDB relations are never heads and negation only reads
# them, so every program is stratifiable.
_EDB = {"E": 3, "N": 1}
_IDB = {"P": 2, "Q": 1}
_ARITY = {**_EDB, **_IDB}
_CONSTANTS = ["c", "d", 7, 8]
_VARS = [Variable("v%d" % i) for i in range(3)]


@st.composite
def _constant_rule(draw):
    body = []
    bound = []
    for _ in range(draw(st.integers(1, 3))):
        relation = draw(st.sampled_from(sorted(_ARITY)))
        args = []
        for _ in range(_ARITY[relation]):
            if draw(st.booleans()):
                variable = draw(st.sampled_from(_VARS))
                args.append(variable)
                if variable not in bound:
                    bound.append(variable)
            else:
                args.append(draw(st.sampled_from(_CONSTANTS)))
        body.append(Literal(Atom(relation, *args)))
    if draw(st.booleans()):
        relation = draw(st.sampled_from(sorted(_EDB)))
        args = [
            draw(st.sampled_from(bound)) if bound and draw(st.booleans())
            else draw(st.sampled_from(_CONSTANTS))
            for _ in range(_EDB[relation])
        ]
        body.append(Literal(Atom(relation, *args), negated=True))
    head = draw(st.sampled_from(sorted(_IDB)))
    head_args = [
        draw(st.sampled_from(bound)) if bound and draw(st.booleans())
        else draw(st.sampled_from(_CONSTANTS))
        for _ in range(_IDB[head])
    ]
    return Rule(Atom(head, *head_args), body)


@st.composite
def _constant_program(draw):
    rules = draw(st.lists(_constant_rule(), min_size=1, max_size=6))
    facts = {
        relation: draw(
            st.lists(
                st.tuples(*[st.sampled_from(_CONSTANTS)] * arity), max_size=8
            )
        )
        for relation, arity in _EDB.items()
    }
    return rules, facts


def _load_interning(facts, order) -> Database:
    """A database whose symbol table assigns ids in ``order`` first."""
    database = Database()
    for value in order:
        database.intern_value(value)
    for relation, rows in facts.items():
        database.add_all(relation, rows)
    return database


class TestSharedPlansAcrossSymbolTables:
    @given(_constant_program())
    @settings(max_examples=60, deadline=None)
    def test_constants_are_interned_per_database(self, program):
        """One program on two databases that intern in opposite orders:
        both share the cached plans and both fixpoints equal a cold
        engine's (in-place interning of a shared plan would leak the first
        database's ids into the second)."""
        rules, facts = program
        forward = _load_interning(facts, _CONSTANTS)
        backward = _load_interning(facts, list(reversed(_CONSTANTS)))
        first = Engine(rules)
        first.evaluate(forward)
        second = Engine(rules)
        second.evaluate(backward)
        again = _load_interning(facts, list(reversed(_CONSTANTS)))
        first.evaluate(again)  # one engine, a second symbol table
        assert first.program is second.program

        planner.cache_clear()
        cold_db = _load_interning(facts, _CONSTANTS)
        Engine(rules).evaluate(cold_db)
        cold = _fixpoint(cold_db)
        assert _fixpoint(forward) == cold
        assert _fixpoint(backward) == cold
        assert _fixpoint(again) == cold


class TestPlanCache:
    def test_compiled_plans_are_immutable(self):
        engine = Engine([parse_rule('Out(x) :- E(x, "c", y), !N(y).')])
        plan = engine.plans[0][0]
        variant = plan.seed
        step = variant.steps[0]
        with pytest.raises(AttributeError):
            plan.seed = variant
        with pytest.raises(AttributeError):
            variant.head_spec = ()
        with pytest.raises(AttributeError):
            step.key_spec = ()
        with pytest.raises(AttributeError):
            step.guards[0].key_spec = ()
        # Binding never rewrites the raw constants of the compiled plan.
        db = Database()
        db.add("E", ("a", "c", "b"))
        engine.evaluate(db)
        assert (False, "c") in engine.plans[0][0].seed.steps[0].key_spec

    def test_reparsed_text_hits_the_cache(self):
        text = "Path(x, y) :- Edge(x, y).\nPath(x, z) :- Path(x, y), Edge(y, z)."
        first = Engine(parse_program(text).rules)
        before = planner.cache_info()
        second = Engine(parse_program(text).rules)
        after = planner.cache_info()
        assert second.program is first.program
        assert after["compiles"] == before["compiles"]
        assert after["program_hits"] == before["program_hits"] + 1

    def test_filter_predicates_never_share_plans(self):
        x = Variable("x")

        def rules(predicate):
            return [
                Rule(
                    Atom("Out", x),
                    [Literal(Atom("In", x)), Filter(predicate, x, name="f")],
                )
            ]

        above = Engine(rules(lambda value: value > 1))
        below = Engine(rules(lambda value: value < 1))
        assert repr(above.rules) == repr(below.rules)
        assert above.program is not below.program
        assert above.plans[0][0].seed is not below.plans[0][0].seed
        results = []
        for engine in (above, below):
            db = Database()
            db.add_all("In", [(0,), (2,)])
            engine.evaluate(db)
            results.append(db.facts("Out"))
        assert results == [{(2,)}, {(0,)}]

    def test_equal_constants_of_different_types_never_share_plans(self):
        x = Variable("x")
        one = Engine([Rule(Atom("Out", x), [Literal(Atom("E", x, 1))])])
        flag = Engine([Rule(Atom("Out", x), [Literal(Atom("E", x, True))])])
        assert one.program is not flag.program
        assert one.plans[0][0].key != flag.plans[0][0].key

    def test_planning_errors_raise_on_every_construction(self):
        x = Variable("x")
        rule = Rule(
            Atom("Out", x),
            [
                Literal(Atom("In", x)),
                Literal(Atom("Seen", Variable("_")), negated=True),
            ],
            check=False,
        )
        for _ in range(2):
            with pytest.raises(PlanningError):
                Engine([rule])

    def test_eviction_keeps_results_exact(self, monkeypatch):
        monkeypatch.setattr(planner._VARIANTS, "maxsize", 2)
        rules = [
            parse_rule("Path(x, y) :- Edge(x, y)."),
            parse_rule("Path(x, z) :- Path(x, y), Edge(y, z)."),
            parse_rule('Far(x) :- Path(x, "d"), !Edge(x, "d").'),
        ]
        for _ in range(2):
            db = Database()
            db.add_all("Edge", [("a", "b"), ("b", "c"), ("c", "d")])
            Engine(rules).evaluate(db)
            assert len(planner._VARIANTS.data) <= 2
            assert db.facts("Far") == {("a",), ("b",)}

    def test_threads_share_the_caches_safely(self, monkeypatch):
        """More threads than cores, a tiny plan bound (constant eviction)
        and a short switch interval: every thread's fixpoint stays exact,
        the LRU never exceeds its bound, and no lookup or compile is lost
        (every lookup is a hit or a miss, every miss one compile)."""
        import sys
        import threading

        monkeypatch.setattr(planner._VARIANTS, "maxsize", 2)
        programs = [
            [
                parse_rule("Path(x, y) :- Edge(x, y)."),
                parse_rule("Path(x, z) :- Path(x, y), Edge(y, z)."),
                parse_rule('Hop(x) :- Edge(x, "n%d"), !Path("n%d", x).' % (k, k)),
            ]
            for k in range(4)
        ]
        edges = [("n%d" % i, "n%d" % (i + 1)) for i in range(6)]
        expected = []
        for rules in programs:
            db = Database()
            db.add_all("Edge", edges)
            Engine(rules, use_plans=False).evaluate(db)
            expected.append((db.facts("Path"), db.facts("Hop")))
            Engine(rules)  # programs and static plans cached up front
        errors = []
        lookups = []

        def worker(offset):
            looked_up = 0
            try:
                for round_ in range(40):
                    which = (offset + round_) % len(programs)
                    db = Database()
                    db.add_all("Edge", edges)
                    engine = Engine(programs[which])
                    engine.evaluate(db)
                    looked_up += sum(
                        len(plan.variants())
                        for stratum in engine.plans
                        for plan in stratum
                    )
                    got = (db.facts("Path"), db.facts("Hop"))
                    if got != expected[which]:
                        errors.append((which, got))
            except Exception as error:  # surfaced by the assert below
                errors.append(error)
            lookups.append(looked_up)

        before = planner.cache_info()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(k,)) for k in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        after = planner.cache_info()
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(planner._VARIANTS.data) <= 2
        hits = after["plan_hits"] - before["plan_hits"]
        misses = after["plan_misses"] - before["plan_misses"]
        assert hits + misses == sum(lookups)
        assert after["compiles"] - before["compiles"] == misses
