"""DRed incremental maintenance: ``Engine.apply_changes`` unit behavior
(additions, retractions, rederivation, negation fallback, provenance,
stats) and the warm-engine path through the analysis stack."""

import pytest

from repro.datalog import Database, Engine, parse_program, parse_rule


def _closure_engine(track=False, columnar=None):
    rules = [
        parse_rule("Path(x, y) :- Edge(x, y)."),
        parse_rule("Path(x, z) :- Path(x, y), Edge(y, z)."),
    ]
    db = Database()
    db.add_all("Edge", [("a", "b"), ("b", "c")])
    engine = Engine(rules, track_provenance=track, columnar=columnar)
    engine.evaluate(db)
    return engine, db


class TestAdditions:
    def test_appended_edge_extends_closure(self):
        engine, db = _closure_engine()
        engine.apply_changes(additions={"Edge": [("c", "d")]})
        assert db.facts("Path") == {
            ("a", "b"), ("b", "c"), ("a", "c"),
            ("c", "d"), ("b", "d"), ("a", "d"),
        }

    def test_incremental_matches_cold_fixpoint(self):
        engine, db = _closure_engine()
        engine.apply_changes(additions={"Edge": [("c", "a"), ("d", "e")]})
        cold_db = Database()
        cold_db.add_all("Edge", [("a", "b"), ("b", "c"), ("c", "a"), ("d", "e")])
        Engine(engine.rules).evaluate(cold_db)
        assert db.facts("Path") == cold_db.facts("Path")
        assert db.facts("Edge") == cold_db.facts("Edge")

    def test_duplicate_addition_is_a_no_op(self):
        engine, db = _closure_engine()
        before = db.facts("Path")
        engine.apply_changes(additions={"Edge": [("a", "b")]})
        assert db.facts("Path") == before

    def test_stats_count_incremental_applies(self):
        engine, _ = _closure_engine()
        engine.apply_changes(additions={"Edge": [("c", "d")]})
        assert engine.stats.incremental_applies == 1
        assert engine.stats.delta_derived_facts > 0


class TestRetractions:
    def test_retracted_edge_deletes_consequences(self):
        engine, db = _closure_engine()
        engine.apply_changes(retractions={"Edge": [("b", "c")]})
        assert db.facts("Path") == {("a", "b")}
        assert engine.stats.overdeleted_facts > 0

    def test_rederivation_keeps_alternately_supported_facts(self):
        """The diamond: removing one of two proofs must not delete the
        fact (the classic DRed overdelete/rederive case)."""
        rules = [parse_rule("Path(x, y) :- Edge(x, y).")]
        db = Database()
        db.add_all("Edge", [("a", "b")])
        engine = Engine(
            rules + [parse_rule("Path(x, z) :- Path(x, y), Edge(y, z).")]
        )
        db.add_all("Edge", [("b", "c"), ("a", "c")])  # two proofs of (a, c)
        engine.evaluate(db)
        engine.apply_changes(retractions={"Edge": [("a", "c")]})
        assert ("a", "c") in db.facts("Path")  # still via a->b->c
        assert engine.stats.rederived_facts >= 1

    def test_retracting_derived_fact_is_an_error(self):
        engine, _ = _closure_engine()
        with pytest.raises(ValueError, match="not an explicitly added"):
            engine.apply_changes(retractions={"Path": [("a", "b")]})

    def test_retracting_unknown_fact_is_an_error(self):
        engine, _ = _closure_engine()
        with pytest.raises(ValueError):
            engine.apply_changes(retractions={"Edge": [("z", "z")]})

    def test_add_then_retract_round_trips(self):
        engine, db = _closure_engine()
        before = db.facts("Path")
        engine.apply_changes(additions={"Edge": [("c", "d")]})
        engine.apply_changes(retractions={"Edge": [("c", "d")]})
        assert db.facts("Path") == before


class TestNegationFallback:
    def test_negated_dependency_change_recomputes_stratum(self):
        program = parse_program(
            "Guarded(s) :- Guard(s, g).\n"
            "Open(s) :- Stmt(s), !Guarded(s).\n"
        )
        db = Database()
        db.add_all("Stmt", [("s1",), ("s2",)])
        db.add("Guard", ("s1", "g1"))
        engine = Engine(program.rules)
        engine.evaluate(db)
        assert db.facts("Open") == {("s2",)}
        engine.apply_changes(retractions={"Guard": [("s1", "g1")]})
        assert db.facts("Open") == {("s1",), ("s2",)}
        assert engine.stats.strata_recomputed >= 1
        engine.apply_changes(additions={"Guard": [("s2", "g2")]})
        assert db.facts("Open") == {("s1",)}


class TestProvenance:
    def test_repair_keeps_explanations_renderable(self):
        engine, db = _closure_engine(track=True)
        engine.apply_changes(additions={"Edge": [("c", "d")]})
        text = engine.format_explanation("Path", ("a", "d"))
        assert "Path" in text
        engine.apply_changes(retractions={"Edge": [("a", "b")]})
        assert ("Path", ("a", "b")) not in engine.provenance

    def test_coverage_matches_cold_tracking_engine(self):
        engine, db = _closure_engine(track=True)
        engine.apply_changes(
            additions={"Edge": [("c", "d")]},
            retractions={"Edge": [("b", "c")]},
        )
        cold_db = Database()
        cold_db.add_all("Edge", [("a", "b"), ("c", "d")])
        cold = Engine(engine.rules, track_provenance=True)
        cold.evaluate(cold_db)
        assert set(engine.provenance) == set(cold.provenance)


class TestGuardrails:
    def test_apply_changes_needs_prior_evaluate(self):
        engine = Engine([parse_rule("P(x) :- E(x).")])
        with pytest.raises(RuntimeError, match="prior evaluate"):
            engine.apply_changes(additions={"E": [("a",)]})

    def test_legacy_interpreter_cannot_apply_changes(self):
        engine = Engine([parse_rule("P(x) :- E(x).")], use_plans=False)
        db = Database()
        db.add("E", ("a",))
        engine.evaluate(db)
        with pytest.raises(RuntimeError):
            engine.apply_changes(additions={"E": [("b",)]})

    def test_columnar_engine_repairs_too(self):
        engine, db = _closure_engine(columnar=True)
        engine.apply_changes(
            additions={"Edge": [("c", "d")]},
            retractions={"Edge": [("a", "b")]},
        )
        cold_db = Database()
        cold_db.add_all("Edge", [("b", "c"), ("c", "d")])
        Engine(engine.rules).evaluate(cold_db)
        assert db.facts("Path") == cold_db.facts("Path")


class TestWarmEngineCache:
    def _corpus(self):
        from repro.corpus import generate_corpus

        return generate_corpus(2, seed=13)

    def test_identical_rerun_is_a_hit(self):
        from repro.core.bytecode_datalog import WarmEngineCache, analyze_with_datalog

        contract = self._corpus()[0]
        warm = WarmEngineCache()
        first = analyze_with_datalog(runtime_bytecode=contract.runtime, warm=warm)
        second = analyze_with_datalog(runtime_bytecode=contract.runtime, warm=warm)
        assert warm.stats()["misses"] == 1
        assert warm.stats()["hits"] == 1
        assert first.tainted_slots == second.tainted_slots
        assert first.reachable == second.reachable

    def test_flag_flip_repairs_and_matches_cold(self):
        from repro.core.bytecode_datalog import WarmEngineCache, analyze_with_datalog
        from repro.core.taint import TaintOptions

        warm = WarmEngineCache()
        for contract in self._corpus():
            analyze_with_datalog(runtime_bytecode=contract.runtime, warm=warm)
            repaired = analyze_with_datalog(
                runtime_bytecode=contract.runtime,
                options=TaintOptions(model_guards=False),
                warm=warm,
            )
            cold = analyze_with_datalog(
                runtime_bytecode=contract.runtime,
                options=TaintOptions(model_guards=False),
            )
            assert repaired.tainted_slots == cold.tainted_slots
            assert repaired.reachable == cold.reachable
            assert repaired.storage_tainted == cold.storage_tainted
        assert warm.stats()["repairs"] >= 1

    def test_repairs_interleaved_across_contracts_match_cold(self):
        """Contracts A and B run the same rule set, so their live engines
        share cached plans (the DRed repair plans included).  Repairs of A
        and B interleave; every repaired result must equal a cold run —
        binding B must never re-bind plan state A's engine still uses."""
        from repro.core.bytecode_datalog import WarmEngineCache, analyze_with_datalog
        from repro.core.taint import TaintOptions
        from repro.corpus import generate_corpus

        def relations(result):
            return (
                result.input_tainted,
                result.storage_tainted,
                result.tainted_slots,
                result.reachable,
                result.compromised_guards,
                result.writable_mappings,
            )

        default, flipped = TaintOptions(), TaintOptions(model_guards=False)
        first, second = generate_corpus(2, seed=5, templates=["composite_victim"])
        warm = WarmEngineCache()
        analyze_with_datalog(runtime_bytecode=first.runtime, warm=warm)
        analyze_with_datalog(runtime_bytecode=second.runtime, warm=warm)
        engine_a, engine_b = [entry[0] for entry in warm._entries.values()]
        assert engine_a.program is engine_b.program
        for contract, options in (
            (first, flipped),
            (second, flipped),
            (first, default),
            (second, default),
        ):
            repaired = analyze_with_datalog(
                runtime_bytecode=contract.runtime, options=options, warm=warm
            )
            cold = analyze_with_datalog(
                runtime_bytecode=contract.runtime, options=options
            )
            assert relations(repaired) == relations(cold)
        assert warm.stats()["repairs"] == 4

    def test_eviction_bounds_live_engines(self):
        from repro.core.bytecode_datalog import WarmEngineCache, analyze_with_datalog

        warm = WarmEngineCache(maxsize=1)
        for contract in self._corpus():
            analyze_with_datalog(runtime_bytecode=contract.runtime, warm=warm)
        assert warm.stats()["entries"] == 1

    def test_api_analyze_threads_warm_cache(self):
        from repro import api

        contract = self._corpus()[0]
        warm = api.WarmEngineCache()
        config = api.AnalysisConfig(engine="datalog-columnar")
        first = api.analyze(contract.runtime, config, warm=warm)
        second = api.analyze(contract.runtime, config, warm=warm)
        assert warm.stats()["misses"] == 1
        assert warm.stats()["hits"] == 1
        rows = lambda result: [
            (w.kind, w.pc, w.statement, w.slot, w.detail)
            for w in result.warnings
        ]
        assert rows(first) == rows(second)
