"""Generated join kernels against the reference interpreter.

Every compiled plan variant runs as a generated Python kernel
(:func:`repro.datalog.planner.kernel_source`).  ``tests/datalog_oracle.py``
keeps the plan interpreter the kernels replaced; here both run on the
same inputs and must agree exactly: each call's ``(head, support)`` list
in order and its ``EngineStats`` increments (``"checked"`` mode), and a
whole engine's stats, provenance and fixpoint (``"reference"`` mode).
The generated source itself may hold only integer literals and generated
names, so no rule text can reach it.
"""

import io
import re
import tokenize

import pytest
from hypothesis import given, settings, strategies as st

from repro.datalog import (
    Atom,
    Database,
    Engine,
    Literal,
    PlanningError,
    Rule,
    Variable,
    planner,
)
from repro.datalog.terms import Filter
from tests import datalog_oracle

# E, F, N are EDB (never heads; negation only reads them), so every
# generated program is stratifiable; P and Q are recursive IDB.
EDB_ARITY = {"E": 2, "F": 3, "N": 1}
IDB_ARITY = {"P": 2, "Q": 1}
ARITY = {**EDB_ARITY, **IDB_ARITY}
CONSTANTS = ["a", "b", 1, 2]
VARIABLES = [Variable("v%d" % i) for i in range(3)]


def _is_string(value) -> bool:
    return isinstance(value, str)


def _differs(left, right) -> bool:
    return left != right


@st.composite
def _rule(draw):
    """Constant keys and heads, repeated variables (three variables over
    up to three literals), negations and filters; sometimes a ground head
    or no positive literal at all."""
    body = []
    bound = []
    for _ in range(draw(st.integers(0, 3))):
        relation = draw(st.sampled_from(sorted(ARITY)))
        args = []
        for _ in range(ARITY[relation]):
            if draw(st.integers(0, 3)):
                variable = draw(st.sampled_from(VARIABLES))
                args.append(variable)
                if variable not in bound:
                    bound.append(variable)
            else:
                args.append(draw(st.sampled_from(CONSTANTS)))
        body.append(Literal(Atom(relation, *args)))

    def argument():
        if bound and draw(st.booleans()):
            return draw(st.sampled_from(bound))
        return draw(st.sampled_from(CONSTANTS))

    if draw(st.booleans()):
        relation = draw(st.sampled_from(sorted(EDB_ARITY)))
        body.append(
            Literal(
                Atom(relation, *[argument() for _ in range(EDB_ARITY[relation])]),
                negated=True,
            )
        )
    if draw(st.booleans()):
        body.append(Filter(_is_string, argument(), name="is_string"))
    if draw(st.booleans()):
        body.append(Filter(_differs, argument(), argument(), name="differs"))
    head = draw(st.sampled_from(sorted(IDB_ARITY)))
    return Rule(Atom(head, *[argument() for _ in range(IDB_ARITY[head])]), body)


@st.composite
def _program(draw):
    rules = draw(st.lists(_rule(), min_size=1, max_size=6))
    facts = {
        relation: draw(
            st.lists(st.tuples(*[st.sampled_from(CONSTANTS)] * arity), max_size=8)
        )
        for relation, arity in EDB_ARITY.items()
    }
    return rules, facts


def _load(facts) -> Database:
    database = Database()
    for relation, rows in facts.items():
        database.add_all(relation, rows)
    return database


def _state(engine: Engine, database: Database):
    return (
        engine.stats.as_dict(),
        list(engine.provenance.items()),
        list(database._symbols),
        {relation: sorted(facts) for relation, facts in database._relations.items()},
    )


def _run(rules, facts, track, mode=None, changes=()):
    """Evaluate (optionally on the oracle), then apply each change batch."""
    def go():
        database = _load(facts)
        engine = Engine(rules, track_provenance=track)
        engine.evaluate(database)
        for additions, retractions in changes:
            engine.apply_changes(additions=additions, retractions=retractions)
        return _state(engine, database)

    if mode is None:
        return go()
    with datalog_oracle.executor(mode):
        return go()


class TestKernelsMatchTheInterpreter:
    @given(_program(), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_generated_programs(self, program, track):
        rules, facts = program
        kernel = _run(rules, facts, track, mode="checked")
        assert kernel == _run(rules, facts, track, mode="reference")
        assert kernel == _run(rules, facts, track)

    @given(_program(), st.booleans(), st.data())
    @settings(max_examples=50, deadline=None)
    def test_generated_repairs(self, program, track, data):
        """DRed overdelete, rederive and insert, and the negation
        fallback (``_recompute_stratum``), on kernels and on the oracle."""
        rules, facts = program
        edb = {(relation, row) for relation, rows in facts.items() for row in rows}
        changes = []
        for _ in range(data.draw(st.integers(1, 3))):
            additions = {
                relation: data.draw(
                    st.lists(
                        st.tuples(*[st.sampled_from(CONSTANTS)] * arity), max_size=3
                    )
                )
                for relation, arity in EDB_ARITY.items()
            }
            picks = []
            if edb:
                picks = data.draw(
                    st.lists(
                        st.sampled_from(sorted(edb, key=repr)), max_size=3, unique=True
                    )
                )
            retractions = {}
            for relation, row in picks:
                if row not in additions[relation]:
                    retractions.setdefault(relation, []).append(row)
            edb -= {(rel, row) for rel, rows in retractions.items() for row in rows}
            edb |= {(rel, row) for rel, rows in additions.items() for row in rows}
            changes.append((additions, retractions))
        kernel = _run(rules, facts, track, mode="checked", changes=changes)
        assert kernel == _run(rules, facts, track, mode="reference", changes=changes)

    def test_corpus_templates(self):
        """Four contracts of every corpus template through the shipped
        taint rules, provenance off and on."""
        from tests.test_datalog_planner import _template_programs

        for name, rules, edb in _template_programs():
            for track in (False, True):
                kernel = _run(rules, edb, track, mode="checked")
                assert kernel == _run(rules, edb, track, mode="reference"), name

    def test_interleaved_warm_repairs(self):
        """WarmEngineCache repairs of two contracts sharing plans,
        interleaved, on kernels (checked call by call) and on the oracle:
        the same relations, stats and provenance after every step."""
        from repro.core.bytecode_datalog import WarmEngineCache, analyze_with_datalog
        from repro.core.taint import TaintOptions
        from repro.corpus import generate_corpus

        contracts = generate_corpus(2, seed=5, templates=["composite_victim"])
        default, flipped = TaintOptions(), TaintOptions(model_guards=False)
        steps = [(contract, default) for contract in contracts] + [
            (contract, options)
            for options in (flipped, default)
            for contract in contracts
        ]

        def sweep(mode):
            warm = WarmEngineCache()
            seen = []
            with datalog_oracle.executor(mode):
                for contract, options in steps:
                    result = analyze_with_datalog(
                        runtime_bytecode=contract.runtime,
                        options=options,
                        warm=warm,
                        track_provenance=True,
                    )
                    seen.append(
                        (
                            sorted(result.input_tainted),
                            sorted(result.storage_tainted),
                            sorted(result.compromised_guards),
                            result.engine_stats,
                            list(result.engine.provenance.items()),
                        )
                    )
            assert warm.stats()["repairs"] == 4
            return seen

        assert sweep("checked") == sweep("reference")


# ---------------------------------------------------------- source hygiene

_GENERATED_NAME = re.compile(r"[xsfgidk]\d+")
_FIXED_NAMES = {
    "def", "for", "in", "if", "is", "not", "None", "return", "continue",
    "else", "kernel", "b", "delta", "dcache", "out", "jp", "ip", "ih", "dib",
    "get", "append", "join_probes", "index_probes", "index_hits",
    "delta_index_builds",
}


def _assert_hygienic(source: str) -> None:
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.NAME:
            assert token.string in _FIXED_NAMES or _GENERATED_NAME.fullmatch(
                token.string
            ), token
        elif token.type == tokenize.NUMBER:
            assert token.string.isdigit(), token
        else:
            assert token.type not in (tokenize.STRING, tokenize.COMMENT), token


HOSTILE = [
    "q'uote",
    'd"ouble',
    "back\\slash",
    "new\nline",
    "__import__('os').system('exit 1')",
    "')\n__import__('os')\n#",
]


class TestKernelSource:
    def test_hostile_names_and_constants_stay_out_of_the_source(self):
        """Relation names and constants full of quotes, backslashes,
        newlines and code reach the kernels only through bound objects:
        the sources hold integer literals and generated names, and the
        fixpoint equals the legacy interpreter's."""
        names = ["R%s%d" % (text, n) for n, text in enumerate(HOSTILE)]
        edb, link, neg, head, ground = names[:5]
        x, y, z = Variable("x"), Variable("y"), Variable("z")
        constant = HOSTILE[4]
        rules = [
            Rule(Atom(head, x, y), [Literal(Atom(edb, x, y))]),
            Rule(
                Atom(head, x, z),
                [
                    Literal(Atom(head, x, y)),
                    Literal(Atom(link, y, constant, z)),
                    Literal(Atom(neg, z), negated=True),
                    Filter(_differs, z, HOSTILE[5], name=HOSTILE[0]),
                ],
            ),
            Rule(Atom(ground, HOSTILE[1], constant), [Literal(Atom(head, x, constant))]),
            Rule(Atom(ground, HOSTILE[2], HOSTILE[3]), []),
        ]
        facts = {
            edb: [(HOSTILE[0], HOSTILE[1]), (HOSTILE[3], HOSTILE[2])],
            link: [
                (HOSTILE[1], constant, HOSTILE[2]),
                (HOSTILE[2], constant, constant),
                (HOSTILE[2], constant, HOSTILE[5]),
                (HOSTILE[2], "other", HOSTILE[3]),
            ],
            neg: [(HOSTILE[3],)],
        }
        engine = Engine(rules, track_provenance=True)
        for stratum in engine.plans:
            for plan in stratum:
                for variant in plan.variants():
                    for source in variant.sources:
                        _assert_hygienic(source)
        kernel_db = _load(facts)
        engine.evaluate(kernel_db)
        legacy_db = _load(facts)
        legacy = Engine(rules, track_provenance=True, use_plans=False)
        legacy.evaluate(legacy_db)
        for relation in names:
            assert kernel_db.facts(relation) == legacy_db.facts(relation)
        assert kernel_db.facts(ground) == {
            (HOSTILE[1], constant),
            (HOSTILE[2], HOSTILE[3]),
        }
        assert set(engine.provenance) == set(legacy.provenance)

    def test_shipped_program_sources_are_hygienic(self):
        from tests.test_datalog_planner import _template_programs

        _, rules, edb = _template_programs()[0]
        engine = Engine(rules)
        engine.evaluate(_load(edb))
        for stratum in engine.plans:
            for plan in stratum:
                for variant in plan.variants():
                    for source in variant.sources:
                        _assert_hygienic(source)

    def test_kernels_compile_once_per_variant_and_mode(self):
        rules = [Rule(Atom("Out", Variable("x")), [Literal(Atom("In", Variable("x")))])]
        engine = Engine(rules)
        variant = engine.plans[0][0].seed
        before = planner.cache_info()["kernels"]
        untracked = variant.kernel(False)
        tracked = variant.kernel(True)
        assert variant.kernel(False) is untracked
        assert variant.kernel(True) is tracked
        assert untracked is not tracked
        assert planner.cache_info()["kernels"] - before <= 2

    def test_too_many_join_steps_is_a_planning_error(self):
        """One loop per join step, and CPython nests at most 20; longer
        bodies are rejected at construction, and still evaluate on the
        legacy interpreter."""
        x = Variable("x")
        steps = planner.MAX_JOIN_STEPS + 1
        rule = Rule(Atom("Out", x), [Literal(Atom("In%d" % n, x)) for n in range(steps)])
        with pytest.raises(PlanningError):
            Engine([rule])
        database = Database()
        for n in range(steps):
            database.add("In%d" % n, ("a",))
        Engine([rule], use_plans=False).evaluate(database)
        assert database.facts("Out") == {("a",)}

    def test_longest_allowed_body_compiles(self):
        x = Variable("x")
        rule = Rule(
            Atom("Out", x),
            [Literal(Atom("In%d" % n, x)) for n in range(planner.MAX_JOIN_STEPS)],
        )
        database = Database()
        for n in range(planner.MAX_JOIN_STEPS):
            database.add("In%d" % n, ("a",))
        Engine([rule], track_provenance=True).evaluate(database)
        assert database.facts("Out") == {("a",)}
