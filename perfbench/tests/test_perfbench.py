"""Tests of the benchmark's own machinery (not of the analyzer).

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import pytest  # noqa: E402

from repro import api  # noqa: E402
from repro.corpus import generate_mainnet  # noqa: E402

from perfbench import inputs, speed, stats, workloads  # noqa: E402
from perfbench.trace import Span, Tracer, instrument, self_times  # noqa: E402


# ------------------------------------------------------------- percentiles


def test_percentile_interpolates_between_ranks():
    values = list(range(1, 101))  # 1..100
    assert stats.percentile(values, 0) == 1
    assert stats.percentile(values, 100) == 100
    assert stats.percentile(values, 50) == pytest.approx(50.5)
    assert stats.percentile(values, 99) == pytest.approx(99.01)


def test_p99_of_1000_samples_has_ten_beyond():
    values = [float(v) for v in range(1000)]
    random.Random(7).shuffle(values)
    cut, beyond = stats.tail(values, 99.0)
    assert beyond == 10
    assert sorted(values)[-10:] == sorted(v for v in values if v > cut)


def test_tail_refuses_too_few_samples_beyond():
    values = [float(v) for v in range(900)]  # p99 has 9 samples beyond
    assert stats.beyond(values, 99.0) == 9
    with pytest.raises(ValueError, match="only 9 beyond"):
        stats.tail(values, 99.0)


def test_beyond_does_not_count_ties_at_the_cut():
    values = [1.0] * 980 + [2.0] * 20
    assert stats.percentile(values, 99.0) == 2.0
    assert stats.beyond(values, 99.0) == 0
    with pytest.raises(ValueError):
        stats.tail(values, 99.0)


# ------------------------------------------------------------------ inputs


def test_same_seed_gives_identical_inputs():
    first = inputs.corpus_draw(5, size=60, tail_share=0.05)
    second = inputs.corpus_draw(5, size=60, tail_share=0.05)
    assert inputs.digest(first) == inputs.digest(second)
    assert [case.template for case in first] == [case.template for case in second]
    other = inputs.corpus_draw(6, size=60, tail_share=0.05)
    assert inputs.digest(other) != inputs.digest(first)


def test_tail_is_interleaved_and_under_the_cap():
    cases = inputs.corpus_draw(3, size=100, tail_share=0.04)
    tail = [case for case in cases if case.template in inputs.TAIL_TEMPLATES]
    assert len(tail) == 4
    assert [case.index for case in tail] == [12, 37, 62, 87]
    assert all(case.size <= inputs.EIP170_CAP for case in tail)


def test_largest_tail_contract_lands_near_the_cap_with_known_verdicts():
    rng = random.Random(11)
    target = inputs.tail_targets(20)[-1]
    for guarded in (True, False):
        contract, runtime = inputs.sized_large_contract(rng, target, guarded)
        assert target * 0.97 <= len(runtime) <= inputs.EIP170_CAP
        assert contract.expected == (
            frozenset() if guarded else frozenset({inputs.ACCESSIBLE_SELFDESTRUCT})
        )


@pytest.mark.parametrize("engine", ["python", "datalog"])
def test_tail_verdicts_match_the_oracle(engine):
    rng = random.Random(2)
    config = api.AnalyzeRequest(engine=engine).config()
    for guarded in (True, False):
        contract, runtime = inputs.sized_large_contract(rng, 2500, guarded)
        case = inputs.Case(0, contract.template, runtime, contract.expected)
        result = api.analyze(runtime, config)
        assert result.error is None
        assert inputs.check_verdict(case, (w.kind for w in result.warnings)) is None


def test_sweep_stream_reproduces_generate_mainnet():
    stream = inputs.mainnet_stream(9, total=120, unique=12)
    mainnet = generate_mainnet(120, 12, seed=9)
    assert stream.manifest == mainnet.manifest
    assert stream.bytecodes == mainnet.bytecodes()
    assert [case.runtime for case in stream.cases] == mainnet.bytecodes()


# ------------------------------------------------------------------ oracle


def test_oracle_flags_a_wrong_expected_verdict():
    cases = inputs.corpus_draw(4, size=8, tail_share=0.0)
    config = api.AnalyzeRequest().config()
    clean = workloads.analyze_pass(cases, config, seconds=0)
    assert clean.failures == [] and clean.completed == len(cases)

    wrong = list(cases)
    victim = wrong[3]
    wrong[3] = inputs.Case(
        victim.index,
        victim.template,
        victim.runtime,
        victim.expected ^ {inputs.ACCESSIBLE_SELFDESTRUCT},
    )
    flagged = workloads.analyze_pass(wrong, config, seconds=0)
    assert flagged.attempted == len(cases)
    assert flagged.completed == len(cases) - 1
    assert len(flagged.failures) == 1
    assert "#%d (%s)" % (victim.index, victim.template) in flagged.failures[0]


# ------------------------------------------------------------ speed probe


def test_speed_factor_is_nominal_over_mean_probe_time():
    probe = speed.SpeedProbe()
    with pytest.raises(ValueError):
        probe.factor()
    probe.samples = [speed.NOMINAL_S * 2, speed.NOMINAL_S * 2]
    assert probe.factor() == pytest.approx(0.5)
    assert probe.sample() > 0 and len(probe.samples) == 3


def test_a_pass_without_probe_samples_reports_wall_clock():
    assert workloads.Pass().factor == 1.0


# ----------------------------------------------------------------- tracing


def _span(ident, start, end, parent=None):
    span = Span(ident, "s%d" % ident, start, parent, 0)
    span.end = end
    return span


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 4.0, parent=0),
        _span(2, 3.0, 5.0, parent=0),  # overlaps its sibling by 1
        _span(3, 6.0, 7.0, parent=0),
        _span(4, 1.5, 2.0, parent=1),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0)
    assert own[1] == pytest.approx(2.5)
    assert own[4] == pytest.approx(0.5)


def test_instrument_nests_layer_spans_and_restores_the_pipeline():
    from repro.core import bytecode_datalog, pipeline

    original_lift = pipeline.lift
    original_engine = bytecode_datalog.Engine
    runtime = inputs.corpus_draw(1, size=1, tail_share=0.0)[0].runtime
    tracer = Tracer()
    with instrument(tracer):
        with tracer.span("api.analyze", 0):
            api.analyze(runtime, api.AnalyzeRequest(engine="datalog").config())
    assert pipeline.lift is original_lift
    assert bytecode_datalog.Engine is original_engine

    names = [span.name for span in tracer.spans]
    for name in ("lift", "facts", "taint.datalog", "datalog.parse",
                 "datalog.compile", "datalog.evaluate", "detect"):
        assert names.count(name) == 1, name
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["lift"].parent == by_name["api.analyze"].ident
    assert by_name["datalog.evaluate"].parent == by_name["taint.datalog"].ident
    assert all(span.contract == 0 for span in tracer.spans)
