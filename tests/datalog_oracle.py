"""Test-only reference executor for compiled Datalog plans.

The engine runs every plan variant as a generated kernel
(:func:`repro.datalog.planner.kernel_source`).  This module keeps the
plan interpreter those kernels replaced: a flat backtracking join over
resumable candidate iterators that reads the compiled
:class:`~repro.datalog.planner.PlanVariant` fields directly.  It is slow
on purpose and has no code in common with the generator, so it serves
as the oracle the kernels are checked against.

:func:`executor` swaps it into :class:`~repro.datalog.Engine` for the
duration of a ``with`` block:

* ``"reference"`` — every variant runs on the interpreter instead of its
  kernel (binding included), so a whole engine can be compared with a
  kernel engine: fixpoint, provenance and ``EngineStats``.
* ``"checked"`` — every kernel call also runs the interpreter on the same
  inputs (a private copy of the per-round delta-index cache, a scratch
  ``EngineStats``) and asserts the same ``(head, support)`` list, in
  order, and the same counter increments.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from repro.datalog.engine import Database, Engine, _BoundVariant
from repro.datalog.planner import EngineStats, NegGuard, PlanVariant


class _Step:
    """A join step bound to one database (interned key, live source)."""

    __slots__ = (
        "relation", "delta", "positions", "key_spec", "static_key",
        "outs", "checks", "guards", "orig_index", "rel_set", "index",
    )

    def __init__(self, step, key_spec, static_key, guards, rel_set, index):
        self.relation = step.relation
        self.delta = step.delta
        self.positions = step.positions
        self.key_spec = key_spec
        self.static_key = static_key
        self.outs = step.outs
        self.checks = step.checks
        self.guards = guards
        self.orig_index = step.orig_index
        self.rel_set = rel_set
        self.index = index


class _Neg:
    """A negation guard bound to one database."""

    __slots__ = ("relation", "key_spec", "rel_set")

    def __init__(self, relation, key_spec, rel_set):
        self.relation = relation
        self.key_spec = key_spec
        self.rel_set = rel_set


class ReferenceVariant:
    """A plan variant bound for the interpreter."""

    __slots__ = ("prelude", "steps", "head_spec", "static_head", "n_slots")

    def __init__(self, prelude, steps, head_spec, static_head, n_slots):
        self.prelude = prelude
        self.steps = steps
        self.head_spec = head_spec
        self.static_head = static_head
        self.n_slots = n_slots


def _has_constant(spec) -> bool:
    return any(not from_slot for from_slot, _ in spec)


def _intern_spec(database: Database, spec):
    return tuple(
        (True, value) if from_slot else (False, database.intern_value(value))
        for from_slot, value in spec
    )


def _bind_guard(database: Database, guard):
    if guard.__class__ is NegGuard:
        key_spec = guard.key_spec
        if _has_constant(key_spec):
            key_spec = _intern_spec(database, key_spec)
        return _Neg(
            guard.relation, key_spec, database.relation_view(guard.relation)
        )
    return guard  # filters see raw constants


def bind_reference(
    database: Database,
    variant: PlanVariant,
    stats: Optional[EngineStats] = None,
) -> ReferenceVariant:
    """Bind ``variant`` to ``database`` the way the interpreter reads it:
    constants interned in plan order (prelude, per step its key and
    guards, head), indexes registered (counted in ``stats`` if given)."""
    prelude = tuple(_bind_guard(database, guard) for guard in variant.prelude)
    steps = []
    for step in variant.steps:
        key_spec = step.key_spec
        static_key = None
        if _has_constant(key_spec):
            key_spec = _intern_spec(database, key_spec)
            if all(not from_slot for from_slot, _ in key_spec):
                static_key = tuple(value for _, value in key_spec)
        rel_set = index = None
        if step.delta:
            pass  # candidates come from the per-round delta sets
        elif step.positions:
            index, built = database.register_index(step.relation, step.positions)
            if built and stats is not None:
                stats.index_builds += 1
        else:
            rel_set = database.relation_view(step.relation)
        guards = tuple(_bind_guard(database, guard) for guard in step.guards)
        steps.append(_Step(step, key_spec, static_key, guards, rel_set, index))
    head_spec = variant.head_spec
    if _has_constant(head_spec):
        head_spec = _intern_spec(database, head_spec)
    static_head = None
    if all(not from_slot for from_slot, _ in head_spec):
        static_head = tuple(value for _, value in head_spec)
    return ReferenceVariant(
        prelude, tuple(steps), head_spec, static_head, variant.n_slots
    )


def _eval_guard(database: Database, guard, env: List[Any]) -> bool:
    if guard.__class__ is _Neg:
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


def _candidates(
    step: _Step,
    env: List[Any],
    delta: Optional[Dict[str, Set[Tuple]]],
    delta_index_cache: Optional[Dict],
    stats: EngineStats,
) -> Iterator[Tuple]:
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


def run_reference(
    database: Database,
    variant: ReferenceVariant,
    delta: Optional[Dict[str, Set[Tuple]]],
    delta_index_cache: Optional[Dict],
    stats: EngineStats,
    tracking: bool,
) -> List[Tuple[Tuple, list]]:
    """Execute one bound variant; returns ``(head fact, support)`` pairs
    (support is empty unless ``tracking``)."""
    env: List[Any] = [None] * variant.n_slots
    for guard in variant.prelude:
        if not _eval_guard(database, guard, env):
            return []
    steps = variant.steps
    depth = len(steps)
    if depth == 0:
        return [(variant.static_head, [])]
    results: List[Tuple[Tuple, list]] = []
    iters: List[Any] = [None] * depth
    trail: List[Any] = [None] * depth
    level = 0
    iters[0] = _candidates(steps[0], env, delta, delta_index_cache, stats)
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
                    if not _eval_guard(database, guard, env):
                        ok = False
                        break
            if not ok:
                continue
            if tracking:
                trail[level] = (step.orig_index, step.relation, fact)
            if level + 1 == depth:
                head = variant.static_head
                if head is None:
                    head = tuple(
                        env[value] if from_slot else value
                        for from_slot, value in variant.head_spec
                    )
                results.append((head, list(trail) if tracking else []))
                continue
            level += 1
            iters[level] = _candidates(
                steps[level], env, delta, delta_index_cache, stats
            )
            descended = True
            break
        if not descended:
            level -= 1
    return results


def _reference_bind(self: Engine, database: Database, variant: PlanVariant):
    reference = bind_reference(database, variant, self.stats)
    stats = self.stats
    tracking = self.track_provenance

    def run(_bound, delta, delta_index_cache):
        return run_reference(
            database, reference, delta, delta_index_cache, stats, tracking
        )

    return _BoundVariant(variant, run, ())


def _checked_bind(original):
    def bind(self: Engine, database: Database, variant: PlanVariant):
        bound = original(self, database, variant)
        reference = bind_reference(database, variant)
        kernel = bound.kernel
        engine_stats = self.stats
        tracking = self.track_provenance

        def checked(values, delta, delta_index_cache):
            shadow = None if delta_index_cache is None else dict(delta_index_cache)
            expected_stats = EngineStats()
            expected = run_reference(
                database, reference, delta, shadow, expected_stats, tracking
            )
            before = engine_stats.scalar_counters()
            got = kernel(values, delta, delta_index_cache)
            after = engine_stats.scalar_counters()
            assert got == expected, (variant, variant.sources[tracking])
            assert {
                name: after[name] - before[name] for name in after
            } == expected_stats.scalar_counters(), variant
            return got

        bound.kernel = checked
        return bound

    return bind


@contextmanager
def executor(mode: str) -> Iterator[None]:
    """Run every :class:`Engine` evaluated inside the block on the
    interpreter (``"reference"``) or on kernels cross-checked against it
    call by call (``"checked"``)."""
    original = Engine._bind_variant
    if mode == "reference":
        replacement = _reference_bind
    elif mode == "checked":
        replacement = _checked_bind(original)
    else:
        raise ValueError("unknown oracle mode %r" % mode)
    Engine._bind_variant = replacement
    try:
        yield
    finally:
        Engine._bind_variant = original

