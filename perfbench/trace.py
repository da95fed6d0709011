"""In-memory span tracing around the analyzer's layer entry points.

Spans are recorded from outside the program: :func:`instrument` swaps the
module attributes the pipeline resolves at call time (``repro.core.
pipeline.lift``, ``...extract_facts``, the Datalog parser and engine seen
by ``repro.core.bytecode_datalog``, ...) for wrappers that open a span,
and restores the originals on exit.  No file under ``src/`` changes.

A span is ``(name, start, end, parent, contract)``; times come from
``time.perf_counter``.  Spans stay in memory until :meth:`Tracer.dump`
writes them once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import defaultdict
from typing import Dict, Iterator, List, Optional, Tuple

# Span name -> the layer (module) whose public entry point it wraps.
LAYERS: Dict[str, str] = {
    "api.analyze": "core.pipeline",
    "lift": "decompiler",
    "facts": "core.facts",
    "storage": "core.storage_model",
    "guards": "core.guards",
    "ordering": "core.ordering",
    "taint": "core.taint",
    "taint.datalog": "core.bytecode_datalog",
    "datalog.parse": "datalog",
    "datalog.compile": "datalog",
    "datalog.evaluate": "datalog",
    "detect": "core.vulnerabilities",
    "api.sweep": "core.orchestrator",
}

# (module, attribute, span name) for plain functions the pipeline calls.
_FUNCTION_HOOKS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.pipeline", "lift", "lift"),
    ("repro.core.pipeline", "extract_facts", "facts"),
    ("repro.core.pipeline", "build_storage_model", "storage"),
    ("repro.core.pipeline", "build_guard_model", "guards"),
    ("repro.core.pipeline", "build_call_order_model", "ordering"),
    ("repro.core.pipeline", "detect", "detect"),
    ("repro.core.bytecode_datalog", "analyze_with_datalog", "taint.datalog"),
    ("repro.core.bytecode_datalog", "parse_program", "datalog.parse"),
)


class Span:
    __slots__ = ("ident", "name", "start", "end", "parent", "contract")

    def __init__(self, ident, name, start, parent, contract):
        self.ident = ident
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.contract = contract

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects nested spans; one root span per analysed contract."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[Span] = []

    @contextlib.contextmanager
    def span(self, name: str, contract: Optional[int] = None) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        if contract is None and parent is not None:
            contract = parent.contract
        record = Span(
            len(self.spans),
            name,
            time.perf_counter(),
            None if parent is None else parent.ident,
            contract,
        )
        self.spans.append(record)
        self._open.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, function):
        def traced(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)

        return traced

    def dump(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span.ident,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "contract": span.contract,
                        }
                    )
                    + "\n"
                )


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Route the pipeline's layer calls through ``tracer`` until exit."""
    from repro.core import bytecode_datalog, taint

    saved = []
    try:
        for module_name, attribute, span_name in _FUNCTION_HOOKS:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute)
            saved.append((module, attribute, original))
            setattr(module, attribute, tracer.wrap(span_name, original))

        engine = bytecode_datalog.Engine

        class TracedEngine(engine):
            def __init__(self, *args, **kwargs):
                with tracer.span("datalog.compile"):
                    super().__init__(*args, **kwargs)

            def evaluate(self, *args, **kwargs):
                with tracer.span("datalog.evaluate"):
                    return super().evaluate(*args, **kwargs)

        saved.append((bytecode_datalog, "Engine", engine))
        bytecode_datalog.Engine = TracedEngine

        analysis = taint.TaintAnalysis
        run = analysis.run
        saved.append((analysis, "run", run))

        def traced_run(self, *args, **kwargs):
            with tracer.span("taint"):
                return run(self, *args, **kwargs)

        analysis.run = traced_run
        yield tracer
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> its duration minus the part of it its children cover."""
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.ident, ()), key=lambda s: s.start):
            start = max(child.start, cursor)
            end = min(child.end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result[span.ident] = span.duration - covered
    return result


def totals_by_name(spans: List[Span]) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, int]]:
    """Per span name: inclusive seconds, self seconds, and span count."""
    own = self_times(spans)
    inclusive: Dict[str, float] = defaultdict(float)
    exclusive: Dict[str, float] = defaultdict(float)
    counts: Dict[str, int] = defaultdict(int)
    for span in spans:
        inclusive[span.name] += span.duration
        exclusive[span.name] += own[span.ident]
        counts[span.name] += 1
    return dict(inclusive), dict(exclusive), dict(counts)
