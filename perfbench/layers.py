"""Per-layer spans for the traced run, recorded from the benchmark's side.

Nothing here edits the library.  :func:`instrument` replaces public
functions and methods, at the module where the engines import them,
with wrappers that time each call; the originals come back when the
``with`` block ends.  A layer's *self* time is its spans' duration
minus the time covered by spans opened inside them, so the self times
of one question add up to the time its top-level spans cover.

The fixpoint iterators take the stage function as an argument; their
wrappers also wrap that function, so a stage's rule firing is charged to
the engine that built it (``datalog.engine`` or ``core.evaluation``)
while the iterator's own unions and convergence tests stay in
``core.fixpoint``.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator


class Recorder:
    """Self time, inclusive time and call counts per layer."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.coerced_rows = 0
        self._children: list[float] = []  # child time of each open span

    def wrap(self, layer: str, fn: Callable,
             name: str | None = None) -> Callable:
        """``fn`` timed as a span of ``layer``; inclusive time is also
        kept under ``name`` (default: the layer)."""
        children = self._children
        self_s, total_s, calls = self.self_s, self.total_s, self.calls
        key = name or layer

        def span(*args, **kwargs):
            children.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self_s[layer] += elapsed - children.pop()
                total_s[key] += elapsed
                calls[layer] += 1
                if children:
                    children[-1] += elapsed

        return span

    def wrap_iterator(self, fn: Callable, stage_layer: str) -> Callable:
        """A fixpoint iterator span whose stage function is a span of
        ``stage_layer``."""
        def iterate(stage, *args, **kwargs):
            return fn(self.wrap(stage_layer, stage), *args, **kwargs)

        return self.wrap("core.fixpoint", iterate)

    def count_coercions(self, fn: Callable) -> Callable:
        def coerce(*args, **kwargs):
            self.coerced_rows += 1
            return fn(*args, **kwargs)

        return coerce

    def attributed(self) -> float:
        """Sum of self times over every layer so far."""
        return sum(self.self_s.values())


def _targets(recorder: Recorder) -> list[tuple[object, str, Callable]]:
    """``(owner, attribute, wrapper factory)`` for every nested layer call."""
    # By module path: some package namespaces re-export a function
    # under the name of its submodule (``repro.objects.instance``).
    evaluation, fixpoint, safety, engine, instance, intern = (
        importlib.import_module(f"repro.{path}") for path in (
            "core.evaluation", "core.fixpoint", "core.safety",
            "datalog.engine", "objects.instance", "objects.intern"))

    targets: list[tuple[object, str, Callable]] = [
        (engine, "intern_instance",
         lambda fn: recorder.wrap("objects.intern", fn)),
        (instance.Instance, "atoms",
         lambda fn: recorder.wrap("objects.instance", fn)),
        (instance, "_coerce_row", recorder.count_coercions),
        (fixpoint.IndexPool, "probe",
         lambda fn: recorder.wrap("core.fixpoint.index", fn)),
        (intern.ValueStore, "unintern_row",
         lambda fn: recorder.wrap("decode", fn)),
        (safety, "compute_ranges",
         lambda fn: recorder.wrap("core.range_restriction", fn)),
        (evaluation.Evaluator, "evaluate",
         lambda fn: recorder.wrap("core.evaluation", fn)),
    ]
    for module, stage_layer in ((engine, "datalog.engine"),
                                (evaluation, "core.evaluation")):
        for name in ("iterate_ifp", "iterate_ifp_delta", "iterate_pfp"):
            targets.append((module, name,
                            lambda fn, layer=stage_layer:
                            recorder.wrap_iterator(fn, layer)))
    return targets


@contextmanager
def instrument(recorder: Recorder) -> Iterator[list[str]]:
    """Wrap every nested layer call for the ``with`` body.

    Yields the attributes it could not find (a layer a later library
    version moved), so the caller can report them; their time then
    stays in the enclosing layer.
    """
    saved: list[tuple[object, str, object]] = []
    missing: list[str] = []
    try:
        for owner, attr, factory in _targets(recorder):
            original = owner.__dict__.get(attr) if isinstance(owner, type) \
                else getattr(owner, attr, None)
            if original is None:
                missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, factory(original))
        yield missing
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
