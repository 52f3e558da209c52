"""Spans recorded around calls into medial's public functions.

The tracer lives entirely in the benchmark: it replaces a function object
in every ``medial`` module namespace that binds it, so each caller, which
looks the function up under its own module's name (``medial.cli.closure``
as well as ``medial.rewrite.closure``), goes through the same wrapper.
Nothing inside ``src/medial`` is edited.

A span is ``[name, start, end, parent, item, busy, calls]``.  ``busy`` is
the time the span's code was running: ``end - start`` for a call, and the
summed time of the ``next()`` calls for a generator.  A generator's calls
under one parent span share one aggregate span, so a search that draws
284k moves from ``alt_successors`` leaves one span, not 284k.  A span's
self time is its busy time minus its children's busy time; summed over
every span under the pass root it equals the root's duration.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import sys
from collections import Counter
from time import perf_counter

NAME, START, END, PARENT, ITEM, BUSY, CALLS = range(7)
FIELDS = ("name", "start", "end", "parent", "item", "busy", "calls")


class Tracer:
    """In-memory span recorder plus the counters taken at the same calls."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item: object = None
        self.counts: Counter = Counter()
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_start = 0.0
        # States seen by the current check_equivalence, or None outside it.
        self.seen: set | None = None
        self._aggregates: dict[tuple[int, str], int] = {}

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        start = perf_counter()
        self.spans.append([name, start, start, parent, self.item, 0.0, 1])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        end = perf_counter()
        span = self.spans[idx]
        span[END] = end
        span[BUSY] = end - span[START]
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, item: object = None):
        """A span around a ``with`` block; yields the span's index."""
        if item is not None:
            self.item = item
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def innermost(self) -> str | None:
        return self.spans[self.stack[-1]][NAME] if self.stack else None

    def aggregate(self, name: str) -> int:
        """The generator span named ``name`` under the current parent."""
        parent = self.stack[-1] if self.stack else -1
        key = (parent, name)
        idx = self._aggregates.get(key)
        if idx is None:
            idx = len(self.spans)
            now = perf_counter()
            self.spans.append([name, now, now, parent, self.item, 0.0, 0])
            self._aggregates[key] = idx
        return idx

    # -- garbage collector --------------------------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.gc_s += perf_counter() - self._gc_start
            self.gc_collections += 1

    def watch_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    def unwatch_gc(self) -> None:
        gc.callbacks.remove(self._on_gc)

    # -- results ------------------------------------------------------------

    def self_times(self) -> list[float]:
        out = [span[BUSY] for span in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                out[span[PARENT]] -= span[BUSY]
        return out

    def subtree(self, root: int) -> list[int]:
        """Indices of ``root`` and every span below it."""
        inside = {root}
        for idx in range(root + 1, len(self.spans)):
            if self.spans[idx][PARENT] in inside:
                inside.add(idx)
        return sorted(inside)


def _rebind(original, replacement, undo: list) -> None:
    """Point every medial module attribute bound to ``original`` at
    ``replacement``, noting in ``undo`` how to put it back."""
    for modname, module in list(sys.modules.items()):
        if modname != "medial" and not modname.startswith("medial."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))


def wrap_call(tracer: Tracer, name: str, fn, on_result=None, recursive=False):
    """A wrapper recording one span per call.

    With ``recursive`` a call made from inside a span of the same name runs
    unrecorded, so a recursive function counts one span per outer call.
    ``on_result(args, result)`` updates counters after the span closes.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if recursive and tracer.innermost() == name:
            return fn(*args, **kwargs)
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if on_result is not None:
            on_result(args, result)
        return result

    return wrapper


def wrap_generator(tracer: Tracer, name: str, fn, on_item=None):
    """A wrapper timing each ``next()`` of a generator function."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        idx = tracer.aggregate(name)
        span = tracer.spans[idx]
        stack = tracer.stack
        while True:
            stack.append(idx)
            start = perf_counter()
            try:
                value = next(it)
            except StopIteration:
                end = perf_counter()
                stack.pop()
                span[BUSY] += end - start
                span[END] = end
                return
            end = perf_counter()
            stack.pop()
            span[BUSY] += end - start
            span[END] = end
            span[CALLS] += 1
            if on_item is not None:
                on_item(args, value)
            yield value

    return wrapper


def install(tracer: Tracer):
    """Wrap the public functions on the benchmark's workload paths.

    Returns a function that removes the wrappers again.
    """
    from medial import assoc, catalog, geometry, quotient, rewrite, trees

    counts = tracer.counts
    undo: list = []

    def searched(args, result) -> None:
        counts["quotient.expanded"] += result.expanded

    def equivalence(fn):
        inner = wrap_call(tracer, "quotient.check_equivalence", fn, searched)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.seen = set()
            try:
                return inner(*args, **kwargs)
            finally:
                counts["quotient.discovered"] += len(tracer.seen)
                tracer.seen = None

        return wrapper

    def scanned(args, result) -> None:
        searched(args, result)
        counts["quotient.discovered"] += result.class_size
        counts["quotient.class_size"] += result.class_size
        counts["quotient.witnesses"] += len(result.witnesses)

    def moved(args, value) -> None:
        counts["quotient.moves"] += 1
        if tracer.seen is not None:
            tracer.seen.add(args[0])
            tracer.seen.add(value[1])

    def partition(args, value) -> None:
        counts["geometry.partitions"] += 1

    def cut(args, result) -> None:
        counts["geometry.main_cuts.calls"] += 1
        if len(result) == 2:
            counts["geometry.main_cuts.both"] += 1

    def realized(args, result) -> None:
        counts["geometry.realize.calls"] += 1

    def closed(args, result) -> None:
        counts["rewrite.closure.members"] += len(result)

    def replayed(args, result) -> None:
        counts["rewrite.replay_steps"] += len(args[0].steps)

    def parsed(args, result) -> None:
        counts["trees.parse_monomial.calls"] += 1

    def name(fn) -> str:
        return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

    _rebind(quotient.check_equivalence, equivalence(quotient.check_equivalence), undo)
    for fn, on_result in (
        (quotient.find_commutations, scanned),
        (quotient.expand_path, None),
        (rewrite.certificate_from_path, None),
        (rewrite.closure, closed),
        (rewrite.replay_certificate, replayed),
        (geometry.main_cuts, cut),
        (geometry.fiber, None),
        (geometry.interior_labels, None),
        (catalog.load_certificate, None),
        (trees.parse_monomial, parsed),
    ):
        _rebind(fn, wrap_call(tracer, name(fn), fn, on_result), undo)
    for fn, on_result in ((geometry.realize, realized), (assoc.to_alternating, None)):
        _rebind(fn, wrap_call(tracer, name(fn), fn, on_result, recursive=True), undo)
    for fn, on_item in (
        (quotient.alt_successors, moved),
        (geometry.enumerate_partitions, partition),
        (assoc.enumerate_alternating, None),
    ):
        _rebind(fn, wrap_generator(tracer, name(fn), fn, on_item), undo)
    lex = geometry.BlockPartition.with_lex_labels
    geometry.BlockPartition.with_lex_labels = wrap_call(
        tracer, "geometry.with_lex_labels", lex
    )
    undo.append((geometry.BlockPartition, "with_lex_labels", lex))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall
