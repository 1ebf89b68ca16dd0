"""In-process span tracer for the traced benchmark run.

Wrappers are installed only in the benchmark's own worker process, on the
names callers actually look up: class attributes (``GaussianRational.__add__``,
``NormalPolynomial.__mul__``, ``DiagGraph.__post_init__`` ...) and module
attributes as imported (``laddergraphs.cli.evaluate``,
``laddergraphs.graphs.compose`` ...).  A wrapper opens a span, calls the
original and closes the span, so the package itself is unchanged.

Every span is reduced online to per-name call counts, total time and self
time (duration minus the time covered by child spans).  Spans of coarse
layers are also kept as records ``(id, name, start_ns, end_ns, parent_id,
job)`` and written out at the end.  High-frequency leaf spans (scalar
arithmetic, single compositions, validations, matching steps) are only
reduced: storing millions of records would change what is measured.
"""

from __future__ import annotations

import json
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.stack: list[list[int]] = []  # open spans: [child_ns, id for children]
        self.totals: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.records: list[tuple] = []
        self.counters: dict[str, int] = {}
        self.job: int | None = None
        self._next_id = 1
        self._undo: list[tuple] = []

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name: str, value: int) -> None:
        if value > self.counters.get(name, 0):
            self.counters[name] = value

    def open(self, store: bool) -> list[int]:
        parent = self.stack[-1][1] if self.stack else 0
        frame = [0, parent, parent, perf_counter_ns()]
        if store:
            frame[1] = self._next_id
            self._next_id += 1
        self.stack.append(frame)
        return frame

    def close(self, name: str, frame: list[int], store: bool) -> None:
        end = perf_counter_ns()
        self.stack.pop()
        child_ns, span_id, parent, start = frame
        duration = end - start
        if self.stack:
            self.stack[-1][0] += duration
        totals = self.totals.get(name)
        if totals is None:
            totals = self.totals[name] = [0, 0, 0]
        totals[0] += 1
        totals[1] += duration
        totals[2] += duration - child_ns
        if store:
            self.records.append((span_id, name, start, end, parent, self.job))

    def wrap(self, name: str, fn, store: bool, after=None):
        """A function that records one span per call of ``fn``."""
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer.open(store)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(name, frame, store)
            if after is not None:
                after(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name: str, fn, counter: str):
        """Like :meth:`wrap` for a generator: one span per item produced."""
        tracer = self

        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                frame = tracer.open(False)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    tracer.close(name, frame, False)
                tracer.count(counter)
                yield item

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attribute: str, replacement) -> None:
        self._undo.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as handle:
            for record in self.records:
                span_id, name, start, end, parent, job = record
                handle.write(json.dumps({"id": span_id, "name": name, "start_ns": start,
                                         "end_ns": end, "parent": parent, "job": job}) + "\n")


def _after_poly_mul(tracer: Tracer, args, result) -> None:
    left, right = args
    tracer.count("ladder.pairs_formed", len(left) * len(right))
    tracer.peak("ladder.peak_terms", len(result))


def install(tracer: Tracer, lg) -> None:
    """Wrap every layer boundary the per-layer metrics are taken from."""
    scalars, ladder, exprs, graphs, oracles, cli = (
        lg.scalars, lg.ladder, lg.exprs, lg.graphs, lg.oracles, lg.cli)
    gr = scalars.GaussianRational

    # (owners that look the name up, attribute, span name, keep records, after-hook)
    targets = [
        ((gr,), "__add__", "scalars.add", False, None),
        ((gr,), "__radd__", "scalars.add", False, None),
        ((gr,), "__mul__", "scalars.mul", False, None),
        ((gr,), "__rmul__", "scalars.mul", False, None),
        ((ladder.NormalPolynomial,), "__mul__", "ladder.mul", True, _after_poly_mul),
        ((ladder, oracles), "normal_order_rewrite", "ladder.rewrite", True, None),
        ((ladder, oracles), "normal_order_fold", "ladder.fold", True, None),
        ((exprs, cli), "parse", "exprs.parse", True, None),
        ((exprs, cli), "evaluate", "exprs.evaluate", True, None),
        ((exprs, cli, oracles), "format_polynomial", "exprs.format", True, None),
        ((graphs, oracles), "compose", "graphs.compose", False, None),
        ((graphs.DiagGraph,), "__post_init__", "graphs.validate", False, None),
        ((graphs, cli, oracles), "enumerate_compositions", "graphs.enumerate_compositions",
         True, None),
        ((graphs.GraphSum,), "__mul__", "graphs.graphsum_mul", True, None),
        ((graphs, oracles), "project_sum", "graphs.project_sum", True, None),
        ((graphs, oracles), "normal_order_via_graphs", "graphs.normal_order_via_graphs",
         True, None),
        ((cli,), "run_oracle_checks", "oracles.run", True, None),
        ((oracles,), "random_graph", "oracles.random_graph", True, None),
        ((cli,), "main", "cli.main", True, None),
    ]
    for owners, attribute, name, store, after in targets:
        original = getattr(owners[0], attribute)
        wrapper = tracer.wrap(name, original, store, after)
        for owner in owners:
            if getattr(owner, attribute) is not original:
                raise RuntimeError(f"{owner.__name__}.{attribute} is not the shared original")
            tracer.patch(owner, attribute, wrapper)
    matchings = tracer.wrap_generator("graphs.enumerate_matchings",
                                      graphs.enumerate_matchings, "graphs.matchings")
    for owner in (graphs, oracles):
        tracer.patch(owner, "enumerate_matchings", matchings)
