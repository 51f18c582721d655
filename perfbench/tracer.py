"""Spans recorded from outside the package, around its public calls.

A traced iteration replaces selected public functions of drgtrades with
wrappers that record one span per call: name, start, end and the span that
was open when the call began.  Calls made inside the package reach the
wrappers too, because every module attribute that refers to the original
function is rebound.  Nothing under src/ changes, and an untraced iteration
runs the package unwrapped.
"""

from __future__ import annotations

import dataclasses
import sys
from collections import Counter, defaultdict
from time import perf_counter


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.hosts: list = []          # graphs whose single-source BFS is timed
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, perf_counter(), parent=parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index].end = perf_counter()
        self._open.pop()

    def wrap(self, name, fn, count=None):
        """fn with a span per call; count(args, result) adds to the counters."""
        def traced(*args, **kwargs):
            i = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(i)
            if count is not None:
                self.counts.update(count(args, result))
            return result
        return traced

    @staticmethod
    def wrapper_cost(calls: int = 20000) -> float:
        """Seconds one span adds to a call: a wrapped no-op against the bare
        one, on a tracer of its own; the median of five rounds."""
        def noop():
            return None
        wrapped = Tracer().wrap("noop", noop)
        rounds = []
        for _ in range(5):
            t = perf_counter()
            for _ in range(calls):
                noop()
            bare = perf_counter() - t
            t = perf_counter()
            for _ in range(calls):
                wrapped()
            rounds.append((perf_counter() - t - bare) / calls)
        return max(sorted(rounds)[2], 0.0)

    # -- aggregation ------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time its children cover."""
        child = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out = defaultdict(float)
        for i, s in enumerate(self.spans):
            out[s.name] += s.end - s.start - child[i]
        return dict(out)

    def spans_within(self, lo: float, hi: float) -> int:
        return sum(1 for s in self.spans if lo <= s.start <= hi)

    def root_time(self, lo: float, hi: float) -> float:
        """Summed duration of top-level spans that started inside [lo, hi]."""
        return sum(s.end - s.start for s in self.spans
                   if s.parent is None and lo <= s.start <= hi)

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def summary(self) -> dict:
        calls, total = Counter(), defaultdict(float)
        for s in self.spans:
            calls[s.name] += 1
            total[s.name] += s.end - s.start
        return {name: {"calls": calls[name], "self_s": t, "total_s": total[name]}
                for name, t in sorted(self.self_times().items())}


def _swap(value, fn, wrapper):
    """value with fn replaced by wrapper, also inside nested tuples; value
    itself when fn does not occur in it."""
    if value is fn:
        return wrapper
    if type(value) is tuple:
        items = tuple(_swap(v, fn, wrapper) for v in value)
        if any(a is not b for a, b in zip(items, value)):
            return items
    return value


def instrument(tracer: Tracer, callers) -> None:
    """Rebind the public calls the workloads reach, in every drgtrades
    module and in the given calling modules."""
    from drgtrades import bitrades, cli, families, graphs, report, spectral

    modules = [m for k, m in sys.modules.items()
               if k == "drgtrades" or k.startswith("drgtrades.")] + list(callers)

    def rebind(fn, wrapper):
        # module attributes, and registries that hold the function: dicts
        # such as bitrades.MIN_BITRADES and tuples such as
        # report._CORRUPTION_FAMILIES
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if isinstance(value, dict):
                    for key, item in value.items():
                        if item is fn:
                            value[key] = wrapper
                    continue
                swapped = _swap(value, fn, wrapper)
                if swapped is not value:
                    setattr(mod, attr, swapped)

    def register_host(args, result):
        # graphs from the builder are the hosts whose BFS is timed
        tracer.hosts.append(result[0])
        return {}

    plain = {
        "families.build_grassmann": (families.build_grassmann, register_host),
        "graphs.verify_clique_system": (
            graphs.verify_clique_system,
            lambda args, result: {"graphs.cliques": len(args[1].cliques)}),
        "graphs.completely_regular_check": (graphs.completely_regular_check, None),
        "graphs.distance_regularity_check": (graphs.distance_regularity_check, None),
        "graphs.is_isometric_subgraph": (graphs.is_isometric_subgraph, None),
        "spectral.verify_eigenfunction": (spectral.verify_eigenfunction, None),
        "bitrades.check_criterion_a": (bitrades.check_criterion_a, None),
        "bitrades.check_criterion_b": (bitrades.check_criterion_b, None),
        "bitrades.check_criterion_c": (bitrades.check_criterion_c, None),
        "bitrades.check_minimality": (bitrades.check_minimality, None),
        "bitrades.check_subgraph_dr": (bitrades.check_subgraph_dr, None),
        "bitrades.verify_bitrade": (bitrades.verify_bitrade, None),
        "bitrades.min_bitrade_grassmann": (bitrades.min_bitrade_grassmann, None),
        "cli.main": (cli.main, None),
    }
    wrappers = {}
    for name, (fn, count) in plain.items():
        wrappers[name] = tracer.wrap(name, fn, count)
        rebind(fn, wrappers[name])
    # report builds its hosts through the family registry
    families.FAMILIES["grassmann"] = dataclasses.replace(
        families.FAMILIES["grassmann"], build=wrappers["families.build_grassmann"])

    run_criterion = report.run_criterion

    def traced_criterion(number):
        i = tracer.begin(f"report.c{number}")
        try:
            return run_criterion(number)
        finally:
            tracer.end(i)
    rebind(run_criterion, traced_criterion)

    graph_cls = graphs.Graph
    graph_cls.distance_matrix = tracer.wrap("graphs.distance_matrix",
                                            graph_cls.distance_matrix)
    bfs = graph_cls.multi_source_distances

    def traced_bfs(self, sources):
        # One span per single-source BFS on a host graph; the isometry
        # test's BFS on the small trade subgraph is not a host BFS.
        sources = list(sources)
        if len(sources) != 1 or not any(self is h for h in tracer.hosts):
            return bfs(self, sources)
        i = tracer.begin("graphs.bfs")
        try:
            return bfs(self, sources)
        finally:
            tracer.end(i)
    graph_cls.multi_source_distances = traced_bfs
