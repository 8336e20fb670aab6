"""Per-layer spans, recorded by rebinding the library's call-site attributes.

The library itself is not instrumented.  ``WRAPPED`` lists every
(module, attribute) binding the benchmark replaces with a timing wrapper:
the name a caller looks up at call time, so ``dualsynth.engine.refine``
rather than ``dualsynth.abstraction.refine``.  A binding that no longer
exists is reported as missing, so renaming a layer function breaks the
traced run loudly instead of silently dropping its spans.

Spans are kept in memory (name, start, end, parent) on ``hostspeed.clock``
and written out in seconds when the run ends; self time is a span's
duration minus its child spans.
"""

from __future__ import annotations

import importlib
from collections import Counter
from pathlib import Path
from hostspeed import REFERENCE_S, clock


def _count_true(counts, name, args, result):
    counts[name + ".true"] += bool(result)


def _count_pair(counts, name, args, pair):
    counts["abstraction.queries"] += pair.query_stats.issued
    counts["abstraction.pess_edges"] += sum(map(len, pair.pess_edges.values()))
    counts["abstraction.opt_edges"] += sum(map(len, pair.opt_edges.values()))


def _count_call(key):
    def observe(counts, name, args, result):
        counts[key] += 1
    return observe


def _count_nodes(counts, name, args, result):
    counts["gr1.nodes"] += args[0].n_nodes


def _count_strategy(counts, name, args, solution):
    if solution.strategy is not None:
        counts["gr1.strategy_states"] += len(solution.strategy.memory_states)


def _count_verdict(counts, name, args, verdict):
    counts["engine.iterations"] += verdict.iterations
    counts["partition.leaves"] += verdict.stats[-1].leaves


# (module, attribute at the call site, span name, observer of the result).
# A span name of None counts calls without opening a span, so the callee's
# time stays in its caller's self time.
WRAPPED = (
    ("dualsynth.cli", "load_problem", "cli.load_problem", None),
    ("dualsynth.engine", "run", "engine.run", _count_verdict),
    ("dualsynth.engine", "classify", "engine.classify", None),
    ("dualsynth.engine", "ContinuousController.select_input",
     "engine.select_input", None),
    ("dualsynth.engine", "build_initial", "abstraction.build_initial",
     _count_pair),
    ("dualsynth.engine", "refine", "abstraction.refine", _count_pair),
    ("dualsynth.engine", "advance_iteration", "partition.advance_iteration",
     None),
    ("dualsynth.abstraction", "reach_pessimistic",
     "geometry.reach_pessimistic", _count_true),
    ("dualsynth.abstraction", "reach_optimistic", "geometry.reach_optimistic",
     _count_true),
    ("dualsynth.geometry", "reach_exists_from_point", None,
     _count_call("geometry.reach_exists_from_point.calls")),
    ("dualsynth.engine", "input_witness", "geometry.input_witness", None),
    ("dualsynth.engine", "solve_game", "gr1.solve_game", _count_strategy),
    ("dualsynth.gr1", "solve_game", "gr1.solve_game", _count_strategy),
    ("dualsynth.gr1", "GameGraph.__init__", "gr1.GameGraph", _count_nodes),
    ("dualsynth.gr1", "GameGraph.cpre", "gr1.cpre", None),
)


class Tracer:
    """Installs the wrappers on entry and restores the originals on exit."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, fn, name, observe):
        names, starts, ends, parents = (self.names, self.starts, self.ends,
                                        self.parents)
        stack, counts = self._stack, self.counts

        if name is None:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                observe(counts, name, args, result)
                return result
            return counted

        def traced(*args, **kwargs):
            sid = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if observe is not None:
                observe(counts, name, args, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for module, attr, name, observe in WRAPPED:
            *path, leaf = attr.split(".")
            try:
                owner = importlib.import_module(module)
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}.{attr}")
                continue
            setattr(owner, leaf, self._wrap(original, name, observe))
            self._restore.append((owner, leaf, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, leaf, original in reversed(self._restore):
            setattr(owner, leaf, original)
        self._restore.clear()

    def span_totals(self) -> tuple[Counter, Counter, Counter]:
        """Calls, total time and self time (seconds) per span name."""
        child = [0.0] * len(self.names)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[sid] - self.starts[sid]
        calls, total, self_s = Counter(), Counter(), Counter()
        for sid, name in enumerate(self.names):
            duration = self.ends[sid] - self.starts[sid]
            calls[name] += 1
            total[name] += duration * REFERENCE_S
            self_s[name] += (duration - child[sid]) * REFERENCE_S
        return calls, total, self_s

    def write(self, path: Path) -> None:
        """One tab-separated line per span: id, parent, name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for sid, name in enumerate(self.names):
                fh.write(f"{sid}\t{self.parents[sid]}\t{name}\t"
                         f"{self.starts[sid] * REFERENCE_S:.9f}\t"
                         f"{self.ends[sid] * REFERENCE_S:.9f}\n")


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, as name -> (value, unit)."""
    calls, total, self_s = tracer.span_totals()
    counts = tracer.counts
    out: dict[str, tuple[float, str]] = {}

    def frac(num, den):
        return num / den if den else 0.0

    for fn in ("reach_pessimistic", "reach_optimistic"):
        name = f"geometry.{fn}"
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s[name], "s")
        out[f"{name}.true_frac"] = (frac(counts[name + ".true"], calls[name]),
                                    "ratio")
    out["geometry.reach_exists_from_point.calls"] = (
        counts["geometry.reach_exists_from_point.calls"], "count")
    out["geometry.input_witness.calls"] = (calls["geometry.input_witness"],
                                           "count")
    out["geometry.input_witness.self_s"] = (self_s["geometry.input_witness"],
                                            "s")
    out["abstraction.build_initial.self_s"] = (
        self_s["abstraction.build_initial"], "s")
    out["abstraction.refine.self_s"] = (self_s["abstraction.refine"], "s")
    for key in ("queries", "pess_edges", "opt_edges"):
        out[f"abstraction.{key}"] = (counts[f"abstraction.{key}"], "count")
    # every queried pair calls reach_pessimistic once, and reach_optimistic
    # only when the pessimistic answer was no
    out["abstraction.opt_edge_frac"] = (frac(
        counts["geometry.reach_pessimistic.true"]
        + counts["geometry.reach_optimistic.true"],
        calls["geometry.reach_pessimistic"]), "ratio")
    out["partition.advance_iteration.calls"] = (
        calls["partition.advance_iteration"], "count")
    out["partition.advance_iteration.self_s"] = (
        self_s["partition.advance_iteration"], "s")
    out["partition.leaves"] = (counts["partition.leaves"], "count")
    for name in ("gr1.solve_game", "gr1.cpre"):
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s[name], "s")
    out["gr1.graph_build_s"] = (self_s["gr1.GameGraph"], "s")
    out["gr1.nodes"] = (counts["gr1.nodes"], "count")
    out["gr1.strategy_states"] = (counts["gr1.strategy_states"], "count")
    out["engine.run.self_s"] = (self_s["engine.run"], "s")
    out["engine.classify.calls"] = (calls["engine.classify"], "count")
    out["engine.classify.self_s"] = (self_s["engine.classify"], "s")
    out["engine.iterations"] = (counts["engine.iterations"], "count")
    out["engine.select_input.calls"] = (calls["engine.select_input"], "count")
    out["engine.select_input.self_s"] = (self_s["engine.select_input"], "s")
    out["cli.load_problem_s"] = (total["cli.load_problem"], "s")
    return out
