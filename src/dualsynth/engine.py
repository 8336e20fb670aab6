"""The iterative synthesis loop and the lifted continuous controller.

Per iteration: solve the GR(1) game on the pessimistic FTS (regions
winning there are winning for the real system) and on the optimistic FTS
(regions losing there are losing for the real system), then apply the
three-case decision:

1. every initial region winning -> realizable, extract and lift a
   controller;
2. the initial set meets the losing region with positive measure ->
   unrealizable, report the witness boxes;
3. otherwise split the undecided regions and refine both FTSs.

The forest's node statuses carry the classification from one step to
the next: ``classify`` writes them, and the split and the refinement
read them.  Every iteration builds and solves both games afresh on the
abstraction's rows of leaf indices, the optimistic graph sharing the
pessimistic one's edge-free tables; only the realizable iteration
solves its pessimistic game a second time, on the graph ``classify``
built, so its fixpoint and rank tables are reused.  Solved regions
stay leaves under their own ids and have their edges copied or removed
wholesale, so they must come out of the next classification with the
same verdict; the loop checks that and raises if one does not.
"""

from __future__ import annotations

import logging
import math
import sys as _sys
import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from fractions import Fraction

try:
    import resource
except ImportError:  # a platform without it (Windows) records no memory
    resource = None

from dualsynth.abstraction import (
    AbstractionPair,
    EnvAlphabet,
    build_initial,
    reachability_queries_saved,
    refine,
)
from dualsynth.geometry import (
    Box,
    ControlSystem,
    _integers,
    box_vertices,
    box_view,
    control_input,
    input_witness,
    next_state_ints,
    to_fraction,
    to_matrix,
)
from dualsynth.gr1 import (
    GameGraph,
    Gr1Spec,
    SpecError,
    StrategyAutomaton,
    check_names,
    format_formula,
    solve_game,
)
from dualsynth.partition import (
    PartitionForest,
    RegionId,
    Status,
    advance_iteration,
    format_region_id,
    initial_partition,
    locate,
)

logger = logging.getLogger(__name__)


class EngineError(ValueError):
    pass


def _whole(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class EngineOptions:
    """Run budget and split arity; out-of-range values raise EngineError."""
    m: int | None = None          # default: 2^n children per split
    max_iters: int = 20
    min_cell: Fraction = Fraction(1, 1000)

    def __post_init__(self):
        for name, ok, expected in (
                ("m", self.m is None or _whole(self.m) and self.m >= 1,
                 "null or an integer >= 1"),
                ("max_iters", _whole(self.max_iters) and self.max_iters >= 0,
                 "an integer >= 0"),
                ("min_cell", isinstance(self.min_cell, (int, float, Fraction))
                 and not isinstance(self.min_cell, bool)
                 and 0 < self.min_cell < math.inf, "a finite number > 0")):
            if not ok:
                raise EngineError(f"{name} must be {expected}, "
                                  f"got {getattr(self, name)!r}")


@dataclass(frozen=True)
class SetTriple:
    """One iteration's classified leaves, as a snapshot of the forest.

    ``games`` holds the solved (pessimistic, optimistic) game graphs when
    ``classify`` returns the triple; ``run`` takes them out before it
    keeps the triple in ``Verdict.history``.
    """
    iteration: int
    rows: tuple  # (region id, Box, Status, labels) per leaf
    games: tuple = field(default=(), compare=False, repr=False)

    # ``Status`` is a ``str`` enum, so ``st == which`` compares strings,
    # with no read of the enum's ``value`` property
    def ids(self, which: str) -> frozenset:
        return frozenset(rid for rid, _box, st, _lb in self.rows
                         if st == which)

    winning = property(lambda self: self.ids("winning"))
    losing = property(lambda self: self.ids("losing"))
    maybe = property(lambda self: self.ids("maybe"))

    def boxes(self, which: str) -> list[Box]:
        return [box for _rid, box, st, _lb in self.rows if st == which]


@dataclass
class IterationStats:
    """One iteration's counts and times.

    Three layer times split ``wall_time``: ``advance_s`` is the time of
    the partition step that made the iteration's leaves
    (``initial_partition``, then ``advance_iteration``), ``abstraction_s``
    that of the ``build_initial`` or ``refine`` call that produced its FTS
    pair, and ``classify_s`` that of ``classify``, which solves both
    games.  On the realizable iteration ``strategy_s`` times the
    extraction of the controller's strategy from the pessimistic game's
    rank tables, and nothing else: the tables come from ``classify``'s
    fixpoint.  It is 0 on every other iteration.  ``wall_time`` runs
    from the end of the previous iteration (or the start of the run) to
    this iteration's decision, so it holds these and the bookkeeping
    between them.  A run that stops because no region can be split
    charges that attempt to the ``wall_time`` of its last iteration.

    ``queries_slab_pess`` and ``queries_slab_opt`` count the issued
    queries of each relation that the axis index of ``_run_queries`` left
    open and the slab test decided (``QueryStats.slab_pess``, ``.slab_opt``);
    each is 0 when its relation has no normal but the axes.

    ``game_nodes`` counts the nodes of both games, and ``mu_y_runs`` the
    muY runs made in every solve of them: per game, the runs until one
    goal visit per goal in a row left Z unchanged, less the visits whose
    start goal & cpre(Z) equalled that of their goal's last run, which
    reuse it (``GameGraph.fixpoint``).  The strategy's extraction runs
    none.

    ``peak_rss_mb`` is the process's peak resident set size in MB
    (2^20 bytes) at the end of the iteration (``_peak_rss_mb``), a high
    water mark over the process's whole life; None where the
    ``resource`` module is missing.
    """
    iteration: int
    leaves: int
    n_winning: int
    n_losing: int
    n_maybe: int
    queries_issued: int
    queries_saved: int
    queries_pruned: int
    advance_s: float
    abstraction_s: float
    classify_s: float
    wall_time: float
    game_nodes: int = 0
    mu_y_runs: int = 0
    strategy_s: float = 0.0
    queries_slab_pess: int = 0
    queries_slab_opt: int = 0
    peak_rss_mb: float | None = None

    def to_json(self) -> dict:
        return {
            "iteration": self.iteration, "leaves": self.leaves,
            "winning": self.n_winning, "losing": self.n_losing,
            "maybe": self.n_maybe, "queries_issued": self.queries_issued,
            "queries_saved": self.queries_saved,
            "queries_pruned": self.queries_pruned,
            "queries_slab_pess": self.queries_slab_pess,
            "queries_slab_opt": self.queries_slab_opt,
            "advance_s": round(self.advance_s, 6),
            "abstraction_s": round(self.abstraction_s, 6),
            "classify_s": round(self.classify_s, 6),
            "strategy_s": round(self.strategy_s, 6),
            "wall_time_s": round(self.wall_time, 6),
            "game_nodes": self.game_nodes, "mu_y_runs": self.mu_y_runs,
            "peak_rss_mb": self.peak_rss_mb,
        }


def _peak_rss_mb() -> float | None:
    """The process's peak resident set size so far, in MB to the KiB,
    from ``getrusage``, whose ``ru_maxrss`` counts KiB on Linux and bytes
    on macOS; None where the ``resource`` module is missing."""
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return round(peak / (2 ** 20 if _sys.platform == "darwin" else 2 ** 10), 3)


@dataclass
class Verdict:
    outcome: str                  # "realizable" | "unrealizable" | "unknown"
    iterations: int
    controller: "ContinuousController | None" = None
    witness: list[Box] = field(default_factory=list)
    reason: str | None = None
    stats: list[IterationStats] = field(default_factory=list)
    history: list[SetTriple] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "outcome": self.outcome,
            "iterations": self.iterations,
            "witness": [b.as_exact_bounds() for b in self.witness],
            "reason": self.reason,
            "stats": [s.to_json() for s in self.stats],
        }


def classify(pair: AbstractionPair, forest: PartitionForest,
             spec: Gr1Spec) -> SetTriple:
    """Three-way region classification from both solved games.

    A region is winning only when its game states are winning for every
    environment valuation, and losing only when they are winning for
    none; everything else stays maybe.  The two game graphs differ only
    in their edges, so the optimistic one shares the pessimistic one's
    edge-free tables.
    """
    labels = {r: forest.labels(r) for r in pair.regions}
    envs = pair.env.valuations
    pess_graph = GameGraph(pair.regions, pair.pess, labels, envs, spec)
    opt_graph = GameGraph(pair.regions, pair.opt, labels, envs, spec,
                          tables_from=pess_graph)
    sol_p = solve_game(pess_graph, extract_strategy=False)
    sol_o = solve_game(opt_graph, extract_strategy=False)
    winning = frozenset(sol_p.region_winning)
    losing = frozenset(pair.regions) - {r for r, _e in sol_o.winning}
    if winning & losing:
        raise AssertionError("a region classified both winning and losing; "
                             "the dual abstractions are inconsistent")
    for rid in pair.regions:
        forest.set_status(rid, Status.WINNING if rid in winning else
                          Status.LOSING if rid in losing else Status.MAYBE)
    rows = tuple((rid, forest.box(rid), forest.status(rid), forest.labels(rid))
                 for rid in pair.regions)
    return SetTriple(iteration=pair.iteration, rows=rows,
                     games=(pess_graph, opt_graph))


def _initial_regions_under(forest: PartitionForest, spec: Gr1Spec):
    """Initial leaves, narrowed by the init assumption when present."""
    holds = spec.init_fn
    return [rid for rid in forest.initial_leaves()
            if holds is None or holds(forest.labels(rid), {}, {})]


def _check_inheritance(before: SetTriple, after: SetTriple):
    """Every region solved before keeps its verdict."""
    for name in ("winning", "losing"):
        lost = sorted(before.ids(name) - after.ids(name))
        if lost:
            raise AssertionError(
                f"region {format_region_id(lost[0])} is not {name} at "
                f"iteration {after.iteration} although it was at iteration "
                f"{before.iteration}; the refined abstractions are "
                f"inconsistent")


def _check_names(sys: ControlSystem, env: EnvAlphabet, spec: Gr1Spec):
    """Every atom of the spec names a proposition of ``sys``, an environment
    variable or a memory bit, every ``var=value`` a value of its variable,
    the init assumption propositions only, and no memory bit a proposition
    or an environment variable; otherwise EngineError."""
    props = dict.fromkeys(name for name, _box in sys.proposition_regions)
    variables = dict(env.variables)
    for bit in spec.bit_names:
        if bit in props or bit in variables:
            raise EngineError(f"memory bit {bit!r} has the name of a "
                              f"proposition or an environment variable")
    names = {**props, **dict.fromkeys(spec.bit_names), **variables}
    anything = "a proposition, an environment variable or a memory bit"
    formulas = [(f, names, anything) for f in (
        *spec.assumptions, *spec.guarantees,
        *(update for _bit, update in spec.memory_bits))]
    if spec.init_assumption is not None:
        formulas.append((spec.init_assumption, props, "a proposition (the "
                         "init assumption may name propositions only)"))
    for expr, allowed, what in formulas:
        try:
            check_names(expr, allowed, what)
        except SpecError as exc:
            raise EngineError(f"spec formula {format_formula(expr)!r}: "
                              f"{exc}") from exc


def run(sys: ControlSystem, env: EnvAlphabet, spec: Gr1Spec,
        opts: EngineOptions = EngineOptions()) -> Verdict:
    """Decide realizability by iterative dual-abstraction refinement."""
    _check_names(sys, env, spec)
    m = opts.m if opts.m is not None else 2 ** sys.n
    t0 = time.perf_counter()
    forest = initial_partition(sys)
    # splits keep labels, and the children of an initial leaf tile its
    # full-dimensional piece of the initial set, so one child is initial:
    # only here can no leaf be initial under the init assumption
    if not _initial_regions_under(forest, spec):
        raise EngineError("no initial region satisfies the init "
                          "assumption; check the problem file")
    a0 = time.perf_counter()
    advance_s = a0 - t0
    pair = build_initial(forest, sys, env)
    abstraction_s = time.perf_counter() - a0
    verdict = Verdict(outcome="unknown", iterations=0)

    for iteration in range(opts.max_iters + 1):
        c0 = time.perf_counter()
        triple = classify(pair, forest, spec)
        classify_s = time.perf_counter() - c0
        games = triple.games
        triple = replace(triple, games=())
        if verdict.history:
            _check_inheritance(verdict.history[-1], triple)
        verdict.history.append(triple)
        stats = IterationStats(
            iteration=iteration, leaves=len(pair.regions),
            n_winning=len(triple.winning), n_losing=len(triple.losing),
            n_maybe=len(triple.maybe),
            queries_issued=pair.query_stats.issued,
            queries_saved=reachability_queries_saved(pair),
            queries_pruned=pair.query_stats.pruned,
            queries_slab_pess=pair.query_stats.slab_pess,
            queries_slab_opt=pair.query_stats.slab_opt, advance_s=advance_s,
            abstraction_s=abstraction_s, classify_s=classify_s,
            wall_time=0.0, game_nodes=sum(g.n_nodes for g in games))
        verdict.stats.append(stats)
        verdict.iterations = iteration + 1

        initial_regions = _initial_regions_under(forest, spec)
        realizable = all(forest.status(r) is Status.WINNING
                         for r in initial_regions)
        if realizable:
            # classify solved this pessimistic graph; its fixpoint kept
            # each goal's rank tables from its run against the final Z, so
            # solving it again runs no muY and adds only the extraction
            s0 = time.perf_counter()
            strategy = solve_game(games[0], extract_strategy=True).strategy
            stats.strategy_s = time.perf_counter() - s0
        stats.mu_y_runs = sum(g.mu_y_runs for g in games)
        stats.peak_rss_mb = rss = _peak_rss_mb()
        logger.info("iteration %d: %d leaves, W/M/L %d/%d/%d, %d queries, "
                    "%d pairs pruned, %d/%d pess/opt slab-tested, advance "
                    "%.3f s, abstraction %.3f s, classify %.3f s, peak RSS "
                    "%s MB, %d game nodes, %d muY runs", iteration,
                    stats.leaves, stats.n_winning, stats.n_maybe,
                    stats.n_losing, stats.queries_issued,
                    stats.queries_pruned, stats.queries_slab_pess,
                    stats.queries_slab_opt, advance_s, abstraction_s,
                    classify_s, "-" if rss is None else f"{rss:.1f}",
                    stats.game_nodes, stats.mu_y_runs)
        del games  # no iteration keeps its graphs past its decision

        if realizable:
            controller = ContinuousController(
                sys=sys, env=env, spec=spec, forest=forest,
                strategy=strategy)
            verdict.outcome = "realizable"
            verdict.controller = controller
            stats.wall_time = time.perf_counter() - t0
            logger.info("realizable after %d iteration(s); strategy %.3f s",
                        iteration + 1, stats.strategy_s)
            return verdict
        # a leaf is initial when it meets the initial set with positive
        # measure; face-only contact is no witness, since under the
        # closed-box convention a shared face also belongs to the (possibly
        # winning) neighbour, so only full-dimensional overlap proves a
        # losing initial point
        witness = [forest.box(r) for r in initial_regions
                   if forest.status(r) is Status.LOSING]
        if witness:
            verdict.outcome = "unrealizable"
            verdict.witness = witness
            stats.wall_time = time.perf_counter() - t0
            logger.info("unrealizable after %d iteration(s); %d witness boxes",
                        iteration + 1, len(witness))
            return verdict
        if iteration == opts.max_iters:
            verdict.reason = f"iteration budget exhausted (max_iters={opts.max_iters})"
            stats.wall_time = time.perf_counter() - t0
            return verdict

        # the split and the refinement belong to the next iteration
        t_split = time.perf_counter()
        stats.wall_time = t_split - t0
        # no maybe leaf could be split: a finer partition is unreachable
        if not advance_iteration(forest, m, opts.min_cell):
            verdict.reason = (f"every undecided region is already at the "
                              f"minimum cell size (min_cell={opts.min_cell})")
            stats.wall_time = time.perf_counter() - t0
            return verdict
        a0 = time.perf_counter()
        advance_s = a0 - t_split
        pair = refine(pair, forest, sys)
        abstraction_s = time.perf_counter() - a0
        t0 = t_split
    return verdict


# ---------------------------------------------------------------------------
# Continuous controller and simulation
# ---------------------------------------------------------------------------

@dataclass
class ContinuousController:
    """Discrete strategy plus a per-step input selector.

    Every strategy move from X to Y follows a pessimistic edge, so every
    point of X has an input landing in Y.  The selector
    (``control_input``) first tries the probe, one precomputed affine map
    of the state per target whose input is clamped to U.  The map is kept
    in the target box's view (``box_view``), the view the abstraction's
    queries read.  With invertible diagonal B the probe never misses on
    such an edge; with singular or non-square B it always misses.  When
    it misses, the input is interpolated from a table of inputs at the
    vertices of X, built once per edge on its first miss by
    ``input_witness`` and kept as a ``Matrix``, whose integer rows over
    one denominator (``Matrix.ints``) every later step reads; building a
    table is the only place the exact simplex still runs.

    The one input method, ``input_ints``, takes the state as integers
    over one denominator and returns the input the same way: a step runs
    on integers from the probe or the source lookup (``Box.holds``) to
    the landing test of A x + B u (``geometry._affine``, also
    ``simulate``'s step).  ``select_input`` serves callers that hold the
    state as numbers: it puts the state over one denominator once and
    returns the input as ``Fraction``s.  An input that fails to land is
    a library bug and raises.

    ``probe_steps``, ``table_steps`` and ``tables_built`` count the steps
    the probe decided, the steps taken from a table and the tables built.
    """
    sys: ControlSystem
    env: EnvAlphabet
    spec: Gr1Spec
    forest: PartitionForest
    strategy: StrategyAutomaton
    _tables: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)
    probe_steps: int = field(default=0, init=False, compare=False)
    table_steps: int = field(default=0, init=False, compare=False)

    def start_region(self, s0) -> RegionId:
        region = locate(self.forest, s0)
        if region not in self.strategy.initial:
            raise EngineError(
                f"refusing to control from {tuple(map(float, s0))}: region "
                f"{format_region_id(region)} is outside the winning set")
        return region

    @cached_property
    def _sources(self) -> dict:
        """Per target, the sorted regions the strategy moves to it from."""
        sources: dict = {}
        for (mid, _env), (_mid, target) in self.strategy.transitions.items():
            sources.setdefault(target, set()).add(
                self.strategy.memory_states[mid][0])
        return {target: sorted(regions) for target, regions in sources.items()}

    def _vertex_table(self, target: RegionId, xs, xd: int):
        """(source box, ``Matrix`` of vertex inputs) for a strategy edge
        into ``target`` whose source contains the state x = xs / xd,
        tested in integers (``Box.holds``).  Every such edge is
        pessimistic, so any of them serves; ``locate``'s tie-break on a
        shared face could name a leaf without one."""
        for source in self._sources.get(target, ()):
            box = self.forest.box(source)
            if box.holds(xs, xd):
                break
        else:
            raise AssertionError(
                f"no strategy edge into {format_region_id(target)} starts "
                f"at {tuple(v / xd for v in xs)} (library bug)")
        self.table_steps += 1
        key = (source, target)
        if key not in self._tables:
            inputs = [input_witness(self.sys, v, self.forest.box(target))
                      for v in box_vertices(box)]
            if None in inputs:
                raise AssertionError(
                    f"a vertex of {format_region_id(source)} has no input "
                    f"reaching {format_region_id(target)}; pessimistic "
                    f"reachability promised one (library bug)")
            self._tables[key] = to_matrix(inputs)
        return box, self._tables[key]

    @property
    def tables_built(self) -> int:
        return len(self._tables)

    def input_ints(self, xs, xd: int, target: RegionId
                   ) -> tuple[list[int], int]:
        """(us, ud): the input u = us / ud for the state x = xs / xd
        toward ``target`` (``control_input``), all in integers."""
        table_steps = self.table_steps
        view = box_view(self.forest.box(target), self.sys)
        u = control_input(self.sys, xs, xd, view,
                          lambda xs, xd: self._vertex_table(target, xs, xd))
        if u is None:
            raise AssertionError(
                f"no admissible input reaches {format_region_id(target)}; "
                f"pessimistic reachability promised one (library bug)")
        if self.table_steps == table_steps:
            self.probe_steps += 1
        return u

    def select_input(self, s, target: RegionId) -> tuple[Fraction, ...]:
        """``input_ints`` for the state s, given as numbers: s is put over
        one denominator once and the input returned as ``Fraction``s."""
        us, ud = self.input_ints(*_integers([to_fraction(v) for v in s]),
                                 target)
        return tuple(Fraction(v, ud) for v in us)


@dataclass(frozen=True)
class SimStep:
    t: int
    state: tuple
    env_index: int
    env_valuation: dict
    inp: tuple | None
    region: RegionId
    bits: dict


@dataclass
class Execution:
    steps: list[SimStep]

    def region_trace(self):
        return [s.region for s in self.steps]

    def trace_states(self, forest: PartitionForest):
        """(labels, env, bits) triples, the shape ``check_lasso`` consumes."""
        return [(forest.labels(s.region), s.env_valuation, s.bits)
                for s in self.steps]


def simulate(controller: ContinuousController, sys: ControlSystem,
             env_trace, s0, steps: int) -> Execution:
    """Controlled execution of ``steps`` inputs (``steps`` + 1 records).

    ``env_trace`` yields an environment-valuation index per time step.
    The final record carries no input.  State arithmetic is exact, so the
    region trace is the strategy's discrete trace by construction, not by
    numerical luck.  The state is carried from start to end as integers
    over one denominator (xs, xd): a step is ``input_ints`` plus
    ``next_state_ints``, the integer sum of A s + B u that the landing
    test reads (``geometry._affine``), reduced to the state's least
    common denominator.  The initial-set and domain checks read those
    integers too (``Box.holds``), and the state and the input are made
    ``Fraction``s only for the records.  The price of exactness is that
    the state's
    denominator grows by A's denominator at every step (inputs are
    snapped to a 2^-20 grid when they still land, so they add little):
    with a decimal entry in A, read from a float with a denominator near
    2^55, that is about 55 bits per step, and each step costs more than
    the last.
    """
    if steps < 0:
        raise EngineError(f"steps must be >= 0, got {steps}")
    s = tuple(map(to_fraction, s0))
    xs, xd = _integers(s)
    if len(s) != sys.n or not sys.initial_set.holds(xs, xd):
        raise EngineError(f"initial state {s0!r} is outside the initial set")
    region = controller.start_region(s)
    memory = controller.strategy.start(region)
    valuations = controller.env.valuations
    bits = controller.spec.initial_bits()
    update_bits, labels = controller.spec.update_bits, controller.forest.labels
    records = []
    it = iter(env_trace)
    for t in range(steps + 1):
        try:
            e_idx = int(next(it))
        except StopIteration:
            raise EngineError(f"environment trace ended at t={t}, "
                              f"need {steps + 1} values")
        if not 0 <= e_idx < len(valuations):
            raise EngineError(f"environment index {e_idx} out of range")
        env_val = valuations[e_idx]
        bits = update_bits(bits, labels(region), env_val)
        if t == steps:
            records.append(SimStep(t, s, e_idx, env_val, None, region, dict(bits)))
            break
        memory, target = controller.strategy.step(memory, e_idx)
        us, ud = controller.input_ints(xs, xd, target)
        records.append(SimStep(t, s, e_idx, env_val,
                               tuple(Fraction(v, ud) for v in us), region,
                               dict(bits)))
        xs, xd = next_state_ints(sys, xs, xd, us, ud)
        if not sys.domain.holds(xs, xd):
            raise AssertionError("controlled step left the domain (library bug)")
        s = tuple(Fraction(v, xd) for v in xs)
        region = target
    return Execution(records)
