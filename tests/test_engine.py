import hashlib
import json
import math
from dataclasses import replace
from fractions import Fraction
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from dualsynth import engine, geometry, gr1
from dualsynth.abstraction import EnvAlphabet, build_initial
from dualsynth.engine import (
    EngineError,
    EngineOptions,
    classify,
    run,
    simulate,
)
from dualsynth.geometry import (
    Box,
    ControlSystem,
    GeometryError,
    box_vertices,
    input_witness,
    mat_vec,
    reach_pessimistic,
)
from dualsynth.gr1 import RawSpec, check_lasso, convert_to_gr1
from dualsynth.cli import load_problem
from dualsynth.partition import (
    Status,
    format_region_id,
    initial_partition,
    locate,
)

from oracles import interval_reach
from problem_gen import random_problem


def park_problem():
    sys = ControlSystem.create(
        A=[[1, 0], [0, 1]], B=[[1, 0], [0, 1]],
        input_set=[[-1, 1], [-1, 1]],
        domain=[[0, 3], [0, 2]], initial_set=[[0, 3], [0, 2]],
        propositions=[("home", [[0, 1], [0, 1]]), ("lot", [[2, 3], [1, 2]])])
    env = EnvAlphabet.create([("park", (False, True))])
    spec = convert_to_gr1(RawSpec(guarantees=("home",),
                                  responses=(("park", "lot"),)))
    return sys, env, spec


def invariant_problem():
    sys = ControlSystem.create(
        A=[[1.5, 0], [0, 1.5]], B=[[1, 0], [0, 1]],
        input_set=[[-1, 1], [-1, 1]],
        domain=[[0, 4], [0, 4]], initial_set=[[3, 3.5], [3, 3.5]],
        propositions=[("goal", [[0, 0.5], [0, 0.5]]),
                      ("start", [[3, 3.5], [3, 3.5]])])
    env = EnvAlphabet.create([])
    spec = convert_to_gr1(RawSpec(guarantees=("goal",), init="start"))
    return sys, env, spec


def float_bounds(box):
    """A box's bounds as floats, as a hand-written problem file has them."""
    return [[float(lo), float(hi)] for lo, hi in zip(box.lower, box.upper)]


def coupled_problem():
    """Coupled A and non-diagonal B: the midpoint probe misses on some
    steps, which then take the vertex tables."""
    half = Fraction(1, 2)
    sys = ControlSystem.create(
        A=[[1, Fraction(1, 4)], [0, 1]], B=[[1, half], [0, 1]],
        input_set=[[-half, half], [-half, half]],
        domain=[[0, 4], [0, 4]], initial_set=[[2, Fraction(5, 2)]] * 2,
        propositions=[("a", [[0, 1], [0, 1]]), ("b", [[3, 4], [3, 4]]),
                      ("c", [[1, 2], [1, 2]])])
    env = EnvAlphabet.create([("req", (False, True))])
    spec = convert_to_gr1(RawSpec(guarantees=("a",),
                                  responses=(("req", "b"),)))
    return sys, env, spec


def singular_B_problem():
    """B = diag(1, 0): no inverse, so every control step takes a vertex
    table; the goals span the whole height, which no input moves."""
    sys = ControlSystem.create(
        A=[[1, 0], [0, 1]], B=[[1, 0], [0, 0]], input_set=[[-1, 1]] * 2,
        domain=[[0, 4], [0, 2]], initial_set=[[0, 4], [0, 2]],
        propositions=[("a", [[0, 1], [0, 2]]), ("b", [[3, 4], [0, 2]])])
    env = EnvAlphabet.create([("req", (False, True))])
    spec = convert_to_gr1(RawSpec(guarantees=("a",),
                                  responses=(("req", "b"),)))
    return sys, env, spec


def wide_B_problem():
    """Park with a third input that does nothing: B is 2x3, so the probe
    always misses and every step takes a table."""
    park, env, spec = park_problem()
    sys = ControlSystem.create(
        A=park.A, B=[[1, 0, 0], [0, 1, 0]], input_set=[[-1, 1]] * 3,
        domain=park.domain, initial_set=park.initial_set,
        propositions=park.proposition_regions)
    return sys, env, spec


class TestClassify:
    def test_all_winning_when_fts_identical_and_connected(self):
        sys, env, _ = park_problem()
        spec = convert_to_gr1(RawSpec(guarantees=("home",)))
        forest = initial_partition(sys)
        pair = build_initial(forest, sys, EnvAlphabet.create([]))
        triple = classify(pair, forest, spec)
        assert triple.maybe == frozenset() and triple.losing == frozenset()
        assert triple.winning == frozenset(forest.leaves)

    def test_empty_edges_everything_loses(self):
        sys, _env, _ = park_problem()
        spec = convert_to_gr1(RawSpec(guarantees=("home",)))
        forest = initial_partition(sys)
        pair = build_initial(forest, sys, EnvAlphabet.create([]))
        pair.pess = [[] for _ in pair.regions]
        pair.opt = [[] for _ in pair.regions]
        triple = classify(pair, forest, spec)
        assert triple.winning == frozenset()
        assert triple.losing == frozenset(forest.leaves)

    def test_invariant_iteration0_matches_interval_oracle(self):
        """Frozen from an independent per-axis computation: of the 16 grid
        cells, only the goal cell is winning, the 12 cells with a
        coordinate above 3 are losing, and the 3 cells straddling the
        invariant-set boundary remain undecided."""
        sys, env, spec = invariant_problem()
        forest = initial_partition(sys)
        pair = build_initial(forest, sys, env)
        # cross-check the abstraction against the exact interval oracle
        pess = {(a, b) for a, b in pair.pess_pairs()}
        opt = {(a, b) for a, b in pair.opt_pairs()}
        for a in forest.leaves:
            for b in forest.leaves:
                po, oo = interval_reach(sys, forest.box(a), forest.box(b))
                assert ((a, b) in pess) == po
                assert ((a, b) in opt) == oo
        triple = classify(pair, forest, spec)
        goal_leaf = next(r for r in forest.leaves
                         if "goal" in forest.labels(r))
        start_leaf = next(r for r in forest.leaves
                          if "start" in forest.labels(r))
        assert triple.winning == {goal_leaf}
        assert len(triple.losing) == 12 and start_leaf in triple.losing
        assert len(triple.maybe) == 3
        for rid in triple.losing:
            box = forest.box(rid)
            assert box.lower[0] >= 3 or box.lower[1] >= 3
        for rid in triple.maybe:
            box = forest.box(rid)  # straddles the boundary of [0,2]^2
            assert box.lower[0] < 2 < box.upper[0] or \
                box.lower[1] < 2 < box.upper[1]


class TestRunParkExample:
    def test_realizable_without_refinement(self):
        sys, env, spec = park_problem()
        verdict = run(sys, env, spec)
        assert verdict.outcome == "realizable"
        assert verdict.iterations == 1
        assert verdict.controller is not None
        triple = verdict.history[0]
        assert triple.winning == frozenset(r for r, *_ in triple.rows)

    def test_simulation_recurs_home_and_serves_park(self):
        sys, env, spec = park_problem()
        verdict = run(sys, env, spec)
        ctrl = verdict.controller
        # park raised at t=5, never again: lot must be visited afterwards
        trace = [1 if t == 5 else 0 for t in range(40)]
        execution = simulate(ctrl, sys, iter(trace), (0.5, 0.5), 39)
        states = execution.trace_states(ctrl.forest)
        labels_after = [lbl for lbl, _e, _b in states[6:]]
        assert any("lot" in l for l in labels_after)
        # home recurs within |memory| steps (pigeonhole on the automaton)
        bound = len(ctrl.strategy.memory_states) + 1
        homes = [i for i, (lbl, _e, _b) in enumerate(states) if "home" in lbl]
        assert homes and homes[0] <= bound
        gaps = np.diff([i for i in homes if i >= 6])
        assert gaps.size == 0 or gaps.max() <= bound

    def test_trace_lasso_accepted_under_periodic_env(self):
        sys, env, spec = park_problem()
        verdict = run(sys, env, spec)
        ctrl = verdict.controller
        period = [0, 1, 0, 0]
        steps = 60
        trace = [period[t % len(period)] for t in range(steps + 1)]
        execution = simulate(ctrl, sys, iter(trace), (1.5, 0.5), steps)
        # product state (memory-ish) = (region, bits, env phase) repeats;
        # find the cycle in the recorded trace
        states = execution.trace_states(ctrl.forest)
        keyed = {}
        cycle = None
        for i, step in enumerate(execution.steps):
            key = (step.region, tuple(sorted(step.bits.items())),
                   i % len(period))
            if key in keyed:
                cycle = states[keyed[key]:i]
                break
            keyed[key] = i
        assert cycle, "no lasso detected within the horizon"
        assert check_lasso(states[:keyed[key]], cycle, spec)

    @pytest.mark.parametrize("start", [(math.inf, 1), (math.nan, 1),
                                       (True, 1)])
    def test_start_must_be_a_finite_number(self, start):
        sys, env, spec = park_problem()
        ctrl = run(sys, env, spec).controller
        with pytest.raises(GeometryError):
            simulate(ctrl, sys, iter([0]), start, 0)

    @pytest.mark.parametrize("start", [(3.5, 1), (1, -0.25), (0.5,),
                                       (0.5, 0.5, 0.5)])
    def test_start_outside_the_initial_set_is_refused(self, start):
        # off the initial set [0, 3] x [0, 2], or of the wrong dimension
        sys, env, spec = park_problem()
        ctrl = run(sys, env, spec).controller
        with pytest.raises(EngineError, match="outside the initial set"):
            simulate(ctrl, sys, iter([0]), start, 0)

    def test_zero_steps_single_record(self):
        sys, env, spec = park_problem()
        verdict = run(sys, env, spec)
        execution = simulate(verdict.controller, sys, iter([0]), (0.5, 0.5), 0)
        assert len(execution.steps) == 1
        assert execution.steps[0].inp is None

    def test_region_trace_matches_strategy_prediction(self):
        sys, env, spec = park_problem()
        verdict = run(sys, env, spec)
        ctrl = verdict.controller
        rng = np.random.default_rng(31)
        for _ in range(50):
            s0 = (Fraction(int(rng.integers(0, 300)), 100),
                  Fraction(int(rng.integers(0, 200)), 100))
            steps = 20
            env_idx = [int(rng.integers(0, 2)) for _ in range(steps + 1)]
            execution = simulate(ctrl, sys, iter(env_idx), s0, steps)
            # re-walk the automaton independently
            region = ctrl.start_region(s0)
            memory = ctrl.strategy.start(region)
            predicted = [region]
            for e in env_idx[:-1]:
                memory, region = ctrl.strategy.step(memory, e)
                predicted.append(region)
            assert execution.region_trace() == predicted
            # and the continuous states really sit in those boxes; off
            # shared faces the partition map recovers the region exactly
            for step in execution.steps:
                assert ctrl.forest.box(step.region).contains(step.state)
                owners = [r for r in ctrl.forest.leaves
                          if ctrl.forest.box(r).contains(step.state)]
                if len(owners) == 1:
                    assert locate(ctrl.forest, step.state) == step.region


class TestRunInvariantExample:
    def test_unrealizable_with_start_witness(self):
        sys, env, spec = invariant_problem()
        verdict = run(sys, env, spec)
        assert verdict.outcome == "unrealizable"
        assert verdict.iterations == 1
        assert [["3", "7/2"], ["3", "7/2"]] in \
            [b.as_exact_bounds() for b in verdict.witness]

    def test_simulation_refused_from_losing_start(self):
        # same dynamics and domain, but realizable from near the goal; the
        # resulting controller must still refuse the losing start corner
        sys = ControlSystem.create(
            A=[[1.5, 0], [0, 1.5]], B=[[1, 0], [0, 1]],
            input_set=[[-1, 1], [-1, 1]],
            domain=[[0, 4], [0, 4]], initial_set=[[0, 0.5], [0, 0.5]],
            propositions=[("goal", [[0, 0.5], [0, 0.5]]),
                          ("start", [[3, 3.5], [3, 3.5]])])
        env = EnvAlphabet.create([])
        spec = convert_to_gr1(RawSpec(guarantees=("goal",)))
        verdict = run(sys, env, spec)
        assert verdict.outcome == "realizable"
        with pytest.raises(EngineError, match="outside the winning set"):
            verdict.controller.start_region((3.2, 3.2))

    def test_init_held_by_no_initial_region_builds_nothing(self,
                                                            monkeypatch):
        # "start" labels no leaf of the initial set [0, 1/2]^2, and the
        # splits keep labels: the run stops before any abstraction
        sys, env, _ = invariant_problem()
        sys = replace(sys, initial_set=Box.from_bounds([[0, 0.5], [0, 0.5]]))
        spec = convert_to_gr1(RawSpec(guarantees=("goal",), init="start"))
        calls = []
        monkeypatch.setattr(engine, "build_initial",
                            lambda *args: calls.append(args))
        with pytest.raises(EngineError, match="no initial region satisfies"):
            run(sys, env, spec)
        assert calls == []

    def test_losing_region_never_shrinks(self):
        sys, env, spec = invariant_problem()
        verdict = run(sys, env, spec)
        assert all(
            set(t.boxes("losing")) <= set(t2.boxes("losing"))
            for t, t2 in zip(verdict.history, verdict.history[1:]))


class TestBudgets:
    @staticmethod
    def _hard_problem():
        # genuinely undecidable at any finite partition we allow: the
        # winning boundary at x=2 is approached but never resolved for
        # the cells straddling it
        sys = ControlSystem.create(
            A=[[1.5, 0], [0, 1.5]], B=[[1, 0], [0, 1]],
            input_set=[[-1, 1], [-1, 1]],
            domain=[[0, 4], [0, 4]], initial_set=[[1.75, 2.25], [0, 0.5]],
            propositions=[("goal", [[0, 0.5], [0, 0.5]])])
        env = EnvAlphabet.create([])
        spec = convert_to_gr1(RawSpec(guarantees=("goal",)))
        return sys, env, spec

    def test_max_iters_budget(self):
        sys, env, spec = self._hard_problem()
        verdict = run(sys, env, spec, EngineOptions(max_iters=2))
        assert verdict.outcome == "unknown"
        assert "max_iters" in verdict.reason
        assert verdict.iterations == 3

    def test_min_cell_budget(self):
        sys, env, spec = self._hard_problem()
        verdict = run(sys, env, spec,
                      EngineOptions(max_iters=30, min_cell=Fraction(1, 4)))
        assert verdict.outcome == "unknown"
        assert "min_cell" in verdict.reason

    def test_unknown_never_overclaims(self):
        sys, env, spec = self._hard_problem()
        verdict = run(sys, env, spec, EngineOptions(max_iters=2))
        # initial region straddles the true winning boundary: neither
        # verdict would be sound, unknown is the only honest answer
        assert verdict.outcome == "unknown"


    def test_one_log_line_per_iteration(self, caplog):
        sys, env, spec = self._hard_problem()
        with caplog.at_level("INFO", logger="dualsynth.engine"):
            verdict = run(sys, env, spec, EngineOptions(max_iters=2))
        lines = [r.getMessage() for r in caplog.records
                 if r.getMessage().startswith("iteration ")]
        assert len(lines) == verdict.iterations == 3
        for line, stats in zip(lines, verdict.stats):
            assert line.startswith(
                f"iteration {stats.iteration}: {stats.leaves} leaves, W/M/L "
                f"{stats.n_winning}/{stats.n_maybe}/{stats.n_losing}, "
                f"{stats.queries_issued} queries, {stats.queries_pruned} "
                f"pairs pruned, {stats.queries_slab_pess}/"
                f"{stats.queries_slab_opt} pess/opt slab-tested, advance "
                f"{stats.advance_s:.3f} s, ")
            assert f"abstraction {stats.abstraction_s:.3f} s, classify " \
                f"{stats.classify_s:.3f} s, peak RSS " \
                f"{stats.peak_rss_mb:.1f} MB, " in line


class TestGameTelemetry:
    @staticmethod
    def _refining_park():
        # half park's inputs, so the run refines before it is realizable
        sys, env, spec = park_problem()
        half = Fraction(1, 2)
        sys = ControlSystem.create(
            A=sys.A, B=sys.B, input_set=[[-half, half]] * 2,
            domain=[[0, 3], [0, 2]], initial_set=[[0, 3], [0, 2]],
            propositions=[(name, list(zip(box.lower, box.upper)))
                          for name, box in sys.proposition_regions])
        return sys, env, spec

    @pytest.mark.parametrize("name, runs", [
        ("coupled", [6, 4]), ("random_5", [5, 5, 6])])
    def test_mu_y_runs_are_pinned(self, name, runs):
        # per iteration, both games' muY runs: each fixpoint stops after
        # one unchanged visit per goal, and a visit whose start
        # goal & cpre(Z) equals that of its goal's last run reuses it
        verdict = run(*PINNED_PROBLEMS[name]())
        assert [s.mu_y_runs for s in verdict.stats] == runs

    def test_realizable_run_builds_two_graphs_per_iteration(self,
                                                            monkeypatch):
        built = []
        original = engine.GameGraph

        def counted(*args, **kwargs):
            graph = original(*args, **kwargs)
            built.append(graph)
            return graph

        monkeypatch.setattr(engine, "GameGraph", counted)
        verdict = run(*self._refining_park(), EngineOptions(m=4))
        assert verdict.outcome == "realizable" and verdict.iterations > 1
        assert len(built) == 2 * verdict.iterations
        assert all(t.games == () for t in verdict.history)

    def test_game_counts_and_strategy_time(self, monkeypatch, caplog):
        runs = []
        original = gr1._mu_y

        def counted(graph, *args, **kwargs):
            runs.append(graph)
            return original(graph, *args, **kwargs)

        extraction = []
        solve = engine.solve_game

        def final(graph, extract_strategy):
            before = len(runs)
            solution = solve(graph, extract_strategy)
            if extract_strategy:
                extraction.append(len(runs) - before)
            return solution

        monkeypatch.setattr(gr1, "_mu_y", counted)
        monkeypatch.setattr(engine, "solve_game", final)
        sys, env, spec = self._refining_park()
        with caplog.at_level("INFO", logger="dualsynth.engine"):
            verdict = run(sys, env, spec, EngineOptions(m=4))
        assert verdict.outcome == "realizable"
        *earlier, last = verdict.stats
        for stats in verdict.stats:
            # both games have a node per leaf, env valuation and bit value
            assert stats.game_nodes == 2 * stats.leaves * len(env) * 2
        assert sum(s.mu_y_runs for s in verdict.stats) == len(runs)
        assert all(s.mu_y_runs > 0 for s in verdict.stats)
        # the strategy solve reads the ranks classify's fixpoint recorded:
        # it runs no muY
        assert extraction == [0]
        assert all(s.strategy_s == 0 for s in earlier)
        assert 0 < last.strategy_s <= last.wall_time
        rows = verdict.to_json()["stats"]
        for stats, row in zip(verdict.stats, rows):
            assert (row["game_nodes"], row["mu_y_runs"]) == \
                (stats.game_nodes, stats.mu_y_runs)
            assert row["strategy_s"] == round(stats.strategy_s, 6)
        lines = [r.getMessage() for r in caplog.records]
        iteration_lines = [m for m in lines if m.startswith("iteration ")]
        for line, stats in zip(iteration_lines, verdict.stats, strict=True):
            assert line.endswith(f", {stats.game_nodes} game nodes, "
                                 f"{stats.mu_y_runs} muY runs")
        assert lines[-1] == (f"realizable after {verdict.iterations} "
                             f"iteration(s); strategy "
                             f"{last.strategy_s:.3f} s")


class TestOptionRanges:
    @pytest.mark.parametrize("key, value", [
        ("m", 0), ("m", 1.5), ("m", True), ("max_iters", -1),
        ("max_iters", 1.5), ("max_iters", "3"), ("max_iters", True),
        ("min_cell", 0), ("min_cell", Fraction(-1, 8)), ("min_cell", "abc"),
        ("min_cell", True), ("min_cell", float("inf")),
        ("min_cell", float("nan"))])
    def test_out_of_range_option_raises(self, key, value):
        with pytest.raises(EngineError, match=rf"^{key} must be"):
            run(*invariant_problem(), EngineOptions(**{key: value}))

    @pytest.mark.parametrize("key, value", [
        ("m", None), ("m", 1), ("max_iters", 0), ("min_cell", 1),
        ("min_cell", 0.25), ("min_cell", Fraction(1, 8))])
    def test_boundary_values_run(self, key, value):
        verdict = run(*invariant_problem(), EngineOptions(**{key: value}))
        assert verdict.outcome == "unrealizable"


class TestSpecNames:
    """``run`` refuses specs whose names mean nothing in the problem."""

    @pytest.mark.parametrize("raw, message", [
        (RawSpec(guarantees=("hom",)), r"'hom' is not a proposition, an "
         r"environment variable or a memory bit"),
        (RawSpec(guarantees=("home",), responses=(("park=maybe", "lot"),)),
         r"park=maybe: the value is not one of \[False, True\]"),
        (RawSpec(guarantees=("home", "lot=true")),
         r"'lot' is not an environment variable"),
        (RawSpec(guarantees=("home",), init="park"),
         r"'park' is not a proposition \(the init assumption"),
        (RawSpec(assumptions=("!prk",), guarantees=("home",)),
         r"'!prk': 'prk' is not"),
    ])
    def test_meaningless_names_raise(self, raw, message):
        sys, env, _spec = park_problem()
        with pytest.raises(EngineError, match=r"^spec formula .*" + message):
            run(sys, env, convert_to_gr1(raw))

    @pytest.mark.parametrize("name", ["home", "park"])
    def test_memory_bit_named_like_a_proposition_or_variable(self, name):
        # a spec built by hand, not by convert_to_gr1, whose bit shadows
        # a name of the problem
        sys, env, spec = park_problem()
        (_bit, update), = spec.memory_bits
        spec = replace(spec, memory_bits=((name, update),))
        with pytest.raises(EngineError, match=rf"^memory bit '{name}' has "
                           r"the name of a proposition or an environment "
                           r"variable"):
            run(sys, env, spec)

    def test_memory_bits_and_env_values_are_names(self):
        sys, env, _spec = park_problem()
        spec = convert_to_gr1(RawSpec(guarantees=("home | park=true",),
                                      responses=(("park", "lot"),)))
        assert run(sys, env, spec).outcome == "realizable"


class TestWarmStartEquivalence:
    @staticmethod
    def _refining_problem():
        sys = ControlSystem.create(
            A=[[1.5, 0], [0, 1.5]], B=[[1, 0], [0, 1]],
            input_set=[[-1, 1], [-1, 1]],
            domain=[[0, 4], [0, 4]], initial_set=[[0.75, 1], [0.75, 1]],
            propositions=[("goal", [[0, 0.5], [0, 0.5]])])
        env = EnvAlphabet.create([])
        spec = convert_to_gr1(RawSpec(guarantees=("goal",)))
        return sys, env, spec

    def test_refinement_grows_winning_monotonically(self):
        sys, env, spec = self._refining_problem()
        verdict = run(sys, env, spec, EngineOptions(max_iters=6))
        assert verdict.outcome == "realizable"
        assert len(verdict.history) >= 2
        for t, t2 in zip(verdict.history, verdict.history[1:]):
            assert set(t.boxes("winning")) <= set(t2.boxes("winning"))

    def test_solved_regions_keep_their_ids(self):
        sys, env, spec = self._refining_problem()
        verdict = run(sys, env, spec, EngineOptions(max_iters=6))
        assert verdict.outcome == "realizable"
        solved = {}
        for triple in verdict.history:
            rows = {rid: (box, st) for rid, box, st, _lb in triple.rows}
            for rid, (box, st) in solved.items():
                assert rows[rid] == (box, st), (triple.iteration, rid)
            solved.update((rid, (box, st)) for rid, (box, st) in rows.items()
                          if st in (Status.WINNING, Status.LOSING))
        assert solved, "the run must solve some region before it ends"

    def test_lost_inheritance_is_caught(self, monkeypatch):
        # winning regions stripped of their copied edges lose both games,
        # which the loop must refuse rather than report
        original = engine.refine

        def drop_copied_edges(pair, forest, sys):
            out = original(pair, forest, sys)
            kept = {i for i, r in enumerate(out.regions)
                    if forest.status(r) is Status.WINNING}
            for rows in (out.pess, out.opt):
                for i in kept:
                    rows[i] = [j for j in rows[i] if j not in kept]
            return out

        sys, env, spec = self._refining_problem()
        assert run(sys, env, spec, EngineOptions(max_iters=0)).history[0] \
            .winning, "the check needs a winning region to inherit from"
        monkeypatch.setattr(engine, "refine", drop_copied_edges)
        with pytest.raises(AssertionError, match=r"is not winning at "
                           r"iteration 1 although it was at iteration 0"):
            run(sys, env, spec, EngineOptions(max_iters=6))


class TestVertexControl:
    """Steps the probe misses take a vertex table of their strategy edge."""

    START = (Fraction(9, 4), Fraction(9, 4))

    @staticmethod
    def counting(monkeypatch, owner, name):
        calls = []
        original = getattr(owner, name)

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(owner, name, counted)
        return calls

    def test_coupled_closed_loop(self, monkeypatch):
        sys, env, spec = coupled_problem()
        verdict = run(sys, env, spec, EngineOptions(m=4))
        assert verdict.outcome == "realizable"
        ctrl = verdict.controller
        rng = np.random.default_rng(37)
        trace = [int(rng.integers(0, 2)) for _ in range(2001)]
        lp_calls = self.counting(monkeypatch, geometry, "_box_lp")
        solves = self.counting(monkeypatch, geometry, "_solve_square")
        table_steps = self.counting(monkeypatch, engine.ContinuousController,
                                    "_vertex_table")
        runs = []
        for _ in range(2):
            lp_calls.clear()
            solves.clear()
            table_steps.clear()
            execution = simulate(ctrl, sys, iter(trace), self.START, 2000)
            steps = execution.steps
            for step, nxt in zip(steps, steps[1:]):
                assert sys.input_set.contains(step.inp)
                assert sys.domain.contains(nxt.state)
                assert ctrl.forest.box(nxt.region).contains(nxt.state)
                assert all(v.denominator <= 2**22 for v in nxt.state)
            runs.append((len(lp_calls), len(solves), len(table_steps), steps,
                         ctrl.tables_built))
        ((lp_first, _solves, table_first, first, built_first),
         (lp_again, solves_again, table_again, again, built_again)) = runs
        assert table_first > 0 and lp_first > 0 and built_first > 0
        # the tables and the probe's maps are cached on the controller and
        # the system: no simplex and no linear solve the second time
        assert lp_again == 0 and solves_again == 0
        assert table_again == table_first and built_again == built_first
        assert first == again
        assert ctrl.table_steps == 2 * table_first
        assert ctrl.probe_steps + ctrl.table_steps == 2 * 2000

    def test_probe_decided_steps_keep_the_witness_input(self, monkeypatch):
        sys, env, spec = coupled_problem()
        ctrl = run(sys, env, spec, EngineOptions(m=4)).controller
        rng = np.random.default_rng(41)
        trace = [int(rng.integers(0, 2)) for _ in range(2001)]
        execution = simulate(ctrl, sys, iter(trace), self.START, 2000)
        lp_calls = self.counting(monkeypatch, geometry, "_box_lp")
        decided = missed = 0
        for step, nxt in zip(execution.steps, execution.steps[1:]):
            lp_calls.clear()
            u = input_witness(sys, step.state, ctrl.forest.box(nxt.region))
            if lp_calls:
                missed += 1
            else:
                decided += 1
                assert step.inp == u
        assert decided and missed

    def test_source_is_a_strategy_edge_not_the_located_leaf(self):
        # B is 2x3, so every step takes a table.  At a vertex of a source
        # that lies on a face of a lower leaf, locate names that leaf,
        # which need not reach the target pessimistically.
        sys, env, spec = wide_B_problem()
        ctrl = run(sys, env, spec).controller
        forest, strategy = ctrl.forest, ctrl.strategy
        edges = {(strategy.memory_states[mid][0], target)
                 for (mid, _e), (_m, target) in strategy.transitions.items()}
        tested = 0
        for source, target in sorted(edges):
            goal = forest.box(target)
            for v in box_vertices(forest.box(source)):
                located = locate(forest, v)
                if reach_pessimistic(forest.box(located), goal, sys):
                    continue
                tested += 1
                u = ctrl.select_input(v, target)
                assert sys.input_set.contains(u)
                land = tuple(a + b for a, b in
                             zip(mat_vec(sys.A, v), mat_vec(sys.B, u)))
                assert goal.contains(land)
        assert tested

    def test_singular_diagonal_B_steps_from_tables(self):
        # B = diag(1, 0) has no inverse, so the probe misses every step and
        # every input comes from a vertex table.  Park's invertible
        # diagonal B never needs a table.
        sys, env, spec = singular_B_problem()
        verdict = run(sys, env, spec)
        assert verdict.outcome == "realizable"
        ctrl = verdict.controller
        rng = np.random.default_rng(47)
        trace = [int(rng.integers(0, 2)) for _ in range(301)]
        steps = simulate(ctrl, sys, iter(trace),
                         (Fraction(5, 2), Fraction(1, 3)), 300).steps
        for step, nxt in zip(steps, steps[1:]):
            assert sys.input_set.contains(step.inp)
            assert ctrl.forest.box(nxt.region).contains(nxt.state)
        assert ctrl.table_steps == 300 and ctrl.probe_steps == 0
        assert ctrl.tables_built > 0
        park, env, spec = park_problem()
        ctrl = run(park, env, spec).controller
        simulate(ctrl, park, iter(trace), (0.5, 0.5), 300)
        assert ctrl.probe_steps == 300
        assert ctrl.table_steps == ctrl.tables_built == 0

    def test_rebuilt_controller_simulates_identically(self, tmp_path):
        # controller.json carries no tables; a loaded controller builds
        # them on its first misses and steps exactly as the fresh one
        from dualsynth.cli import _rebuild_controller, load_problem, main
        sys, env, spec = coupled_problem()
        problem_file = {
            "dynamics": {"A": [[1, 0.25], [0, 1]], "B": [[1, 0.5], [0, 1]]},
            "input_set": [[-0.5, 0.5], [-0.5, 0.5]],
            "domain": [[0, 4], [0, 4]], "initial_set": [[2, 2.5], [2, 2.5]],
            "propositions": [
                {"name": name, "box": float_bounds(box)}
                for name, box in sys.proposition_regions],
            "environment": [{"name": "req", "values": [False, True]}],
            "spec": {"init": None, "assumptions": [], "guarantees": ["a"],
                     "responses": [{"trigger": "req", "response": "b"}]},
            "options": {"m": 4}}
        path = tmp_path / "coupled.json"
        path.write_text(json.dumps(problem_file))
        out = tmp_path / "run"
        assert main(["synthesize", str(path), "--out", str(out)]) == 0
        problem = load_problem(str(path))
        rebuilt = _rebuild_controller(problem, str(out / "controller.json"))
        fresh = run(sys, env, spec, EngineOptions(m=4)).controller
        rng = np.random.default_rng(43)
        trace = [int(rng.integers(0, 2)) for _ in range(501)]
        runs = [simulate(c, problem.sys, iter(trace), self.START, 500).steps
                for c in (fresh, rebuilt)]
        assert rebuilt._tables and rebuilt._tables == fresh._tables
        counts = [(c.probe_steps, c.table_steps, c.tables_built)
                  for c in (fresh, rebuilt)]
        assert counts[0] == counts[1] and counts[0][1] > 0
        assert [(s.state, s.inp, s.region) for s in runs[0]] == \
            [(s.state, s.inp, s.region) for s in runs[1]]

    def test_rebuilt_controller_keeps_the_proved_boxes(self, tmp_path):
        # m = 9 cuts each axis into thirds, which no double holds:
        # controller.json must give back the leaf boxes synthesize proved,
        # and one written with float bounds must still load
        from dualsynth.cli import _rebuild_controller, load_problem, main
        root = Path(__file__).resolve().parent.parent
        data = json.loads((root / "bench" / "coupled.json").read_text())
        data["options"]["m"] = 9
        path = tmp_path / "coupled9.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "run"
        assert main(["synthesize", str(path), "--out", str(out)]) == 0
        sys, env, spec, opts = _problem_file(path)
        fresh = run(sys, env, spec, opts).controller
        problem = load_problem(str(path))
        rebuilt = _rebuild_controller(problem, str(out / "controller.json"))
        boxes = [{rid: c.forest.box(rid) for rid in c.forest.leaves}
                 for c in (fresh, rebuilt)]
        assert boxes[0] == boxes[1]
        assert any(v.denominator % 3 == 0 for box in boxes[0].values()
                   for v in box.upper)
        rng = np.random.default_rng(61)
        trace = [int(rng.integers(0, 2)) for _ in range(301)]
        runs = [simulate(c, sys, iter(trace), self.START, 300).steps
                for c in (fresh, rebuilt)]
        assert [(s.state, s.inp, s.region) for s in runs[0]] == \
            [(s.state, s.inp, s.region) for s in runs[1]]

        ctrl = json.loads((out / "controller.json").read_text())
        for leaf in ctrl["leaves"]:
            leaf["box"] = float_bounds(Box.from_bounds(leaf["box"]))
        old = tmp_path / "float_controller.json"
        old.write_text(json.dumps(ctrl))
        loaded = _rebuild_controller(problem, str(old))
        assert {rid: loaded.forest.box(rid) for rid in loaded.forest.leaves} \
            == {rid: Box.from_bounds(float_bounds(box))
                for rid, box in boxes[0].items()}


def sha256_json(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()
                          ).hexdigest()


def _problem_file(path):
    problem = load_problem(str(path))
    o = problem.options
    return (problem.sys, problem.env, convert_to_gr1(problem.raw_spec),
            EngineOptions(m=o["m"], max_iters=o["max_iters"],
                          min_cell=Fraction(str(o["min_cell"]))))


def _random(seed):
    return (*random_problem(seed, with_env=True),
            EngineOptions(max_iters=2, min_cell=Fraction(1, 8)))


PINNED_PROBLEMS = {
    "coupled": lambda: _problem_file(
        Path(__file__).resolve().parent.parent / "bench" / "coupled.json"),
    "park": lambda: _problem_file(
        resources.files("dualsynth") / "problems" / "park.json"),
    "random_1": lambda: _random(1),
    "random_2": lambda: _random(2),
    "random_5": lambda: _random(5),
    "random_24": lambda: _random(24),
    # 3-D, 15 normals of which 12 are not axes, at max_iters=1
    "cube": lambda: _problem_file(
        Path(__file__).resolve().parent / "data" / "cube.json"),
}


class TestPinnedPartitions:
    """Every iteration's classified leaves, pinned by one SHA-256 digest
    per iteration of the (region id, exact bounds, labels, status,
    initial) rows: a change to the partition layer must leave every
    split, label and initial flag unchanged."""

    @pytest.mark.parametrize("name, digests", [
        ("coupled", [
          "1bfe1f532d10104183785f501792727aee4f6f44d2d32e7e9a55aa7c3302cf13",
          "4614472d5c1080e220db7df8978d0c975d8c9d67922908ed211711ac77ef1e6c"]),
        ("park", [
          "104d0baf860494b3fceda3be854cfd505a8faa0a3bfed24f497bbbc951c9e8fb"]),
        ("random_1", [
          "2a3503f309a1d0026ece5124700794ee1439d57ca3022fd0c20b40e376e837ee",
          "7e1ef612593b4571130bb551caaabb898ef322a1a1d8b0b38c7e497989d7c03a",
          "b3d9beaac94ac68c6d2d50f3d5477df68bacbc85eea5e608044d2cf87fabe19e"]),
        ("random_2", [
          "3af4adeebd31cf5abf304613f625adcaafa0725aab85c1d0dc613c569564226f",
          "9bd80e9b8eae62cc969c4899bc90ccaef97b840768b9d8c45817002e5ff8d03f",
          "8ef49acf6b74eb7a76c59550ff89b1dd07daca3df5bf3694ce9437678c710c27"]),
        ("random_5", [
          "b81d1d10f7061adced0ac640b9cdffaac997b470e86f7b6e8d56e2b822cde0ee",
          "62da4913c46c8ac63e6c276d8ada03de836997fc4e2dd39cb1a433436eb71a52",
          "294fac8ad490f2f4baaa2f8ed090975d90c1dbfae117b61ec83701a52c5d5a1d"]),
        ("random_24", [
          "dc5d36dcd7d42df0fb15bd958beac19fd53af6e6e76cbeb1751bfb0488d09edd",
          "ff9631371238cceaeee3af7203216bfe42e2765ada4f7f552c7448b3b9a5d6d6",
          "599d90ec79403ba21725e0ff2e4379e89ca25eb638334b6150fcb75e1ae84ea2"]),
    ])
    def test_iterations_are_pinned(self, name, digests, monkeypatch):
        seen = []
        original = engine.classify

        def capture(pair, forest, spec):
            triple = original(pair, forest, spec)
            seen.append(sha256_json([
                [format_region_id(rid), forest.box(rid).as_exact_bounds(),
                 sorted(forest.labels(rid)), forest.status(rid).value,
                 forest.nodes[rid].initial] for rid in pair.regions]))
            return triple

        monkeypatch.setattr(engine, "classify", capture)
        run(*PINNED_PROBLEMS[name]())
        assert seen == digests


class TestPinnedAbstractions:
    """Every iteration's FTS pair, pinned by one SHA-256 digest per
    iteration of its sorted pessimistic and optimistic edges (as region
    id strings) and its (issued_pess, issued_opt, pruned) counts: a
    change to the abstraction or geometry layer must leave every edge and
    every query count unchanged."""

    @pytest.mark.parametrize("name, digests", [
        ("coupled", [
          "2bbcd54cc92f1c9958b5c17de040f94964d0a9e1ca2515d9d3aeb1338a5d967d",
          "158d20d1dc0a5511c61d9d48cda81019d5c69fe0e3757ba520f408d5a54c2e19"]),
        ("park", [
          "9acd1dadf98a899225162b86852102354e77aaa1bb3ea0d25fa725b4a663e930"]),
        ("random_1", [
          "6a783a057f30843fb92241fc202757258f16184c47196ec9d5fccb59baf85f10",
          "701d50825627b57848fca6b110c0e6381576ab9412634d2284d53dfa475aabe4",
          "f3689be5805768ad22d0769c9de269774816ffba9eca6953bdadbbde329eede2"]),
        ("random_2", [
          "e6a216a9df4b92eb4c0bfd9abd13c93fb0bb76991d81a93d9210b7c9b6e5ca48",
          "29898cbbae47d107acd73f5a5f913faa56292224cf99bf61d189039ddbb0ff92",
          "efc1dc3dc3ed04210296fe78e7e1bc45b2aa4262c72dc81305499a5c60a34504"]),
        ("random_5", [
          "da19617a09940145fdabc46954c6a3d74a318ba16ed673e8109b6c34b7c41bb2",
          "ac90c243983fe07c5606567f7fb356f839842aa8477f175202a8bfec4d1a559c",
          "c3ea519bd909643001268f80f3497b3955ef0f159c6486e4b35b0ac38a42397b"]),
        ("random_24", [
          "38cea5e18265c336f4069a5aa3c0c82b3b00c8ac638ce61331e17646fc8611b5",
          "9b33ad31d8c1b164e63a48ad1c6fae688f3001f2d02f001ece16fa327943cc3a",
          "760222ae3e199a1868ba836d0b3cfcd2e9b2718fc7a4fb0e437bc6b9936ea3af"]),
    ])
    def test_iterations_are_pinned(self, name, digests, monkeypatch):
        seen = []
        original = engine.classify

        def edges(rows):
            return sorted([format_region_id(a), format_region_id(b)]
                          for a, outs in rows.items() for b in outs)

        def capture(pair, forest, spec):
            stats = pair.query_stats
            seen.append(sha256_json([
                edges(pair.pess_edges), edges(pair.opt_edges),
                [stats.issued_pess, stats.issued_opt, stats.pruned]]))
            return original(pair, forest, spec)

        monkeypatch.setattr(engine, "classify", capture)
        run(*PINNED_PROBLEMS[name]())
        assert seen == digests


class TestPinnedCube:
    """The 3-D cube's two iterations (27 and 216 leaves, unknown), pinned
    as ``TestPinnedAbstractions`` pins the 2-D problems.  Its normals are
    not all axes, so its queries take both paths of the axis index: the
    masks, and the slab test on the targets they leave open."""

    def test_iterations_are_pinned(self, monkeypatch):
        TestPinnedAbstractions().test_iterations_are_pinned("cube", [
          "f9b19d39d43a9be3058d923c3ec46f4ac485a6e66037783b64f493aa61506bb0",
          "57a90a4964fb9591a0fa94ace299ae97ab4c948c9819563244f5aa0b90c83e6b"],
            monkeypatch)


class TestPinnedStrategies:
    """The final game's winning regions and the shipped strategy, pinned
    by SHA-256 digests of ``region_winning`` (sorted region ids) and of
    ``strategy.to_json()``: a change to the game layer must leave both
    unchanged."""

    @pytest.mark.parametrize("name, regions_sha, strategy_sha", [
        ("coupled",
         "9681ab24559f09d8dd9f7c8f3d968797c76828f8b38f7aa488e1f6dea88c597a",
         "958d504cd09c921e9c1b64e4860972183dffc03882a2c0704aef937dd2ddfbcc"),
        ("park",
         "f452067ccf47c06f0d357bf4f4c4bee3832fa944261362a155df12fbe182486c",
         "a6f7902ab9edd81d965727422e5f2694517020034dff58a13e2203bb919b01d4"),
        ("random_2",
         "b3612c27a2c750c8ce26c177c3fc769c1ed717ddf1c86385b5f276b0c113484e",
         "41f902031f93fe3e77447d322c34179d27aa21c3c3f89ffeab56933cdd304e2f"),
        ("random_24",
         "d0c778b7905989af06f84a8a3b689b84e9b843fb381d9aa6f4a95d5c9a6a02d5",
         "943cf75f8c7492078a13ca1a06202ab9f715a94d37b15af6d86abff2d4317b42"),
    ])
    def test_final_game_is_pinned(self, name, regions_sha, strategy_sha,
                                  monkeypatch):
        captured = []
        original = engine.solve_game

        def capture(graph, *args, **kwargs):
            solution = original(graph, *args, **kwargs)
            if solution.strategy is not None:
                captured.append(solution)
            return solution

        monkeypatch.setattr(engine, "solve_game", capture)
        verdict = run(*PINNED_PROBLEMS[name]())
        assert verdict.outcome == "realizable"
        solution, = captured
        assert solution.strategy is verdict.controller.strategy
        regions = sorted(map(format_region_id, solution.region_winning))
        assert (sha256_json(regions), sha256_json(
            solution.strategy.to_json())) == (regions_sha, strategy_sha)


class TestPinnedController:
    """Every state and input of seeded closed-loop runs, pinned by a
    SHA-256 digest of the (state, input) sequence: a change to the
    control step must leave both unchanged, table steps included."""

    @staticmethod
    def digest(steps) -> str:
        return sha256_json([[[str(v) for v in step.state],
                             None if step.inp is None
                             else [str(v) for v in step.inp]]
                            for step in steps])

    def test_coupled_episodes(self):
        sys, env, spec = coupled_problem()
        ctrl = run(sys, env, spec, EngineOptions(m=4)).controller
        rng = np.random.default_rng(53)
        steps = []
        for _ in range(10):  # 100-step episodes from the same start
            trace = [int(rng.integers(0, 2)) for _ in range(101)]
            steps += simulate(ctrl, sys, iter(trace),
                              TestVertexControl.START, 100).steps
        assert ctrl.table_steps > 0 and ctrl.probe_steps > 0
        assert self.digest(steps) == \
          "8d4b1d6934ffac95ce6fb0a604ef9c7f54fe9a1e9dc1b9e3e2b806c01af2493a"

    @pytest.mark.parametrize("problem, start, sha", [
        (singular_B_problem, (Fraction(5, 2), Fraction(1, 3)),
         "2465e1a6625a7ddcf54926aed7be5fc38cf2977e51f107c34426a54c767f80b5"),
        (wide_B_problem, (Fraction(1, 2), Fraction(1, 2)),
         "d26b39104d420dbc9471155a47c9da26e8a5528110e0ec415822b1add7066ce5"),
    ])
    def test_table_only_runs(self, problem, start, sha):
        sys, env, spec = problem()
        ctrl = run(sys, env, spec).controller
        rng = np.random.default_rng(59)
        trace = [int(rng.integers(0, 2)) for _ in range(501)]
        steps = simulate(ctrl, sys, iter(trace), start, 500).steps
        assert ctrl.table_steps == 500 and ctrl.probe_steps == 0
        assert self.digest(steps) == sha


class TestPinnedBits:
    """Every region and memory-bit valuation of seeded closed-loop runs,
    pinned by a SHA-256 digest of the (region id, bits) sequence: a
    change to the bit updates or to the strategy's moves must leave both
    unchanged."""

    BUNDLED = resources.files("dualsynth") / "problems"

    @pytest.mark.parametrize("path, sha", [
        (BUNDLED / "park.json",
         "738b3b84ee1c349ac6fd11fe178bfda16fedde5eb56f58afd1a3a3cb13f71e6b"),
        (BUNDLED / "ferry.json",
         "298355f389c93b7d63c9f9d5c911aa009439ee7650fab82d7319ffa31cd638c9"),
        (Path(__file__).resolve().parent.parent / "bench" / "coupled.json",
         "406de6d846fa929846980b875da8eb7df10fe5b5d3c871fca90014f1ac82c198"),
    ], ids=["park", "ferry", "coupled"])
    def test_region_and_bits_sequence(self, path, sha):
        sys, env, spec, opts = _problem_file(path)
        ctrl = run(sys, env, spec, opts).controller
        start = tuple((lo + hi) / 2 for lo, hi in
                      zip(sys.initial_set.lower, sys.initial_set.upper))
        rng = np.random.default_rng(71)
        trace = [int(rng.integers(0, len(env.valuations)))
                 for _ in range(301)]
        steps = simulate(ctrl, sys, iter(trace), start, 300).steps
        assert sha256_json([[format_region_id(step.region), step.bits]
                            for step in steps]) == sha


def plain_step(A, B, x, u):
    """A x + B u in plain ``Fraction`` arithmetic, from the rows as given."""
    F = Fraction
    return tuple(sum((F(a) * F(v) for a, v in zip(row_a, x)), F(0)) +
                 sum((F(b) * F(w) for b, w in zip(row_b, u)), F(0))
                 for row_a, row_b in zip(A, B))


def ints(x):
    """x as integers over one denominator, (xs, xd)."""
    return geometry._integers([Fraction(v) for v in x])


class TestNextState:
    """``geometry.next_state_ints``, the step ``simulate`` takes, read as
    ``Fraction(v, yd)`` against ``plain_step``; its integers are reduced,
    the ones ``geometry._integers`` makes of those ``Fraction``s, so a run
    that carries them reads what one that rebuilds them would."""

    VALUES = [0, 1, -2, 0.3, -0.7, 0.1, Fraction(1, 3), Fraction(-5, 12),
              Fraction(10 ** 30, 7), Fraction(1, 2 ** 70)]

    @staticmethod
    def next_state(sys, x, u):
        ys, yd = geometry.next_state_ints(sys, *ints(x), *ints(u))
        assert yd > 0 and all(type(v) is int for v in (*ys, yd))
        y = tuple(Fraction(v, yd) for v in ys)
        assert (tuple(ys), yd) == geometry._integers(y)
        return y

    def draw(self, rng, k):
        return [self.VALUES[int(rng.integers(len(self.VALUES)))]
                for _ in range(k)]

    def test_integers_are_reduced(self):
        # 1/2 + 1/2 and 1/4 + 3/4: the unreduced sum is over 4 d_A d_B
        sys = ControlSystem.create(
            A=[[1, 0], [0, 1]], B=[[1, 0], [0, 1]], input_set=[[-1, 1]] * 2,
            domain=[[-4, 4]] * 2, initial_set=[[-4, 4]] * 2)
        F = Fraction
        for x, u, want in (
                ((F(1, 2), F(1, 4)), (F(1, 2), F(3, 4)), ([1, 1], 1)),
                ((F(1, 3), F(0)), (F(-1, 3), F(0)), ([0, 0], 1)),
                ((F(1, 6), F(1, 3)), (F(0), F(1, 3)), ([1, 4], 6))):
            assert geometry.next_state_ints(sys, *ints(x), *ints(u)) == want
            assert self.next_state(sys, x, u) == tuple(
                F(v, want[1]) for v in want[0])

    def test_random_systems(self):
        rng = np.random.default_rng(67)
        shapes = [(1, 1), (2, 2), (2, 1), (2, 3), (3, 3), (3, 2)]
        checked = 0
        for n, m in shapes * 20:
            A = [self.draw(rng, n) for _ in range(n)]
            B = [self.draw(rng, m) for _ in range(n)]
            sys = ControlSystem.create(
                A=A, B=B, input_set=[[-1, 1]] * m, domain=[[-4, 4]] * n,
                initial_set=[[-4, 4]] * n)
            for _ in range(5):
                x = [Fraction(v) for v in self.draw(rng, n)]
                u = [Fraction(v) for v in self.draw(rng, m)]
                assert self.next_state(sys, x, u) == plain_step(A, B, x, u)
                checked += 1
        assert checked == 600

    def test_float_read_decimal_A(self):
        # the decimal coupled system: 0.3 and 0.1 are read as the doubles
        # they name, and long runs grow the state's denominator
        A, B = [[1, 0.3], [0.1, 1]], [[1, 0.5], [0, 1]]
        sys = ControlSystem.create(
            A=A, B=B, input_set=[[-0.5, 0.5]] * 2, domain=[[0, 4]] * 2,
            initial_set=[[0, 4]] * 2)
        rng = np.random.default_rng(71)
        x = (Fraction(9, 4), Fraction(9, 4))
        for _ in range(60):
            u = tuple(Fraction(int(rng.integers(-8, 9)), 16)
                      for _ in range(2))
            want = plain_step(A, B, x, u)
            assert self.next_state(sys, x, u) == want
            # keep the state bounded without changing its denominator
            x = tuple(v - math.floor(v) + 2 for v in want)
        assert max(v.denominator for v in x) > 2 ** 1000

    @pytest.mark.parametrize("problem, start", [
        (singular_B_problem, (Fraction(5, 2), Fraction(1, 3))),
        (wide_B_problem, (Fraction(1, 2), Fraction(1, 2))),
        (coupled_problem, TestVertexControl.START),
    ])
    def test_simulated_steps(self, problem, start):
        sys, env, spec = problem()
        rows = [[[Fraction(v) for v in row] for row in mat]
                for mat in (sys.A, sys.B)]
        ctrl = run(sys, env, spec).controller
        rng = np.random.default_rng(73)
        trace = [int(rng.integers(0, 2)) for _ in range(201)]
        steps = simulate(ctrl, sys, iter(trace), start, 200).steps
        for step, nxt in zip(steps, steps[1:]):
            assert nxt.state == plain_step(*rows, step.state, step.inp)
            assert nxt.state == self.next_state(sys, step.state, step.inp)

    def test_floats_and_dimensions(self):
        sys, _env, _spec = wide_B_problem()
        assert self.next_state(sys, (0.5, 0.25), (0.5, -1, 1)) == \
            (Fraction(1), Fraction(-3, 4))
        for x, u in (((1,), (0, 0, 0)), ((1, 1), (0, 0)),
                     ((1, 1, 1), (0, 0, 0))):
            with pytest.raises(GeometryError):
                geometry.next_state_ints(sys, *ints(x), *ints(u))
