"""Acceptance suite: the eight shipping criteria.

Each test enforces one criterion at its stated tolerance and prints one
pass line (run with ``pytest tests/test_acceptance.py -v -s``).  The
oracles live in ``oracles.py`` and are deliberately independent of the
library's own decision procedures.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from dualsynth import engine
from dualsynth.abstraction import EnvAlphabet, build_initial
from dualsynth.engine import EngineOptions, run, simulate
from dualsynth.geometry import (
    Box,
    ControlSystem,
    reach_optimistic,
    reach_pessimistic,
)
from dualsynth.gr1 import (
    GameGraph,
    Gr1Spec,
    RawSpec,
    check_lasso,
    convert_to_gr1,
    parse_formula,
    solve_game,
    strategy_invariance_check,
)
from dualsynth.partition import initial_partition, locate

from oracles import (
    backward_reach_interval,
    brute_force_winning,
    grid_reach,
    interpret_formula,
    sweep_gr1_winning,
)
from problem_gen import random_problem


def _report(n, name):
    print(f"\n[acceptance] criterion {n} ({name}): PASS")


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


def invariant_problem(initial=((3, 3.5), (3, 3.5))):
    sys = ControlSystem.create(
        A=[[1.5, 0], [0, 1.5]], B=[[1, 0], [0, 1]],
        input_set=[[-1, 1], [-1, 1]],
        domain=[[0, 4], [0, 4]], initial_set=list(map(list, initial)),
        propositions=[("goal", [[0, 0.5], [0, 0.5]]),
                      ("start", [[3, 3.5], [3, 3.5]])])
    env = EnvAlphabet.create([])
    init = "start" if list(map(list, initial)) == [[3, 3.5], [3, 3.5]] else None
    spec = convert_to_gr1(RawSpec(guarantees=("goal",), init=init))
    return sys, env, spec


def test_criterion_1_example1_realizable():
    """Bundled park/home/lot problem: realizable, no threshold parameter,
    at most 10 iterations, under 60 s."""
    sys, env, spec = park_problem()
    t0 = time.perf_counter()
    verdict = run(sys, env, spec)  # no threshold-volume option exists
    elapsed = time.perf_counter() - t0
    assert verdict.outcome == "realizable"
    assert verdict.iterations <= 10
    assert verdict.controller is not None
    assert elapsed <= 60.0
    _report(1, f"example-1 realizable in {verdict.iterations} iteration(s), "
               f"{elapsed:.2f}s")


def test_criterion_2_example2_unrealizable():
    """Bundled invariant problem: unrealizable with the start box as
    witness, under 60 s."""
    sys, env, spec = invariant_problem()
    t0 = time.perf_counter()
    verdict = run(sys, env, spec)
    elapsed = time.perf_counter() - t0
    assert verdict.outcome == "unrealizable"
    assert elapsed <= 60.0
    witness_bounds = [b.as_exact_bounds() for b in verdict.witness]
    assert [["3", "7/2"], ["3", "7/2"]] in witness_bounds
    losing_boxes = verdict.history[-1].boxes("losing")
    start_box = Box.from_bounds([[3, 3.5], [3, 3.5]])
    assert any(b == start_box for b in losing_boxes)
    _report(2, f"example-2 unrealizable with start witness, {elapsed:.2f}s")


def test_criterion_3_losing_set_soundness():
    """Computed losing sets stay inside the analytically losing region,
    checked against an exact backward-reachability oracle."""
    # per-axis winning interval: points that can reach the goal interval;
    # exact fixpoint iteration approaches [0, 2) and never attains 2
    lo, hi = backward_reach_interval(
        a=Fraction(3, 2), b=Fraction(1), ulo=Fraction(-1), uhi=Fraction(1),
        goal_lo=Fraction(0), goal_hi=Fraction(1, 2),
        dom_lo=Fraction(0), dom_hi=Fraction(4), iters=300)
    assert lo == 0 and Fraction(199, 100) < hi < 2

    checked = 0
    for initial in (((3, 3.5), (3, 3.5)),           # the bundled start box
                    ((2.25, 2.5), (2.25, 2.5))):    # forces refinement
        sys, env, spec = invariant_problem(initial)
        verdict = run(sys, env, spec,
                      EngineOptions(max_iters=8, min_cell=Fraction(1, 64)))
        assert verdict.outcome == "unrealizable"
        for triple in verdict.history:
            for box in triple.boxes("losing"):
                # a losing box must avoid the true winning set [0,2)^2:
                # some axis must start at or beyond the threshold, which
                # the oracle bounds from below by `hi`
                assert box.lower[0] >= hi or box.lower[1] >= hi, \
                    f"losing box {box} intersects the winning region"
                assert box.lower[0] >= 2 or box.lower[1] >= 2
                checked += 1
    assert checked > 12
    _report(3, f"{checked} losing boxes verified against backward oracle")


def test_criterion_4_monotonicity_suite():
    """25 random affine problems: winning/losing regions only grow, and
    pessimistic edges stay inside optimistic edges, at every iteration."""
    rng = np.random.default_rng(2024)
    violations = 0
    multi_iteration_runs = 0
    for seed in range(25):
        sys, env, spec = random_problem(seed, with_env=True)
        verdict = run(sys, env, spec,
                      EngineOptions(max_iters=2, min_cell=Fraction(1, 8)))
        if len(verdict.history) > 1:
            multi_iteration_runs += 1
        for t, t2 in zip(verdict.history, verdict.history[1:]):
            if not set(t.boxes("winning")) <= set(t2.boxes("winning")):
                violations += 1
            if not set(t.boxes("losing")) <= set(t2.boxes("losing")):
                violations += 1
            # point-set containment, sampled
            for _ in range(200):
                pt = (Fraction(int(rng.integers(0, 64)), 16) *
                      sys.domain.upper[0] / 4,
                      Fraction(int(rng.integers(0, 64)), 16) *
                      sys.domain.upper[1] / 4)
                if not sys.domain.contains(pt):
                    continue
                in_w = any(b.contains(pt) for b in t.boxes("winning"))
                in_w2 = any(b.contains(pt) for b in t2.boxes("winning"))
                in_l = any(b.contains(pt) for b in t.boxes("losing"))
                in_l2 = any(b.contains(pt) for b in t2.boxes("losing"))
                if (in_w and not in_w2) or (in_l and not in_l2):
                    violations += 1
        # pess subset opt is asserted inside every build/refine call; check
        # once more on a fresh initial abstraction
        forest = initial_partition(sys)
        pair = build_initial(forest, sys, env)
        pess = {e for e in pair.pess_pairs()}
        opt = {e for e in pair.opt_pairs()}
        if not pess <= opt:
            violations += 1
    assert violations == 0
    assert multi_iteration_runs >= 5, "suite must actually exercise refinement"
    _report(4, f"25 runs, {multi_iteration_runs} with refinement, "
               f"0 violations")


def test_criterion_5_reachability_grid_agreement():
    """1000 random (box, box, system) triples against dense grid oracles;
    mismatches must be grid-resolution artifacts, < 1%, and survive a
    doubled-resolution recheck without contradictions."""
    rng = np.random.default_rng(55)

    def rand_sys():
        vals = [Fraction(1), Fraction(1, 2), Fraction(3, 2), Fraction(-1, 2)]
        A = [[vals[int(rng.integers(0, 4))], Fraction(0)],
             [Fraction(0), vals[int(rng.integers(0, 4))]]]
        if rng.random() < 0.5:
            A[0][1] = Fraction(1, 4) * (1 if rng.random() < 0.5 else -1)
        B = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
        if rng.random() < 0.3:
            B[1][0] = Fraction(1, 4)
        u = Fraction(int(rng.integers(1, 5)), 4)
        return ControlSystem.create(
            A=A, B=B, input_set=[[-u, u], [-u, u]],
            domain=[[-4, 4], [-4, 4]], initial_set=[[-4, 4], [-4, 4]])

    def rand_box():
        out = []
        for _ in range(2):
            a = Fraction(int(rng.integers(-16, 12)), 4)
            w = Fraction(int(rng.integers(1, 9)), 4)
            out.append((a, min(a + w, Fraction(4))))
        return Box(tuple(x for x, _ in out), tuple(y for _, y in out))

    n = 1000
    mismatches = []
    for k in range(n):
        sys = rand_sys()
        X, Y = rand_box(), rand_box()
        p_lib = reach_pessimistic(X, Y, sys)
        o_lib = reach_optimistic(X, Y, sys)
        p_grid, o_grid = grid_reach(sys, X, Y, kx=64, ku=32)
        # a grid witness is real: an optimistic "no" cannot coexist with it
        assert not (o_grid and not o_lib), \
            f"case {k}: grid found a witness the library denies"
        if p_lib != p_grid or o_lib != o_grid:
            mismatches.append((sys, X, Y, p_lib, o_lib))
    assert len(mismatches) < 0.01 * n, \
        f"{len(mismatches)} grid mismatches exceed the 1% budget"
    for sys, X, Y, p_lib, o_lib in mismatches:
        p2, o2 = grid_reach(sys, X, Y, kx=128, ku=64)
        assert not (o2 and not o_lib)
        # at double resolution the grid may still miss witnesses, but it
        # must never contradict a universal claim it previously supported
        if p_lib:
            pass  # grid-false stays inconclusive for universal claims
    _report(5, f"1000 triples, {len(mismatches)} inconclusive-by-grid "
               f"(< 1%), no contradictions at doubled resolution")


def _random_game(rng):
    n_env = int(rng.integers(1, 3))
    n_goals = int(rng.integers(1, 3))
    n_regions = int(rng.integers(2, 5)) if n_goals == 1 else 3
    if n_goals == 2 and n_env == 2:
        n_regions = 3
    labels = {r: {l for l in ("g", "h", "p") if rng.random() < 0.4}
              for r in range(n_regions)}
    while True:
        succ = {r: sorted(int(s) for s in rng.choice(
            n_regions, size=int(rng.integers(0, min(4, n_regions + 1))),
            replace=False)) for r in range(n_regions)}
        choices = 1
        for r in range(n_regions):
            choices *= max(1, len(succ[r])) ** (n_env * n_goals)
        if choices <= 3000:
            break
    env_vals = [{"e": i} for i in range(n_env)]
    guarantees = tuple(parse_formula(a) for a in ("g", "h")[:n_goals])
    assumptions = ()
    if rng.random() < 0.5:
        assumptions = (parse_formula("p | e=1" if n_env > 1 else "p"),)
    spec = Gr1Spec(assumptions=assumptions, guarantees=guarantees)
    graph = GameGraph(list(range(n_regions)), succ, labels, env_vals, spec)
    return graph, succ, labels, env_vals, assumptions, guarantees


def test_criterion_6_game_solver_oracle_equivalence():
    """200 random small games: the fixpoint solver's winning set equals
    exhaustive strategy enumeration; the invariance check passes."""
    rng = np.random.default_rng(606)
    for k in range(200):
        graph, succ, labels, env_vals, assumptions, guarantees = \
            _random_game(rng)
        assert graph.n_regions * graph.n_env <= 8
        p_preds = [(lambda r, e, a=a: interpret_formula(
            a, frozenset(labels[r]), env_vals[e], {})) for a in assumptions]
        q_preds = [(lambda r, e, q=q: interpret_formula(
            q, frozenset(labels[r]), env_vals[e], {})) for q in guarantees]
        expected = brute_force_winning(
            list(range(graph.n_regions)), succ,
            list(range(graph.n_env)), p_preds, q_preds)
        sol = solve_game(graph)
        assert sol.winning == expected, f"mismatch on game {k}"
        assert strategy_invariance_check(sol.strategy, graph, sol), \
            f"invariance failed on game {k}"
    _report(6, "200 games equal brute-force enumeration; invariance holds")


def _oracle_classification(pair, labels, spec):
    """Winning and losing regions from ``sweep_gr1_winning`` on the pair's
    pessimistic and optimistic edges, with formulas read by the oracle
    interpreter."""
    names = spec.bit_names
    valuations = pair.env.valuations
    envs = range(len(valuations))

    def holds(expr, v):
        r, e, bits = v
        return interpret_formula(expr, labels[r], valuations[e],
                                 dict(zip(names, bits)))

    def update(bits, r, e):
        return tuple(holds(upd, (r, e, bits)) for _name, upd in
                     spec.memory_bits)

    p_preds = [lambda v, a=a: holds(a, v) for a in spec.assumptions]
    q_preds = [lambda v, q=q: holds(q, v) for q in spec.guarantees]

    def winning(edges):
        succ = {r: list(edges.get(r, ())) for r in pair.regions}
        return sweep_gr1_winning(pair.regions, succ, envs, len(names),
                                 update, p_preds, q_preds)

    pess, opt = winning(pair.pess_edges), winning(pair.opt_edges)
    return ({r for r in pair.regions if all((r, e) in pess for e in envs)},
            {r for r in pair.regions if all((r, e) not in opt for e in envs)})


def test_criterion_7_classification_oracle_agreement(monkeypatch):
    """At every iteration the engine's winning and losing regions equal the
    independent sweep oracle's on that iteration's two FTSs, on both
    bundled examples and 10 random problems."""
    original = engine.classify
    checked = []

    def compare(pair, forest, spec):
        triple = original(pair, forest, spec)
        labels = {r: forest.labels(r) for r in pair.regions}
        expected = _oracle_classification(pair, labels, spec)
        assert (set(triple.winning), set(triple.losing)) == expected, \
            f"iteration {pair.iteration} disagrees with the sweep oracle"
        checked.append(pair.iteration)
        return triple

    monkeypatch.setattr(engine, "classify", compare)
    runs = 0
    for sys, env, spec in (park_problem(), invariant_problem()):
        run(sys, env, spec)
        runs += 1
    for seed in range(100, 110):
        sys, env, spec = random_problem(seed, with_env=True)
        run(sys, env, spec, EngineOptions(max_iters=2,
                                          min_cell=Fraction(1, 8)))
        runs += 1
    assert runs == 12
    assert any(checked), "no run reached a refined iteration"
    _report(7, f"{len(checked)} classifications in 12 runs equal the "
               f"sweep oracle's")


def _scripts(n_env, rng, count=50, horizon=10_000):
    """Eventually periodic env scripts: adversarial fixtures + random."""
    fixed = [
        ([0], [0]),                    # quiet environment
        ([0], [n_env - 1]),            # constant worst value
        ([0], list(range(n_env))),     # round-robin
        ([n_env - 1] * 7, [0]),        # burst then quiet
    ]
    scripts = fixed[: min(count, len(fixed))]
    while len(scripts) < count:
        prefix = [int(rng.integers(0, n_env))
                  for _ in range(int(rng.integers(0, 40)))]
        cycle = [int(rng.integers(0, n_env))
                 for _ in range(int(rng.integers(1, 16)))]
        scripts.append((prefix, cycle))
    out = []
    for prefix, cycle in scripts:
        seq = list(prefix)
        while len(seq) <= horizon:
            seq.extend(cycle)
        out.append((prefix, cycle, seq[: horizon + 1]))
    return out


def test_criterion_8_controller_soundness():
    """Realizable verdicts ship sound controllers: 10^4 steps under 50
    eventually-periodic adversarial/random scripts never leave the
    domain, never emit inadmissible inputs, track the discrete strategy
    exactly, and their detected lassos satisfy the specification."""
    rng = np.random.default_rng(88)
    sys, env, spec = park_problem()
    verdict = run(sys, env, spec)
    assert verdict.outcome == "realizable"
    ctrl = verdict.controller
    leaf_boxes = [(r, ctrl.forest.box(r)) for r in ctrl.forest.leaves]
    horizon = 10_000
    n_checked = 0
    for prefix, cycle, seq in _scripts(len(env), rng, count=50,
                                       horizon=horizon):
        s0 = (Fraction(int(rng.integers(0, 13)), 4),
               Fraction(int(rng.integers(0, 9)), 4))
        s0 = (min(s0[0], Fraction(3)), min(s0[1], Fraction(2)))
        execution = simulate(ctrl, sys, iter(seq), s0, horizon)
        # region trace equals the automaton's prediction, and inputs and
        # states stay admissible
        region = ctrl.start_region(s0)
        memory = ctrl.strategy.start(region)
        memory_trace = [memory]
        predicted = [region]
        for e in seq[:-1]:
            memory, region = ctrl.strategy.step(memory, e)
            memory_trace.append(memory)
            predicted.append(region)
        for t, step in enumerate(execution.steps):
            assert sys.domain.contains(step.state)
            if step.inp is not None:
                assert sys.input_set.contains(step.inp)
            assert step.region == predicted[t]
            # the continuous state tracks the discrete plan: it sits in the
            # prescribed cell, and off shared faces the partition map
            # recovers the region exactly (on a face both neighbors own
            # the point and the tie-break may name the other one).  The
            # leaves test the state over one denominator, as ``locate`` does
            xd = math.lcm(*(v.denominator for v in step.state))
            xs = [v.numerator * (xd // v.denominator) for v in step.state]
            candidates = [r for r, box in leaf_boxes if box.holds(xs, xd)]
            assert step.region in candidates
            if len(candidates) == 1:
                assert locate(ctrl.forest, step.state) == step.region
        # lasso detection on the deterministic product
        keyed = {}
        cycle_slice = None
        states = execution.trace_states(ctrl.forest)
        for t in range(len(prefix), horizon + 1):
            key = (memory_trace[t], (t - len(prefix)) % len(cycle))
            if key in keyed:
                cycle_slice = (keyed[key], t)
                break
            keyed[key] = t
        assert cycle_slice, "no lasso within the horizon"
        a, b = cycle_slice
        assert check_lasso(states[:a], states[a:b], spec), \
            f"lasso starting at {a} violates the specification"
        n_checked += 1
    assert n_checked == 50
    _report(8, f"50 scripts x {horizon} steps: domain, inputs, region "
               f"traces, and lassos all sound")
