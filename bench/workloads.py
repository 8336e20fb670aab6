"""The benchmark's three workloads: seeded inputs, timed passes, output checks.

``ladder``  synthesis on the bundled problems and four random problems;
            geometry (interval-hull and diagonal fast paths) dominates.
``coupled`` synthesis and 10^4 control steps on a problem with coupled
            ``A`` and non-diagonal ``B``; exercises the witness-probe and
            exact-simplex paths and the online input selector.
``arena``   GR(1) games on synthetic line arenas, solved the way the
            engine solves them; no geometry at all.

Each workload has ``setup(seed, sizes)``, which builds its inputs, and
``run_pass(inputs, checks)``, which times the top-level solve calls and the
control steps on ``hostspeed.clock`` and checks every output.  The workload
seed drives only inputs whose cost does not depend on it (problem order,
env scripts, arena dead ends and start region), so runs with different
seeds measure the same amount of work.
"""

from __future__ import annotations

import json
import random
import sys
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from hostspeed import clock, samples_taken

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for _path in (ROOT / "tests", ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from dualsynth import cli, engine, gr1  # noqa: E402
from dualsynth.geometry import mat_vec  # noqa: E402
from dualsynth.gr1 import GameGraph, RawSpec, convert_to_gr1  # noqa: E402

PROBLEMS = ROOT / "src" / "dualsynth" / "problems"
EXPECTED = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))


@dataclass(frozen=True)
class Sizes:
    """How much work one pass does; ``FULL`` is what the benchmark runs."""
    ladder_seeds: tuple[int, ...] = (1, 2, 5, 24)
    ladder_steps: int = 2000       # control steps per realizable ladder problem
    coupled_steps: int = 10_000
    arena_regions: int = 80
    arena_steps: int = 100_000     # strategy steps on the response arena


FULL = Sizes()
EPISODE = 100      # control steps between restarts from the start state
STEP_GROUP = 100   # arena strategy steps timed together
REPEATS = 2        # runs of the same control steps per pass
# The bundled problems solve in under 30 ms, a few speed samples, so a pass
# solves each of them this many times.
BUNDLED_SOLVES = 10
ARENA_DEAD_ENDS = 6


@dataclass
class Checks:
    """Outcome of every output check; a failed check never aborts the run."""
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)
        return ok

    def crashed(self, what: str) -> None:
        """Count an exception raised where a checked result was expected."""
        self.check(False, f"{what}: {traceback.format_exc(limit=3)}")


@dataclass
class PassResult:
    """Times in ``hostspeed.clock`` units.  ``step_s`` has, per control
    step, the (time, interrupted by a speed sample) of each of its REPEATS
    runs."""
    # per problem, the time of each of its solves
    solve_s: dict[str, list[float]] = field(default_factory=dict)
    step_s: list[list[tuple[float, bool]]] = field(default_factory=list)


# ---------------------------------------------------------------------------
# synthesis problems (ladder, coupled)
# ---------------------------------------------------------------------------

@dataclass
class Problem:
    name: str
    sys: object
    env: object
    spec: object
    opts: engine.EngineOptions
    script: list[int]      # env valuation index per control step
    solves: int = 1        # engine.run calls per pass


def _from_file(name: str, path: Path, rng: random.Random, steps: int,
               solves: int = 1) -> Problem:
    problem = cli.load_problem(str(path))
    o = problem.options
    opts = engine.EngineOptions(m=o["m"], max_iters=o["max_iters"],
                                min_cell=Fraction(str(o["min_cell"])))
    return Problem(name, problem.sys, problem.env,
                   convert_to_gr1(problem.raw_spec), opts,
                   _script(rng, len(problem.env), steps), solves)


def _script(rng: random.Random, n_env: int, steps: int) -> list[int]:
    return [rng.randrange(n_env) for _ in range(steps)]


@contextmanager
def _captured_strategies():
    """Record the (graph, solution) of each strategy the engine extracts.

    ``engine.run`` does not return its final game, which
    ``strategy_invariance_check`` needs, so the engine's ``solve_game``
    binding is wrapped for the duration of a pass.
    """
    original = engine.solve_game
    captured = []

    def capture(graph, *args, **kwargs):
        solution = original(graph, *args, **kwargs)
        if solution.strategy is not None:
            captured.append((graph, solution))
        return solution

    engine.solve_game = capture
    try:
        yield captured
    finally:
        engine.solve_game = original


def _solve_problems(problems: list[Problem], checks: Checks,
                    start=None) -> PassResult:
    out = PassResult()
    for p in problems:
        times = out.solve_s[p.name] = []
        for _ in range(p.solves):
            with _captured_strategies() as captured:
                t0 = clock()
                try:
                    verdict = engine.run(p.sys, p.env, p.spec, p.opts)
                except Exception:
                    verdict = None
                    times.append(clock() - t0)
                    checks.crashed(f"{p.name}: engine.run")
                    break
                times.append(clock() - t0)
            _check_verdict(p.name, verdict, checks)
        if verdict is None or verdict.outcome != "realizable":
            continue
        graph, solution = captured[-1] if captured else (None, None)
        if checks.check(solution is not None and
                        solution.strategy is verdict.controller.strategy,
                        f"{p.name}: the shipped strategy was not captured"):
            checks.check(gr1.strategy_invariance_check(
                solution.strategy, graph, solution),
                f"{p.name}: strategy_invariance_check failed")
        out.step_s += _repeated(
            lambda: _control(p, verdict.controller, checks, start))
    return out


def _repeated(run) -> list[list[tuple[float, bool]]]:
    """Per step, its samples from REPEATS runs of the same steps.  A step
    that a speed sample interrupts pays for the caches the sample
    disturbed, so its sample is marked; with two runs per pass, every
    pass, however slow the host, gives each step two tries to be timed
    without one."""
    runs = [run() for _ in range(REPEATS)]
    return [list(samples) for samples in zip(*runs)]


def _box_json(box) -> list[list[str]]:
    return [[str(lo), str(hi)] for lo, hi in zip(box.lower, box.upper)]


def _check_verdict(name: str, verdict, checks: Checks) -> None:
    want = EXPECTED[name]
    got = {"outcome": verdict.outcome, "iterations": verdict.iterations,
           "leaves": [s.leaves for s in verdict.stats],
           "witness": [_box_json(b) for b in verdict.witness]}
    for key, value in want.items():
        checks.check(got[key] == value,
                     f"{name}: {key} is {got[key]!r}, expected {value!r}")


def _control(p: Problem, ctrl, checks: Checks, start
             ) -> list[tuple[float, bool]]:
    """Drive the controller in episodes of EPISODE steps, each from the
    start state with fresh automaton memory, so that every seed's script
    mixes many trajectories.  One step is strategy.step + select_input +
    the exact state update; each checks domain, input set and that the
    state landed in the region the automaton predicted."""
    sys_, forest = p.sys, ctrl.forest
    times = []
    for t, e in enumerate(p.script):
        try:
            if t % EPISODE == 0:
                if start is None:  # centre of the lowest winning initial region
                    region = min(r for r in ctrl.strategy.initial if forest
                                 .box(r).overlaps_interior(sys_.initial_set))
                    start = forest.box(region).intersect(
                        sys_.initial_set).center()
                s = start
                memory = ctrl.strategy.start(ctrl.start_region(s))
            n0, t0 = samples_taken(), clock()
            memory, target = ctrl.strategy.step(memory, e)
            u = ctrl.select_input(s, target)
            s_next = tuple(a + b for a, b in
                           zip(mat_vec(sys_.A, s), mat_vec(sys_.B, u)))
            times.append((clock() - t0, samples_taken() != n0))
        except Exception:
            checks.crashed(f"{p.name}: control step {t}")
            break
        checks.check(sys_.domain.contains(s_next)
                     and sys_.input_set.contains(u)
                     and forest.box(target).contains(s_next),
                     f"{p.name}: control step {t} left its predicted region, "
                     f"the domain or the input set")
        s = s_next
    return times


def ladder_setup(seed: int, sizes: Sizes = FULL) -> list[Problem]:
    from problem_gen import random_problem
    rng = random.Random(seed)
    problems = [_from_file(name, PROBLEMS / f"{name}.json", rng,
                           sizes.ladder_steps, BUNDLED_SOLVES)
                for name in ("park", "invariant")]
    opts = engine.EngineOptions(max_iters=2, min_cell=Fraction(1, 8))
    for k in sizes.ladder_seeds:
        sys_, env, spec = random_problem(k, with_env=True)
        problems.append(Problem(f"random_{k}", sys_, env, spec, opts,
                                _script(rng, len(env), sizes.ladder_steps)))
    rng.shuffle(problems)
    return problems


def ladder_pass(problems: list[Problem], checks: Checks) -> PassResult:
    return _solve_problems(problems, checks)


COUPLED_START = (Fraction(9, 4), Fraction(9, 4))


def coupled_setup(seed: int, sizes: Sizes = FULL) -> list[Problem]:
    return [_from_file("coupled", BENCH / "coupled.json", random.Random(seed),
                       sizes.coupled_steps)]


def coupled_pass(problems: list[Problem], checks: Checks) -> PassResult:
    return _solve_problems(problems, checks, start=COUPLED_START)


# ---------------------------------------------------------------------------
# arena: GR(1) games without geometry
# ---------------------------------------------------------------------------

@dataclass
class Arena:
    """Regions 0..n-1 on a line with edges to both neighbours, goal ``a``
    at 0 and ``b`` at n-1, plus dead-end regions hanging off the line.

    Dead ends have no pessimistic successors; every other one may step back
    to the line optimistically.  By construction the pessimistic winning
    set is the line, the optimistic losing set is the dead ends without a
    way back, and the remaining dead ends are undecided.
    """
    name: str
    regions: list[int]
    pess: dict[int, list[int]]
    opt: dict[int, list[int]]
    labels: dict[int, set[str]]
    env: list[dict]
    spec: object
    winning: frozenset
    losing: frozenset
    script: list[int]
    start: int


def _arena(name: str, n: int, response: bool, rng: random.Random,
           steps: int) -> Arena:
    pess = {i: [j for j in (i - 1, i + 1) if 0 <= j < n] for i in range(n)}
    opt = {i: list(v) for i, v in pess.items()}
    losing = set()
    ends = sorted(rng.sample(range(1, n - 1), ARENA_DEAD_ENDS))
    for k, at in enumerate(ends):
        d = n + k
        pess[at].append(d)
        opt[at].append(d)
        pess[d] = []
        opt[d] = [at] if k % 2 else []
        if not k % 2:
            losing.add(d)
    if response:
        env = [{"req": False}, {"req": True}]
        raw = RawSpec(guarantees=("a",), responses=(("req", "b"),))
    else:
        env = [{}]
        raw = RawSpec(guarantees=("a", "b"))
    return Arena(name, list(range(n + ARENA_DEAD_ENDS)), pess, opt,
                 {0: {"a"}, n - 1: {"b"}}, env, convert_to_gr1(raw),
                 frozenset(range(n)), frozenset(losing),
                 _script(rng, len(env), steps), rng.randrange(n))


def arena_setup(seed: int, sizes: Sizes = FULL) -> list[Arena]:
    """The goals arena makes half as many steps as the response arena, so
    that both step percentiles fall among the response arena's samples
    rather than in the gap between the two arenas' step times."""
    rng = random.Random(seed)
    return [_arena(name, sizes.arena_regions, response, rng, steps)
            for name, response, steps in (
                ("arena_goals", False, sizes.arena_steps // 2),
                ("arena_response", True, sizes.arena_steps))]


def arena_pass(arenas: list[Arena], checks: Checks) -> PassResult:
    """Per arena: both classification games, then the strategy game."""
    out = PassResult()
    for a in arenas:
        t0 = clock()
        try:
            sol_p = gr1.solve_game(
                GameGraph(a.regions, a.pess, a.labels, a.env, a.spec),
                extract_strategy=False)
            sol_o = gr1.solve_game(
                GameGraph(a.regions, a.opt, a.labels, a.env, a.spec),
                extract_strategy=False)
            graph = GameGraph(a.regions, a.pess, a.labels, a.env, a.spec)
            sol = gr1.solve_game(graph, extract_strategy=True)
        except Exception:
            out.solve_s[a.name] = [clock() - t0]
            checks.crashed(f"{a.name}: solve")
            continue
        out.solve_s[a.name] = [clock() - t0]
        n_env = len(a.env)
        opt_losing = {r for r in a.regions
                      if all((r, e) not in sol_o.winning for e in range(n_env))}
        checks.check(sol_p.region_winning == a.winning,
                     f"{a.name}: pessimistic winning regions differ")
        checks.check(opt_losing == a.losing,
                     f"{a.name}: optimistic losing regions differ")
        checks.check(sol.region_winning == a.winning,
                     f"{a.name}: strategy game winning regions differ")
        checks.check(gr1.strategy_invariance_check(sol.strategy, graph, sol),
                     f"{a.name}: strategy_invariance_check failed")
        out.step_s += _repeated(
            lambda: _arena_steps(a, sol.strategy, checks))
    return out


def _arena_steps(a: Arena, strategy, checks: Checks
                 ) -> list[tuple[float, bool]]:
    """A control step on an arena is its discrete part: ``strategy.step``
    plus the memory-bit update ``engine.simulate`` makes.  That is shorter
    than a few clock reads, so steps are timed in groups of STEP_GROUP and
    each group's mean is one sample."""
    region = a.start
    bits = a.spec.initial_bits()
    times = []
    try:
        memory = strategy.start(region)
    except Exception:
        checks.crashed(f"{a.name}: strategy start")
        return times
    for g in range(0, len(a.script), STEP_GROUP):
        group = a.script[g:g + STEP_GROUP]
        targets = []
        try:
            n0, t0 = samples_taken(), clock()
            for e in group:
                memory, target = strategy.step(memory, e)
                bits = a.spec.update_bits(bits, a.labels.get(target, ()),
                                          a.env[e])
                targets.append(target)
            times.append(((clock() - t0) / len(group),
                          samples_taken() != n0))
        except Exception:
            checks.crashed(f"{a.name}: strategy step {g + len(targets)}")
            break
        for t, target in enumerate(targets, g):
            checks.check(target in a.pess[region] and target in a.winning,
                         f"{a.name}: strategy step {t} left the winning line")
            region = target
    return times


@dataclass(frozen=True)
class Workload:
    setup: object         # (seed, sizes) -> inputs
    run_pass: object      # (inputs, checks) -> PassResult
    row_prefix: str       # names the per-problem solve-time rows


WORKLOADS = {
    "ladder": Workload(ladder_setup, ladder_pass, "engine.run_s"),
    "coupled": Workload(coupled_setup, coupled_pass, "engine.run_s"),
    "arena": Workload(arena_setup, arena_pass, "arena.solve_s"),
}
