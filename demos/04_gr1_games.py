"""Solving a GR(1) game on an explicit graph, with and without memory.

The winning condition is (and-i []<> p_i) -> (and-j []<> q_j): if every
assumption holds infinitely often, every guarantee must too.  The solver
returns the largest winning set and a finite-memory strategy; response
obligations ("whenever park, eventually lot") compile into one memory
bit each before solving.
"""

from dualsynth import (
    GameGraph,
    RawSpec,
    check_lasso,
    convert_to_gr1,
    solve_game,
    strategy_invariance_check,
)

# two rooms: 0 is "home", 1 is the parking "lot"; the environment may
# raise "park" at any moment and the controller must eventually serve it
spec = convert_to_gr1(RawSpec(guarantees=("home",),
                              responses=(("park", "lot"),)))
print("converted spec:")
print("  guarantees:", len(spec.guarantees), "(recurrence)")
print("  memory bits:", list(spec.bit_names))

# succ[i] lists the indices into regions of the successors of regions[i]
graph = GameGraph(
    regions=[0, 1],
    succ=[[0, 1], [0, 1]],
    labels={0: {"home"}, 1: {"lot"}},
    env_valuations=[{"park": False}, {"park": True}],
    spec=spec)

solution = solve_game(graph)
print("\nwinning game states:", sorted(solution.winning))
print("strategy memory states:", len(solution.strategy.memory_states))
assert strategy_invariance_check(solution.strategy, graph, solution)
print("invariance check: plays never leave the winning set")

# drive the strategy by hand: park raised once at step 2
memory = solution.strategy.start(0)
trace = []
for t, park in enumerate([0, 0, 1, 0, 0, 0]):
    memory, region = solution.strategy.step(memory, park)
    trace.append((t, bool(park), region))
print("\nplay (env park, next room):")
for t, park, region in trace:
    print(f"  t={t}  park={park}  -> room {region}")

# lasso acceptance: a cycle visiting home with the pending bit cleared
cycle = [(frozenset({"home"}), {"park": False}, {"pending_park": False})]
print("\nlasso [home, no pending request] accepted:",
      check_lasso([], cycle, spec))
cycle_bad = [(frozenset(), {"park": True}, {"pending_park": True})]
print("lasso [pending request never served] accepted:",
      check_lasso([], cycle_bad, spec))
