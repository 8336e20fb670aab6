"""A provably unrealizable problem, and the proof the tool returns.

Expanding dynamics s' = 1.5 s + u with |u|_inf <= 1 on [0,4]^2: once any
coordinate exceeds 2 it can never return below 2 (1.5 * 2 - 1 = 2), so
everything outside [0,2]^2 is trapped away from the goal corner.  The
start box [3, 3.5]^2 sits deep inside the trap.  Unlike single-FTS
abstraction tools, the optimistic system here yields a definitive "no
controller exists", not just "none found at this resolution".
"""

import os

from dualsynth import (
    ControlSystem,
    EnvAlphabet,
    RawSpec,
    convert_to_gr1,
    run,
)
from dualsynth.partition import format_region_id, render_svg

sys = ControlSystem.create(
    A=[[1.5, 0], [0, 1.5]], B=[[1, 0], [0, 1]],
    input_set=[[-1, 1], [-1, 1]],
    domain=[[0, 4], [0, 4]], initial_set=[[3, 3.5], [3, 3.5]],
    propositions=[("goal", [[0, 0.5], [0, 0.5]]),
                  ("start", [[3, 3.5], [3, 3.5]])])
env = EnvAlphabet.create([])
spec = convert_to_gr1(RawSpec(guarantees=("goal",), init="start"))

verdict = run(sys, env, spec)
print("verdict:", verdict.outcome)
print("witness (losing boxes meeting the initial set):")
for box in verdict.witness:
    print("  ", box.as_exact_bounds())

triple = verdict.history[-1]
print(f"\nclassification on {len(triple.rows)} cells: "
      f"{len(triple.winning)} winning, {len(triple.maybe)} maybe, "
      f"{len(triple.losing)} losing")
print("every losing cell sits outside [0,2)^2 (a coordinate at >= 2):")
for rid, box, status, _labels in triple.rows:
    if rid in triple.losing:
        assert box.lower[0] >= 2 or box.lower[1] >= 2
print("  checked.")
print("the maybe cells straddle the invariant-set boundary at 2 -- they")
print("are the only cells further refinement would have split.")

out = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(out, exist_ok=True)
path = os.path.join(out, "invariant_partition.svg")
with open(path, "w", encoding="utf-8") as fh:
    fh.write(render_svg(sys.domain, [(format_region_id(r), b, s, l)
                                     for r, b, s, l in triple.rows]))
print("\nwrote", path, "(green goal cell, yellow boundary cells, red trap)")
