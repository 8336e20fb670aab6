"""The proposition-preserving partition and how refinement evolves it.

The initial partition is the axis grid induced by the labeled regions,
so every cell has one consistent label set.  Refinement never touches
solved cells: winning and losing leaves stay leaves under their own ids,
with their status, while undecided leaves are split into equal sub-boxes.
"""

import os

from dualsynth import ControlSystem, Status, advance_iteration, initial_partition, locate
from dualsynth.partition import format_region_id, partition_to_svg, split_box
from dualsynth.geometry import Box

sys = ControlSystem.create(
    A=[[1, 0], [0, 1]], B=[[1, 0], [0, 1]],
    input_set=[[-1, 1], [-1, 1]],
    domain=[[0, 3], [0, 2]], initial_set=[[0, 3], [0, 2]],
    propositions=[("home", [[0, 1], [0, 1]]), ("lot", [[2, 3], [1, 2]])])

forest = initial_partition(sys)
print(f"initial partition: {len(forest.leaves)} leaves")
for rid in forest.leaves:
    labels = ",".join(sorted(forest.labels(rid))) or "-"
    print(f"  {format_region_id(rid):>6}  {forest.box(rid)}  [{labels}]")

print("\nlocate((0.5, 0.5)) ->", format_region_id(locate(forest, (0.5, 0.5))),
      "which carries", set(forest.labels(locate(forest, (0.5, 0.5)))))

# split_box cuts a box into m equal sub-boxes, slicing longest sides first
print("\nsplit_3 of a 4.5 x 1 strip:",
      [str(b) for b in split_box(Box.from_bounds([[0, 4.5], [1, 2]]), 3)])

# pretend the solver classified the leaves, then refine
leaves = list(forest.leaves)
for rid in leaves:
    forest.set_status(rid, Status.WINNING if rid == leaves[0] else
                      Status.LOSING if rid == leaves[5] else Status.MAYBE)
advance_iteration(forest, m=4)
print(f"\nafter one refinement round: {len(forest.leaves)} leaves "
      f"(winning {format_region_id(leaves[0])} and losing "
      f"{format_region_id(leaves[5])} kept, 4x4 unexplored maybe children)")

out = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(out, exist_ok=True)
path = os.path.join(out, "partition_after_split.svg")
with open(path, "w", encoding="utf-8") as fh:
    fh.write(partition_to_svg(forest))
print("wrote", path)
