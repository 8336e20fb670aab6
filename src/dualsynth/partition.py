"""Proposition-preserving partition of the domain, kept as a forest.

Roots are the cells of the initial axis grid (induced by every
proposition region's coordinates).  Each refinement round splits the
undecided (maybe) leaves into ``m`` interior-disjoint children that
inherit the parent's labels.  Solved leaves (winning or losing) stay
leaves under their own ids and keep the status the engine gave them, as
do maybe leaves too small to split.  Region ids are root-to-leaf index
paths, so the whole history stays addressable.

The layer decides on the integer kernel of ``geometry``: every box test
(``Box.contains_box`` and ``Box.overlaps_interior`` for labels and
initial flags, ``Box.holds`` for ``locate``), the choice of the axes to
cut (``_split_counts``) and the ``min_cell`` tests cross-multiply the
integer bounds of ``Box.ints``.  Its only ``Fraction`` arithmetic builds
the cut points of a split, once per axis, shared by every child; the
split hands each child its ``Box.ints`` as well, read off the same cuts
in integers, so no child converts its bounds back.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import product

from dualsynth.geometry import (
    Box,
    ControlSystem,
    _integers,
    drop_view,
    to_fraction,
)

logger = logging.getLogger(__name__)

RegionId = tuple[int, ...]


class PartitionError(ValueError):
    pass


class Status(str, Enum):
    WINNING = "winning"
    LOSING = "losing"
    MAYBE = "maybe"
    UNEXPLORED = "unexplored"


def format_region_id(rid: RegionId) -> str:
    return ".".join(str(i) for i in rid)


def parse_region_id(text: str) -> RegionId:
    return tuple(int(p) for p in text.split("."))


@dataclass
class Node:
    box: Box
    children: list[RegionId] = field(default_factory=list)
    status: Status = Status.UNEXPLORED
    labels: frozenset[str] = frozenset()
    initial: bool = False


@dataclass
class PartitionForest:
    domain: Box
    nodes: dict[RegionId, Node]
    roots: list[RegionId]           # sorted by path
    leaves: list[RegionId]          # current layer, sorted by path
    initial_set: Box
    iteration: int = 0

    def box(self, rid: RegionId) -> Box:
        return self.nodes[rid].box

    def labels(self, rid: RegionId) -> frozenset[str]:
        return self.nodes[rid].labels

    def status(self, rid: RegionId) -> Status:
        return self.nodes[rid].status

    def set_status(self, rid: RegionId, status: Status) -> None:
        self.nodes[rid].status = status

    def initial_leaves(self) -> list[RegionId]:
        return [r for r in self.leaves if self.nodes[r].initial]


def _axis_cuts(domain: Box, boxes) -> list[list[Fraction]]:
    # every proposition region lies inside the domain (``ControlSystem``
    # checks it), so its bounds are the grid's cuts
    return [sorted({domain.lower[d], domain.upper[d],
                    *(v for b in boxes for v in (b.lower[d], b.upper[d]))})
            for d in range(domain.dim)]


def initial_partition(sys: ControlSystem) -> PartitionForest:
    """Coarsest box partition refining every proposition boundary.

    The grid induced by the proposition regions' axis coordinates is
    canonical and reproducible; each cell's label set is decided by exact
    containment.
    """
    regions = [box for _name, box in sys.proposition_regions]
    cuts = _axis_cuts(sys.domain, regions)
    axis_intervals = [list(zip(c, c[1:])) for c in cuts]
    nodes: dict[RegionId, Node] = {}
    roots: list[RegionId] = []
    for idx, cell in enumerate(product(*axis_intervals)):
        box = Box(tuple(lo for lo, _ in cell), tuple(hi for _, hi in cell))
        labels = set()
        for name, region in sys.proposition_regions:
            if region.contains_box(box):
                labels.add(name)
            elif region.overlaps_interior(box):
                raise PartitionError(
                    f"axis grid does not resolve proposition {name!r} on cell "
                    f"{box}; region boundaries must be axis-aligned")
        rid: RegionId = (idx,)
        nodes[rid] = Node(box=box, labels=frozenset(labels),
                          initial=box.overlaps_interior(sys.initial_set))
        roots.append(rid)
    forest = PartitionForest(domain=sys.domain, nodes=nodes, roots=roots,
                             leaves=list(roots),
                             initial_set=sys.initial_set)
    logger.debug("initial partition: %d leaves", len(roots))
    return forest


def _split_counts(box: Box, m: int) -> list[int]:
    """Per-axis slice counts with product m, longest effective side first.

    Each prime factor of m, largest first, goes to the axis of the widest
    slice, the lowest such axis on a tie: w_a / c_a > w_b / c_b exactly
    when w_a c_b > w_b c_a, on the integer widths of ``Box.ints``.
    """
    if m < 1:
        raise PartitionError("split count must be >= 1")
    counts = [1] * box.dim
    factors = []
    k, p = m, 2
    while p * p <= k:
        while k % p == 0:
            factors.append(p)
            k //= p
        p += 1
    if k > 1:
        factors.append(k)
    lows, highs, _d = box.ints
    widths = [hi - lo for lo, hi in zip(lows, highs)]
    for f in sorted(factors, reverse=True):
        axis = 0
        for d in range(1, box.dim):
            if widths[d] * counts[axis] > widths[axis] * counts[d]:
                axis = d
        if widths[axis] == 0:
            raise PartitionError(f"cannot split degenerate box {box} into {m}")
        counts[axis] *= f
    return counts


def _slices(box: Box, counts: list[int]) -> list[Box]:
    """The boxes cutting axis i of ``box`` into counts[i] equal slices,
    the first axis varying slowest.

    Each axis's k + 1 cut points lo + i (hi - lo) / k are built once, on
    the integers (lows, highs, d) of ``Box.ints``, in two forms: as
    ``Fraction``s (lo k + i (hi - lo)) / (d k), which every child shares
    (an uncut axis keeps the box's own bounds), and as integer
    numerators over the common denominator den = d prod(counts).  Each
    child is handed its ``Box.ints`` (``Box._exact``): its numerators
    over den divided by g = gcd(den, numerators), which leaves them over
    den / g, the least common denominator of its bounds, as
    ``_integers`` gives.
    """
    lows, highs, d = box.ints
    total = math.prod(counts)
    den = d * total
    axis_slices = []
    for k, lo, hi, first, last in zip(counts, lows, highs, box.lower,
                                      box.upper):
        step = (hi - lo) * (total // k)  # a slice's width over den
        nums = [lo * total + i * step for i in range(k + 1)]
        cuts = [first, *(Fraction(lo * k + i * (hi - lo), d * k)
                         for i in range(1, k)), last]
        axis_slices.append(list(zip(cuts, cuts[1:], nums, nums[1:])))
    exact = Box._exact
    children = []
    for cell in product(*axis_slices):
        lower, upper, nlo, nhi = zip(*cell)
        g = math.gcd(den, *nlo, *nhi)
        if g != 1:
            nlo = tuple([v // g for v in nlo])
            nhi = tuple([v // g for v in nhi])
        children.append(exact(lower, upper, (nlo, nhi, den // g)))
    return children


def split_box(box: Box, m: int) -> list[Box]:
    """m interior-disjoint equal-volume sub-boxes covering ``box``."""
    return _slices(box, _split_counts(box, m))


def _attach(forest: PartitionForest, region: RegionId,
            boxes: list[Box]) -> list[RegionId]:
    """Make ``boxes`` the children of leaf ``region``, with its labels.

    A child is initial when it meets the initial set with positive
    measure, which needs its parent to (``overlaps_interior`` only grows
    with its box), so the children of a parent that is not initial are
    not tested.
    """
    node = forest.nodes[region]
    for j, cbox in enumerate(boxes, start=1):
        cid = region + (j,)
        forest.nodes[cid] = Node(
            box=cbox, labels=node.labels,
            initial=node.initial and
            cbox.overlaps_interior(forest.initial_set))
        node.children.append(cid)
    return list(node.children)


def split(forest: PartitionForest, region: RegionId, m: int) -> list[RegionId]:
    """Split a Maybe leaf into m children; returns child ids in order."""
    node = forest.nodes[region]
    if node.children:
        raise PartitionError(f"{format_region_id(region)} is not a leaf")
    if node.status in (Status.WINNING, Status.LOSING):
        raise PartitionError(
            f"refusing to split solved leaf {format_region_id(region)}")
    return _attach(forest, region, split_box(node.box, m))


def _max_cells(box: Box, p: int, q: int) -> int | float:
    """An upper bound on the children of ``box`` that stay p / q wide
    (``min_cell``): an axis cut into c > 1 slices has c <= width / min_cell,
    that is floor(w q / (d p)) on the integers of ``Box.ints``."""
    if not p:
        return math.inf
    lows, highs, d = box.ints
    return math.prod(max(1, (hi - lo) * q // (d * p))
                     for lo, hi in zip(lows, highs))


def advance_iteration(forest: PartitionForest, m: int,
                      min_cell: Fraction | float = 0) -> bool:
    """Split every maybe leaf whose children stay at least ``min_cell`` wide.

    Solved leaves, and maybe leaves too small to split, stay leaves under
    their own ids.  A leaf that cannot hold m children that wide
    (``_max_cells``) stays a leaf before m is factored.  Every width test
    is an integer cross-multiplication over ``Box.ints`` and min_cell's
    numerator and denominator.  Returns whether any leaf was split; a leaf
    the engine never classified raises PartitionError.
    """
    min_cell = Fraction(min_cell)
    p, q = min_cell.numerator, min_cell.denominator
    new_leaves: list[RegionId] = []
    for rid in forest.leaves:
        node = forest.nodes[rid]
        if node.status is Status.UNEXPLORED:
            raise PartitionError(
                f"leaf {format_region_id(rid)} was never classified")
        if node.status is Status.MAYBE and \
                1 < m <= _max_cells(node.box, p, q):
            counts = _split_counts(node.box, m)
            lows, highs, d = node.box.ints
            # a slice (hi - lo) / (d c) wide is at least p / q wide
            if all((hi - lo) * q >= p * d * c
                   for lo, hi, c in zip(lows, highs, counts) if c > 1):
                new_leaves.extend(_attach(forest, rid,
                                          _slices(node.box, counts)))
                drop_view(node.box)  # only leaves and targets are viewed
                continue
        new_leaves.append(rid)
    split_any = len(new_leaves) > len(forest.leaves)
    forest.leaves = sorted(new_leaves)
    forest.iteration += 1
    logger.debug("iteration %d: %d leaves", forest.iteration, len(forest.leaves))
    return split_any


def locate(forest: PartitionForest, point) -> RegionId:
    """The unique current leaf containing the point.

    The point is put over one denominator once and every box test is
    ``Box.holds``.  Boundary ties resolve to the lexicographically
    smallest region path, which the scan of the sorted roots and of each
    node's children in order yields for free.  A point that no root, or
    no child of the node holding it, contains raises PartitionError.
    """
    pt = tuple(map(to_fraction, point))
    xs, xd = _integers(pt)
    if len(pt) != forest.domain.dim or not forest.domain.holds(xs, xd):
        raise PartitionError(f"point {_point_text(pt)} lies outside the "
                             f"domain")
    nodes = forest.nodes
    rid, level = None, forest.roots
    while level:
        rid = next((r for r in level if nodes[r].box.holds(xs, xd)), None)
        level = nodes[rid].children if rid is not None else ()
    if rid is None:
        raise PartitionError(f"no region of the partition holds point "
                             f"{_point_text(pt)}")
    return rid


def _point_text(pt) -> str:
    return "(" + ", ".join(map(str, pt)) + ")"


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

_STATUS_COLORS = {
    Status.WINNING: "#2ca02c",
    Status.MAYBE: "#ffd92f",
    Status.LOSING: "#d62728",
    Status.UNEXPLORED: "#c7c7c7",
}


def partition_to_json(rows) -> list[dict]:
    """JSON rows of labeled status boxes; ``rows`` holds (id, Box, Status,
    labels), as for ``render_svg``."""
    return [{"region_id": format_region_id(rid),
             "box": box.as_exact_bounds(),
             "status": status.value,
             "labels": sorted(labels)} for rid, box, status, labels in rows]


def render_svg(domain: Box, rows, width: int = 480) -> str:
    """SVG of labeled status boxes; ``rows`` holds (id, Box, Status, labels)."""
    if domain.dim != 2:
        raise PartitionError("SVG export is only available for 2-D domains")
    (x0, y0), (x1, y1) = domain.lower, domain.upper
    w = float(x1 - x0)
    h = float(y1 - y0)
    scale = width / w
    height = h * scale
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height:.1f}" viewBox="0 0 {width} {height:.1f}">'
    ]
    for rid, box, status, labels in rows:
        bx0 = (float(box.lower[0]) - float(x0)) * scale
        bw = float(box.upper[0] - box.lower[0]) * scale
        bh = float(box.upper[1] - box.lower[1]) * scale
        # flip y so the origin sits bottom-left
        by0 = height - ((float(box.lower[1]) - float(y0)) * scale + bh)
        color = _STATUS_COLORS[status]
        label = ",".join(sorted(labels))
        name = rid if isinstance(rid, str) else format_region_id(rid)
        title = name + (f" [{label}]" if label else "")
        parts.append(
            f'<rect x="{bx0:.2f}" y="{by0:.2f}" width="{bw:.2f}" '
            f'height="{bh:.2f}" fill="{color}" stroke="black" '
            f'stroke-width="0.8"><title>{title}</title></rect>')
    parts.append("</svg>")
    return "\n".join(parts)


def partition_to_svg(forest: PartitionForest, width: int = 480) -> str:
    """SVG rendering of the current leaves (2-D partitions only)."""
    rows = [(rid, forest.nodes[rid].box, forest.nodes[rid].status,
             forest.nodes[rid].labels) for rid in forest.leaves]
    return render_svg(forest.domain, rows, width)
