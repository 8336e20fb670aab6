"""Pessimistic / optimistic finite abstractions of one control system.

Both transition systems share the partition-leaf x environment state set.
A pessimistic edge means every point of the source region has an input
landing in the target region; an optimistic edge means some point does.
The environment component is a free adversary: an edge between regions
exists for every pair of environment valuations, because nothing in the
dynamics constrains the environment.

Refinement reads the partition leaves' statuses and recomputes as little
as possible: edges between winning leaves are copied from the previous
pessimistic relation (in both systems), and losing leaves keep no edges at
all, which is what keeps them losing.  Edges out of undecided leaves are
recomputed, but only towards the targets the previous optimistic relation
leaves open: a pair the previous relation rules out is false in both new
relations and is counted as pruned instead of queried.

The queries of one build or refine step are decided a row at a time
(``_run_queries``), each row's candidates one bitmask (bit b for leaf
b).  ``refine`` builds a parent's mask once, for all its children, as
the union of one run mask per target of the parent's old optimistic
row, since the children of an old leaf are one index run; the batch
then fills the views of its sources and targets in one pass
(``geometry.fill_views``).  One ``geometry.AxisIndex`` puts every
target's ranges on the unit axes over one common denominator TD, with
prefix bitmasks per sorted position, so a source's axis slabs cut its
whole mask by ``bisect``s and big-int ANDs.  For a relation with no
normal but the axes that is the answer; otherwise only the targets the
axes keep go to ``reach_pessimistic`` / ``reach_optimistic``, the slab
test over every normal.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import reduce
from itertools import compress, product
from operator import or_

from dualsynth.geometry import (
    AxisIndex,
    ControlSystem,
    fill_views,
    mask_items,
    reach_optimistic,
    reach_pessimistic,
)
from dualsynth.partition import (
    PartitionForest,
    RegionId,
    Status,
    format_region_id,
)

logger = logging.getLogger(__name__)


class AbstractionError(ValueError):
    pass


def repeated_value(values) -> int | None:
    """The index of the first value equal to an earlier one, or None.
    Formulas compare values with ``==``, so two equal values (1 and True,
    0 and 0.0) would be one valuation twice."""
    return next((k for k, v in enumerate(values) if v in values[:k]), None)


@dataclass(frozen=True)
class EnvAlphabet:
    """Finite environment variables; at least one (possibly dummy) valuation."""

    variables: tuple[tuple[str, tuple], ...] = ()

    @staticmethod
    def create(variables) -> "EnvAlphabet":
        out = []
        seen = set()
        for name, values in variables:
            values = tuple(values)
            if not values:
                raise AbstractionError(f"environment variable {name!r} needs "
                                       f"a nonempty finite domain")
            if name in seen:
                raise AbstractionError(f"duplicate environment variable {name!r}")
            k = repeated_value(values)
            if k is not None:
                raise AbstractionError(f"environment variable {name!r}: value "
                                       f"{values[k]!r} equals an earlier value")
            seen.add(name)
            out.append((name, values))
        return EnvAlphabet(tuple(out))

    @property
    def valuations(self) -> list[dict]:
        if not self.variables:
            return [{}]
        names = [n for n, _ in self.variables]
        domains = [vs for _, vs in self.variables]
        return [dict(zip(names, combo)) for combo in product(*domains)]

    def __len__(self) -> int:
        n = 1
        for _, vs in self.variables:
            n *= len(vs)
        return n


@dataclass
class QueryStats:
    """Reachability-query accounting for one build or refine step."""
    issued_pess: int = 0
    issued_opt: int = 0  # made only where the pessimistic query failed
    pruned: int = 0     # undecided-row pairs the previous relation decided
    # issued queries the axis index left open, decided by reach_*
    slab_pess: int = 0
    slab_opt: int = 0
    n_states: int = 0

    @property
    def issued(self) -> int:
        return self.issued_pess + self.issued_opt

    @property
    def naive(self) -> int:
        return 2 * self.n_states * self.n_states


@dataclass
class AbstractionPair:
    """The two FTSs of one iteration, on leaves x environment valuations.

    ``pess[i]`` and ``opt[i]`` list the targets of ``regions[i]``, the
    leaves in path order, as ascending indices; ``pess_edges`` and
    ``opt_edges`` are id views.  The environment blow-up is uniform by
    construction and never materialized.
    """

    regions: list[RegionId]
    initial_regions: list[RegionId]
    env: EnvAlphabet
    pess: list[list[int]]
    opt: list[list[int]]
    iteration: int = 0
    query_stats: QueryStats = field(default_factory=QueryStats)

    def _ids(self, rows) -> dict[RegionId, list[RegionId]]:
        ids = self.regions
        return {a: [ids[j] for j in row] for a, row in zip(ids, rows)}

    @property
    def pess_edges(self) -> dict[RegionId, list[RegionId]]:
        return self._ids(self.pess)

    @property
    def opt_edges(self) -> dict[RegionId, list[RegionId]]:
        return self._ids(self.opt)

    def pess_pairs(self):
        return [(a, b) for a, outs in self.pess_edges.items() for b in outs]

    def opt_pairs(self):
        return [(a, b) for a, outs in self.opt_edges.items() for b in outs]

    def check_invariants(self) -> None:
        """Every pessimistic edge is an optimistic one, checked row by
        row; a row that equals its optimistic row, as every winning row
        does, costs one list comparison."""
        if not len(self.pess) == len(self.opt) == len(self.regions):
            raise AssertionError("each FTS must have one row per region")
        for outs, row in zip(self.pess, self.opt):
            if outs != row and not set(outs).issubset(row):
                raise AssertionError("pessimistic edges must be a subset of "
                                     "optimistic edges")

    def to_dot(self) -> str:
        lines = ["digraph abstraction {"]
        initial = set(self.initial_regions)
        for r in self.regions:
            shape = "doublecircle" if r in initial else "circle"
            lines.append(f'  "{format_region_id(r)}" [shape={shape}];')
        pess = set(self.pess_pairs())
        for a, b in sorted(pess):
            lines.append(f'  "{format_region_id(a)}" -> '
                         f'"{format_region_id(b)}";')
        for a, b in self.opt_pairs():
            if (a, b) not in pess:
                lines.append(f'  "{format_region_id(a)}" -> '
                             f'"{format_region_id(b)}" [style=dashed];')
        lines.append("}")
        return "\n".join(lines)


def build_initial(forest: PartitionForest, sys: ControlSystem,
                  env: EnvAlphabet) -> AbstractionPair:
    """Reachability analysis over every ordered pair of initial leaves."""
    if forest.iteration != 0:
        raise AbstractionError("build_initial expects an unrefined partition")
    regions = list(forest.leaves)
    stats = QueryStats(n_states=len(regions))
    pess = [[] for _ in regions]
    opt = [[] for _ in regions]
    every = (1 << len(regions)) - 1
    _run_queries([forest.nodes[r].box for r in regions], sys,
                 [(i, every) for i in range(len(regions))], pess, opt, stats)
    pair = AbstractionPair(regions=regions,
                           initial_regions=list(forest.initial_leaves()),
                           env=env, pess=pess, opt=opt,
                           iteration=0, query_stats=stats)
    pair.check_invariants()
    logger.info("initial abstraction: %d regions, %d/%d pess/opt edges",
                len(regions), sum(map(len, pess)), sum(map(len, opt)))
    return pair


def _run_queries(boxes, sys, rows, pess, opt, stats):
    """Decide every (source, candidates) row of box indices, each row's
    candidates a bitmask (bit b for box b), appending each edge to the
    source's rows of ``pess`` and ``opt`` in ascending target order.

    Before the rows, one pass fills the views of the batch
    (``geometry.fill_views``): the ranges of every target, any row's
    candidate, and the slabs of every source, each computed only where
    the box's view does not hold it yet.  One ``geometry.AxisIndex``
    over the targets' ranges then decides a row on the n axis normals
    at once: the row's mask ANDed with the targets that meet each of the
    source's axis slabs, a ``bisect`` and two ANDs per slab.  Where a
    relation has no slab off the axes, as with diagonal A and B, that
    mask is its row; each pessimistic slab lies inside the optimistic
    slab of its normal, so the optimistic mask holds the pessimistic
    one, and where the two are equal the row is listed once.  Otherwise
    every target the axes leave open goes to ``reach_pessimistic``, and
    to ``reach_optimistic`` where the pessimistic row left it out; both
    are looked up as this module's bindings at call time, and
    ``QueryStats.slab_pess`` and ``.slab_opt`` count their calls.
    ``refine`` passes only the candidates its pruning rule leaves open;
    the rule and its proof are in ``refine``.
    """
    leaves = list(range(len(boxes)))  # the one int object of each index
    targets = mask_items(reduce(or_, [row for _, row in rows], 0), leaves)
    index = AxisIndex(zip(targets, fill_views(
        [boxes[b] for b in targets], sys, "ranges")), sys.n)
    slabs = fill_views([boxes[a] for a, _ in rows], sys, "slabs")
    n = sys.n
    issued_pess = issued_opt = slab_pess = slab_opt = 0
    for (a, row), (p_slabs, o_slabs) in zip(rows, slabs):
        open_pess = index.passing(p_slabs, row)
        open_opt = index.passing(o_slabs, row)  # holds open_pess
        pess_on_axes = len(p_slabs) == n
        if pess_on_axes:
            p_row = mask_items(open_pess, leaves)
        else:
            X = boxes[a]
            p_row = [b for b in mask_items(open_pess, leaves)
                     if reach_pessimistic(X, boxes[b], sys)]
            slab_pess += open_pess.bit_count()
        if pess_on_axes and open_opt == open_pess:
            o_row = p_row  # every open target is a pessimistic edge
        elif len(o_slabs) == n:
            o_row = mask_items(open_opt, leaves)
        else:
            X = boxes[a]
            edges = set(p_row)
            o_row = [b for b in mask_items(open_opt, leaves)
                     if b in edges or reach_optimistic(X, boxes[b], sys)]
            slab_opt += open_opt.bit_count() - len(p_row)
        pess[a] += p_row
        opt[a] += o_row
        count = row.bit_count()
        issued_pess += count
        issued_opt += count - len(p_row)
    stats.issued_pess += issued_pess
    stats.issued_opt += issued_opt
    stats.slab_pess += slab_pess
    stats.slab_opt += slab_opt


def refine(pair: AbstractionPair, forest: PartitionForest,
           sys: ControlSystem) -> AbstractionPair:
    """Next-iteration FTS pair, read off the leaves' statuses.

    Pessimistic edges: copies of the old pessimistic relation between
    winning leaves, recomputed universal reachability from undecided
    leaves to winning and undecided ones.  Optimistic edges: the same
    copied pessimistic edges between winning leaves (deliberately not the
    old optimistic ones), recomputed existential reachability for the
    undecided rows.  Losing leaves get no edges in either system.

    An undecided row a is queried only against the targets b with P(b)
    in the old optimistic row of P(a), where P(r) is the previous leaf
    holding r (r itself, or its parent after a split).  Every other pair
    is false in both relations:

    - b lies in P(b) and a in P(a), so opt(a, b) implies opt(P(a), P(b));
    - P(a) was undecided when its row was built, so that row was queried
      against every leaf that is still non-losing, P(b) among them;
    - pess(a, b) implies opt(a, b).

    Those pairs are counted in ``QueryStats.pruned``.  The old and new
    leaves are sorted paths, and a child's path extends its parent's, so
    the new leaves of old leaf p are one index run ``[at[p], at[p+1])``,
    found in one merge walk; a walk that leaves an old leaf without a run
    or new leaves over, as on a forest of another problem, raises
    AbstractionError.  A winning row (a leaf never split) is expanded
    from the old pessimistic row run by run, as a list of its winning
    targets in ascending order.  An undecided parent's candidates are
    one bitmask, the sum of the run masks
    ``((1 << (at[t+1] - at[t])) - 1) << at[t]`` of its old optimistic
    targets t (disjoint, so the sum is their union) ANDed with the mask
    of non-losing leaves; its children share it, and ``bit_count`` gives
    the pruned pairs.
    """
    if forest.iteration != pair.iteration + 1:
        raise AbstractionError(
            f"forest at iteration {forest.iteration} cannot refine an "
            f"abstraction at iteration {pair.iteration}")
    regions = list(forest.leaves)
    at, k = [0], 0
    for q in pair.regions:
        while k < len(regions) and (regions[k] == q or regions[k][:-1] == q):
            k += 1
        at.append(k)
    if k != len(regions) or len(set(at)) != len(at):
        raise AbstractionError("the forest's leaves are not the "
                               "abstraction's leaves and their children")
    nodes = forest.nodes
    winning = [nodes[r].status is Status.WINNING for r in regions]
    live = [nodes[r].status is not Status.LOSING for r in regions]
    stats = QueryStats(n_states=len(regions))
    pess = [[] for _ in regions]
    opt = [[] for _ in regions]

    # the new leaves of old leaf t as a mask, and the non-losing leaves
    runs = [((1 << (hi - lo)) - 1) << lo for lo, hi in zip(at, at[1:])]
    live_mask = sum(map((1).__lshift__, compress(range(len(live)), live)))
    n_targets = live_mask.bit_count()
    pruned = 0
    rows = []
    for p, (lo, hi) in enumerate(zip(at, at[1:])):
        if winning[lo]:
            # copy the old pessimistic relation, in both systems
            pess[lo] = [b for t in pair.pess[p]
                        for b in range(at[t], at[t + 1]) if winning[b]]
            opt[lo] = list(pess[lo])
        elif live[lo]:
            # the non-losing new leaves of the old optimistic row; the
            # runs are disjoint, so their sum is their union
            row = sum(map(runs.__getitem__, pair.opt[p])) & live_mask
            pruned += (hi - lo) * (n_targets - row.bit_count())
            rows.extend((a, row) for a in range(lo, hi))
    stats.pruned = pruned
    _run_queries([nodes[r].box for r in regions], sys, rows, pess, opt,
                 stats)

    out = AbstractionPair(regions=regions,
                          initial_regions=list(forest.initial_leaves()),
                          env=pair.env, pess=pess, opt=opt,
                          iteration=pair.iteration + 1, query_stats=stats)
    out.check_invariants()
    logger.info("refined abstraction: %d regions, %d queries issued, %d "
                "pairs pruned (%d saved vs naive)", len(regions),
                stats.issued, stats.pruned,
                reachability_queries_saved(out))
    return out


def reachability_queries_saved(pair: AbstractionPair) -> int:
    """Queries a naive all-pairs rebuild would have issued but we did not."""
    return pair.query_stats.naive - pair.query_stats.issued
