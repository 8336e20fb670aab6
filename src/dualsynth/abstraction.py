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
(``_run_queries``): one ``geometry.AxisIndex`` puts every target's
ranges on the unit axes over one common denominator TD, with prefix
bitmasks per sorted position, so a source's axis slabs cut its whole
row of candidates by ``bisect``s and big-int ANDs.  For a relation with
no normal but the axes that is the answer; otherwise only the targets
the axes keep go to ``reach_pessimistic`` / ``reach_optimistic``, the
slab test over every normal.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import reduce
from itertools import product
from operator import or_

from dualsynth.geometry import (
    AxisIndex,
    ControlSystem,
    box_view,
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
    every = range(len(regions))
    _run_queries([forest.nodes[r].box for r in regions], sys,
                 [(i, every) for i in every], pess, opt, stats)
    pair = AbstractionPair(regions=regions,
                           initial_regions=list(forest.initial_leaves()),
                           env=env, pess=pess, opt=opt,
                           iteration=0, query_stats=stats)
    pair.check_invariants()
    logger.info("initial abstraction: %d regions, %d/%d pess/opt edges",
                len(regions), sum(map(len, pess)), sum(map(len, opt)))
    return pair


def _run_queries(boxes, sys, rows, pess, opt, stats):
    """Decide every (source, targets) row of box indices, each row's
    targets ascending, appending each edge to the source's rows of
    ``pess`` and ``opt`` in target order.

    One ``geometry.AxisIndex`` over every target of ``rows`` decides a
    row on the n axis normals at once: the row's candidates as a bitmask
    (one per row object, as ``refine`` shares them), ANDed with the
    targets that meet each of the source's axis slabs, a ``bisect`` and
    two ANDs per slab.  Where a relation has no slab off the axes, as
    with diagonal A and B, that mask is its row; each pessimistic slab
    lies inside the optimistic slab of its normal, so the optimistic mask
    holds the pessimistic one.  Otherwise every target the axes leave
    open goes to ``reach_pessimistic``, and to ``reach_optimistic`` where
    the pessimistic row left it out; both are looked up as this module's
    bindings at call time, and ``QueryStats.slab_pess`` and ``.slab_opt``
    count their calls.
    ``refine`` passes only the targets its pruning rule leaves open; the
    rule and its proof are in ``refine``.
    """
    leaves = list(range(len(boxes)))  # the one int object of each index
    # bit b for target b: the targets' distinct powers of two, summed in C
    candidates = {id(targets): sum(map((1).__lshift__, targets))
                  for _, targets in rows}
    index = AxisIndex(((b, box_view(boxes[b], sys)) for b in mask_items(
        reduce(or_, candidates.values(), 0), leaves)), sys.n)
    n = sys.n
    for a, targets in rows:
        X = boxes[a]
        p_slabs, o_slabs = box_view(X, sys).slabs
        row = candidates[id(targets)]
        open_pess = index.passing(p_slabs, row)
        open_opt = index.passing(o_slabs, row)  # holds open_pess
        if len(p_slabs) == n:
            p_row = mask_items(open_pess, leaves)
        else:
            p_row = [b for b in mask_items(open_pess, leaves)
                     if reach_pessimistic(X, boxes[b], sys)]
            stats.slab_pess += open_pess.bit_count()
        if len(o_slabs) == n:
            o_row = mask_items(open_opt, leaves)
        else:
            edges = set(p_row)
            o_row = [b for b in mask_items(open_opt, leaves)
                     if b in edges or reach_optimistic(X, boxes[b], sys)]
            stats.slab_opt += open_opt.bit_count() - len(p_row)
        pess[a] += p_row
        opt[a] += o_row
        stats.issued_pess += len(targets)
        stats.issued_opt += len(targets) - len(p_row)


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
    AbstractionError.  Each row is expanded from an old index row run by
    run, in ascending order: winning targets for a winning row (a leaf
    never split), non-losing ones for an undecided row.
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

    def expand(row, keep):
        return [b for t in row for b in range(at[t], at[t + 1]) if keep[b]]

    n_targets = sum(live)
    rows = []
    for p, (lo, hi) in enumerate(zip(at, at[1:])):
        if winning[lo]:
            # copy the old pessimistic relation, in both systems
            pess[lo] = expand(pair.pess[p], winning)
            opt[lo] = list(pess[lo])
        elif live[lo]:
            # the non-losing new leaves of the old optimistic row
            row = expand(pair.opt[p], live)
            stats.pruned += (hi - lo) * (n_targets - len(row))
            rows.extend((a, row) for a in range(lo, hi))
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
