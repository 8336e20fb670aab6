import math
import time
from fractions import Fraction

import numpy as np
import pytest

from dualsynth.geometry import (
    Box,
    ControlSystem,
    GeometryError,
    _integers,
    box_view,
    drop_view,
)
from dualsynth.partition import (
    PartitionError,
    Status,
    _split_counts,
    advance_iteration,
    format_region_id,
    initial_partition,
    locate,
    parse_region_id,
    partition_to_json,
    partition_to_svg,
    split,
    split_box,
)

from oracles import (
    box_volume,
    contains_box_plain,
    overlaps_interior_plain,
    split_box_plain,
    split_counts_plain,
)


def park_system():
    return ControlSystem.create(
        A=[[1, 0], [0, 1]], B=[[1, 0], [0, 1]],
        input_set=[[-1, 1], [-1, 1]],
        domain=[[0, 3], [0, 2]], initial_set=[[0, 3], [0, 2]],
        propositions=[("home", [[0, 1], [0, 1]]), ("lot", [[2, 3], [1, 2]])])


def goal_system():
    return ControlSystem.create(
        A=[[1.5, 0], [0, 1.5]], B=[[1, 0], [0, 1]],
        input_set=[[-1, 1], [-1, 1]],
        domain=[[0, 4], [0, 4]], initial_set=[[3, 3.5], [3, 3.5]],
        propositions=[("goal", [[0, 0.5], [0, 0.5]]),
                      ("start", [[3, 3.5], [3, 3.5]])])


class TestInitialPartition:
    def test_park_grid_has_six_labeled_leaves(self):
        forest = initial_partition(park_system())
        assert len(forest.leaves) == 6
        labeled = {tuple(sorted(forest.labels(r))) for r in forest.leaves}
        assert ("home",) in labeled and ("lot",) in labeled
        homes = [r for r in forest.leaves if "home" in forest.labels(r)]
        lots = [r for r in forest.leaves if "lot" in forest.labels(r)]
        assert len(homes) == 1 and len(lots) == 1
        assert forest.box(homes[0]).as_exact_bounds() == [["0", "1"], ["0", "1"]]

    def test_no_propositions_single_leaf(self):
        sys = ControlSystem.create(
            A=[[1]], B=[[1]], input_set=[[-1, 1]],
            domain=[[0, 5]], initial_set=[[0, 1]])
        forest = initial_partition(sys)
        assert len(forest.leaves) == 1
        assert forest.labels(forest.leaves[0]) == frozenset()

    def test_goal_start_grid(self):
        # cuts at x,y in {0.5, 3, 3.5} make a 4x4 grid
        forest = initial_partition(goal_system())
        assert len(forest.leaves) == 16
        # proposition preservation, checked directly on the coordinates
        sys = goal_system()
        for rid in forest.leaves:
            box = forest.box(rid)
            for name, region in sys.proposition_regions:
                if name in forest.labels(rid):
                    assert region.contains_box(box)
                else:
                    assert not region.overlaps_interior(box)

    def test_initial_flags_positive_measure_only(self):
        forest = initial_partition(goal_system())
        init = forest.initial_leaves()
        assert len(init) == 1
        assert forest.box(init[0]).as_exact_bounds() == [["3", "7/2"],
                                                          ["3", "7/2"]]

    def test_volume_conservation(self):
        for sys in (park_system(), goal_system()):
            forest = initial_partition(sys)
            total = sum(box_volume(forest.box(r)) for r in forest.leaves)
            assert total == box_volume(sys.domain)


class TestSplit:
    def test_quadrant_split(self):
        boxes = split_box(Box.from_bounds([[0, 1], [0, 1]]), 4)
        assert len(boxes) == 4
        assert sum(box_volume(b) for b in boxes) == 1
        assert all(b.widths() == (Fraction(1, 2), Fraction(1, 2)) for b in boxes)

    def test_split3_equal_rectangles(self):
        boxes = split_box(Box.from_bounds([[0, 4.5], [1, 2]]), 3)
        assert [b.widths() for b in boxes] == [(Fraction(3, 2), Fraction(1))] * 3

    def test_thin_box_split_along_long_axis(self):
        eps = Fraction(1, 1000)
        boxes = split_box(Box(lower=(Fraction(0), Fraction(0)),
                              upper=(eps, Fraction(1))), 4)
        assert len(boxes) == 4
        assert all(box_volume(b) > 0 for b in boxes)
        union = sum(box_volume(b) for b in boxes)
        assert union == eps
        # pairwise interior-disjoint
        for i, a in enumerate(boxes):
            for b in boxes[i + 1:]:
                assert not a.overlaps_interior(b)

    def test_split_solved_leaf_is_error(self):
        forest = initial_partition(park_system())
        forest.set_status(forest.leaves[0], Status.WINNING)
        with pytest.raises(PartitionError):
            split(forest, forest.leaves[0], 4)


# bounds and widths with denominators 3 and 7 as well as powers of two,
# so the integer kernel's common denominators are not all dyadic
VALUES = [Fraction(0), Fraction(1, 3), Fraction(2, 7), Fraction(1, 2),
          Fraction(1), Fraction(-5, 4), Fraction(7, 3)]
WIDTHS = [Fraction(0), Fraction(1, 3), Fraction(2, 7), Fraction(1, 2),
          Fraction(1), Fraction(3, 2), Fraction(2, 3)]
OFFSETS = [Fraction(0), Fraction(0), Fraction(1, 3), Fraction(-1, 3),
           Fraction(2, 7), Fraction(-2, 7), Fraction(1, 2)]
SPLITS = [1, 2, 3, 4, 6, 9, 12]


def pick(rng, values):
    return values[int(rng.integers(len(values)))]


def random_box(rng, dim):
    """A box with flat axes or equal widths on every axis (exact ties
    between axes), each now and then."""
    tied = pick(rng, WIDTHS)
    lows = [pick(rng, VALUES) for _ in range(dim)]
    widths = [tied if rng.random() < 0.4 else pick(rng, WIDTHS)
              for _ in range(dim)]
    return Box(tuple(lows), tuple(lo + w for lo, w in zip(lows, widths)))


def nearby_box(rng, box):
    """A box whose bounds often meet ``box``'s: shared faces, nested
    boxes, flat slices of it, or now and then an unrelated box."""
    if rng.random() < 0.05:
        return random_box(rng, box.dim)
    lows, highs = [], []
    for lo, hi in zip(box.lower, box.upper):
        a, b = sorted((lo + pick(rng, OFFSETS), hi + pick(rng, OFFSETS)))
        if rng.random() < 0.15:
            b = a
        lows.append(a)
        highs.append(b)
    return Box(tuple(lows), tuple(highs))


class TestAgainstPlainFractions:
    """The partition layer's integer box tests and splits against the
    plain ``Fraction`` restatements in ``oracles``."""

    def test_split_counts_and_boxes(self):
        rng = np.random.default_rng(89)
        split = unsplittable = 0
        for _ in range(300):
            box = random_box(rng, int(rng.integers(1, 4)))
            for m in SPLITS:
                want = split_counts_plain(box, m)
                if want is None:
                    with pytest.raises(PartitionError, match="degenerate"):
                        _split_counts(box, m)
                    unsplittable += 1
                    continue
                assert _split_counts(box, m) == want
                assert split_box(box, m) == split_box_plain(box, m)
                split += 1
        assert split > 1500 and unsplittable > 50

    @pytest.mark.parametrize("bounds, m, counts", [
        # equal widths: the lowest axis takes the factor
        ([[0, Fraction(1, 3)], [Fraction(1, 3), Fraction(2, 3)]], 2, [2, 1]),
        # 2/7 against 4/7 cut in two: a tie after the first factor
        ([[0, Fraction(2, 7)], [0, Fraction(4, 7)]], 4, [2, 2]),
        ([[0, Fraction(1, 3)], [0, Fraction(2, 7)], [0, Fraction(1, 3)]],
         12, [3, 2, 2]),
        # a flat axis is never cut
        ([[0, 0], [0, Fraction(2, 7)]], 9, [1, 9]),
    ])
    def test_ties_go_to_the_lowest_axis(self, bounds, m, counts):
        box = Box.from_bounds(bounds)
        assert split_counts_plain(box, m) == counts
        assert _split_counts(box, m) == counts
        assert split_box(box, m) == split_box_plain(box, m)

    # per family, one (lower, upper) pair per axis, the first dim of them
    BOUNDS = {
        "dyadic": [(0, 1), (Fraction(1, 4), 3), (-2, Fraction(1, 2)),
                   (1, Fraction(9, 8))],
        "thirds": [(Fraction(1, 3), 2), (0, Fraction(1, 3)),
                   (Fraction(-2, 3), 1), (Fraction(1, 3), Fraction(4, 3))],
        "tenths": [(Fraction(3, 10), Fraction(7, 5)), (-1, Fraction(3, 10)),
                   (0, Fraction(13, 10)), (Fraction(3, 10), Fraction(1, 2))],
        "mixed": [(Fraction(1, 3), Fraction(5, 2)),
                  (Fraction(3, 10), Fraction(7, 4)), (0, Fraction(1, 3)),
                  (Fraction(-3, 10), 1)],
    }

    @pytest.mark.parametrize("family", BOUNDS)
    def test_split_children_equal_public_boxes(self, family):
        # the split hands each child its Box.ints; the child must be the
        # box the public constructor builds from its bounds, with the
        # integers that constructor's box computes, and view as it does
        for dim in range(1, 5):
            box = Box.from_bounds(self.BOUNDS[family][:dim])
            sys = ControlSystem.create(
                A=[[1 if i == j else Fraction(1, 4) if j == i + 1 else 0
                    for j in range(dim)] for i in range(dim)],
                B=[[1 if i == j else 0 for j in range(dim)]
                   for i in range(dim)],
                input_set=[[Fraction(-1, 2), Fraction(1, 2)]] * dim,
                domain=[[-3, 4]] * dim, initial_set=[[-3, 4]] * dim)
            for m in (2, 4, 6, 8, 9, 27):
                children = split_box(box, m)
                assert children == split_box_plain(box, m)
                for child in children:
                    public = Box(child.lower, child.upper)
                    assert child == public and hash(child) == hash(public)
                    nums, d = _integers(child.lower + child.upper)
                    assert child.ints == (nums[:dim], nums[dim:], d)
                    assert all(type(v) is Fraction
                               for v in child.lower + child.upper)
                    view, want = box_view(child, sys), box_view(public, sys)
                    assert view.slabs == want.slabs
                    assert view.ranges == want.ranges
                    drop_view(child)
                    assert "_view" not in vars(child)

    def test_box_tests(self):
        rng = np.random.default_rng(97)
        seen = {"contains": 0, "overlaps": 0, "neither": 0}
        for _ in range(3000):
            box = random_box(rng, int(rng.integers(1, 4)))
            other = nearby_box(rng, box)
            for a, b in ((box, other), (other, box)):
                contains = a.contains_box(b)
                overlaps = a.overlaps_interior(b)
                assert contains == contains_box_plain(a, b)
                assert overlaps == overlaps_interior_plain(a, b)
                seen["contains" if contains else
                     "overlaps" if overlaps else "neither"] += 1
        assert min(seen.values()) > 500


def classify_leaves(forest, winning=(), losing=()):
    """Give every leaf a status, as the engine's classify does."""
    for rid in forest.leaves:
        forest.set_status(rid, Status.WINNING if rid in winning else
                          Status.LOSING if rid in losing else Status.MAYBE)


class TestAdvanceIteration:
    def test_all_winning_is_bijective_copy(self):
        forest = initial_partition(park_system())
        before = {r: forest.box(r) for r in forest.leaves}
        classify_leaves(forest, winning=set(forest.leaves))
        assert advance_iteration(forest, m=4) is False
        assert forest.iteration == 1
        assert {r: forest.box(r) for r in forest.leaves} == before
        assert all(forest.status(r) is Status.WINNING for r in forest.leaves)

    def test_fig2_shape_one_of_each(self):
        sys = ControlSystem.create(
            A=[[1, 0], [0, 1]], B=[[1, 0], [0, 1]],
            input_set=[[-1, 1], [-1, 1]],
            domain=[[0, 4.5], [0, 3]], initial_set=[[0, 4.5], [0, 3]],
            propositions=[("top", [[0, 4.5], [2, 3]]),
                          ("mid", [[0, 4.5], [1, 2]]),
                          ("bot", [[0, 4.5], [0, 1]])])
        forest = initial_partition(sys)
        assert len(forest.leaves) == 3
        by_label = {next(iter(forest.labels(r))): r for r in forest.leaves}
        classify_leaves(forest, winning={by_label["top"]},
                        losing={by_label["bot"]})
        assert advance_iteration(forest, m=3) is True
        assert len(forest.leaves) == 5
        assert by_label["top"] in forest.leaves
        assert by_label["bot"] in forest.leaves
        maybe_children = [r for r in forest.leaves if r[:-1] == by_label["mid"]]
        assert len(maybe_children) == 3

    def test_split_boxes_drop_their_views(self):
        # every leaf is viewed, as the abstraction's queries view them; a
        # split box frees its view, a kept leaf keeps it
        sys = park_system()
        forest = initial_partition(sys)
        leaves = list(forest.leaves)
        for rid in leaves:
            box_view(forest.box(rid), sys)
        classify_leaves(forest, winning=set(leaves[:2]))
        assert advance_iteration(forest, m=4) is True
        split = [r for r in leaves if forest.nodes[r].children]
        assert split and len(split) == len(leaves) - 2
        for rid in leaves:
            assert ("_view" in vars(forest.box(rid))) == (rid not in split)

    def test_leaf_count_formula(self):
        forest = initial_partition(goal_system())
        leaves = list(forest.leaves)
        k = 5
        classify_leaves(forest, winning=set(leaves[k:]))
        advance_iteration(forest, m=4)
        assert len(forest.leaves) == 16 + 3 * k

    def test_non_partition_rejected(self):
        # a leaf the classification left out is still unexplored
        forest = initial_partition(park_system())
        for rid in forest.leaves[:2]:
            forest.set_status(rid, Status.WINNING)
        with pytest.raises(PartitionError, match="never classified"):
            advance_iteration(forest, m=4)

    def test_min_cell_keeps_leaves(self):
        forest = initial_partition(park_system())
        before = list(forest.leaves)
        classify_leaves(forest)
        assert advance_iteration(forest, m=4, min_cell=Fraction(10)) is False
        # nothing was splittable: every maybe leaf stays a leaf
        assert forest.leaves == before
        assert all(forest.status(r) is Status.MAYBE for r in forest.leaves)

    def test_large_prime_split_count_factors_fast(self):
        # trial division stops at the square root and keeps the prime left
        p = 10**9 + 7
        t0 = time.perf_counter()
        assert _split_counts(Box.from_bounds([[0, 2], [0, 1]]), p) == [p, 1]
        assert _split_counts(Box.from_bounds([[0, 1], [0, 1]]), 6 * p) == \
            [p, 6]
        assert time.perf_counter() - t0 < 5

    def test_split_count_beyond_min_cell_is_not_factored(self):
        # no leaf holds that many children 1/1000 wide, so no leaf splits
        # and m, the product of two primes near 10^9, is never factored
        forest = initial_partition(park_system())
        before = list(forest.leaves)
        classify_leaves(forest)
        t0 = time.perf_counter()
        assert advance_iteration(forest, m=(10**9 + 7) * (10**9 + 9),
                                 min_cell=Fraction(1, 1000)) is False
        assert time.perf_counter() - t0 < 5
        assert forest.leaves == before

    @pytest.mark.parametrize("m, cell", [(4, Fraction(1, 2)),
                                         (9, Fraction(1, 3))])
    def test_leaf_holding_exactly_m_children_still_splits(self, m, cell):
        # park's 1x1 leaves hold 2 x 2 children 1/2 wide, 3 x 3 children
        # 1/3 wide and no more
        forest = initial_partition(park_system())
        classify_leaves(forest)
        assert advance_iteration(forest, m=m, min_cell=cell) is True
        assert len(forest.leaves) == 6 * m

    @pytest.mark.parametrize("m, cell, splits", [
        # the 1/2 x 1/2 leaf has room for 2 x 2 cells 1/4 wide, but its
        # 3 slices are 1/6 wide
        (4, Fraction(1, 4), True),
        (3, Fraction(1, 4), False),
        (3, Fraction(1, 6), True),
    ])
    def test_min_cell_on_a_leaf_of_non_integer_bounds(self, m, cell, splits):
        sys = ControlSystem.create(
            A=[[1, 0], [0, 1]], B=[[1, 0], [0, 1]],
            input_set=[[-1, 1], [-1, 1]],
            domain=[[0, 0.5], [0, 0.5]], initial_set=[[0, 0.5], [0, 0.5]])
        forest = initial_partition(sys)
        classify_leaves(forest)
        assert advance_iteration(forest, m=m, min_cell=cell) is splits
        assert len(forest.leaves) == (m if splits else 1)

    def test_solved_boxes_never_change(self):
        forest = initial_partition(goal_system())
        leaves = list(forest.leaves)
        winning, losing = leaves[0], leaves[1]
        boxes_before = {r: forest.box(r) for r in (winning, losing)}
        classify_leaves(forest, winning={winning}, losing={losing})
        for _ in range(3):
            advance_iteration(forest, m=4)
            assert winning in forest.leaves and losing in forest.leaves
            assert forest.status(winning) is Status.WINNING
            assert forest.status(losing) is Status.LOSING
            assert {r: forest.box(r) for r in (winning, losing)} == \
                boxes_before
            classify_leaves(forest, winning={winning}, losing={losing})

    def test_children_initial_only_where_they_meet_initial_set(self):
        sys = ControlSystem.create(
            A=[[1, 0], [0, 1]], B=[[1, 0], [0, 1]],
            input_set=[[-1, 1], [-1, 1]],
            domain=[[0, 3], [0, 2]], initial_set=[[0, 0.5], [0, 0.5]],
            propositions=[("home", [[0, 1], [0, 1]]),
                          ("lot", [[2, 3], [1, 2]])])
        forest = initial_partition(sys)
        home = forest.initial_leaves()
        assert [forest.box(r).as_exact_bounds() for r in home] == \
            [[["0", "1"], ["0", "1"]]]
        classify_leaves(forest, winning=set(forest.leaves) - set(home))
        advance_iteration(forest, m=4)
        assert [forest.box(r).as_exact_bounds()
                for r in forest.initial_leaves()] == [[["0", "1/2"],
                                                       ["0", "1/2"]]]
        assert sum(1 for r in forest.leaves if r[:-1] == home[0]) == 4

    def test_forest_depth_bounded_by_iterations(self):
        forest = initial_partition(park_system())
        for _ in range(3):
            classify_leaves(forest)
            advance_iteration(forest, m=4)
        assert all(len(r) - 1 <= forest.iteration for r in forest.leaves)

    def test_leaves_tile_domain_across_refinements(self):
        sys = goal_system()
        forest = initial_partition(sys)
        rng = np.random.default_rng(41)
        for k in range(3):
            leaves = list(forest.leaves)
            cut = max(1, len(leaves) // 3)
            classify_leaves(forest, winning=set(leaves[:cut]),
                            losing=set(leaves[cut:2 * cut]))
            advance_iteration(forest, m=int(rng.integers(2, 6)))
            # exact tiling: volumes sum exactly, interiors stay disjoint
            assert sum(box_volume(forest.box(r)) for r in forest.leaves) == \
                box_volume(sys.domain)
            sample = [forest.leaves[int(i)] for i in
                      rng.integers(0, len(forest.leaves), size=12)]
            for a in sample:
                for b in sample:
                    if a != b:
                        assert not forest.box(a).overlaps_interior(forest.box(b))


class TestLocate:
    def test_home_point(self):
        forest = initial_partition(park_system())
        rid = locate(forest, (0.5, 0.5))
        assert "home" in forest.labels(rid)

    def test_corner_tie_break_lexicographic(self):
        forest = initial_partition(park_system())
        rid = locate(forest, (1, 1))  # shared corner of 4 cells
        candidates = [r for r in forest.leaves
                      if forest.box(r).contains((Fraction(1), Fraction(1)))]
        assert len(candidates) == 4
        assert rid == min(candidates)

    def test_outside_domain_is_error(self):
        forest = initial_partition(park_system())
        with pytest.raises(PartitionError):
            locate(forest, (10, 10))

    @pytest.mark.parametrize("point", [(math.inf, 1), (math.nan, 1),
                                       (True, 1)])
    def test_point_must_be_a_finite_number(self, point):
        with pytest.raises(GeometryError):
            locate(initial_partition(park_system()), point)

    def test_random_points_unique_and_label_consistent(self):
        sys = goal_system()
        forest = initial_partition(sys)
        classify_leaves(forest)
        advance_iteration(forest, m=4)
        rng = np.random.default_rng(3)
        for _ in range(1000):
            pt = (Fraction(int(rng.integers(0, 4000)), 1000),
                  Fraction(int(rng.integers(0, 4000)), 1000))
            rid = locate(forest, pt)
            assert forest.box(rid).contains(pt)
            # labels agree with direct membership up to boundary slop:
            # interior points decide exactly
            for name, region in sys.proposition_regions:
                strictly_inside = all(
                    lo < v < hi for lo, v, hi in
                    zip(region.lower, pt, region.upper))
                if strictly_inside:
                    assert name in forest.labels(rid)
                strictly_outside = any(
                    v < lo or v > hi for lo, v, hi in
                    zip(region.lower, pt, region.upper))
                if strictly_outside:
                    assert name not in forest.labels(rid)


class TestExports:
    def test_json_roundtrip_fields(self):
        forest = initial_partition(park_system())
        data = partition_to_json(
            (rid, forest.box(rid), forest.status(rid), forest.labels(rid))
            for rid in forest.leaves)
        assert len(data) == 6
        assert {d["region_id"] for d in data} == \
            {format_region_id(r) for r in forest.leaves}
        assert all(set(d) == {"region_id", "box", "status", "labels"}
                   for d in data)

    def test_region_id_string_roundtrip(self):
        rid = (3, 1, 4)
        assert parse_region_id(format_region_id(rid)) == rid

    def test_svg_colors_match_statuses(self):
        forest = initial_partition(park_system())
        statuses = [Status.WINNING, Status.LOSING, Status.MAYBE,
                    Status.UNEXPLORED, Status.WINNING, Status.MAYBE]
        for rid, st in zip(forest.leaves, statuses):
            forest.set_status(rid, st)
        svg = partition_to_svg(forest)
        assert svg.count("#2ca02c") == 2
        assert svg.count("#d62728") == 1
        assert svg.count("#ffd92f") == 2
        assert svg.count("#c7c7c7") == 1
