import math
import random
from fractions import Fraction

import numpy as np
import pytest

from dualsynth import abstraction, engine
from dualsynth.abstraction import (
    AbstractionError,
    AbstractionPair,
    EnvAlphabet,
    QueryStats,
    build_initial,
    reachability_queries_saved,
    refine,
)
from dualsynth.geometry import (
    AxisIndex,
    Box,
    BoxView,
    ControlSystem,
    box_view,
    fill_views,
    reach_optimistic,
    reach_pessimistic,
)
from dualsynth.partition import Status, advance_iteration, initial_partition

from oracles import grid_reach
from problem_gen import random_problem


def park_system():
    return ControlSystem.create(
        A=[[1, 0], [0, 1]], B=[[1, 0], [0, 1]],
        input_set=[[-1, 1], [-1, 1]],
        domain=[[0, 3], [0, 2]], initial_set=[[0, 3], [0, 2]],
        propositions=[("home", [[0, 1], [0, 1]]), ("lot", [[2, 3], [1, 2]])])


def quadrant_system():
    """Four quadrants with a steady downward drift and a weak x wobble.

    Realizes the shape of the textbook dual-FTS picture: both upper
    quadrants can always step down (pessimistic edges), while horizontal
    hops exist only for some starting points (optimistic-only edges).
    """
    return ControlSystem.create(
        A=[[1, 0], [0, 1]], B=[[1, 0], [0, 1]],
        input_set=[[Fraction(-1, 4), Fraction(1, 4)],
                   [Fraction(-6, 5), Fraction(-4, 5)]],
        domain=[[0, 2], [0, 2]], initial_set=[[0, 2], [0, 2]],
        propositions=[("tl", [[0, 1], [1, 2]]), ("tr", [[1, 2], [1, 2]]),
                      ("bl", [[0, 1], [0, 1]]), ("br", [[1, 2], [0, 1]])])


def no_env():
    return EnvAlphabet.create([])


def all_pairs_rows(forest, sys):
    """Unpruned pess/opt rows: every undecided leaf queried against every
    non-losing leaf, in leaf order, as ``refine`` did before pruning."""
    undecided = (Status.MAYBE, Status.UNEXPLORED)
    targets = [b for b in forest.leaves
               if forest.status(b) is not Status.LOSING]
    pess, opt = {}, {}
    for a in forest.leaves:
        if forest.status(a) in undecided:
            X = forest.box(a)
            pess[a] = [b for b in targets
                       if reach_pessimistic(X, forest.box(b), sys)]
            opt[a] = [b for b in targets
                      if reach_optimistic(X, forest.box(b), sys)]
    return pess, opt, len(targets)


def assert_pruning_exact(pair, forest, sys):
    """``pair``'s undecided rows equal the unpruned rows, its issued and
    pruned counts add up to the unpruned query count, and an optimistic
    query was made for every queried pair without a pessimistic edge."""
    pess, opt, n_targets = all_pairs_rows(forest, sys)
    for a in pess:
        assert pair.pess_edges[a] == pess[a], a
        assert pair.opt_edges[a] == opt[a], a
    stats = pair.query_stats
    assert stats.issued_opt == stats.issued_pess - sum(map(len, pess.values()))
    assert stats.issued_pess + stats.pruned == len(pess) * n_targets


def counted(step, *args):
    """``step(*args)`` (``build_initial`` or ``refine``), with the
    ``reach_*`` calls it makes counted and checked against the queries its
    ``QueryStats`` report the axis index left to the slab test."""
    calls = {"reach_pessimistic": 0, "reach_optimistic": 0}
    with pytest.MonkeyPatch.context() as mp:
        for name in calls:
            def counting(X, Y, sys, real=getattr(abstraction, name),
                         name=name):
                calls[name] += 1
                return real(X, Y, sys)
            mp.setattr(abstraction, name, counting)
        pair = step(*args)
    stats = pair.query_stats
    assert (stats.slab_pess, stats.slab_opt) == \
        (calls["reach_pessimistic"], calls["reach_optimistic"])
    return pair


class TestEnvAlphabet:
    def test_dummy_valuation_when_empty(self):
        env = no_env()
        assert env.valuations == [{}]
        assert len(env) == 1

    def test_product_valuations(self):
        env = EnvAlphabet.create([("park", (False, True)), ("mode", (1, 2, 3))])
        assert len(env) == 6
        assert {v["mode"] for v in env.valuations} == {1, 2, 3}

    def test_empty_domain_rejected(self):
        with pytest.raises(AbstractionError):
            EnvAlphabet.create([("x", ())])

    @pytest.mark.parametrize("values, message", [
        ((0, 1, True), "value True"),
        ((False, 0), "value 0"),
        ((1, 2, 1.0), "value 1.0"),
        (("a", "b", "a"), "value 'a'"),
    ])
    def test_equal_values_rejected(self, values, message):
        # formulas compare values with ==: equal values would be one
        # valuation listed twice
        with pytest.raises(AbstractionError, match=rf"^environment variable "
                           rf"'x': {message} equals an earlier value$"):
            EnvAlphabet.create([("x", values)])


class TestBuildInitial:
    def test_quadrant_edges_match_figure(self):
        sys = quadrant_system()
        forest = initial_partition(sys)
        pair = build_initial(forest, sys, no_env())
        by_label = {next(iter(forest.labels(r))): r for r in forest.leaves}
        pess = {(a, b) for a, b in pair.pess_pairs()}
        opt = {(a, b) for a, b in pair.opt_pairs()}
        # signature arrows: both drops are certain, the top hop is
        # optimistic only
        assert (by_label["tl"], by_label["bl"]) in pess
        assert (by_label["tr"], by_label["br"]) in pess
        assert (by_label["tl"], by_label["tr"]) in opt - pess
        # the full edge sets equal the grid oracle's verdicts
        for a in forest.leaves:
            for b in forest.leaves:
                g_p, g_o = grid_reach(sys, forest.box(a), forest.box(b),
                                      kx=48, ku=48)
                assert ((a, b) in pess) == g_p
                assert ((a, b) in opt) == g_o

    def test_zero_input_gives_self_loops(self):
        sys = park_system()
        forest = initial_partition(sys)
        pair = build_initial(forest, sys, no_env())
        pess = {(a, b) for a, b in pair.pess_pairs()}
        for r in forest.leaves:
            assert (r, r) in pess

    def test_optimistic_queries_counted_where_pessimistic_fails(self):
        sys = park_system()
        forest = initial_partition(sys)
        pair = counted(build_initial, forest, sys, no_env())
        n, n_pess = len(forest.leaves), len(list(pair.pess_pairs()))
        assert n_pess > 0
        assert pair.query_stats.issued_pess == n * n
        assert pair.query_stats.issued_opt == n * n - n_pess

    def test_park_edges_match_grid_oracle(self):
        sys = park_system()
        forest = initial_partition(sys)
        pair = build_initial(forest, sys, no_env())
        pess = {(a, b) for a, b in pair.pess_pairs()}
        opt = {(a, b) for a, b in pair.opt_pairs()}
        for a in forest.leaves:
            for b in forest.leaves:
                g_p, g_o = grid_reach(sys, forest.box(a), forest.box(b),
                                      kx=40, ku=40)
                assert ((a, b) in pess) == g_p, (a, b)
                assert ((a, b) in opt) == g_o, (a, b)

    def test_pess_subset_opt_and_env_uniform(self):
        sys = park_system()
        forest = initial_partition(sys)
        env = EnvAlphabet.create([("park", (False, True))])
        pair = build_initial(forest, sys, env)
        pair.check_invariants()


class TestRefine:
    @staticmethod
    def _setup(sys):
        forest = initial_partition(sys)
        pair = build_initial(forest, sys, no_env())
        return forest, pair

    @staticmethod
    def _advance(forest, winning=(), losing=()):
        """Classify the leaves as given (the rest maybe), then split."""
        for rid in forest.leaves:
            forest.set_status(rid, Status.WINNING if rid in winning else
                              Status.LOSING if rid in losing else
                              Status.MAYBE)
        advance_iteration(forest, m=4)

    def test_all_winning_copies_pessimistic(self):
        sys = park_system()
        forest, pair = self._setup(sys)
        old_pess = set(pair.pess_pairs())
        self._advance(forest, winning=set(forest.leaves))
        nxt = refine(pair, forest, sys)
        assert set(nxt.pess_pairs()) == old_pess
        assert set(nxt.opt_pairs()) == old_pess
        assert nxt.query_stats.issued == 0
        assert reachability_queries_saved(nxt) == nxt.query_stats.naive

    def test_all_losing_drops_every_edge(self):
        sys = park_system()
        forest, pair = self._setup(sys)
        self._advance(forest, losing=set(forest.leaves))
        nxt = refine(pair, forest, sys)
        assert not any(True for _ in nxt.pess_pairs())
        assert not any(True for _ in nxt.opt_pairs())

    def test_refined_maybe_rows_equal_fresh_rebuild(self):
        sys = park_system()
        forest, pair = self._setup(sys)
        leaves = list(forest.leaves)
        winning = set(leaves[:2])
        self._advance(forest, winning=winning, losing=set(leaves[2:3]))
        nxt = refine(pair, forest, sys)
        from dualsynth.geometry import reach_optimistic, reach_pessimistic
        m_children = [r for r in forest.leaves
                      if forest.status(r) is Status.UNEXPLORED]
        assert len(m_children) == 4 * len(leaves[3:])
        pess = {(a, b) for a, b in nxt.pess_pairs()}
        opt = {(a, b) for a, b in nxt.opt_pairs()}
        for a in m_children:
            for b in m_children + sorted(winning):
                assert ((a, b) in pess) == reach_pessimistic(
                    forest.box(a), forest.box(b), sys)
                assert ((a, b) in opt) == reach_optimistic(
                    forest.box(a), forest.box(b), sys)
        # no edges from winning leaves into maybe children, by design
        for a in winning:
            for b in m_children:
                assert (a, b) not in opt

    def test_query_accounting_all_maybe(self):
        sys = park_system()
        forest, pair = self._setup(sys)
        n = len(forest.leaves)
        self._advance(forest)
        nxt = counted(refine, pair, forest, sys)
        stats = nxt.query_stats
        assert stats.issued_pess + stats.pruned == (4 * n) ** 2
        # a pruned pair saves both queries, a pessimistic edge the
        # optimistic one
        assert reachability_queries_saved(nxt) == \
            2 * stats.pruned + len(list(nxt.pess_pairs()))
        assert_pruning_exact(nxt, forest, sys)

    def test_issued_queries_touch_only_maybe_sources(self):
        sys = park_system()
        forest, pair = self._setup(sys)
        leaves = list(forest.leaves)
        winning = set(leaves[:3])
        self._advance(forest, winning=winning)
        nxt = counted(refine, pair, forest, sys)
        m_children = len(forest.leaves) - len(winning)
        w = len(winning)
        stats = nxt.query_stats
        assert stats.issued_pess + stats.pruned == m_children * (m_children + w)
        queried_pess = sum(len(nxt.pess_edges[a]) for a in forest.leaves
                           if a not in winning)
        assert reachability_queries_saved(nxt) == \
            stats.naive - 2 * stats.issued_pess + queried_pess
        assert_pruning_exact(nxt, forest, sys)

    def test_unsplit_maybe_rows_are_pruned_exactly(self):
        # leaves too small to split stay maybe under their own ids, so
        # their previous leaf is themselves: roots, then depth-2 paths
        sys = park_system()
        forest, pair = self._setup(sys)
        for min_cell in (1, Fraction(1, 2), Fraction(1, 2)):
            for rid in forest.leaves:
                forest.set_status(rid, Status.MAYBE)
            split_any = advance_iteration(forest, m=4, min_cell=min_cell)
            nxt = counted(refine, pair, forest, sys)
            assert_pruning_exact(nxt, forest, sys)
            if not split_any:
                assert forest.leaves == pair.regions
                assert nxt.opt_edges == pair.opt_edges
                assert nxt.query_stats.pruned == sum(
                    len(forest.leaves) - len(row)
                    for row in pair.opt_edges.values())
            pair = nxt
        assert {len(rid) for rid in forest.leaves} == {2}

    @pytest.mark.parametrize("ours, theirs", [
        (park_system, quadrant_system), (quadrant_system, park_system),
    ], ids=["old-leaf-without-run", "new-leaves-left-over"])
    def test_forest_of_another_problem_is_error(self, ours, theirs):
        # a pair refined against the forest of another problem at the
        # right iteration: the walk of the old leaves over the new ones
        # must fail, not misalign the index rows
        sys = ours()
        _forest, pair = self._setup(sys)
        other, _pair = self._setup(theirs())
        self._advance(other)
        with pytest.raises(AbstractionError, match="not the abstraction's "
                           "leaves and their children"):
            refine(pair, other, sys)

    def test_iteration_mismatch_is_error(self):
        sys = park_system()
        forest, pair = self._setup(sys)
        with pytest.raises(AbstractionError):
            refine(pair, forest, sys)


class TestCheckInvariants:
    """``check_invariants`` tests one row per region and pess ⊆ opt row by
    row, on rows of indices into ``regions``."""

    @staticmethod
    def pair(pess, opt):
        regions = [(i,) for i in range(max(len(pess), len(opt)))]
        return AbstractionPair(
            regions=regions, initial_regions=[], env=no_env(),
            pess=pess, opt=opt)

    def test_missing_optimistic_edge_raises(self):
        pair = self.pair([[0, 1], [], []], [[1, 2], [0], []])
        with pytest.raises(AssertionError):
            pair.check_invariants()

    def test_missing_optimistic_row_raises(self):
        pair = self.pair([[1], [0]], [[1]])
        with pytest.raises(AssertionError):
            pair.check_invariants()

    def test_equal_copies_and_subsets_pass(self):
        winning = [0, 1]
        self.pair([winning, [1], []], [list(winning), [0, 1], [2]]
                  ).check_invariants()

    def test_id_views_follow_the_rows(self):
        pair = self.pair([[1], [], [0, 2]], [[0, 1], [], [0, 1, 2]])
        assert pair.pess_edges == {(0,): [(1,)], (1,): [],
                                   (2,): [(0,), (2,)]}
        assert list(pair.opt_pairs()) == [
            ((0,), (0,)), ((0,), (1,)), ((2,), (0,)), ((2,), (1,)),
            ((2,), (2,))]
        with pytest.raises(AttributeError):
            pair.pess_edges = {}


class TestPruning:
    def test_engine_refinements_equal_all_pairs_queries(self, monkeypatch):
        """At every refine of real runs, the pruned rows equal the rows of
        every undecided leaf queried against every non-losing leaf."""
        pruned = []

        def checked_refine(pair, forest, sys):
            nxt = counted(refine, pair, forest, sys)
            assert_pruning_exact(nxt, forest, sys)
            pruned.append(nxt.query_stats.pruned)
            return nxt

        monkeypatch.setattr(engine, "refine", checked_refine)
        runs = [(k, engine.EngineOptions(max_iters=3, min_cell=Fraction(1, 8)))
                for k in (0, 1, 2, 3, 10, 24)]
        # the deep rung: 637 leaves after three splits
        runs.append((5, engine.EngineOptions(max_iters=4,
                                             min_cell=Fraction(1, 64))))
        for k, opts in runs:
            engine.run(*random_problem(k, with_env=True), opts)
        assert len(pruned) == 12
        assert sum(pruned) > 0


def _rational(rng, lo, hi):
    """A random rational in [lo, hi] over a denominator that is not
    always a power of two."""
    d = rng.choice((1, 2, 3, 5, 7, 12))
    return Fraction(rng.randint(int(lo * d), int(hi * d)), d)


def _touching(sys, X, k, rng):
    """Boxes whose range on axis k ends exactly at an end of one of X's
    axis-k slabs, and boxes just past it: the floor and ceiling of the
    index's rounding decide them."""
    out = []
    pess, opt = box_view(X, sys).slabs
    for _, lo, hi, d in (pess[k], opt[k]):
        for end, eps in ((Fraction(lo, d), Fraction(-1, 7)),
                         (Fraction(hi, d), Fraction(1, 7))):
            for at in (end, end + eps):
                w = _rational(rng, Fraction(1, 3), 1)
                lower, upper = [], []
                for i in range(sys.n):
                    if i != k:
                        lower.append(sys.domain.lower[i])
                        upper.append(sys.domain.upper[i])
                    elif eps < 0:
                        lower.append(at - w)
                        upper.append(at)
                    else:
                        lower.append(at)
                        upper.append(at + w)
                out.append(Box(tuple(lower), tuple(upper)))
    return out


class TestAxisIndexRows:
    """``_run_queries`` decides rows with the axis index, and the slab test
    only where the axes leave a target open; its rows and counts must be
    those of one ``reach_*`` call per pair."""

    SYSTEMS = {
        # diagonal A and B: the axes are the only normals
        "axes": lambda: ControlSystem.create(
            A=[[1, 0], [0, Fraction(2, 3)]], B=[[Fraction(1, 3), 0], [0, 1]],
            input_set=[[Fraction(-1, 3), Fraction(1, 5)],
                       [Fraction(-2, 7), Fraction(1, 2)]],
            domain=[[0, Fraction(10, 3)], [Fraction(1, 7), 2]],
            initial_set=[[0, 1], [1, 2]]),
        # coupled A, diagonal B: the pessimistic slabs are the axes alone
        "drift": lambda: ControlSystem.create(
            A=[[Fraction(1, 2), Fraction(-1, 3)], [0, Fraction(3, 2)]],
            B=[[1, 0], [0, Fraction(2, 3)]],
            input_set=[[Fraction(-1, 3), Fraction(1, 2)],
                       [Fraction(-1, 2), Fraction(1, 5)]],
            domain=[[0, 4], [0, 4]], initial_set=[[0, 1], [0, 1]]),
        "coupled": lambda: ControlSystem.create(
            A=[[1, Fraction(1, 3)], [0, 1]], B=[[1, Fraction(1, 2)], [0, 1]],
            input_set=[[Fraction(-1, 2), Fraction(1, 3)],
                       [Fraction(-1, 5), Fraction(1, 2)]],
            domain=[[0, 4], [0, Fraction(11, 3)]],
            initial_set=[[0, 1], [0, 1]]),
        # the ROADMAP's 3-D system: 15 normals, 12 of them not axes
        "cube": lambda: ControlSystem.create(
            A=[[1, Fraction(1, 4), 0], [0, 1, Fraction(1, 4)],
               [Fraction(-1, 8), 0, 1]],
            B=[[1, 0, Fraction(1, 4)], [0, 1, 0], [Fraction(1, 2), 0, 1]],
            input_set=[[Fraction(-1, 2), Fraction(1, 2)]] * 3,
            domain=[[0, 4]] * 3, initial_set=[[0, 4]] * 3),
    }

    @staticmethod
    def _boxes(sys, rng, count):
        """Random boxes around the domain, some of them outside it."""
        boxes = []
        for _ in range(count):
            lower, upper = [], []
            for lo, hi in zip(sys.domain.lower, sys.domain.upper):
                a = _rational(rng, lo - 1, hi)
                lower.append(a)
                upper.append(a + _rational(rng, 0, 2))
            boxes.append(Box(tuple(lower), tuple(upper)))
        return boxes

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("name", list(SYSTEMS))
    def test_rows_equal_pairwise_queries(self, name, seed, monkeypatch):
        rng = random.Random(seed)
        sys = self.SYSTEMS[name]()
        boxes = self._boxes(sys, rng, 30)
        boxes += [t for k in range(sys.n)
                  for t in _touching(sys, boxes[0], k, rng)]
        missing = Box(tuple(hi + 1 for hi in sys.domain.upper),
                      tuple(hi + 2 for hi in sys.domain.upper))
        boxes.append(missing)
        assert box_view(missing, sys).ranges is None
        n = len(boxes)
        # rows as refine passes them: one candidate mask shared by
        # several sources, the full mask, an empty mask
        shared = sorted({*rng.sample(range(n), n // 2), 0, n - 1})
        every = range(n)
        rows = [(a, shared) for a in range(0, n, 3)]
        rows += [(a, every) for a in range(1, n, 3)]
        rows += [(a, []) for a in range(2, n, 3)]
        masks = {id(t): sum(1 << b for b in t) for _, t in rows}
        mask_rows = [(a, masks[id(t)]) for a, t in rows]
        pess, opt = [[] for _ in boxes], [[] for _ in boxes]
        stats = QueryStats(n_states=n)
        counted(lambda: abstraction._run_queries(boxes, sys, mask_rows, pess,
                                                 opt, stats) or
                AbstractionPair(regions=[], initial_regions=[], env=no_env(),
                                pess=pess, opt=opt, query_stats=stats))
        issued = edges = 0
        for a, targets in rows:
            X = boxes[a]
            assert pess[a] == [b for b in targets
                               if reach_pessimistic(X, boxes[b], sys)], a
            assert opt[a] == [b for b in targets
                              if reach_optimistic(X, boxes[b], sys)], a
            issued += len(targets)
            edges += len(pess[a])
        assert (stats.issued_pess, stats.issued_opt) == (issued,
                                                         issued - edges)
        assert 0 < edges < issued
        # the slab test runs for a relation only when it has a normal off
        # the axes
        normals = len(sys.slab_rows)
        pessimistic = sum(row[-1] for row in sys.slab_rows)
        assert (normals, pessimistic) == {
            "axes": (2, 2), "drift": (3, 2), "coupled": (4, 3),
            "cube": (15, 5)}[name]
        assert (stats.slab_pess > 0) == (pessimistic > sys.n)
        assert (stats.slab_opt > 0) == (name != "axes")
        assert stats.slab_pess < issued
        assert stats.slab_opt <= issued - edges


    def test_rounding_at_slab_ends(self):
        # targets on the 1/16 grid of an integer domain put the index over
        # TD = 16, and inputs in thirds put the slab ends off that grid:
        # per end, the grid points on either side of it, one inside the
        # slab and one outside, decide the floor and ceiling of the index
        sys = ControlSystem.create(
            A=[[1, 0], [0, 1]], B=[[1, 0], [0, 1]],
            input_set=[[Fraction(-1, 3), Fraction(1, 3)],
                       [Fraction(-2, 3), Fraction(1, 3)]],
            domain=[[0, 4], [0, 4]], initial_set=[[0, 4], [0, 4]])
        sources = [Box((1, 1), (2, 2)),
                   Box((Fraction(1, 3), Fraction(1, 2)), (1, Fraction(5, 3)))]
        targets = [Box((Fraction(1, 16), 0), (1, 1))]
        for X in sources:
            for slabs in box_view(X, sys).slabs:
                for k, lo, hi, d in slabs:
                    for end, below in ((Fraction(lo, d), True),
                                       (Fraction(hi, d), False)):
                        if (end * 16).denominator == 1:
                            continue
                        for at in (math.floor(end * 16), math.ceil(end * 16)):
                            at = Fraction(at, 16)
                            span = (at - 1, at) if below else (at, at + 1)
                            lower, upper = [0, 0], [4, 4]
                            lower[k], upper[k] = span
                            targets.append(Box(tuple(lower), tuple(upper)))
        boxes = sources + targets
        index = AxisIndex(((b, box_view(boxes[b], sys).ranges)
                           for b in range(2, len(boxes))), sys.n)
        assert index.td == 16
        pess, opt = [[] for _ in boxes], [[] for _ in boxes]
        stats = QueryStats()
        every = range(2, len(boxes))
        mask = sum(1 << b for b in every)
        abstraction._run_queries(boxes, sys, [(0, mask), (1, mask)], pess,
                                 opt, stats)
        for a, X in enumerate(sources):
            assert pess[a] == [b for b in every
                               if reach_pessimistic(X, boxes[b], sys)]
            assert opt[a] == [b for b in every
                              if reach_optimistic(X, boxes[b], sys)]
            assert 0 < len(pess[a]) < len(opt[a]) < len(every)


class TestFillViews:
    """A query batch fills its views in one pass (``fill_views``); each
    part must be what a fresh view computes on first access."""

    @staticmethod
    def _batch(sys, rng):
        """Random boxes, flat boxes and boxes that miss the domain."""
        boxes = TestAxisIndexRows._boxes(sys, rng, 24)
        for k in range(sys.n):
            X = boxes[k]
            at = X.lower[k]
            boxes.append(Box(X.lower, X.upper[:k] + (at,) + X.upper[k + 1:]))
        boxes.append(Box(tuple(sys.domain.lower), tuple(sys.domain.lower)))
        boxes.append(Box(tuple(hi + 1 for hi in sys.domain.upper),
                         tuple(hi + 2 for hi in sys.domain.upper)))
        boxes.append(Box(tuple(lo - 1 for lo in sys.domain.lower),
                         tuple(lo - Fraction(1, 3)
                               for lo in sys.domain.lower)))
        return boxes

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("name", list(TestAxisIndexRows.SYSTEMS))
    def test_batch_fill_equals_lazy_views(self, name, seed):
        rng = random.Random(seed)
        sys = TestAxisIndexRows.SYSTEMS[name]()
        boxes = self._batch(sys, rng)
        flat = sum(any(lo == hi for lo, hi in zip(b.lower, b.upper))
                   for b in boxes)
        missing = sum(BoxView(b, sys).ranges is None for b in boxes)
        assert flat > sys.n and missing >= 2
        # some views already hold a part; some boxes hold the view of
        # another system object, equal to sys, which the memo replaces
        held = {}
        for b in boxes[::4]:
            held[id(b)] = box_view(b, sys).ranges
        other = TestAxisIndexRows.SYSTEMS[name]()
        for b in boxes[1::4]:
            box_view(b, other).slabs
        ranges = fill_views(boxes, sys, "ranges")
        slabs = fill_views(boxes, sys, "slabs")
        for b, r, s in zip(boxes, ranges, slabs):
            fresh = BoxView(Box(b.lower, b.upper), sys)
            assert r == fresh.ranges and s == fresh.slabs
            view = box_view(b, sys)
            assert view.sys is sys
            # stored where the view's own first access would read it
            assert vars(view)["ranges"] is r and vars(view)["slabs"] is s
            if id(b) in held:
                assert r is held[id(b)]
        # a second fill reads the parts the first one stored
        assert all(a is b for a, b in zip(fill_views(boxes, sys, "slabs"),
                                          slabs))


class TestRowMasks:
    """``refine`` hands each undecided row to ``_run_queries`` as one
    candidate mask per parent: the non-losing children of the parent's
    old optimistic row."""

    def test_masks_hold_the_live_children_of_the_old_row(self, monkeypatch):
        checked = []

        def checked_refine(pair, forest, sys):
            captured = []
            real = abstraction._run_queries

            def capture(boxes, sys, rows, *rest):
                captured.extend(rows)
                return real(boxes, sys, rows, *rest)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(abstraction, "_run_queries", capture)
                nxt = refine(pair, forest, sys)
            old = set(pair.regions)

            def parent(rid):
                return rid if rid in old else rid[:-1]

            undecided = (Status.MAYBE, Status.UNEXPLORED)
            assert [a for a, _ in captured] == [
                a for a, r in enumerate(nxt.regions)
                if forest.status(r) in undecided]
            masks = {}
            for a, mask in captured:
                rid = nxt.regions[a]
                row = set(pair.opt_edges[parent(rid)])
                assert mask == sum(
                    1 << b for b, r in enumerate(nxt.regions)
                    if parent(r) in row
                    and forest.status(r) is not Status.LOSING), rid
                # the children of one parent share its mask
                assert masks.setdefault(parent(rid), mask) is mask
            checked.append(len(captured))
            return nxt

        monkeypatch.setattr(engine, "refine", checked_refine)
        opts = engine.EngineOptions(max_iters=3, min_cell=Fraction(1, 8))
        for k in (0, 1, 2, 5, 10, 24):
            engine.run(*random_problem(k, with_env=True), opts)
        assert len(checked) >= 6 and sum(checked) > 0


class TestExports:
    def test_dot_contains_dashed_optimistic_only_edges(self):
        sys = quadrant_system()
        forest = initial_partition(sys)
        pair = build_initial(forest, sys, no_env())
        dot = pair.to_dot()
        assert "style=dashed" in dot
        assert dot.count("->") == len(pair.opt_pairs())
