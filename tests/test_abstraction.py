from fractions import Fraction

import numpy as np
import pytest

from dualsynth import abstraction, engine
from dualsynth.abstraction import (
    AbstractionError,
    AbstractionPair,
    EnvAlphabet,
    build_initial,
    reachability_queries_saved,
    refine,
)
from dualsynth.geometry import (
    Box,
    ControlSystem,
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
    ``QueryStats`` report."""
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
    assert (stats.issued_pess, stats.issued_opt) == \
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
        data = pair.to_json()
        # every region edge appears for all four env combinations
        n_region_edges = sum(len(v) for v in pair.pess_edges.values())
        assert len(data["pess_edges"]) == 4 * n_region_edges


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


class TestExports:
    def test_dot_contains_dashed_optimistic_only_edges(self):
        sys = quadrant_system()
        forest = initial_partition(sys)
        pair = build_initial(forest, sys, no_env())
        dot = pair.to_dot()
        assert "style=dashed" in dot
        assert dot.count("->") == len(pair.to_json()["opt_edges"])
