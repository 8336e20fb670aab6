from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dualsynth import geometry
from dualsynth.cli import load_problem
from dualsynth.geometry import (
    Box,
    ControlSystem,
    GeometryError,
    _box_lp,
    _probe,
    box_vertices,
    box_view,
    control_input,
    input_witness,
    mask_items,
    mat_vec,
    reach_exists_from_point,
    reach_optimistic,
    reach_pessimistic,
)

from oracles import (
    box_volume,
    fm_reach,
    grid_reach,
    interval_reach,
    is_diagonal_system,
    midpoint_probe,
    planar_input_reach,
    vertex_control_input,
)


def ints(x):
    """The point x as integers over one denominator, (xs, xd), the form
    the integer kernels take."""
    return geometry._integers([Fraction(v) for v in x])


def fractions(u):
    """An input (us, ud) from an integer kernel as ``Fraction``s; None
    stays None."""
    return None if u is None else tuple(Fraction(v, u[1]) for v in u[0])


def identity_system(dom=((0, 3), (0, 2)), u=1):
    return ControlSystem.create(
        A=[[1, 0], [0, 1]], B=[[1, 0], [0, 1]],
        input_set=[[-u, u], [-u, u]], domain=dom, initial_set=dom)


def random_system(rng, diag_only=False):
    vals = [Fraction(1), Fraction(1, 2), Fraction(3, 2), Fraction(-1, 2)]
    a11, a22 = rng.choice(len(vals), 2)
    A = [[vals[a11], Fraction(0)], [Fraction(0), vals[a22]]]
    if not diag_only and rng.random() < 0.5:
        A[0][1] = Fraction(1, 4) * (1 if rng.random() < 0.5 else -1)
    B = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    if not diag_only and rng.random() < 0.3:
        B[1][0] = Fraction(1, 4)
    u = Fraction(int(rng.integers(1, 5)), 4)
    dom = [[-4, 4], [-4, 4]]
    return ControlSystem.create(A=A, B=B, input_set=[[-u, u], [-u, u]],
                                domain=dom, initial_set=dom)


LP_ONLY_SHAPES = ("m=1", "m=3", "singular")


def lp_only_system(rng, shape):
    """A 2-D system whose input decisions all fall to the box LP.

    B is 2x1, 2x3 or a singular 2x2 matrix, so it is not square and
    invertible and the probe never applies.
    """
    vals = [Fraction(1), Fraction(1, 2), Fraction(-1, 2), Fraction(3, 4)]

    def pick():
        return vals[int(rng.integers(len(vals)))]

    A = [[pick(), Fraction(1, 4)], [Fraction(0), pick()]]
    if shape == "m=1":
        B = [[pick()], [pick()]]
    elif shape == "m=3":
        B = [[pick(), pick(), Fraction(0)], [Fraction(0), pick(), pick()]]
    else:
        row = [pick(), pick()]
        B = [row, [v / 2 for v in row]]
    u = Fraction(int(rng.integers(2, 9)), 4)
    dom = [[-4, 4], [-4, 4]]
    return ControlSystem.create(A=A, B=B, input_set=[[-u, u]] * len(B[0]),
                                domain=dom, initial_set=dom)


def lp_only_systems(seed, count):
    """``count`` LP-only systems of each shape, from their own generator."""
    rng = np.random.default_rng(seed)
    for shape in LP_ONLY_SHAPES:
        for _ in range(count):
            yield rng, lp_only_system(rng, shape)


def random_point(rng, box):
    pt = [Fraction(float(rng.uniform(float(lo), float(hi)))).limit_denominator(10**6)
          for lo, hi in zip(box.lower, box.upper)]
    return [min(max(v, lo), hi) for v, lo, hi in zip(pt, box.lower, box.upper)]


def shrunk(box):
    """The middle half of ``box`` on every axis."""
    quarter = [(lo + (hi - lo) / 4, hi - (hi - lo) / 4)
               for lo, hi in zip(box.lower, box.upper)]
    return Box(tuple(a for a, _ in quarter), tuple(b for _, b in quarter))


def random_box(rng, lo=-4, hi=4, min_w=0.25):
    out = []
    for _ in range(2):
        a = Fraction(int(rng.integers(lo * 4, hi * 4 - 1)), 4)
        w = Fraction(int(rng.integers(1, 9)), 4)
        b = min(a + max(w, Fraction(min_w)), Fraction(hi))
        out.append([a, b])
    return Box.from_bounds(out)


def touching_box(rng, domain):
    """A box meeting ``domain`` only in a face: on one axis it lies just
    outside, with an end on the domain's bound, so its clip is flat."""
    lows, highs = [], []
    for lo, hi in zip(domain.lower, domain.upper):
        a = lo + (hi - lo) * Fraction(int(rng.integers(0, 8)), 8)
        lows.append(a)
        highs.append(min(a + Fraction(int(rng.integers(1, 9)), 4), hi))
    axis = int(rng.integers(len(lows)))
    width = Fraction(int(rng.integers(1, 5)), 4)
    if rng.random() < 0.5:
        lows[axis], highs[axis] = domain.upper[axis], domain.upper[axis] + width
    else:
        lows[axis], highs[axis] = domain.lower[axis] - width, domain.lower[axis]
    return Box(tuple(lows), tuple(highs))


class TestBox:
    def test_bad_bounds_rejected(self):
        with pytest.raises(GeometryError):
            Box.from_bounds([[1, 0]])

    def test_flat_proposition_region_rejected(self):
        # a flat region contains no leaf, so it would label none and
        # []<>home would silently mean []<>false
        with pytest.raises(GeometryError, match="'home' must be full-dim"):
            ControlSystem.create(
                A=[[1, 0], [0, 1]], B=[[1, 0], [0, 1]],
                input_set=[[-1, 1], [-1, 1]],
                domain=[[0, 3], [0, 2]], initial_set=[[0, 3], [0, 2]],
                propositions=[("home", [[0, 1], [1, 1]])])

    def test_float_bounds_are_made_exact(self):
        # a box built directly with float bounds answers as the box of
        # the same bounds built by ``from_bounds``
        sys = identity_system(dom=((0, 2), (0, 2)), u=Fraction(1, 2))
        direct = Box((0.5, 0), (1.0, 1))
        exact = Box.from_bounds([[0.5, 1.0], [0, 1]])
        assert direct == exact and hash(direct) == hash(exact)
        assert all(type(v) is Fraction for v in direct.lower + direct.upper)
        assert direct.holds((3, 1), 4) and direct.contains_box(exact)
        answers = TestTargetRanges.answers
        for Y in (Box.from_bounds([[1, 2], [0, 1]]),
                  Box.from_bounds([[1.75, 2], [1.75, 2]])):
            assert answers(direct, Y, sys) == answers(exact, Y, sys)
            assert answers(Y, direct, sys) == answers(Y, exact, sys)
        assert input_witness(sys, (1, 1), direct) == \
            input_witness(sys, (1, 1), exact)

    def test_intersection_and_containment(self):
        a = Box.from_bounds([[0, 2], [0, 2]])
        b = Box.from_bounds([[1, 3], [1, 3]])
        c = a.intersect(b)
        assert c.as_exact_bounds() == [["1", "2"], ["1", "2"]]
        assert a.contains((Fraction(2), Fraction(0)))
        assert not a.contains_box(b)
        assert a.intersect(Box.from_bounds([[5, 6], [5, 6]])) is None

    def test_intersect_is_none_or_a_closed_box(self):
        a = Box.from_bounds([[0, 1], [0, 1]])
        # disjoint on one axis, then on every axis
        assert a.intersect(Box.from_bounds([[0, 1], [2, 3]])) is None
        assert Box.from_bounds([[2, 3], [2, 3]]).intersect(a) is None
        # boxes are closed: a shared face, or a shared corner, is a flat box
        face = a.intersect(Box.from_bounds([[1, 2], [0, 1]]))
        assert face == Box.from_bounds([[1, 1], [0, 1]])
        assert a.intersect(Box.from_bounds([[1, 2], [1, 2]])) == \
            Box.from_bounds([[1, 1], [1, 1]])
        with pytest.raises(GeometryError) as err:
            Box((1,), (0,))
        assert "make_empty" not in str(err.value)

    def test_holds_is_contains_in_integers(self):
        rng = np.random.default_rng(83)
        seen = set()
        for _ in range(200):
            box = random_box(rng)
            # points on, inside and just outside a corner, over varied
            # denominators
            corner = box.lower if rng.random() < 0.5 else box.upper
            pt = [v + Fraction(int(rng.integers(-1, 2)),
                               int(rng.integers(1, 9))) for v in corner]
            # contains is holds on the point's integers: both against
            # the comparison of the Fractions
            inside = all(lo <= v <= hi
                         for lo, v, hi in zip(box.lower, pt, box.upper))
            assert box.contains(pt) == inside
            assert box.holds(*geometry._integers(pt)) == inside
            seen.add(inside)
        assert seen == {False, True}

    def test_interior_overlap_vs_face_touch(self):
        a = Box.from_bounds([[0, 1], [0, 1]])
        face = Box.from_bounds([[1, 2], [0, 1]])
        assert not a.overlaps_interior(face)
        assert a.overlaps_interior(Box.from_bounds([[0.5, 2], [0, 1]]))
        point = Box.from_bounds([[0.5, 0.5], [0.5, 0.5]])
        assert a.overlaps_interior(point)


class TestLpFeasible:
    def test_contradictory_bounds(self):
        # x in [0, 5] with 2 <= x <= 1
        assert _box_lp(((1,),), Box.from_bounds([[0, 5]]), (2,), (1,)) is None
        # x in [0, 1] with 2 <= x <= 3
        assert _box_lp(((1,),), Box.from_bounds([[0, 1]]), (2,), (3,)) is None

    def test_satisfiable_bounds(self):
        z = _box_lp(((1,),), Box.from_bounds([[-5, 5]]), (0,), (1,))
        assert z is not None and 0 <= z[0] <= 1

    def test_matches_interval_intersection_oracle(self):
        # random conjunctions of interval constraints on 2 variables: the
        # first interval of each variable is the box, the second a row
        rng = np.random.default_rng(7)
        identity = ((1, 0), (0, 1))
        for _ in range(1000):
            box, lo, hi = [], [], []
            feasible = True
            for var in range(2):
                a = Fraction(int(rng.integers(-8, 8)), 2)
                b = Fraction(int(rng.integers(-8, 8)), 2)
                c = Fraction(int(rng.integers(-8, 8)), 2)
                d = Fraction(int(rng.integers(-8, 8)), 2)
                feasible = feasible and (max(min(a, b), min(c, d))
                                         <= min(max(a, b), max(c, d)))
                box.append([min(a, b), max(a, b)])
                lo.append(min(c, d))
                hi.append(max(c, d))
            box = Box.from_bounds(box)
            z = _box_lp(identity, box, lo, hi)
            assert (z is not None) == feasible
            if z is not None:
                assert box.contains(z)
                assert all(l <= v <= h for l, v, h in zip(lo, z, hi))


class TestReachFromPoint:
    def test_far_point_cannot_reach(self):
        sys = identity_system(dom=((0, 4), (0, 4)))
        assert not reach_exists_from_point((3, 3), Box.from_bounds([[0, 0.5], [0, 0.5]]), sys)

    def test_zero_input_witness(self):
        sys = identity_system()
        y = Box.from_bounds([[0.2, 1], [0.2, 1]])
        assert reach_exists_from_point((0.5, 0.5), y, sys)

    def test_boundary_step_exactly_reaches(self):
        sys = identity_system(dom=((0, 4), (0, 4)))
        y = Box.from_bounds([[1.5, 2], [1.5, 2]])
        assert reach_exists_from_point((2.5, 2.5), y, sys)
        y2 = Box.from_bounds([[1.5, 2], [1.5, 2]])
        assert not reach_exists_from_point((3.0000001, 3), y2, sys)
        # strictly beyond the step radius fails
        assert not reach_exists_from_point(
            (Fraction(301, 100), 3), Box.from_bounds([[0, 2], [0, 2]]), sys)


class TestReachRelations:
    def test_pessimistic_spec_examples(self):
        sys = identity_system(dom=((0, 4), (0, 4)))
        assert reach_pessimistic(Box.from_bounds([[0, 1], [0, 1]]),
                                 Box.from_bounds([[0.5, 1.5], [0.5, 1.5]]), sys)
        x = Box.from_bounds([[0, 3], [0, 2]])
        assert reach_pessimistic(x, x, sys)  # 0 in U
        assert not reach_pessimistic(Box.from_bounds([[0, 3], [0, 2]]),
                                     Box.from_bounds([[2, 3], [1, 2]]), sys)

    def test_optimistic_spec_examples(self):
        sys = identity_system(dom=((0, 4), (0, 4)))
        assert reach_optimistic(Box.from_bounds([[2.5, 3], [2.5, 3]]),
                                Box.from_bounds([[1, 1.5], [1, 1.5]]), sys)
        x = Box.from_bounds([[1, 2], [1, 2]])
        assert reach_optimistic(x, x, sys)
        assert not reach_optimistic(Box.from_bounds([[3, 3.5], [3, 3.5]]),
                                    Box.from_bounds([[0, 0.5], [0, 0.5]]), sys)

    def test_box_of_wrong_dimension_is_error(self):
        # checked once per box and system, when the box's view is built
        sys = identity_system()
        line = Box.from_bounds([[0, 1]])
        for X, Y in ((line, sys.domain), (sys.domain, line)):
            with pytest.raises(GeometryError, match="1-D box under a 2-D"):
                reach_pessimistic(X, Y, sys)
            with pytest.raises(GeometryError, match="1-D box under a 2-D"):
                reach_optimistic(X, Y, sys)

    def test_pessimistic_implies_optimistic(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            sys = random_system(rng)
            x, y = random_box(rng), random_box(rng)
            if reach_pessimistic(x, y, sys):
                assert reach_optimistic(x, y, sys)
        for rng, sys in lp_only_systems(41, 300):
            x, y = random_box(rng), random_box(rng)
            if reach_pessimistic(x, y, sys):
                assert reach_optimistic(x, y, sys)

    def test_pessimistic_implies_pointwise(self):
        rng = np.random.default_rng(13)
        hits = 0
        while hits < 40:
            sys = random_system(rng)
            x, y = random_box(rng), random_box(rng)
            if not reach_pessimistic(x, y, sys):
                continue
            hits += 1
            for _ in range(100):
                assert reach_exists_from_point(random_point(rng, x), y, sys)
        shapes_hit = set()
        for rng, sys in lp_only_systems(43, 400):
            x, y = random_box(rng), random_box(rng)
            if not reach_pessimistic(x, y, sys):
                continue
            shapes_hit.add(sys.m)
            for _ in range(20):
                assert reach_exists_from_point(random_point(rng, x), y, sys)
        assert shapes_hit == {1, 2, 3}  # every shape reached some target

    def test_monotonicity_in_source(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            sys = random_system(rng)
            x, y = random_box(rng), random_box(rng)
            xs = shrunk(x)
            if reach_pessimistic(x, y, sys):
                assert reach_pessimistic(xs, y, sys)
            if reach_optimistic(xs, y, sys):
                assert reach_optimistic(x, y, sys)
        for rng, sys in lp_only_systems(47, 100):
            x, y = random_box(rng), random_box(rng)
            xs = shrunk(x)
            if reach_pessimistic(x, y, sys):
                assert reach_pessimistic(xs, y, sys)
            if reach_optimistic(xs, y, sys):
                assert reach_optimistic(x, y, sys)

    def test_diagonal_fast_path_equals_interval_oracle(self):
        rng = np.random.default_rng(19)
        for _ in range(500):
            sys = random_system(rng, diag_only=True)
            x, y = random_box(rng), random_box(rng)
            p_o, o_o = interval_reach(sys, x, y)
            assert reach_pessimistic(x, y, sys) == p_o
            assert reach_optimistic(x, y, sys) == o_o

    def test_vertex_reduction_matches_grid(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            sys = random_system(rng)
            x, y = random_box(rng), random_box(rng)
            grid_p, grid_o = grid_reach(sys, x, y, kx=24, ku=24)
            p = reach_pessimistic(x, y, sys)
            o = reach_optimistic(x, y, sys)
            # a grid witness is a real witness; a real universal claim
            # covers every grid point
            if grid_o:
                assert o
            if p:
                assert grid_p
            if not o:
                assert not grid_o
            if not grid_p:
                assert not p
        # B not diagonal and not square invertible: only the sound rule
        # that a grid witness is a real witness
        for rng, sys in lp_only_systems(53, 40):
            x, y = random_box(rng), random_box(rng)
            if grid_reach(sys, x, y, kx=12, ku=12)[1]:
                assert reach_optimistic(x, y, sys)


def lands_in(sys, pt, u, target):
    land = [sum(a * v for a, v in zip(row, pt)) +
            sum(b * w for b, w in zip(rowb, u))
            for row, rowb in zip(sys.A, sys.B)]
    return target.contains(tuple(land))


def point_reach_oracle(sys, pt, y):
    """Exists u in U with A pt + B u in Y ∩ D, from ``tests/oracles.py``.

    Diagonal systems: the interval oracle on the point box [pt, pt].
    Otherwise the planar oracle on the auxiliary system A := B, B := 0,
    U := {0}, from source U into T = (Y ∩ D) - A pt: the parallelogram
    B U meets T exactly when some input lands.
    """
    if is_diagonal_system(sys):
        return interval_reach(sys, Box(tuple(pt), tuple(pt)), y)[1]
    target = y.intersect(sys.domain)
    shift = [sum(a * v for a, v in zip(row, pt)) for row in sys.A]
    T = Box(tuple(c - s for c, s in zip(target.lower, shift)),
            tuple(d - s for d, s in zip(target.upper, shift)))
    zero = [[0, 0], [0, 0]]
    aux = ControlSystem.create(A=sys.B, B=zero, input_set=zero,
                               domain=T, initial_set=T)
    return planar_input_reach(aux, sys.input_set, T)[1]


class TestInputWitness:
    def test_wrong_dimensions_are_errors(self):
        sys = identity_system()
        with pytest.raises(GeometryError, match="1-D box under a 2-D"):
            input_witness(sys, (1, 1), Box.from_bounds([[0, 1]]))
        for x in ((1,), (1, 1, 1)):
            with pytest.raises(GeometryError, match="state dimension"):
                input_witness(sys, x, sys.domain)

    def test_witness_lands_in_target(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            sys = random_system(rng)
            x, y = random_box(rng), random_box(rng)
            target = y.intersect(sys.domain)
            if target is None:
                continue
            for pt in (x.center(), x.lower, x.upper):
                u = input_witness(sys, pt, y)
                assert (u is not None) == point_reach_oracle(sys, pt, y)
                if u is not None:
                    assert sys.input_set.contains(u)
                    assert lands_in(sys, pt, u, target)
        # B not diagonal and not square invertible: a grid witness is a
        # real witness, and every returned input lands in the target
        for rng, sys in lp_only_systems(59, 60):
            x, y = random_box(rng), random_box(rng)
            target = y.intersect(sys.domain)
            for pt in (x.center(), x.lower, x.upper):
                u = input_witness(sys, pt, y)
                if grid_reach(sys, Box(pt, pt), y, kx=1, ku=16)[1]:
                    assert u is not None
                if u is not None:
                    assert sys.input_set.contains(u)
                    assert lands_in(sys, pt, u, target)


    @pytest.mark.parametrize("B", [[[1, 0], [0, 1]], [[1, 0.25], [0, 1]]])
    def test_snapping_never_leaves_the_target(self, B):
        # the middle of these targets has denominators beyond the 2^-20
        # grid; a wide target takes the snapped input, a narrow one keeps
        # the exact middle
        sys = ControlSystem.create(
            A=[[1, 0], [0, 1]], B=B, input_set=[[-1, 1], [-1, 1]],
            domain=[[-4, 4], [-4, 4]], initial_set=[[-4, 4], [-4, 4]])
        pt = (Fraction(1, 3), Fraction(-1, 7))
        for width, snapped in ((Fraction(1, 8), True),
                               (Fraction(1, 2**30), False)):
            lows = (Fraction(1, 5), Fraction(2, 9))
            target = Box(lows, tuple(lo + width for lo in lows))
            u = input_witness(sys, pt, target)
            assert u is not None and lands_in(sys, pt, u, target)
            coarse = all(v.denominator <= 2**20 for v in u)
            assert coarse == snapped


class TestVertexControl:
    """``control_input`` from a source X that reaches Y pessimistically.

    B is neither diagonal nor square invertible in ``lp_only_systems``, so
    the probe misses and every input is interpolated from the inputs at
    the vertices of X, given as a ``Matrix`` whose integer rows
    (``Matrix.ints``) the interpolation reads.
    """

    @staticmethod
    def points(rng, X):
        """The vertices of X, a point on each of its faces, and three
        points drawn from X."""
        pts = box_vertices(X)
        for i in range(X.dim):
            for bound in (X.lower[i], X.upper[i]):
                pt = random_point(rng, X)
                pt[i] = bound
                pts.append(tuple(pt))
        return pts + [tuple(random_point(rng, X)) for _ in range(3)]

    @staticmethod
    def image_box(rng, sys, X):
        """A box around A c + B u0 for the centre c of X and some u0."""
        u0 = random_point(rng, sys.input_set)
        mid = [sum(a * v for a, v in zip(row, X.center())) +
               sum(b * w for b, w in zip(rowb, u0))
               for row, rowb in zip(sys.A, sys.B)]
        half = [Fraction(int(rng.integers(2, 9)), 4) for _ in mid]
        return Box(tuple(c - h for c, h in zip(mid, half)),
                   tuple(c + h for c, h in zip(mid, half)))

    @staticmethod
    def table(sys, X, Y):
        """The vertex table of (X, Y): the ``input_witness`` of each
        vertex, as a ``Matrix``."""
        inputs = [input_witness(sys, v, Y) for v in box_vertices(X)]
        assert None not in inputs
        return geometry.to_matrix(inputs)

    @staticmethod
    def oracle(sys, Y, X, table, x):
        def bounds(box):
            return list(zip(box.lower, box.upper))
        return vertex_control_input(sys.A, sys.B, bounds(sys.input_set),
                                    bounds(sys.domain), bounds(Y),
                                    bounds(X), table, x)

    def test_weights_and_landing(self):
        pessimistic = interpolated = 0
        for rng, sys in lp_only_systems(73, 40):
            X = random_box(rng, lo=-3, hi=3)
            Y = self.image_box(rng, sys, X)
            if not reach_pessimistic(X, Y, sys):
                continue
            pessimistic += 1
            vertices = box_vertices(X)
            table = self.table(sys, X, Y)
            target = Y.intersect(sys.domain)
            for x in self.points(rng, X):
                ws, q = geometry._weights(X, *geometry._integers(x))
                weights = [Fraction(w, q) for w in ws]
                assert all(w >= 0 for w in weights) and sum(weights) == 1
                assert tuple(sum(w * v[i] for w, v in zip(weights, vertices))
                             for i in range(X.dim)) == tuple(x)
                tables = []

                def vertex_table(xs, xd):
                    assert X.holds(xs, xd)
                    tables.append(X)
                    return X, table

                u = fractions(control_input(sys, *ints(x), box_view(Y, sys),
                                            vertex_table))
                interpolated += len(tables)
                assert u is not None and sys.input_set.contains(u)
                assert lands_in(sys, x, u, target)
                assert u == self.oracle(sys, Y, X, table, x)
        assert pessimistic >= 40
        assert interpolated == pessimistic * 11

    def test_matches_vertex_control_oracle(self):
        # targets 2^-30 high on one axis, off the 2^-20 grid, make the snap
        # miss; the wide targets of ``image_box`` take it
        seen = set()
        for rng, sys in lp_only_systems(79, 40):
            X = random_box(rng, lo=-1, hi=1)
            Y = self.image_box(rng, sys, X)
            axis = int(rng.integers(2))
            lows, highs = list(Y.lower), list(Y.upper)
            mid = (lows[axis] + highs[axis]) / 2
            lows[axis] = mid + Fraction(1, 3 * 2**21)
            highs[axis] = lows[axis] + Fraction(1, 2**30)
            for Y in (Y, Box(tuple(lows), tuple(highs))):
                if not reach_pessimistic(X, Y, sys):
                    continue
                table = self.table(sys, X, Y)
                for x in self.points(rng, X):
                    u = fractions(control_input(
                        sys, *ints(x), box_view(Y, sys),
                        lambda xs, xd: (X, table)))
                    assert u is not None
                    assert u == self.oracle(sys, Y, X, table, x)
                    seen.add(all(v.denominator <= 2**20 for v in u))
        assert seen == {False, True}

    def test_snap_that_misses_keeps_the_exact_input(self):
        # the target is 2^-30 high and starts at 1/3, off the 2^-20 grid,
        # so the interpolated input must stay off the grid: rounding it
        # would leave the target
        sys = ControlSystem.create(
            A=[[1, 0], [0, 1]], B=[[1, 0.5, 0], [0, 1, 0]],
            input_set=[[-1, 1]] * 3, domain=[[-4, 4], [-4, 4]],
            initial_set=[[-4, 4], [-4, 4]])
        X = Box.from_bounds([[0, 0.25], [0, 0.25]])
        lows = (Fraction(0), Fraction(1, 3))
        Y = Box(lows, (Fraction(1), lows[1] + Fraction(1, 2**30)))
        assert reach_pessimistic(X, Y, sys)
        table = self.table(sys, X, Y)
        x = (Fraction(1, 7), Fraction(1, 5))
        u = fractions(control_input(sys, *ints(x), box_view(Y, sys),
                                    lambda xs, xd: (X, table)))
        assert u is not None and sys.input_set.contains(u)
        assert lands_in(sys, x, u, Y)
        assert any((v * 2**20).denominator > 1 for v in u)
        assert u == self.oracle(sys, Y, X, table, x)


class TestProbeOracle:
    """The probe kernel against ``oracles.midpoint_probe``, which restates
    the probe as a linear solve per query, on seeded random queries."""

    # B is not invertible: the probe never decides, the simplex does
    UNDECIDED = ("singular diagonal", *LP_ONLY_SHAPES)

    @staticmethod
    def systems(rng):
        """(shape, system) pairs: invertible diagonal B, the bench's
        coupled system, random square invertible coupled B, diagonal B
        with a zero diagonal entry and the LP-only shapes."""
        vals = [Fraction(v) for v in (1, -1, 2, "1/2", "-1/2", "3/4", "1/4")]

        def pick():
            return vals[int(rng.integers(len(vals)))]

        def create(A, B, dom=((-4, 4), (-4, 4))):
            U = [[-Fraction(int(rng.integers(1, 9)), 4),
                  Fraction(int(rng.integers(1, 9)), 4)] for _ in B[0]]
            return ControlSystem.create(A=A, B=B, input_set=U, domain=dom,
                                        initial_set=dom)

        for zero in range(2):
            A = [[pick(), pick()], [0, pick()]]
            B = [[pick(), 0], [0, pick()]]
            yield "diagonal", create(A, B)
            B[zero][zero] = 0
            yield "singular diagonal", create(A, B)
        yield "coupled", ControlSystem.create(
            A=[[1, 0.25], [0, 1]], B=[[1, 0.5], [0, 1]],
            input_set=[[-0.5, 0.5]] * 2, domain=[[0, 4]] * 2,
            initial_set=[[0, 4]] * 2)
        for _ in range(2):
            B = [[pick(), pick()], [pick(), pick()]]
            if B[0][0] * B[1][1] != B[0][1] * B[1][0] and (B[0][1] or B[1][0]):
                yield "coupled", create([[pick(), pick()], [pick(), pick()]],
                                        B)
        for shape in LP_ONLY_SHAPES:
            yield shape, lp_only_system(rng, shape)

    @staticmethod
    def targets(rng, sys, X):
        """Boxes around an image of X, inside, straddling, touching and
        beyond the domain, with off-grid corners so that the snap is
        exercised, and a box with a corner at the image of X's centre under
        a vertex of U whose centre needs an input beyond that vertex: the
        probe clamps back to the vertex and lands on the corner."""
        domain, U = sys.domain, sys.input_set
        vertex = [lo if rng.random() < 0.5 else hi
                  for lo, hi in zip(U.lower, U.upper)]
        out = [Fraction(1, 4) if v == hi else -Fraction(1, 4)
               for v, hi in zip(vertex, U.upper)]
        near = mat_vec(sys.A, X.center())
        near = [a + b for a, b in zip(near, mat_vec(sys.B, vertex))]
        far = [a + b for a, b in zip(near, mat_vec(sys.B, out))]
        corner = Box(tuple(map(min, near, far)), tuple(map(max, near, far)))
        odd = Fraction(1, int(rng.integers(3, 10**7)))
        image = TestVertexControl.image_box(rng, sys, X)
        image = Box(tuple(v + odd for v in image.lower), image.upper)
        inside = domain.intersect(random_box(rng, lo=-4, hi=4))
        if inside is None:
            inside = shrunk(domain)
        inside = Box(inside.lower, tuple(max(lo, hi - odd) for lo, hi
                                         in zip(inside.lower, inside.upper)))
        straddling = random_box(rng, lo=-6, hi=6)
        straddling = Box(tuple(v + odd for v in straddling.lower),
                         tuple(v + 2 * odd for v in straddling.upper))
        beyond = Box(tuple(hi + 1 for hi in domain.upper),
                     tuple(hi + 2 for hi in domain.upper))
        return (image, corner, inside, straddling,
                touching_box(rng, domain), beyond)

    @classmethod
    def queries(cls, seed):
        """(shape, system, target, point) for 12 rounds of ``systems``."""
        rng = np.random.default_rng(seed)
        for _ in range(12):
            for shape, sys in list(cls.systems(rng)):
                X = sys.domain.intersect(random_box(rng, lo=-4, hi=4))
                if X is None:
                    X = shrunk(sys.domain)
                for Y in cls.targets(rng, sys, X):
                    for x in TestVertexControl.points(rng, X):
                        yield shape, sys, Y, x

    @staticmethod
    def reaches(sys, x, Y):
        """Some input lands, by ``oracles.fm_reach`` on the point box."""
        return fm_reach(sys, Box(tuple(x), tuple(x)), Y)[1]

    def test_kernel_matches_oracle(self):
        decided, found, queries = {}, {}, 0
        for shape, sys, Y, x in self.queries(83):
            U = list(zip(sys.input_set.lower, sys.input_set.upper))
            D = [[lo, hi] for lo, hi in zip(sys.domain.lower,
                                            sys.domain.upper)]
            T = list(zip(Y.lower, Y.upper))
            want = midpoint_probe(sys.A, sys.B, U, D, T, x)
            assert fractions(_probe(sys, box_view(Y, sys), *ints(x))) \
                == want, (sys, Y, x)
            if want is not None:
                assert input_witness(sys, x, Y) == want
            elif shape in self.UNDECIDED:
                lands = self.reaches(sys, x, Y)
                assert (input_witness(sys, x, Y) is not None) == lands, \
                    (sys, Y, x)
                found.setdefault(shape, [0, 0])[lands] += 1
            queries += 1
            hits = decided.setdefault(shape, [0, 0])
            hits[want is None] += 1
        assert queries >= 6000
        assert set(decided) == {"diagonal", "coupled", *self.UNDECIDED}
        for shape in ("diagonal", "coupled"):
            assert all(decided[shape]), decided
        for shape in self.UNDECIDED:
            assert decided[shape][0] == 0
            assert all(found[shape]), found

    def test_diagonal_misses_are_infeasible(self):
        # with invertible diagonal B the probe misses only where no input
        # lands, so the simplex that decides a miss finds none either
        missed = 0
        for shape, sys, Y, x in self.queries(89):
            if shape == "diagonal":
                u = input_witness(sys, x, Y)
                assert (u is not None) == self.reaches(sys, x, Y), (sys, Y, x)
                missed += u is None
        assert missed


class TestSourceReuse:
    """One source box queried against many targets, as the abstraction does.

    Each box keeps one view per system (``geometry.box_view``), holding
    its slabs as a source.  Each X object here is queried against every
    target, interleaving two systems that differ only in U, so its view
    is replaced at every query, before any answer is checked; the targets
    lie inside, across and beyond the domain boundary.  Every answer is
    then checked against an oracle and against a fresh copy of X.
    """

    DOMAIN = [[-2, 2], [-2, 2]]

    def system_pair(self, rng, coupled_A):
        vals = [Fraction(1), Fraction(1, 2), Fraction(3, 2), Fraction(-1, 2)]
        A = [[vals[int(rng.integers(4))], Fraction(0)],
             [Fraction(0), vals[int(rng.integers(4))]]]
        if coupled_A:
            A[0][1] = Fraction(1, 4) * (1 if rng.random() < 0.5 else -1)
            A[1][0] = Fraction(int(rng.integers(-2, 3)), 4)
        B = [[vals[int(rng.integers(4))], Fraction(0)],
             [Fraction(0), vals[int(rng.integers(4))]]]
        return [ControlSystem.create(A=A, B=B, input_set=[[-u, u], [-u, u]],
                                     domain=self.DOMAIN, initial_set=self.DOMAIN)
                for u in (Fraction(1, 4), Fraction(3, 4))]

    def answered(self, rng, coupled_A, sources, targets):
        """(sys, X, Y, (pess, opt)), asked source-major with X reused."""
        seen = {"inside": 0, "straddle": 0, "outside": 0}
        domain = Box.from_bounds(self.DOMAIN)
        out = []
        for _ in range(sources):
            systems = self.system_pair(rng, coupled_A)
            X = random_box(rng, lo=-2, hi=2)
            for _ in range(targets):
                Y = random_box(rng)
                if domain.contains_box(Y):
                    seen["inside"] += 1
                elif domain.intersect(Y) is None:
                    seen["outside"] += 1
                else:
                    seen["straddle"] += 1
                for sys in systems:
                    out.append((sys, X, Y, self.answers(X, Y, sys)))
        assert min(seen.values()) > 0, seen
        return out

    @staticmethod
    def answers(X, Y, sys):
        return reach_pessimistic(X, Y, sys), reach_optimistic(X, Y, sys)

    def test_diagonal_systems_match_interval_oracle(self):
        rng = np.random.default_rng(31)
        for sys, X, Y, got in self.answered(rng, False, sources=30, targets=30):
            assert got == interval_reach(sys, X, Y)
            assert got == self.answers(Box(X.lower, X.upper), Y, sys)

    def test_coupled_A_diagonal_B_matches_exact_and_witness_rules(self):
        rng = np.random.default_rng(37)
        for sys, X, Y, got in self.answered(rng, True, sources=30, targets=30):
            assert got == planar_input_reach(sys, X, Y)
            assert got == self.answers(Box(X.lower, X.upper), Y, sys)
        flat = 0
        for sys, X, Y, (p, o) in self.answered(rng, True, sources=8, targets=8):
            target = Y.intersect(sys.domain)
            flat += target is not None and box_volume(target) == 0
            grid_p, grid_o = grid_reach(sys, X, Y, kx=16, ku=16)
            # a grid witness is a real witness; a real universal claim
            # covers every grid point
            assert o or not grid_o
            assert grid_p or not p
        assert flat  # some targets touch the domain from outside

    def test_vertex_windows_apart_still_reach_pessimistically(self):
        # axis 0: the vertices' input windows [-1/2, 1/2] and [3/2, 5/2]
        # share no point, yet each meets Y
        sys = identity_system(dom=((-1, 4), (-1, 4)), u=Fraction(1, 2))
        X = Box.from_bounds([[0, 2], [0, 1]])
        assert reach_pessimistic(X, Box.from_bounds([[0, 2], [0, 1]]), sys)
        assert not reach_pessimistic(X, Box.from_bounds([[1, 2], [0, 1]]), sys)

    @pytest.mark.parametrize("side", [1, -1])
    def test_vertex_window_leaving_the_domain(self, side):
        # A = 2I moves the vertex side*(2, 2) to side*(4, 4), out of reach
        # of the domain [-3, 3]^2 with |u| <= 1/2: no target is reachable
        # from every point of X, though some are from some point
        sys = ControlSystem.create(
            A=[[2, 0], [0, 2]], B=[[1, 0], [0, 1]],
            input_set=[[-0.5, 0.5], [-0.5, 0.5]],
            domain=[[-3, 3], [-3, 3]], initial_set=[[-3, 3], [-3, 3]])

        def box(lo, hi):
            return Box.from_bounds([sorted((side * lo, side * hi))] * 2)

        X = box(1, 2)
        for Y in (box(2, 3), sys.domain, box(3, 5), box(2, 5)):
            assert not reach_pessimistic(X, Y, sys)
            assert reach_optimistic(X, Y, sys)
        assert not reach_optimistic(X, box(4, 5), sys)


class TestTargetRanges:
    """Each target box keeps, in its view for the last system that asked
    (``geometry.box_view``), the ranges of Y ∩ D along every normal.  The
    same target objects are queried in turn under two systems whose
    domains and non-axis normals differ, so a query often finds the other
    system's view; every answer must be the one a fresh, equal box
    gives."""

    COUPLED = Path(__file__).resolve().parent.parent / "bench" / "coupled.json"

    def systems(self):
        coupled = load_problem(str(self.COUPLED)).sys
        dom = [[0, 3], [0, 3]]
        other = ControlSystem.create(
            A=coupled.A, B=[[1, Fraction(-1, 2)], [0, 1]],
            input_set=coupled.input_set, domain=dom, initial_set=dom)
        return coupled, other

    @staticmethod
    def answers(X, Y, sys):
        return reach_pessimistic(X, Y, sys), reach_optimistic(X, Y, sys)

    def test_answers_match_fresh_boxes_under_alternating_systems(self):
        coupled, other = self.systems()
        normals = [[nu for nu, *_ in sys.slab_rows[sys.n:]]
                   for sys in (coupled, other)]
        assert all(normals) and normals[0] != normals[1]
        assert coupled.domain != other.domain
        rng = np.random.default_rng(73)
        sources = [random_box(rng, lo=0, hi=3) for _ in range(8)]
        # [2, 4]^2 sticks out of the smaller domain [0, 3]^2 only
        targets = [random_box(rng, lo=0, hi=4) for _ in range(24)]
        targets.append(Box.from_bounds([[2, 4], [2, 4]]))
        shown = [(repr(Y), hash(Y)) for Y in targets]
        differ = 0
        for X in sources:
            for Y in targets:
                got = [self.answers(X, Y, sys)
                       for sys in (coupled, other, other, coupled)]
                assert got == [self.answers(X, Box(Y.lower, Y.upper), sys)
                               for sys in (coupled, other, other, coupled)]
                differ += got[0] != got[1]
        assert differ
        assert [(repr(Y), hash(Y)) for Y in targets] == shown
        assert all(Y == Box(Y.lower, Y.upper) for Y in targets)

    def test_target_major_order_matches_fresh_boxes_and_oracle(self):
        # target-major, alternating two sources and two systems: the order
        # a one-entry memo of the last source would recompute at every
        # query.  The sources are targets too, so their views hold both
        # parts.
        coupled, other = self.systems()
        rng = np.random.default_rng(79)
        for _ in range(3):
            sources = [random_box(rng, lo=0, hi=3) for _ in range(2)]
            targets = [random_box(rng, lo=0, hi=4) for _ in range(12)]
            targets += [Box.from_bounds([[2, 4], [2, 4]]), *sources]
            boxes = sources + targets
            shown = [(repr(B), hash(B)) for B in boxes]
            order = [(sources[0], coupled), (sources[1], other),
                     (sources[0], other), (sources[1], coupled)]
            got = [[self.answers(X, Y, sys) for X, sys in order]
                   for Y in targets]
            for Y, row in zip(targets, got):
                fresh = Box(Y.lower, Y.upper)
                for (X, sys), answer in zip(order, row):
                    assert answer == self.answers(Box(X.lower, X.upper),
                                                  fresh, sys)
                    assert answer == fm_reach(sys, X, Y), (str(X), str(Y))
            assert [(repr(B), hash(B)) for B in boxes] == shown
            assert all(B == Box(B.lower, B.upper) for B in boxes)


def full_system(rng, n, m):
    """An n-D system with dense A and a B that is often rank-deficient."""
    vals = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2),
            Fraction(-1, 2), Fraction(3, 4), Fraction(1, 4)]

    def pick():
        return vals[int(rng.integers(len(vals)))]

    A = [[pick() for _ in range(n)] for _ in range(n)]
    B = [[pick() for _ in range(m)] for _ in range(n)]
    if n > 1 and rng.random() < 0.3:
        B[-1] = [v / 2 for v in B[0]]
    u = Fraction(int(rng.integers(1, 9)), 4)
    dom = [[-3, 3]] * n
    return ControlSystem.create(A=A, B=B, input_set=[[-u, u]] * m,
                                domain=dom, initial_set=dom)


def box_in(rng, n, lo, hi):
    lows = [Fraction(int(rng.integers(lo * 4, hi * 4)), 4) for _ in range(n)]
    return Box(tuple(lows), tuple(a + Fraction(int(rng.integers(1, 9)), 4)
                                  for a in lows))


class TestExactOracle:
    """Both relations against Fourier-Motzkin elimination, for general A and
    B, with targets inside, across and just outside the domain."""

    def test_lp_only_systems(self):
        flat = 0
        for rng, sys in lp_only_systems(61, 25):
            x = random_box(rng)
            for y in (random_box(rng), touching_box(rng, sys.domain)):
                flat += box_volume(y.intersect(sys.domain)) == 0
                assert (reach_pessimistic(x, y, sys),
                        reach_optimistic(x, y, sys)) == fm_reach(sys, x, y)
        assert flat == 75

    @pytest.mark.parametrize("n", [1, 3])
    def test_n_dimensional_systems(self, n):
        rng = np.random.default_rng(67 + n)
        seen = set()
        for _ in range(40):
            sys = full_system(rng, n, int(rng.integers(1, 4)))
            x = box_in(rng, n, -3, 3)
            for y in (box_in(rng, n, -3, 3), box_in(rng, n, -5, 5),
                      touching_box(rng, sys.domain), sys.domain):
                got = (reach_pessimistic(x, y, sys), reach_optimistic(x, y, sys))
                assert got == fm_reach(sys, x, y)
                seen.add(got)
        assert seen == {(False, False), (False, True), (True, True)}


def diagonal_system(a, b, u, domain):
    """A = diag(a), B = diag(b), U = the box u, on the box domain."""
    n = len(a)
    diag = [[[v if i == j else 0 for j in range(n)] for i, v in
             enumerate(d)] for d in (a, b)]
    return ControlSystem.create(A=diag[0], B=diag[1], input_set=u,
                                domain=domain, initial_set=domain)


def grid_box(rng, values, n):
    """A box whose bounds are drawn from ``values``, possibly flat."""
    pairs = [sorted(rng.choice(len(values), 2)) for _ in range(n)]
    return Box(tuple(values[i] for i, _ in pairs),
               tuple(values[j] for _, j in pairs))


class TestFloatShadows:
    """The slab test decides in integers, on bounds chosen so that their
    float roundings tie often: bounds within 2^-80 of each other,
    non-dyadic grids, values beyond the float range and widths below the
    smallest normal float.  Every answer here is checked against the
    exact interval oracle."""

    @staticmethod
    def answers(sys, X, Y):
        got = reach_pessimistic(X, Y, sys), reach_optimistic(X, Y, sys)
        assert got == interval_reach(sys, X, Y), (str(X), str(Y))
        return got

    def test_integer_form_gives_back_each_bound(self):
        big, tick = Fraction(10 ** 400), Fraction(1, 2 ** 1076)
        box = Box((-big, Fraction(1, 3), 5 * tick),
                  (Fraction(1, 3), big, 7 * tick))
        lower, upper, d = box.ints
        assert d > 0 and all(type(v) is int for v in lower + upper)
        assert tuple(Fraction(v, d) for v in lower) == box.lower
        assert tuple(Fraction(v, d) for v in upper) == box.upper
        assert box.ints is box.ints  # computed once per box

    # axis 0 below: the optimistic slab is [7/30, 8/15], the pessimistic
    # one [1/3, 13/30]; (slab bound, index of its relation in (pess, opt),
    # the end of the target put on it)
    TIES = [(Fraction(7, 30), 1, "upper"), (Fraction(8, 15), 1, "lower"),
            (Fraction(1, 3), 0, "upper"), (Fraction(13, 30), 0, "lower")]

    @pytest.mark.parametrize("bound, relation, end", TIES)
    def test_bounds_that_differ_below_float_resolution(self, bound, relation,
                                                       end):
        tenth, eps = Fraction(1, 10), Fraction(1, 2 ** 80)
        sys = diagonal_system((1, 1), (1, 1), [[-tenth, tenth]] * 2,
                              [[-5, 5]] * 2)
        X = Box((Fraction(1, 3), Fraction(0)), (Fraction(13, 30), tenth))
        passes = []
        for offset in (-eps, 0, eps):
            at = bound + offset
            assert float(at) == float(bound)  # the shadows tie
            lo, hi = (at - 1, at) if end == "upper" else (at, at + 1)
            Y = Box((lo, Fraction(-1)), (hi, Fraction(1)))
            passes.append(self.answers(sys, X, Y)[relation])
        # the target misses the slab only when its end lies 2^-80 outside
        assert passes == ([False, True, True] if end == "upper"
                          else [True, True, False])

    def test_non_dyadic_domains(self):
        rng = np.random.default_rng(83)
        F = Fraction
        coefficients = (F(1), F(1, 3), F(-7, 10), F(3, 2), F(0))
        gains = (F(1), F(2, 3), F(-1, 10), F(0))
        values = [F(k, 30) for k in range(-50, 95)]
        seen = set()
        for _ in range(40):
            a = [coefficients[int(rng.integers(5))] for _ in range(2)]
            b = [gains[int(rng.integers(4))] for _ in range(2)]
            u = [[F(-int(rng.integers(0, 4)), 3), F(int(rng.integers(0, 4)), 10)]
                 for _ in range(2)]
            sys = diagonal_system(a, b, u, [[F(-4, 3), F(7, 3)],
                                            [F(1, 10), F(29, 10)]])
            X = grid_box(rng, values[20:120], 2)
            for _ in range(50):
                seen.add(self.answers(sys, X, grid_box(rng, values, 2)))
        assert seen == {(False, False), (False, True), (True, True)}

    def test_coordinates_beyond_float_range(self):
        big, top = 10 ** 400, 2 ** 1024 - 2 ** 971  # top: the largest float
        assert float(top) == 1.7976931348623157e308
        values = sorted({Fraction(v) for v in (
            -big - 1, -big, -big + 1, -top, -1, 0, Fraction(1, 3), 1,
            top - 1, top, top + 2 ** 969, 2 ** 1024, big // 3, big - 1, big,
            big + 1)})
        sys = diagonal_system((1, -1), (1, Fraction(1, 3)),
                              [[-1, 1], [-big, big]],
                              [[-big, big], [-big, big]])
        rng = np.random.default_rng(89)
        seen = set()
        for _ in range(30):
            X = grid_box(rng, values, 2)
            for _ in range(30):
                seen.add(self.answers(sys, X, grid_box(rng, values, 2)))
        assert seen == {(False, False), (False, True), (True, True)}

    def test_subnormal_widths(self):
        # bounds k 2^-1076: below 2^-1075 they round to 0, and the
        # shadows of neighbouring bounds tie on most pairs
        tick = Fraction(1, 2 ** 1076)
        values = [k * tick for k in range(-12, 13)]
        assert float(values[13]) == float(values[12]) == 0.0
        sys = diagonal_system((1, 1), (1, Fraction(1, 2)),
                              [[-2 * tick, 2 * tick]] * 2,
                              [[-10 * tick, 10 * tick]] * 2)
        rng = np.random.default_rng(97)
        seen = set()
        for _ in range(40):
            X = grid_box(rng, values[2:-2], 2)
            for _ in range(40):
                seen.add(self.answers(sys, X, grid_box(rng, values, 2)))
        assert seen == {(False, False), (False, True), (True, True)}


class TestIntegerKernel:
    """The integer slab test, probe and ``mat_vec`` on the inputs where
    an inexact kernel would go wrong: non-axis ties, decimal entries whose
    denominators are near 2^55, and snaps exactly half-way between grid
    points."""

    @staticmethod
    def coupled():
        return ControlSystem.create(
            A=[[1, 0.25], [0, 1]], B=[[1, 0.5], [0, 1]],
            input_set=[[-0.5, 0.5]] * 2, domain=[[0, 4]] * 2,
            initial_set=[[0, 4]] * 2)

    # From X = [1, 2]^2 the optimistic slab along the non-axis normal
    # (1, -1/4) is [3/8, 21/8]; each target's range along it has the end
    # named touch that slab, and passes every other slab.  (target, axis-0
    # end moved by the offset)
    NON_AXIS_TIES = [(((0, Fraction(5, 8)), (1, 2)), "upper"),
                     (((Fraction(25, 8), 4), (1, 2)), "lower")]

    @pytest.mark.parametrize("bounds, end", NON_AXIS_TIES)
    def test_non_axis_ties(self, bounds, end):
        sys = self.coupled()
        assert dict(sys.reach_normals)[(1, Fraction(-1, 4))] is False
        X = Box.from_bounds([[1, 2], [1, 2]])
        eps = Fraction(1, 2 ** 80)
        opt = []
        for offset in (-eps, 0, eps):
            (lo, hi), row = bounds
            lo, hi = (Fraction(lo) + offset, Fraction(hi)) if end == "lower" \
                else (Fraction(lo), Fraction(hi) + offset)
            Y = Box.from_bounds([[lo, hi], row])
            got = reach_pessimistic(X, Y, sys), reach_optimistic(X, Y, sys)
            assert got == fm_reach(sys, X, Y), (str(Y), got)
            opt.append(got[1])
        # the target misses only when its end lies 2^-80 outside the slab
        assert opt == ([False, True, True] if end == "upper"
                       else [True, True, False])

    @staticmethod
    def decimal_system(rng):
        """A coupled 2-D system with float-read decimal entries."""
        vals = (0.1, 0.3, 0.7, -0.3, 1.1)

        def pick():
            return vals[int(rng.integers(len(vals)))]

        return ControlSystem.create(
            A=[[pick(), pick()], [pick(), pick()]],
            B=[[pick(), pick()], [0.0, pick()]],
            input_set=[[-0.7, 0.3], [-0.3, 0.7]],
            domain=[[-2.1, 2.3], [-1.9, 2.7]],
            initial_set=[[-2.1, 2.3], [-1.9, 2.7]])

    @staticmethod
    def decimal_box(rng):
        lows = [0.1 * int(rng.integers(-25, 25)) for _ in range(2)]
        return Box.from_bounds([[lo, lo + 0.1 * int(rng.integers(1, 12))]
                                for lo in lows])

    def test_decimal_systems_match_fm_oracle(self):
        rng = np.random.default_rng(101)
        seen = set()
        for _ in range(30):
            sys = self.decimal_system(rng)
            assert max(v.denominator for row in sys.A for v in row) >= 2 ** 52
            for _ in range(12):
                X, Y = self.decimal_box(rng), self.decimal_box(rng)
                got = reach_pessimistic(X, Y, sys), reach_optimistic(X, Y, sys)
                assert got == fm_reach(sys, X, Y), (str(X), str(Y))
                seen.add(got)
        assert seen == {(False, False), (False, True), (True, True)}

    def test_decimal_probe_matches_oracle(self):
        rng = np.random.default_rng(103)
        landed = 0
        for _ in range(30):
            sys = self.decimal_system(rng)
            U = list(zip(sys.input_set.lower, sys.input_set.upper))
            D = list(zip(sys.domain.lower, sys.domain.upper))
            for _ in range(8):
                X, Y = self.decimal_box(rng), self.decimal_box(rng)
                x = random_point(rng, X)
                want = midpoint_probe(sys.A, sys.B, U, D,
                                      list(zip(Y.lower, Y.upper)), x)
                assert fractions(
                    _probe(sys, box_view(Y, sys), *ints(x))) == want
                landed += want is not None
        assert landed

    def test_mat_vec_matches_fraction_sum(self):
        F = Fraction
        rng = np.random.default_rng(107)
        values = [F(0), F(1), F(-7), F(0.1), F(0.7), F(-0.3), F(1, 3),
                  F(10 ** 40, 7), F(1, 2 ** 1076), 5, -2]
        for n, m in ((1, 1), (2, 2), (3, 2), (2, 4)):
            for _ in range(40):
                mat = [[values[int(rng.integers(len(values)))]
                        for _ in range(m)] for _ in range(n)]
                vec = [values[int(rng.integers(len(values)))]
                       for _ in range(m)]
                want = tuple(sum((F(a) * F(v) for a, v in zip(row, vec)),
                                 F(0)) for row in mat)
                got = mat_vec(mat, vec)
                assert got == want
                assert all(type(v) is Fraction for v in got)
        with pytest.raises(GeometryError):
            mat_vec([[1, 2]], [1])

    @pytest.mark.parametrize("k", [0, 1, 2, 3, -1, -2, 2 ** 19 - 1])
    def test_snap_ties_round_half_to_even(self, k):
        # the centre of the target needs u = (2k + 1) 2^-21 on axis 0, half
        # way between the grid points k 2^-20 and (k + 1) 2^-20
        sys = identity_system(dom=((-4, 4), (-4, 4)), u=1)
        half = Fraction(2 * k + 1, 2 ** 21)
        Y = Box((half - Fraction(1, 8), Fraction(-1, 8)),
                (half + Fraction(1, 8), Fraction(1, 8)))
        x = (Fraction(0), Fraction(0))
        u = fractions(_probe(sys, box_view(Y, sys), *ints(x)))
        even = k if k % 2 == 0 else k + 1
        assert u == (Fraction(even, 2 ** 20), Fraction(0))
        assert u == midpoint_probe(sys.A, sys.B, [[-1, 1]] * 2,
                                   [[-4, 4]] * 2, list(zip(Y.lower, Y.upper)),
                                   x)
        assert input_witness(sys, x, Y) == u


class TestMatrix:
    """A and B are ``Matrix`` objects however a system is built, with
    their integer rows cached on them."""

    ROWS = {"A": [[1, 0.25], [Fraction(1, 3), 1]],
            "B": [[1, 0.5, 0], [0, 1, 2]]}

    def test_direct_construction_matches_create(self):
        made = ControlSystem.create(
            A=self.ROWS["A"], B=self.ROWS["B"], input_set=[[-1, 1]] * 3,
            domain=[[0, 4]] * 2, initial_set=[[0, 4]] * 2)
        rows = {name: [[Fraction(v) for v in row] for row in mat]
                for name, mat in self.ROWS.items()}
        for wrap in (list, lambda mat: tuple(map(tuple, mat))):
            sys = ControlSystem(
                A=wrap(rows["A"]), B=wrap(rows["B"]),
                input_set=made.input_set, domain=made.domain,
                initial_set=made.initial_set, proposition_regions=())
            assert sys == made and hash(sys) == hash(made)
            for name in ("A", "B"):
                mat = getattr(sys, name)
                assert isinstance(mat, geometry.Matrix)
                ints, d = mat.ints
                assert [[Fraction(v, d) for v in row] for row in ints] == \
                    rows[name]
                assert mat_vec(mat, [1] * len(mat[0])) == \
                    tuple(sum(row, Fraction(0)) for row in rows[name])

    def test_ints_are_cached_and_kept_by_to_matrix(self):
        mat = geometry.to_matrix([[Fraction(1, 6), 2], [0, Fraction(-3, 4)]])
        assert mat.ints == (((2, 24), (0, -9)), 12)
        assert mat.ints is mat.ints
        assert geometry.to_matrix(mat) is mat

    def test_dimension_mismatch_raises(self):
        sys = identity_system()
        with pytest.raises(GeometryError):
            mat_vec(sys.A, [1, 2, 3])
        with pytest.raises(GeometryError):
            mat_vec(sys.B, [1])


class TestReachNormals:
    def test_coupled_bench_system(self):
        root = Path(__file__).resolve().parent.parent
        sys = load_problem(str(root / "bench" / "coupled.json")).sys
        normals = dict(sys.reach_normals)
        F = Fraction
        assert normals == {(1, 0): True, (0, 1): True, (1, F(-1, 2)): True,
                           (1, F(-1, 4)): False}
        assert sum(normals.values()) == 3

    def test_diagonal_system_has_axis_normals_only(self):
        sys = ControlSystem.create(
            A=[[2, 0, 0], [0, -1, 0], [0, 0, 0]], B=[[1, 0], [0, 0], [0, 3]],
            input_set=[[-1, 1]] * 2, domain=[[0, 4]] * 3,
            initial_set=[[0, 4]] * 3)
        assert sys.reach_normals == (((1, 0, 0), True), ((0, 1, 0), True),
                                     ((0, 0, 1), True))

    def test_one_dimensional_system(self):
        sys = ControlSystem.create(A=[[-2]], B=[[Fraction(1, 2)]],
                                   input_set=[[-1, 1]], domain=[[-4, 4]],
                                   initial_set=[[-4, 4]])
        assert sys.reach_normals == (((1,), True),)
        rng = np.random.default_rng(71)
        for _ in range(100):
            x, y = box_in(rng, 1, -4, 4), box_in(rng, 1, -6, 6)
            assert (reach_pessimistic(x, y, sys),
                    reach_optimistic(x, y, sys)) == interval_reach(sys, x, y)


class TestMaskItems:
    """``mask_items`` against the plain bit loop: the same items in
    ascending bit order, and the very objects of ``items``."""

    @staticmethod
    def items(n):
        # ints this large are distinct objects, so identity is tested
        return [10 ** 20 + b for b in range(n)]

    @staticmethod
    def masks():
        rng = np.random.default_rng(113)
        yield 0, 1
        yield 1, 1
        yield 1, 150
        yield 1 << 2000, 2001
        for _ in range(20):  # dense
            yield sum(1 << int(b) for b in np.flatnonzero(
                rng.random(150) < 0.5)), 150
        for _ in range(20):  # sparse: 1 % of 1,728
            yield sum(1 << int(b) for b in rng.choice(
                1728, size=17, replace=False)), 1728

    def test_against_the_bit_loop(self):
        for mask, n in self.masks():
            items = self.items(n)
            want = [items[b] for b in range(n) if mask >> b & 1]
            got = mask_items(mask, items)
            assert got == want
            assert all(a is b for a, b in zip(got, want))
