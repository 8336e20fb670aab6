"""Box geometry and exact one-step reachability.

Everything in this module is decided in exact rational arithmetic
(`fractions.Fraction`).  Reachability booleans feed the game solver, and a
single misclassified transition can flip a realizability verdict, so there
is no feasibility tolerance anywhere: float inputs are converted exactly
(every binary float is a rational), and every decision is the one the
exact values give.  The axis slab test compares float shadows first: each
bound rounded to the nearest float (``_shadow``).  Rounding to nearest is
monotone, so a strict inequality between two shadows proves the same
strict inequality between the exact values, and decides the comparison.
Equal shadows prove nothing; on such a tie the ``Fraction``s are compared
(a certified float filter in the sense of Shewchuk, DCG 1997).

The two relations of interest between regions X and Y of an affine system
s' = A s + B u, u constrained to a box U, with T = Y ∩ D the target
clipped to the domain D:

* ``reach_optimistic``: some point of X has some admissible input landing
  in Y, that is, 0 lies in the zonotope ``A X + B U - T``;
* ``reach_pessimistic``: every point of X has one.  The points that can
  reach T form a convex set, so this holds exactly when 0 lies in
  ``A v + B U - T`` for every vertex v of X.

Both are decided by one separating-axis test.  A point lies in a zonotope
exactly when it lies in the slab of every facet normal (Girard, HSCC 2005),
and the facet normals are generalized cross products of n - 1 generator
directions (Althoff, Stursberg & Buss, NAHS 2010).  The directions are the
columns of A, the columns of B and the unit axes, which carry the
generators of the boxes, so the normals depend on the system alone
(``ControlSystem.reach_normals``).  Generators of zero length (a flat X, U
or T) keep the test exact: such a zonotope is the limit of
full-dimensional ones with the same normals.  The slabs of a source box X
are computed once (``_SourceView``), and a target then costs one range
comparison per normal, made on the float shadows first along the axes.
The abstraction asks its queries source-major, and the view of the last
source is kept.

The controller asks for an input u in U with A x + B u in a box.  The
probe (``_probe``) answers with no simplex and no linear solve: on a fixed
target T it is one affine map of x, u* = B⁻¹c - B⁻¹A x with c the centre
of T, from ``ControlSystem.probe_map`` (computed once per system, the only
place the probe runs ``_solve_square``) and a ``TargetView`` (computed once
per target).  u* is clamped to U and kept when it still lands.  With
invertible diagonal B that misses only when no input lands; otherwise it
may miss where inputs land, and always does when B is not square and
invertible.  When the probe misses, ``input_witness`` decides by an exact
phase-1 simplex over the box (``_box_lp``), while ``control_input``
interpolates inputs given at the vertices of the source region (vertex
control).  So the simplex runs in the control loop only when a vertex
table is built.  The probe is clamped to U and the simplex returns a
vertex, so those landings may lie on a face of the target, which is
sound: boxes are closed.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import combinations, product
from operator import mul
from typing import Sequence

Matrix = tuple[tuple[Fraction, ...], ...]


class GeometryError(ValueError):
    """Malformed geometric input (dimension mismatch, bad bounds, ...)."""


# The strings ``float`` reads as a non-finite value.
_NON_FINITE = re.compile(r"\s*[+-]?(inf(inity)?|nan)\s*", re.IGNORECASE)


def to_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise GeometryError(f"expected a number, got bool {value!r}")
    if isinstance(value, float) and not math.isfinite(value) or \
            isinstance(value, str) and _NON_FINITE.fullmatch(value):
        raise GeometryError(f"expected a finite number, got {value!r}")
    if isinstance(value, (int, float, str)):
        return Fraction(value)
    raise GeometryError(f"cannot interpret {value!r} as a rational number")


def _shadow(v: Fraction) -> float:
    """v rounded to the nearest float, or ±inf beyond the float range.

    CPython rounds integer true division correctly, so this is monotone:
    a <= b gives ``_shadow(a) <= _shadow(b)``.  A strict inequality
    between shadows therefore proves the same one between the exact
    values; equal shadows prove nothing.
    """
    try:
        return v.numerator / v.denominator
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def to_matrix(rows) -> Matrix:
    mat = tuple(tuple(to_fraction(v) for v in row) for row in rows)
    if not mat or any(len(r) != len(mat[0]) for r in mat):
        raise GeometryError("matrix rows must be nonempty and equal length")
    return mat


def mat_vec(mat: Matrix, vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
    if any(len(row) != len(vec) for row in mat):
        raise GeometryError("matrix/vector dimension mismatch")
    return tuple(sum(a * x for a, x in zip(row, vec)) for row in mat)


@dataclass(frozen=True)
class Box:
    """Closed axis-aligned box, or the explicit empty box.

    Shared faces of adjacent boxes belong to both: reachability into a
    measure-zero face never creates a transition on its own because
    targets are always full-dimensional cells.
    """

    lower: tuple[Fraction, ...]
    upper: tuple[Fraction, ...]
    empty: bool = False

    def __post_init__(self):
        if self.empty:
            return
        if len(self.lower) != len(self.upper) or not self.lower:
            raise GeometryError("box needs matching nonempty lower/upper bounds")
        for lo, hi in zip(self.lower, self.upper):
            if lo > hi:
                raise GeometryError(f"box bound {lo} > {hi}; use Box.make_empty()")

    @staticmethod
    def from_bounds(bounds) -> "Box":
        """Build from ``[[lo, hi], ...]`` (the JSON interchange shape)."""
        lows, highs = [], []
        for pair in bounds:
            lo, hi = pair
            lows.append(to_fraction(lo))
            highs.append(to_fraction(hi))
        return Box(tuple(lows), tuple(highs))

    @staticmethod
    def make_empty(dim: int) -> "Box":
        return Box(tuple([Fraction(0)] * dim), tuple([Fraction(0)] * dim), empty=True)

    @property
    def dim(self) -> int:
        return len(self.lower)

    @cached_property
    def shadows(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """The bounds rounded to the nearest float (``_shadow``), as
        (lower, upper); computed on first use, once per box."""
        return tuple(map(_shadow, self.lower)), tuple(map(_shadow, self.upper))

    def widths(self) -> tuple[Fraction, ...]:
        return tuple(hi - lo for lo, hi in zip(self.lower, self.upper))

    def center(self) -> tuple[Fraction, ...]:
        return tuple((lo + hi) / 2 for lo, hi in zip(self.lower, self.upper))

    def contains(self, point: Sequence[Fraction]) -> bool:
        if self.empty or len(point) != self.dim:
            return False
        return all(lo <= x <= hi for lo, x, hi in zip(self.lower, point, self.upper))

    def contains_box(self, other: "Box") -> bool:
        if other.empty:
            return True
        if self.empty:
            return False
        return all(a <= c and d <= b for a, b, c, d in
                   zip(self.lower, self.upper, other.lower, other.upper))

    def intersect(self, other: "Box") -> "Box":
        if self.empty or other.empty:
            return Box.make_empty(self.dim)
        lo = tuple(max(a, c) for a, c in zip(self.lower, other.lower))
        hi = tuple(min(b, d) for b, d in zip(self.upper, other.upper))
        if any(a > b for a, b in zip(lo, hi)):
            return Box.make_empty(self.dim)
        return Box(lo, hi)

    def overlaps_interior(self, other: "Box") -> bool:
        """True when the intersection is full-dimensional relative to ``other``.

        Degenerate axes of ``other`` only need containment; every
        non-degenerate axis needs open overlap.  This is the sound notion
        of "shares points with" under the closed-box convention, where
        face-only contact is ambiguous between neighbors.
        """
        if self.empty or other.empty:
            return False
        for a, b, c, d in zip(self.lower, self.upper, other.lower, other.upper):
            lo, hi = max(a, c), min(b, d)
            if c == d:
                if lo > hi:
                    return False
            elif lo >= hi:
                return False
        return True

    def as_float_bounds(self) -> list[list[float]]:
        return [[float(lo), float(hi)] for lo, hi in zip(self.lower, self.upper)]

    def __str__(self):
        if self.empty:
            return "Box(empty)"
        parts = "x".join(f"[{lo},{hi}]" for lo, hi in zip(self.lower, self.upper))
        return f"Box({parts})"


@dataclass(frozen=True)
class ControlSystem:
    """Discrete-time affine system s[t+1] = A s[t] + B u[t] on a box domain.

    ``proposition_regions`` maps atomic proposition names to the boxes on
    which they hold; each must sit inside the domain, as must the initial
    set.
    """

    A: Matrix
    B: Matrix
    input_set: Box
    domain: Box
    initial_set: Box
    proposition_regions: tuple[tuple[str, Box], ...]

    def __post_init__(self):
        n = len(self.A)
        if any(len(row) != n for row in self.A):
            raise GeometryError("A must be square")
        if len(self.B) != n:
            raise GeometryError("B must have as many rows as A")
        m = len(self.B[0])
        if self.domain.dim != n or self.initial_set.dim != n:
            raise GeometryError("domain/initial set dimension must match A")
        if self.input_set.dim != m:
            raise GeometryError("input set dimension must match B's columns")
        if not self.domain.contains_box(self.initial_set):
            raise GeometryError("initial set must lie inside the domain")
        seen = set()
        for name, box in self.proposition_regions:
            if name in seen:
                raise GeometryError(f"duplicate proposition {name!r}")
            seen.add(name)
            if box.dim != n or not self.domain.contains_box(box):
                raise GeometryError(f"proposition {name!r} must lie inside the domain")

    @staticmethod
    def create(A, B, input_set, domain, initial_set, propositions=()) -> "ControlSystem":
        props = tuple(
            (name, box if isinstance(box, Box) else Box.from_bounds(box))
            for name, box in propositions
        )

        def _box(b):
            return b if isinstance(b, Box) else Box.from_bounds(b)

        return ControlSystem(to_matrix(A), to_matrix(B), _box(input_set),
                             _box(domain), _box(initial_set), props)

    @property
    def n(self) -> int:
        return len(self.A)

    @property
    def m(self) -> int:
        return len(self.B[0])

    @cached_property
    def input_hull(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """Per row i, the exact range ``(lo, hi)`` of ``B_i . u`` over U."""
        return tuple(_row_range(row, self.input_set) for row in self.B)

    @cached_property
    def probe_map(self) -> tuple[tuple, tuple] | None:
        """(N, B⁻¹) with N = -B⁻¹A, the affine map of the probe.

        For a target with centre c, u = B⁻¹c + N x sends x to c (N is kept
        negated so that u is one sum started at B⁻¹c).  B⁻¹ comes from one
        ``_solve_square`` per column, here and never per step.  None when
        B is not square and invertible.
        """
        n = self.n
        cols = [_solve_square(self.B, [Fraction(int(i == j)) for i in range(n)])
                for j in range(n)]
        if None in cols:
            return None
        binv = tuple(zip(*cols))
        N = tuple(tuple(-_dot(row, col) for col in zip(*self.A))
                  for row in binv)
        return N, binv

    @cached_property
    def reach_normals(self) -> tuple[tuple[tuple[Fraction, ...], bool], ...]:
        """The facet normals of the reach zonotopes, as (normal, pessimistic).

        Each normal is the generalized cross product of n - 1 of the
        nonzero directions: the unit axes, the columns of B and the
        columns of A, the generators of ``A X + B U - T`` for boxes X and
        T.  It is solved from the n - 1 directions plus the first unit
        row e_k that makes the system regular, with ν·e_k = 1; that k is
        the first nonzero entry of the normal, so equal normals come out
        equal.  A normal is pessimistic when some subset of axes and B's
        columns alone gives it: those are the normals of
        ``A v + B U - T``.  The unit axes come first, e_i at index i.
        """
        n = self.n
        axes = [tuple(Fraction(int(i == j)) for j in range(n))
                for i in range(n)]
        inputs = [col for col in zip(*self.B) if any(col)]
        directions = axes + inputs + [col for col in zip(*self.A) if any(col)]
        normals = dict.fromkeys(axes, True)
        rhs = [Fraction(0)] * (n - 1) + [Fraction(1)]
        for subset in combinations(range(len(directions)), n - 1):
            rows = [directions[k] for k in subset]
            for unit in axes:
                normal = _solve_square(rows + [unit], rhs)
                if normal is not None:
                    normal = tuple(normal)
                    pessimistic = not subset or subset[-1] < n + len(inputs)
                    normals[normal] = normals.get(normal, False) or pessimistic
                    break
        return tuple(normals.items())


# ---------------------------------------------------------------------------
# Exact LP over a box
# ---------------------------------------------------------------------------

def _phase1_feasible(rows: list[tuple[list[Fraction], Fraction]],
                     nvars: int) -> list[Fraction] | None:
    """Exact phase-1 simplex for {w >= 0 : row . w <= rhs for all rows}.

    Returns a feasible w, or None.  Bland's rule, so no cycling; all
    arithmetic is rational.
    """
    nrows = len(rows)
    # Tableau columns: w (nvars) | slacks (nrows) | artificials (on demand) | rhs
    art_rows = [r for r, (_, rhs) in enumerate(rows) if rhs < 0]
    if not art_rows:
        return [Fraction(0)] * nvars
    nart = len(art_rows)
    ncols = nvars + nrows + nart
    tab = [[Fraction(0)] * (ncols + 1) for _ in range(nrows)]
    basis = [0] * nrows
    art_index = {}
    for k, r in enumerate(art_rows):
        art_index[r] = nvars + nrows + k
    for r, (coeffs, rhs) in enumerate(rows):
        sign = -1 if rhs < 0 else 1
        for j, c in enumerate(coeffs):
            tab[r][j] = sign * c
        tab[r][nvars + r] = Fraction(sign)
        tab[r][ncols] = sign * rhs
        if rhs < 0:
            tab[r][art_index[r]] = Fraction(1)
            basis[r] = art_index[r]
        else:
            basis[r] = nvars + r
    # objective: minimize sum of artificials; reduced costs of z = -sum(art rows)
    obj = [Fraction(0)] * (ncols + 1)
    for r in art_rows:
        for j in range(ncols + 1):
            obj[j] -= tab[r][j]
    first_art = nvars + nrows
    while True:
        enter = -1
        for j in range(ncols):
            if j >= first_art:
                break  # artificials never re-enter
            if obj[j] < 0:
                enter = j
                break  # Bland: smallest index
        if enter < 0:
            break
        leave, best = -1, None
        for r in range(nrows):
            a = tab[r][enter]
            if a > 0:
                ratio = tab[r][ncols] / a
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leave]):
                    best, leave = ratio, r
        if leave < 0:
            # unbounded phase-1 objective cannot happen (bounded below by 0)
            raise RuntimeError("phase-1 simplex unbounded; malformed tableau")
        piv = tab[leave][enter]
        tab[leave] = [v / piv for v in tab[leave]]
        for r in range(nrows):
            if r != leave and tab[r][enter] != 0:
                f = tab[r][enter]
                tab[r] = [v - f * p for v, p in zip(tab[r], tab[leave])]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [v - f * p for v, p in zip(obj, tab[leave])]
        basis[leave] = enter
    if -obj[ncols] != 0:  # optimum of sum(artificials)
        return None
    witness = [Fraction(0)] * nvars
    for r, b in enumerate(basis):
        if b < nvars:
            witness[b] = tab[r][ncols]
    return witness


def _box_lp(M: Sequence[Sequence[Fraction]], box: Box, lo: Sequence[Fraction],
            hi: Sequence[Fraction]) -> tuple[Fraction, ...] | None:
    """A point z of ``box`` with ``lo <= M z <= hi`` row by row, or None.

    Solved in w = z - box.lower, so ``0 <= w <= widths`` and each row i
    gives ``M_i w <= hi_i - M_i box.lower`` and its mirror.
    """
    widths = box.widths()
    k = len(widths)
    rows = [([Fraction(int(j == i)) for j in range(k)], widths[i])
            for i in range(k)]
    for row, base, l, h in zip(M, mat_vec(M, box.lower), lo, hi):
        rows.append((list(row), h - base))
        rows.append(([-c for c in row], base - l))
    w = _phase1_feasible(rows, k)
    if w is None:
        return None
    return tuple(l + v for l, v in zip(box.lower, w))


# ---------------------------------------------------------------------------
# Reachability relations
# ---------------------------------------------------------------------------

def _row_range(row: Sequence[Fraction], box: Box) -> tuple[Fraction, Fraction]:
    """Exact range of ``row . z`` over z in box."""
    lo = hi = Fraction(0)
    for c, zl, zh in zip(row, box.lower, box.upper):
        lo += c * (zl if c >= 0 else zh)
        hi += c * (zh if c >= 0 else zl)
    return lo, hi


def _project(normal: Sequence[Fraction], mat: Matrix) -> list[Fraction]:
    """The row ``normal^T mat``, so ``normal . (mat z) = row . z``."""
    return [sum(v * c for v, c in zip(normal, col)) for col in zip(*mat)]


def _clamp(vec: Sequence[Fraction], box: Box) -> tuple[Fraction, ...]:
    return tuple(min(max(v, lo), hi)
                 for v, lo, hi in zip(vec, box.lower, box.upper))


def _solve_square(mat: Matrix, rhs: Sequence[Fraction]) -> list[Fraction] | None:
    """Exact Gaussian elimination; None when singular or non-square."""
    n = len(mat)
    if any(len(row) != n for row in mat) or len(rhs) != n:
        return None
    aug = [list(row) + [r] for row, r in zip(mat, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        pval = aug[col][col]
        aug[col] = [v / pval for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * p for v, p in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


# Inputs are snapped to this grid when they still land (``_snap``): long
# exact simulations would otherwise grow the state's denominators at every
# step.
_COARSE_GRID = 1 << 20


def _window(sys: ControlSystem, x: Sequence[Fraction], T: Box):
    """(lo, hi) such that A x + B u lies in T exactly when
    ``lo <= B u <= hi`` row by row."""
    shift = mat_vec(sys.A, x)
    return ([c - s for c, s in zip(T.lower, shift)],
            [d - s for d, s in zip(T.upper, shift)])


def _lands(sys: ControlSystem, u, lo, hi) -> bool:
    return all(l <= v <= h for l, v, h in zip(lo, mat_vec(sys.B, u), hi))


def _snap(U: Box, u, lands) -> tuple[Fraction, ...]:
    """u rounded to the 2^-20 grid and clamped to U, when ``lands``
    accepts that; else u."""
    if all(v.denominator <= _COARSE_GRID for v in u):
        return tuple(u)
    snapped = _clamp([Fraction(round(v * _COARSE_GRID), _COARSE_GRID)
                      for v in u], U)
    return snapped if lands(snapped) else tuple(u)


def _hull_meets(sys: ControlSystem, lo, hi) -> bool:
    """The window meets the row hull of B U, which every landing needs."""
    for (blo, bhi), l, h in zip(sys.input_hull, lo, hi):
        if bhi < l or blo > h:
            return False
    return True


class TargetView:
    """What the probe reads of one target box Y under one system.

    * ``T``: Y ∩ D, or None when Y misses the domain;
    * ``k``: B⁻¹ c for the centre c of T, or None with no T or no
      ``sys.probe_map``;
    * ``h``: the half-widths of T.
    """

    __slots__ = ("T", "k", "h")

    def __init__(self, Y: Box, sys: ControlSystem):
        T = Y.intersect(sys.domain)
        self.T = self.k = self.h = None
        if T.empty:
            return
        self.T = T
        self.h = tuple((hi - lo) / 2 for lo, hi in zip(T.lower, T.upper))
        if sys.probe_map is not None:
            centre = T.center()
            self.k = tuple(_dot(row, centre) for row in sys.probe_map[1])


def _dot(row: Sequence[Fraction], vec: Sequence[Fraction],
         start: Fraction | int = 0) -> Fraction:
    """start + row . vec"""
    return sum(map(mul, row, vec), start)


def _lands_near(B: Matrix, u, star, h) -> bool:
    """|B (u - star)| <= h row by row: u lands in the box of half-widths h
    centred on B star.  Only the columns where u differs from star count."""
    d = [(j, v - s) for j, (v, s) in enumerate(zip(u, star)) if v != s]
    if not d:
        return True
    return all(abs(sum(row[j] * dj for j, dj in d)) <= hw
               for row, hw in zip(B, h))


def _probe(sys: ControlSystem, view: TargetView,
           x: Sequence[Fraction]) -> tuple[Fraction, ...] | None:
    """An input u in U with A x + B u in the view's target, found without
    the simplex or any linear solve.

    u* = k + N x (``probe_map``, N = -B⁻¹A) is the input that sends x to
    the centre c of T: B u* = c - A x.  u* is clamped to U, and the
    clamped u lands exactly when |B (u - u*)| <= h (``_lands_near``),
    which reads the clamped columns alone: no A x and no B u is computed.
    u is then snapped to the 2^-20 grid when that still lands, by the
    same test.  None means the probe missed, as it always does when B is
    not square and invertible.  With diagonal B the axes are independent
    and clamping picks the point of U_i nearest u*_i, so the probe misses
    only when no input lands.  The probe may land on a face of the
    target, which is inside it: boxes are closed.
    """
    if view.k is None:
        return None
    U = sys.input_set
    star = [_dot(row, x, k) for k, row in zip(view.k, sys.probe_map[0])]
    u = _clamp(star, U)
    if not _lands_near(sys.B, u, star, view.h):
        return None
    return _snap(U, u, lambda v: _lands_near(sys.B, v, star, view.h))


def input_witness(sys: ControlSystem, x: Sequence[Fraction],
                  target: Box) -> tuple[Fraction, ...] | None:
    """A concrete u in U with A x + B u in the closed target box, or None.

    The input of ``_probe`` on a throwaway ``TargetView`` when it finds
    one.  When the probe misses, an exact phase-1 simplex (``_box_lp``)
    decides, gated by the row hull of B U, and returns a vertex of the
    feasible inputs, snapped to the 2^-20 grid when that stays feasible,
    which may land on a face of the target.  With invertible diagonal B
    the probe misses only when no input lands, and the gate turns every
    such miss away, so the simplex never runs.  In the control loop this
    runs only to build vertex tables (``control_input``).
    """
    x = [to_fraction(v) for v in x]
    view = TargetView(target, sys)
    u = _probe(sys, view, x)
    if u is None and view.T is not None:
        window = _window(sys, x, view.T)
        if _hull_meets(sys, *window):
            u = _box_lp(sys.B, sys.input_set, *window)
            if u is not None:
                u = _snap(sys.input_set, u,
                          lambda v: _lands(sys, v, *window))
    return u


def reach_exists_from_point(x: Sequence[Fraction], Y: Box,
                            sys: ControlSystem) -> bool:
    """Exists u in U with A x + B u in Y (Y clipped to the domain)."""
    return input_witness(sys, x, Y) is not None


# ---------------------------------------------------------------------------
# Vertex control
# ---------------------------------------------------------------------------

def box_vertices(X: Box) -> list[tuple[Fraction, ...]]:
    """The 2^n corners of X, the first axis varying slowest."""
    return list(product(*zip(X.lower, X.upper)))


def vertex_weights(X: Box, x: Sequence[Fraction]) -> list[Fraction]:
    """The multilinear weights of a point x of X over ``box_vertices(X)``.

    Per axis, t_i = (x_i - lower_i) / width_i (0 on a flat axis), and a
    vertex weighs the product of t_i where it takes the upper bound and
    1 - t_i where it takes the lower.  The weights are >= 0, sum to 1 and
    give ``sum(w_v v) = x``.
    """
    weights = [Fraction(1)]
    for xi, lo, hi in zip(x, X.lower, X.upper):
        t = (xi - lo) / (hi - lo) if hi != lo else Fraction(0)
        weights = [w * f for w in weights for f in (1 - t, t)]
    return weights


def control_input(sys: ControlSystem, x: Sequence[Fraction], view: TargetView,
                  vertex_table) -> tuple[Fraction, ...] | None:
    """The controller's input: u in U with A x + B u in the view's target
    T = Y ∩ D, or None.

    No simplex and no linear solve runs here.  The probe (``_probe``)
    comes first, so a step it decides gets the input ``input_witness``
    gives.  When it misses, ``vertex_table()`` returns a box X holding x
    and one input per vertex of X, in ``box_vertices`` order, and u is
    their sum under ``vertex_weights``.  When every vertex input lands in
    T, so does u, exactly: U and the target are convex and the step is
    affine (vertex control: Gutman & Cwikel, IEEE TAC 1986; Belta &
    Habets, IEEE TAC 2006).  u is snapped to the 2^-20 grid when that
    still lands, which keeps the state's denominators bounded over long
    runs, and kept exact otherwise (``_snap``).  None when u does not
    land, which landing vertex inputs rule out.
    """
    if view.T is None:
        return None
    x = [to_fraction(v) for v in x]
    u = _probe(sys, view, x)
    if u is not None:
        return u
    X, inputs = vertex_table()
    u = [Fraction(0)] * sys.m
    for w, uv in zip(vertex_weights(X, x), inputs):
        if w:
            u = [a + w * b for a, b in zip(u, uv)]
    window = _window(sys, x, view.T)
    u = _snap(sys.input_set, u, lambda v: _lands(sys, v, *window))
    return u if _lands(sys, u, *window) else None


class _SourceView:
    """The slabs of one source box X under one system.

    Per normal ν of ``sys.reach_normals``, with (alo, ahi) the range of
    ν·A x over X and (blo, bhi) that of ν·B u over U, the optimistic slab
    is [alo + blo, ahi + bhi] and the pessimistic slab [ahi + blo,
    alo + bhi], the window every vertex reaches, which may be inverted.
    A target passes a slab (lo, hi) when its range (tlo, thi) along ν
    has ``tlo <= hi`` and ``thi >= lo``.

    * ``opt_axes`` / ``pess_axes``: per axis i, the slab along e_i already
      clipped to the domain, (lo, hi) = (max(lo, D_i low), min(hi, D_i
      high)), stored with its shadows as (lo, hi, fl(lo), fl(hi)); Y
      passes it exactly when Y ∩ D does, so axis tests read Y unclipped.
      None when some axis slab misses the domain: then no target passes.
    * ``opt_others`` / ``pess_others``: (ν, lo, hi) per non-axis normal,
      tested exactly against the range of ν over Y ∩ D, which is
      computed per query.
    """

    __slots__ = ("opt_axes", "pess_axes", "opt_others", "pess_others")

    def __init__(self, X: Box, sys: ControlSystem):
        n, normals = sys.n, sys.reach_normals
        opt, pess = [], []
        for i, (normal, pessimistic) in enumerate(normals):
            if i < n:  # the unit axis e_i
                alo, ahi = _row_range(sys.A[i], X)
                blo, bhi = sys.input_hull[i]
            else:
                alo, ahi = _row_range(_project(normal, sys.A), X)
                blo, bhi = _row_range(_project(normal, sys.B), sys.input_set)
            opt.append((alo + blo, ahi + bhi))
            pess.append((ahi + blo, alo + bhi) if pessimistic else None)
        self.opt_axes = _clip_axes(opt[:n], sys.domain)
        self.pess_axes = _clip_axes(pess[:n], sys.domain)
        self.opt_others = [(normal, *slab) for (normal, _), slab
                           in zip(normals[n:], opt[n:])]
        self.pess_others = [(normal, *slab) for (normal, _), slab
                            in zip(normals[n:], pess[n:]) if slab]


def _clip_axes(slabs, domain: Box):
    """Axis slabs clipped to the domain, each as (lo, hi, fl(lo), fl(hi)),
    or None when one misses it."""
    bounds = list(zip(slabs, domain.lower, domain.upper))
    if any(lo > dh or hi < dl for (lo, hi), dl, dh in bounds):
        return None
    clipped = [(max(lo, dl), min(hi, dh)) for (lo, hi), dl, dh in bounds]
    return [(lo, hi, _shadow(lo), _shadow(hi)) for lo, hi in clipped]


# One-entry memo: the view of the last source queried.  Callers issue
# their queries source-major, so consecutive queries share it.  The key is
# the identity of X and of the system (both immutable, and kept alive by
# the entry itself); hashing Fraction tuples per query would cost about
# what the memo saves.  Key and view are read and written as one tuple,
# so a key is never paired with another source's view.
_last_view: tuple = (None, None, None)


def _source_view(X: Box, sys: ControlSystem) -> _SourceView:
    global _last_view
    last_X, last_sys, view = _last_view
    if last_X is X and last_sys is sys:
        return view
    view = _SourceView(X, sys)
    _last_view = (X, sys, view)
    return view


def _passes(axes, others, Y: Box, domain: Box) -> bool:
    """Y ∩ D meets every slab: the axis slabs of ``axes`` (clipped to D,
    so Y is read unclipped) and the (normal, lo, hi) slabs of ``others``.

    An axis compares the shadows of Y's bounds (``Box.shadows``) with the
    slab's first.  A strict float inequality decides, because rounding is
    monotone; when a shadow ties with the slab bound it faces, the exact
    bounds decide the axis.  The non-axis normals compare exact values
    only.  Passing every axis slab implies Y meets D, so Y ∩ D is
    nonempty when the other normals read their ranges off it.
    """
    if axes is None:
        return False
    fyl, fyh = Y.shadows
    for (lo, hi, flo, fhi), yl, yh, fl, fh in zip(axes, Y.lower, Y.upper,
                                                  fyl, fyh):
        if fh <= flo or fl >= fhi:  # a tie is decided by the Fractions
            if fh < flo or fl > fhi or yh < lo or yl > hi:
                return False
    if not others:
        return True
    target = Y.intersect(domain)
    for normal, lo, hi in others:
        tlo, thi = _row_range(normal, target)
        if thi < lo or tlo > hi:
            return False
    return True


def reach_pessimistic(X: Box, Y: Box, sys: ControlSystem) -> bool:
    """Every point of X admits an input landing in Y (within the domain).

    Vertex reduction: the set of x that can reach Y is convex, so it
    contains X iff it contains all of X's vertices.  Vertex v reaches
    Y ∩ D exactly when 0 lies in the zonotope ``A v + B U - (Y ∩ D)``,
    whose normals are the pessimistic ones; taken over all vertices at
    once, that is the pessimistic slab test of ``_SourceView``.
    """
    if X.empty:
        raise GeometryError("pessimistic reach from an empty region is undefined")
    if Y.empty:
        return False
    view = _source_view(X, sys)
    return _passes(view.pess_axes, view.pess_others, Y, sys.domain)


def reach_optimistic(X: Box, Y: Box, sys: ControlSystem) -> bool:
    """Some point of X admits an input landing in Y (within the domain).

    Exactly when 0 lies in the zonotope ``A X + B U - (Y ∩ D)``, that is,
    when Y ∩ D meets the optimistic slab of every normal (``_SourceView``).
    """
    if X.empty or Y.empty:
        raise GeometryError("optimistic reach needs nonempty regions")
    view = _source_view(X, sys)
    return _passes(view.opt_axes, view.opt_others, Y, sys.domain)
