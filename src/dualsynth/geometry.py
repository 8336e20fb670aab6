"""Box geometry and exact one-step reachability.

Everything in this module is decided in exact rational arithmetic.
Reachability booleans feed the game solver, and a single misclassified
transition can flip a realizability verdict, so there is no feasibility
tolerance anywhere and no float takes part in any decision: float inputs
are converted exactly (every binary float is a rational), and every
decision is the one the exact values give.  The hot loops (the slab test,
the probe, the vertex-table step with its weights, snap and landing test,
and the state update) run on integers rather than ``Fraction`` objects
(exact computation in the sense of Yap, CGTA 1997).  Each box keeps its
bounds as integer numerators over one denominator (``Box.ints``,
computed on first use, or handed to a child by the split), each
matrix its integer rows over one denominator (``Matrix.ints``: A, B and
every vertex table), each system the integer rows of its slabs and its
probe (``slab_rows``, ``probe_map``), and every comparison of two
rationals over positive denominators is one cross-multiplication:
a/b <= c/d exactly when a d <= c b.  The control path speaks integers
throughout: ``_probe``, ``control_input`` and ``next_state_ints`` take
the state x as numerators over one denominator, (xs, xd), and return
the input or the next state the same way, so a simulated run builds no
``Fraction`` but its records.  Its only ``Fraction`` arithmetic is the
simplex of ``_box_lp`` and its window, which run only to build a vertex
table (``input_witness``, which takes and returns ``Fraction``s).

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
full-dimensional ones with the same normals.  Each box keeps one view per
system (``box_view``): the slabs of a box X as a source, and the ranges
of a box Y ∩ D as a target along every normal, axes included, are each
computed once, so a query costs one comparison of two ranges per normal
(``_passes``), in whatever order the queries come.  One kernel computes
each part (``_source_slabs``, ``_target_ranges``): a lone ``reach_*``
query calls it on the view's first access, and a batch of queries fills
every view it needs in one pass before its first query
(``fill_views``).  A batch of queries against the same targets shares
one ``AxisIndex``: the targets' ranges on the n unit axes over one
common denominator TD, sorted per axis by lower and by upper ends, with
a prefix bitmask of targets (bit b for target b) at every position.  A
source slab then passes a whole set of targets at once, by two
``bisect``s and two ANDs on exact integers, and ``_passes`` is left
with the targets the axes keep, for a relation that has other normals.

The controller asks for an input u in U with A x + B u in a box.  The
probe (``_probe``) answers with no simplex and no linear solve: on a fixed
target T it is one affine map of x, u* = B⁻¹c - B⁻¹A x with c the centre
of T, from ``ControlSystem.probe_map`` (computed once per system, the only
place the probe runs ``_solve_square``) and the target's view, whose
probe integers (``BoxView.probe``: per input coordinate its row of the
map and its bounds in U, over one denominator) are computed on the
controller's first ask.  A probe step is one integer pass over the input
coordinates that forms u* and clamps it to U; the landing test runs
only when a coordinate was clamped, and the 2^-20 snap test only when
the input's denominator exceeds 2^20.  With invertible diagonal B the
probe misses only when no input lands; otherwise it
may miss where inputs land, and always does when B is not square and
invertible.  When the probe misses, ``input_witness`` decides by an exact
phase-1 simplex over the box (``_box_lp``, in ``Fraction``s), while
``control_input`` interpolates inputs given at the vertices of the source
region (vertex control), in integers.  So the simplex runs in the control
loop only when a vertex table is built.  Both snap their input to the
2^-20 grid when it still lands, by one landing test (``_landing_input``):
T holds A x + B u, formed by ``_affine``, the one integer sum that also
gives ``next_state_ints``, the step ``engine.simulate`` takes; it reduces
the sum to the least common denominator of the state's coordinates, the
integers ``_integers`` gives, so every step reads the same integers
however the state was produced.  The probe is clamped to U and the
simplex returns a vertex, so those landings may lie on a face of the
target, which is sound: boxes are closed.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import combinations, compress, product
from operator import mul
from typing import Sequence

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


def _integers(values) -> tuple[tuple[int, ...], int]:
    """(nums, d) with ``values[i] == nums[i] / d`` and d > 0 the least
    common denominator of the values (``Fraction``s or ints), each
    numerator and denominator read once (``as_integer_ratio``)."""
    pairs = [v.as_integer_ratio() for v in values]
    d = math.lcm(*[e for _, e in pairs])
    return tuple([a * (d // e) for a, e in pairs]), d


class Matrix(tuple):
    """A matrix as a tuple of rows of ``Fraction``s (``to_matrix``) that
    also keeps its integer rows (``ints``)."""

    @cached_property
    def ints(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """(rows, d): the matrix as integer rows over one denominator
        d > 0, so ``self[i][j] == rows[i][j] / d``; computed on first
        use, once per matrix."""
        nums, d = _integers([v for row in self for v in row])
        width = len(self[0])
        return tuple(nums[i:i + width]
                     for i in range(0, len(nums), width)), d


def to_matrix(rows) -> Matrix:
    if isinstance(rows, Matrix):
        return rows
    mat = Matrix(tuple(to_fraction(v) for v in row) for row in rows)
    if not mat or any(len(r) != len(mat[0]) for r in mat):
        raise GeometryError("matrix rows must be nonempty and equal length")
    return mat


def mat_vec(mat, vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """The exact product ``mat vec``.

    The matrix's integer rows (``Matrix.ints``) are computed once per
    matrix and the vector is put over one denominator per call, so a row
    costs integer products and one ``Fraction``.
    """
    rows, e = to_matrix(mat).ints
    if len(rows[0]) != len(vec):
        raise GeometryError("matrix/vector dimension mismatch")
    xs, d = _integers(vec)
    e *= d
    return tuple([Fraction(sum(map(mul, row, xs)), e) for row in rows])


@dataclass(frozen=True)
class Box:
    """Closed axis-aligned box lower <= upper, which always holds a point
    (it may be flat on some axes).

    Shared faces of adjacent boxes belong to both: reachability into a
    measure-zero face never creates a transition on its own because
    targets are always full-dimensional cells.  No box is empty, so
    ``intersect`` returns None for disjoint boxes.
    """

    lower: tuple[Fraction, ...]
    upper: tuple[Fraction, ...]

    def __post_init__(self):
        # exact bounds however the box is built, as ``ControlSystem``
        # converts A and B
        object.__setattr__(self, "lower", tuple(map(to_fraction, self.lower)))
        object.__setattr__(self, "upper", tuple(map(to_fraction, self.upper)))
        if len(self.lower) != len(self.upper) or not self.lower:
            raise GeometryError("box needs matching nonempty lower/upper bounds")
        for lo, hi in zip(self.lower, self.upper):
            if lo > hi:
                raise GeometryError(f"box bound {lo} > {hi}")

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
    def _exact(lower: tuple[Fraction, ...], upper: tuple[Fraction, ...],
               ints: tuple[tuple[int, ...], tuple[int, ...], int]) -> "Box":
        """The box of ``Fraction`` bounds lower <= upper, handed its
        ``ints`` as well, which must be what ``ints`` would compute; the
        split (``partition._slices``) builds its children so, with no
        conversion and no bound check."""
        box = object.__new__(Box)
        box.__dict__.update(lower=lower, upper=upper, ints=ints)
        return box

    @property
    def dim(self) -> int:
        return len(self.lower)

    @cached_property
    def ints(self) -> tuple[tuple[int, ...], tuple[int, ...], int]:
        """(lower, upper, d): the bounds as integer numerators over the
        least common denominator d > 0 of the bounds, so
        ``self.lower[i] == lower[i] / d``; computed on first use, once per
        box, or handed over by the split (``_exact``)."""
        nums, d = _integers(self.lower + self.upper)
        return nums[:self.dim], nums[self.dim:], d

    def widths(self) -> tuple[Fraction, ...]:
        return tuple(hi - lo for lo, hi in zip(self.lower, self.upper))

    def center(self) -> tuple[Fraction, ...]:
        return tuple((lo + hi) / 2 for lo, hi in zip(self.lower, self.upper))

    def contains(self, point: Sequence[Fraction]) -> bool:
        """Whether the box holds ``point``, tested in integers (``holds``)."""
        if len(point) != self.dim:
            return False
        return self.holds(*_integers(tuple(map(to_fraction, point))))

    def holds(self, xs, xd: int) -> bool:
        """Whether the box holds x = xs / xd (xd > 0), cross-multiplied
        with ``ints``; a plain loop, as the control step's landing test."""
        lows, highs, d = self.ints
        for a, v, b in zip(lows, xs, highs):
            if not a * xd <= v * d <= b * xd:
                return False
        return True

    def contains_box(self, other: "Box") -> bool:
        """Whether ``other`` lies inside, cross-multiplied with ``ints``."""
        lows, highs, d = self.ints
        olows, ohighs, e = other.ints
        for a, b, c, f in zip(lows, highs, olows, ohighs):
            if not (a * e <= c * d and f * d <= b * e):
                return False
        return True

    def intersect(self, other: "Box") -> "Box | None":
        """The common box, or None when the boxes are disjoint; boxes
        that touch on a face share that face, a flat box."""
        lo = tuple(max(a, c) for a, c in zip(self.lower, other.lower))
        hi = tuple(min(b, d) for b, d in zip(self.upper, other.upper))
        if any(a > b for a, b in zip(lo, hi)):
            return None
        return Box(lo, hi)

    def overlaps_interior(self, other: "Box") -> bool:
        """True when the intersection is full-dimensional relative to ``other``.

        Degenerate axes of ``other`` only need containment; every
        non-degenerate axis needs open overlap.  This is the sound notion
        of "shares points with" under the closed-box convention, where
        face-only contact is ambiguous between neighbors.
        """
        # both boxes over the common denominator d e, cross-multiplied
        lows, highs, d = self.ints
        olows, ohighs, e = other.ints
        for a, b, c, f in zip(lows, highs, olows, ohighs):
            a, b, c, f = a * e, b * e, c * d, f * d
            lo, hi = max(a, c), min(b, f)
            if c == f:
                if lo > hi:
                    return False
            elif lo >= hi:
                return False
        return True

    def as_exact_bounds(self) -> list[list[str]]:
        return [[str(lo), str(hi)] for lo, hi in zip(self.lower, self.upper)]

    def __str__(self):
        parts = "x".join(f"[{lo},{hi}]" for lo, hi in zip(self.lower, self.upper))
        return f"Box({parts})"


@dataclass(frozen=True)
class ControlSystem:
    """Discrete-time affine system s[t+1] = A s[t] + B u[t] on a box domain.

    ``proposition_regions`` maps atomic proposition names to the boxes on
    which they hold; each must sit inside the domain, as must the initial
    set, and be full-dimensional: a leaf carries a label only when its
    region contains the leaf, so a flat region would label none.
    """

    A: Matrix
    B: Matrix
    input_set: Box
    domain: Box
    initial_set: Box
    proposition_regions: tuple[tuple[str, Box], ...]

    def __post_init__(self):
        # A and B are Matrix objects however the system is built, so
        # every product reads their cached integer rows
        object.__setattr__(self, "A", to_matrix(self.A))
        object.__setattr__(self, "B", to_matrix(self.B))
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
            if any(lo == hi for lo, hi in zip(box.lower, box.upper)):
                raise GeometryError(f"proposition {name!r} must be "
                                    f"full-dimensional, got {box}")

    @staticmethod
    def create(A, B, input_set, domain, initial_set, propositions=()) -> "ControlSystem":
        props = tuple(
            (name, box if isinstance(box, Box) else Box.from_bounds(box))
            for name, box in propositions
        )

        def _box(b):
            return b if isinstance(b, Box) else Box.from_bounds(b)

        return ControlSystem(A, B, _box(input_set), _box(domain),
                             _box(initial_set), props)

    @property
    def n(self) -> int:
        return len(self.A)

    @property
    def m(self) -> int:
        return len(self.B[0])

    @cached_property
    def probe_map(self):
        """(N, B⁻¹) with N = -B⁻¹A, the integer matrices of the probe, each
        as (rows, d): integer rows over one denominator (``Matrix.ints``).

        For a target with centre c, u = B⁻¹c + N x sends x to c (N is kept
        negated so that u is one sum started at B⁻¹c); the probe checks
        its landing with ``B.ints``.  B⁻¹ comes from one ``_solve_square``
        per column, here and never per step.  None when B is not square
        and invertible.
        """
        n = self.n
        cols = [_solve_square(self.B, [Fraction(int(i == j)) for i in range(n)])
                for j in range(n)]
        if None in cols:
            return None
        binv = tuple(zip(*cols))
        N = [[-_dot(row, col) for col in zip(*self.A)] for row in binv]
        return to_matrix(N).ints, to_matrix(binv).ints

    @cached_property
    def slab_rows(self) -> tuple[tuple, ...]:
        """Per normal of ``reach_normals``, in its order, the integers of
        its slab: (ν, a, blo, bhi, q, pessimistic).

        ν is the normal scaled by a positive integer to integer entries,
        which scales both sides of its slab test alike.  νᵀA = a / q, and
        [blo, bhi] / (q d) is the range of νᵀB u over U, whose bounds are
        integers over d (``Box.ints``).  The unit axes come first, so
        their rows a are the rows of A.
        """
        ul, uh, _ = self.input_set.ints
        cols = [*zip(*self.A), *zip(*self.B)]
        out = []
        for normal, pessimistic in self.reach_normals:
            nu, _ = _integers(normal)
            rows, q = _integers([_dot(nu, col) for col in cols])
            out.append((nu, rows[:self.n], *_row_range(rows[self.n:], ul, uh),
                        q, pessimistic))
        return tuple(out)

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

def _row_range(row, lower, upper):
    """Exact range ``(lo, hi)`` of ``row . z`` over the box of bounds
    ``lower``, ``upper``: integers for integer inputs."""
    lo = hi = 0
    for c, zl, zh in zip(row, lower, upper):
        if c >= 0:
            lo += c * zl
            hi += c * zh
        else:
            lo += c * zh
            hi += c * zl
    return lo, hi


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


# Inputs off this grid (``_off_grid``) are snapped to it when they still
# land (``_to_grid``): long exact simulations would otherwise grow the
# state's denominators at every step.
_COARSE_GRID = 1 << 20


def _off_grid(nums, d: int) -> bool:
    """Some coordinate of ``nums / d`` has a denominator above 2^20; none
    has when d <= 2^20, as every coordinate's denominator divides d."""
    return d > _COARSE_GRID and any(d // math.gcd(v, d) > _COARSE_GRID
                                    for v in nums)


def _to_grid(nums, d: int, U: Box) -> list[int]:
    """The point ``nums / d`` rounded to the 2^-20 grid and clamped to U,
    as numerators over 2^20 d_U, with U's bounds integers over d_U
    (``Box.ints``).  Ties round to even, as ``round(Fraction)`` does."""
    ul, uh, ud = U.ints
    grid = []
    for v, lo, hi in zip(nums, ul, uh):
        q, r = divmod(v * _COARSE_GRID, d)
        if 2 * r > d or 2 * r == d and q & 1:
            q += 1
        grid.append(min(max(q * ud, lo * _COARSE_GRID), hi * _COARSE_GRID))
    return grid


def _shift(sys: ControlSystem, xs, xd: int) -> tuple[list[int], int]:
    """(ax, d): A x as integers over one denominator, for x = xs / xd."""
    rows, d = sys.A.ints
    return [_dot(row, xs) for row in rows], d * xd


def _affine(sys: ControlSystem, ax, axd: int, us, ud: int
            ) -> tuple[list[int], int]:
    """(ys, yd): A x + B u as integers over one denominator yd > 0, for
    A x = ax / axd (``_shift``) and u = us / ud; per row one integer sum
    over axd d_B ud, with B's integer rows (``Matrix.ints``)."""
    B, bd = sys.B.ints
    e = bd * ud  # B u = (B' us) / e
    return [a * e + _dot(row, us) * axd for a, row in zip(ax, B)], axd * e


def next_state_ints(sys: ControlSystem, xs, xd: int, us, ud: int
                    ) -> tuple[list[int], int]:
    """(ys, yd): the exact A x + B u for x = xs / xd and u = us / ud, as
    integers over one denominator (``_affine``) divided by their gcd, so
    yd > 0 is the least common denominator of the coordinates: these are
    the integers ``_integers`` makes of them as ``Fraction``s, and a run
    that carries them reads what one that rebuilds them would."""
    if len(xs) != sys.n or len(us) != sys.m:
        raise GeometryError("state/input dimension mismatch")
    ys, yd = _affine(sys, *_shift(sys, xs, xd), us, ud)
    g = math.gcd(yd, *ys)
    return [v // g for v in ys], yd // g


def _landing_input(sys: ControlSystem, T: Box, ax, axd: int, us, ud: int
                   ) -> tuple[list[int], int] | None:
    """u = us / ud rounded to the 2^-20 grid and clamped to U
    (``_to_grid``) when it is off that grid (``_off_grid``) and the
    snapped input lands in T, else u when it lands, else None, as (numerators,
    denominator); u lands when T holds A x + B u (``_affine``, with
    A x = ax / axd)."""
    if _off_grid(us, ud):
        U = sys.input_set
        grid = _to_grid(us, ud, U)
        g = _COARSE_GRID * U.ints[2]
        if T.holds(*_affine(sys, ax, axd, grid, g)):
            return grid, g
    if T.holds(*_affine(sys, ax, axd, us, ud)):
        return us, ud
    return None


def _source_slabs(box: Box, sys: ControlSystem) -> tuple[list, list]:
    """(pess, opt), the slabs of ``box`` as a source (``BoxView.slabs``)."""
    xl, xh, xd = box.ints
    ud = sys.input_set.ints[2]
    pess, opt = [], []
    k = 0
    for _, a, blo, bhi, q, pessimistic in sys.slab_rows:
        alo, ahi = _row_range(a, xl, xh)  # over q xd
        alo *= ud
        ahi *= ud
        blo *= xd
        bhi *= xd
        d = q * xd * ud
        opt.append((k, alo + blo, ahi + bhi, d))
        if pessimistic:
            pess.append((k, ahi + blo, alo + bhi, d))
        k += 1
    return pess, opt


def _target_ranges(box: Box, sys: ControlSystem) -> tuple[list, int] | None:
    """(ranges, td), the ranges of ``box`` ∩ D as a target
    (``BoxView.ranges``), or None when the box misses D."""
    yl, yh, yd = box.ints
    dl, dh, dd = sys.domain.ints
    tl, th = [], []
    for a, b, c, e in zip(yl, yh, dl, dh):
        a *= dd
        b *= dd
        c *= yd
        e *= yd
        if c > a:
            a = c
        if e < b:
            b = e
        if a > b:
            return None
        tl.append(a)
        th.append(b)
    # a unit axis's range is T's bounds on it
    ranges = [*zip(tl, th)]
    others = sys.slab_rows[len(tl):]
    if others:
        ranges += [_row_range(row[0], tl, th) for row in others]
    return ranges, yd * dd


class BoxView:
    """What the slab test and the probe read of one box Y under one
    system (``box_view``), each part computed once.  ``slabs`` and
    ``ranges`` are filled for a whole query batch by ``fill_views``, or
    on first access by a lone ``reach_*`` query, from the same kernel
    (``_source_slabs``, ``_target_ranges``); ``T`` and ``probe`` on the
    controller's first ask:

    * ``slabs``, when Y is a source: (pess, opt), its pessimistic and
      optimistic slabs.  Per normal ν of ``sys.slab_rows``, with
      (alo, ahi) the range of ν·A x over Y and (blo, bhi) that of ν·B u
      over U, the optimistic slab is [alo + blo, ahi + bhi] and the
      pessimistic slab [ahi + blo, alo + bhi], the window every vertex
      reaches, which may be inverted; only pessimistic normals have one.
      Each slab is (k, lo, hi, d): k the index of ν, and lo, hi integers
      over d = q d_Y d_U, from Y's integer bounds (``Box.ints``).
    * ``ranges``, when Y is a target: (ranges, td), per normal of
      ``sys.slab_rows`` in its order, axes included, the range
      (tlo, thi) of ν over Y ∩ D as integers over td, the product of Y's
      and D's denominators; None when Y misses D.  Y ∩ D passes a slab
      (k, lo, hi, d) when ``tlo <= hi`` and ``thi >= lo`` (``_passes``).
    * ``T``, for the controller: Y ∩ D, or None when Y misses D.
    * ``probe``, for the controller: (axes, kq, wd, h, hd), None with no
      T or no ``sys.probe_map``.  Per input coordinate i,
      axes[i] = (k_i, N_i, l_i, u_i), so that for x = xs / xd
      u*_i = (k_i xd + kq N_i·xs) / (wd xd) is coordinate i of
      B⁻¹c + N x, c the centre of T, with N's integer rows N_i
      (``probe_map``), and U_i = [l_i xd, u_i xd] / (wd xd): all over
      wd = kd d_U, kd a common multiple of the denominators of B⁻¹c
      and N, and d_U that of U (``Box.ints``).  h / hd are the
      half-widths of T times B's denominator d_B, so that
      |B_i v| <= h_i / hd exactly when ``|B'_i v| hd <= h_i`` for B's
      integer rows B'.
    """

    def __init__(self, box: Box, sys: ControlSystem):
        if box.dim != sys.n:
            raise GeometryError(f"a {box.dim}-D box under a {sys.n}-D system")
        self.box = box
        self.sys = sys

    @cached_property
    def slabs(self) -> tuple[list, list]:
        return _source_slabs(self.box, self.sys)

    @cached_property
    def ranges(self) -> tuple[list, int] | None:
        return _target_ranges(self.box, self.sys)

    @cached_property
    def T(self) -> Box | None:
        return self.box.intersect(self.sys.domain)

    @cached_property
    def probe(self) -> tuple | None:
        sys, T = self.sys, self.T
        if T is None or sys.probe_map is None:
            return None
        (N, nd), (binv, bd) = sys.probe_map
        ul, uh, ud = sys.input_set.ints
        lo, hi, td = T.ints
        twice_centre = [a + b for a, b in zip(lo, hi)]  # over 2 td
        kd = math.lcm(nd, 2 * td * bd)
        scale = kd // (2 * td * bd) * ud
        axes = tuple((_dot(row, twice_centre) * scale, n, a * kd, b * kd)
                     for row, n, a, b in zip(binv, N, ul, uh))
        h = [(b - a) * sys.B.ints[1] for a, b in zip(lo, hi)]
        return axes, kd // nd * ud, kd * ud, h, 2 * td


def box_view(box: Box, sys: ControlSystem) -> BoxView:
    """The view of ``box`` under ``sys``, kept in a one-entry memo on the
    box keyed by (and holding) the system object: an id cannot be reused
    while the entry lives, and a query under another system replaces it.
    The memo is not a dataclass field, so ``Box`` equality, hash and
    ``repr`` do not see it."""
    view = getattr(box, "_view", None)  # a miss raises nothing
    if view is not None and view.sys is sys:
        return view
    view = box.__dict__["_view"] = BoxView(box, sys)  # as cached_property does
    return view


_KERNELS = {"slabs": _source_slabs, "ranges": _target_ranges}
_UNSET = object()


def fill_views(boxes, sys: ControlSystem, part: str) -> list:
    """The ``part``, "slabs" or "ranges", of each box's view under ``sys``
    (``box_view``), in order, for a batch of queries: a view that does
    not hold the part yet gets it from the part's kernel, stored where
    its own first access would store it, so a later ``reach_*`` query
    reads it there."""
    kernel = _KERNELS[part]
    out = []
    for box in boxes:
        parts = box_view(box, sys).__dict__
        got = parts.get(part, _UNSET)
        if got is _UNSET:
            got = parts[part] = kernel(box, sys)
        out.append(got)
    return out


def drop_view(box: Box) -> None:
    """Free the view ``box_view`` keeps on ``box``, if it keeps one."""
    box.__dict__.pop("_view", None)


def _dot(row, vec, start=0):
    """start + row . vec, an integer for integer inputs"""
    return sum(map(mul, row, vec), start)


def _probe(sys: ControlSystem, view: BoxView, xs, xd: int
           ) -> tuple[list[int], int] | None:
    """An input u in U with A x + B u in the view's target, for
    x = xs / xd, as (numerators, denominator); found without the simplex
    or any linear solve.

    One integer pass over the input coordinates forms u* = k + N x
    (``probe_map``, N = -B⁻¹A), the input that sends x to the centre c of
    T (B u* = c - A x), and clamps it to U, both over one denominator w
    from the view's probe integers (``BoxView.probe``).  The clamped u
    lands exactly when |B (u - u*)| <= h row by row, with h the
    half-widths of T; only the clamped coordinates of u - u* are nonzero,
    so that test runs only when one was clamped, and no A x and no B u
    is computed.  u is then snapped to the 2^-20 grid (``_to_grid``) when
    it is off that grid (``_off_grid``), and kept snapped when the
    snapped input still lands, by the same test on the snapped
    difference.  All
    of it is integer arithmetic; no ``Fraction`` is built.  None means
    the probe missed, as it always does when B is not square and
    invertible.  With diagonal B the axes are independent and clamping
    picks the point of U_i nearest u*_i, so the probe misses only when no
    input lands.  The probe may land on a face of the target, which is
    inside it: boxes are closed.
    """
    probe = view.probe
    if probe is None:
        return None
    axes, kq, w, hs, hd = probe
    w *= xd  # u* = stars / w and u = us / w
    stars, us = [], []
    for k, row, lo, hi in axes:
        a = k * xd + sum(map(mul, row, xs)) * kq
        stars.append(a)
        lo *= xd
        hi *= xd
        us.append(lo if a < lo else hi if a > hi else a)
    if us != stars:
        diff = [c - a for c, a in zip(us, stars)]
        for row, h in zip(sys.B.ints[0], hs):
            if abs(_dot(row, diff)) * hd > h * w:
                return None
    if not _off_grid(us, w):
        return us, w
    U = sys.input_set
    g = _COARSE_GRID * U.ints[2]  # the snapped u = grid / g
    grid = _to_grid(us, w, U)
    diff = [c * w - a * g for c, a in zip(grid, stars)]  # over g w
    for row, h in zip(sys.B.ints[0], hs):
        if abs(_dot(row, diff)) * hd > h * g * w:
            return us, w
    return grid, g


def input_witness(sys: ControlSystem, x: Sequence[Fraction],
                  target: Box) -> tuple[Fraction, ...] | None:
    """A concrete u in U with A x + B u in the closed target box, or None.

    The input of ``_probe`` on the target's view (``box_view``) when it
    finds one.  When the probe misses, an exact phase-1 simplex
    (``_box_lp``) decides and returns a vertex of the feasible inputs,
    snapped to the 2^-20 grid when that stays feasible
    (``_landing_input``; A x is computed once, in integers, for both the
    simplex's window and the landing test), which may land on a face of
    the target.  x is put over one denominator once (``_integers``),
    which both paths read, and only the returned input is made of
    ``Fraction``s.  The library asks only at the vertices of pessimistic
    strategy edges, to build vertex tables (``control_input``), where
    some input always lands.
    """
    if len(x) != sys.n:
        raise GeometryError("state dimension must match A")
    xs, xd = _integers([to_fraction(v) for v in x])
    view = box_view(target, sys)
    u = _probe(sys, view, xs, xd)
    T = view.T
    if u is None and T is not None:
        ax, axd = _shift(sys, xs, xd)
        lo = [c - Fraction(a, axd) for c, a in zip(T.lower, ax)]
        hi = [c - Fraction(a, axd) for c, a in zip(T.upper, ax)]
        u = _box_lp(sys.B, sys.input_set, lo, hi)
        if u is not None:
            u = _landing_input(sys, T, ax, axd, *_integers(u))
    return None if u is None else tuple(Fraction(v, u[1]) for v in u[0])


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


def _weights(X: Box, xs, xd: int) -> tuple[list[int], int]:
    """(weights, q): the multilinear weights of the point x = xs / xd of
    X over ``box_vertices(X)``, as integers over one denominator q > 0.

    Per axis, t_i = (x_i - lower_i) / width_i = p_i / q_i, read off X's
    integer bounds (``Box.ints``), with p_i = 0 and q_i = 1 on a flat
    axis.  A vertex weighs the product of p_i where it takes the upper
    bound and q_i - p_i where it takes the lower, over q = prod q_i.
    """
    lows, highs, d = X.ints
    weights, q = [1], 1
    for v, lo, hi in zip(xs, lows, highs):
        p, qi = (v * d - lo * xd, (hi - lo) * xd) if hi != lo else (0, 1)
        weights = [w * f for w in weights for f in (qi - p, p)]
        q *= qi
    return weights, q


def control_input(sys: ControlSystem, xs, xd: int, view: BoxView,
                  vertex_table, *args) -> tuple[list[int], int] | None:
    """The controller's input for the state x = xs / xd: u in U with
    A x + B u in the view's target T = Y ∩ D, as (numerators,
    denominator), or None.

    No simplex and no linear solve runs here.  The probe (``_probe``),
    one integer pass over the input coordinates, comes first, so a step
    it decides gets the input ``input_witness`` gives.  Only when it
    misses is ``vertex_table(*args, xs, xd)`` called, for a box X
    holding x and a ``Matrix`` of one input per vertex of X, in
    ``box_vertices`` order; u is their sum under the multilinear weights
    of x (``_weights``), read off the table's integer rows
    (``Matrix.ints``).  When every vertex input lands in T, so does u,
    exactly: U and the target are convex and the step is affine (vertex
    control: Gutman & Cwikel, IEEE TAC 1986; Belta & Habets, IEEE TAC
    2006).  u is snapped to the 2^-20 grid when that still lands, which
    keeps the state's denominators bounded over long runs, and kept
    exact otherwise; None when u does not land, which landing vertex
    inputs rule out (``_landing_input``).  All of it runs on integers,
    with A x computed once per step; no ``Fraction`` is built.
    """
    if view.T is None:
        return None
    u = _probe(sys, view, xs, xd)
    if u is not None:
        return u
    X, table = vertex_table(*args, xs, xd)
    rows, d = table.ints
    weights, q = _weights(X, xs, xd)
    us = [_dot(weights, col) for col in zip(*rows)]  # u = us / (q d)
    return _landing_input(sys, view.T, *_shift(sys, xs, xd), us, q * d)


def _passes(slabs, target: BoxView) -> bool:
    """Y ∩ D meets every (k, lo, hi, d) slab of ``slabs``, read off the
    target's ranges (``BoxView.ranges``); never when Y misses D.

    Every comparison is of two rationals over positive denominators, made
    by cross-multiplying integers: a/b <= c/d exactly when a d <= c b.
    """
    ranges = target.ranges
    if ranges is None:
        return False
    ranges, td = ranges
    for k, lo, hi, d in slabs:
        tlo, thi = ranges[k]
        if thi * d < lo * td or tlo * d > hi * td:
            return False
    return True


# the ASCII digits '0' and '1' as the bytes 0 and 1
_BITS = bytes.maketrans(b"01", b"\x00\x01")


def mask_items(mask: int, items: list) -> list:
    """``items[b]`` for every set bit b of ``mask`` (nonnegative), in
    ascending order of b: its binary string, read from the low end, made
    bytes of 0 and 1 that ``itertools.compress`` selects by, all in C.
    Taking the items from one list, rather than making an int per bit,
    lets every row that holds b share one object."""
    return list(compress(items, bin(mask)[:1:-1].encode().translate(_BITS)))


class AxisIndex:
    """The targets of one batch of queries, indexed along the unit axes.

    Every target b (``targets`` holds (b, ``BoxView.ranges``) pairs)
    whose Y ∩ D is nonempty puts its ranges on the n axis normals over
    one common denominator td, the lcm of the targets' own; a target
    that misses D is in no mask.  Per axis, the targets are sorted by
    their lower ends tlo and, separately, by their negated upper ends
    -thi, and position i of each order keeps the prefix mask of its
    first i targets: a Python int with bit b set for target b.  The
    masks take about 2 n L (L / 8) bytes for L targets.

    A slab (k, lo, hi, d) on axis k passes exactly the targets with
    tlo <= ⌊hi td / d⌋ and -thi <= ⌊-lo td / d⌋, the integer form of
    ``_passes``'s two comparisons; each side is one ``bisect`` into its
    order and one AND with the prefix mask found (``passing``).
    """

    def __init__(self, targets, n: int):
        kept = [(b, r) for b, r in targets if r is not None]
        self.td = td = math.lcm(*[d for _, (_, d) in kept])
        self.axes = []  # per axis: (lows, masks, -highs, masks)
        for k in range(n):
            axis = []
            for sign, end in ((1, 0), (-1, 1)):
                order = sorted((sign * ranges[k][end] * (td // d), b)
                               for b, (ranges, d) in kept)
                masks, mask = [0], 0
                for _, b in order:
                    mask |= 1 << b
                    masks.append(mask)
                axis += [key for key, _ in order], masks
            self.axes.append(axis)

    def passing(self, slabs, mask: int) -> int:
        """The targets of ``mask`` whose ranges meet every axis slab among
        ``slabs``, the first n of them (``BoxView.slabs``); the slabs of
        other normals are left to ``_passes``."""
        td = self.td
        for (lows, below, highs, above), (_, lo, hi, d) in zip(self.axes,
                                                                slabs):
            mask &= below[bisect_right(lows, hi * td // d)] & \
                above[bisect_right(highs, -lo * td // d)]
        return mask


def reach_pessimistic(X: Box, Y: Box, sys: ControlSystem) -> bool:
    """Every point of X admits an input landing in Y (within the domain);
    False when Y misses the domain.  X, Y and U are boxes, so each holds
    a point and the claim is never vacuous.

    Vertex reduction: the set of x that can reach Y is convex, so it
    contains X iff it contains all of X's vertices.  Vertex v reaches
    Y ∩ D exactly when 0 lies in the zonotope ``A v + B U - (Y ∩ D)``,
    whose normals are the pessimistic ones; taken over all vertices at
    once, that is the pessimistic slab test (``BoxView.slabs``).
    """
    return _passes(box_view(X, sys).slabs[0], box_view(Y, sys))


def reach_optimistic(X: Box, Y: Box, sys: ControlSystem) -> bool:
    """Some point of X admits an input landing in Y (within the domain);
    False when Y misses the domain.

    Exactly when 0 lies in the zonotope ``A X + B U - (Y ∩ D)``, that is,
    when Y ∩ D meets the optimistic slab of every normal
    (``BoxView.slabs``).
    """
    return _passes(box_view(X, sys).slabs[1], box_view(Y, sys))
