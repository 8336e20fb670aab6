"""Box geometry and exact LP feasibility for one-step reachability.

Everything in this module is decided in exact rational arithmetic
(`fractions.Fraction`).  Reachability booleans feed the game solver, and a
single misclassified transition can flip a realizability verdict, so there
is no feasibility tolerance anywhere: float inputs are converted exactly
(every binary float is a rational) and all comparisons are exact.

The two relations of interest between regions X and Y of an affine system
s' = A s + B u, u constrained to a box U:

* ``reach_pessimistic``: every point of X has some admissible input
  landing in Y.  Decided at the vertices of X, which is sound because
  ``{x : exists u in U with A x + B u in Y}`` is an affine preimage of a
  polyhedron and therefore convex.
* ``reach_optimistic``: some point of X has some admissible input landing
  in Y.  A single joint feasibility problem in (x, u).

Both relations are decided from a per-source view (``_SourceView``),
computed once per source box X and system: the image hull of X, with
diagonal B each vertex's input window ``A v + B U``, and the shifts
``A v`` and ``A c`` the probes start from.  Every interval in it is
already clipped to the domain D, since Y ∩ D meets W exactly when Y meets
D ∩ W; a target is clipped only when a probe or the LP needs it.  The
abstraction asks its queries source-major and the view of the last source
is kept, so a source's view is built once for all its targets.

The exact shortcuts, in the order they run:

* pessimistic, diagonal B: Y meets the window every vertex reaches;
* optimistic: a target missing the image hull is unreachable; with
  diagonal A and B the hull is the image, so meeting it suffices; with
  diagonal B a vertex whose window meets Y is a witness;
* otherwise a witness probe (per vertex, or from the centre of X), and
  the dense simplex only for what the probes leave open.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Iterable, Sequence

Matrix = tuple[tuple[Fraction, ...], ...]


class GeometryError(ValueError):
    """Malformed geometric input (dimension mismatch, bad bounds, ...)."""


def to_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise GeometryError(f"expected a number, got bool {value!r}")
    if isinstance(value, (int, float, str)):
        return Fraction(value)
    raise GeometryError(f"cannot interpret {value!r} as a rational number")


def to_matrix(rows) -> Matrix:
    mat = tuple(tuple(to_fraction(v) for v in row) for row in rows)
    if not mat or any(len(r) != len(mat[0]) for r in mat):
        raise GeometryError("matrix rows must be nonempty and equal length")
    return mat


def mat_vec(mat: Matrix, vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
    if any(len(row) != len(vec) for row in mat):
        raise GeometryError("matrix/vector dimension mismatch")
    return tuple(sum(a * x for a, x in zip(row, vec)) for row in mat)


def is_diagonal(mat: Matrix) -> bool:
    return all(
        mat[i][j] == 0 for i in range(len(mat)) for j in range(len(mat[i])) if i != j
    ) and len(mat) == len(mat[0])


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

    def widths(self) -> tuple[Fraction, ...]:
        return tuple(hi - lo for lo, hi in zip(self.lower, self.upper))

    def volume(self) -> Fraction:
        if self.empty:
            return Fraction(0)
        vol = Fraction(1)
        for w in self.widths():
            vol *= w
        return vol

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

    def vertices(self) -> Iterable[tuple[Fraction, ...]]:
        if self.empty:
            return
        for picks in product(*zip(self.lower, self.upper)):
            yield picks

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

    def is_diagonal(self) -> bool:
        return is_diagonal(self.A) and is_diagonal(self.B)

    def proposition(self, name: str) -> Box:
        for pname, box in self.proposition_regions:
            if pname == name:
                return box
        raise KeyError(name)


# ---------------------------------------------------------------------------
# LP feasibility
# ---------------------------------------------------------------------------

LEQ = "<="
EQ = "="


@dataclass(frozen=True)
class LpProblem:
    """Pure feasibility problem: does {z : constraints} have a point?

    Constraints are ``(row, relation, rhs)`` with relation ``<=`` or ``=``
    and ``row`` of length ``variables``.
    """

    variables: int
    constraints: tuple[tuple[tuple[Fraction, ...], str, Fraction], ...]

    @staticmethod
    def create(variables: int, constraints) -> "LpProblem":
        rows = []
        for row, rel, rhs in constraints:
            coeffs = tuple(to_fraction(c) for c in row)
            if len(coeffs) != variables:
                raise GeometryError(
                    f"constraint row has {len(coeffs)} coefficients, "
                    f"expected {variables}")
            if rel not in (LEQ, EQ):
                raise GeometryError(f"unknown relation {rel!r}")
            rows.append((coeffs, rel, to_fraction(rhs)))
        return LpProblem(variables, tuple(rows))


def _phase1_feasible(rows: list[tuple[list[Fraction], Fraction]],
                     nvars: int) -> tuple[bool, list[Fraction] | None]:
    """Exact phase-1 simplex for {w >= 0 : row . w <= rhs for all rows}.

    Returns (feasible, witness).  Bland's rule, so no cycling; all
    arithmetic is rational.
    """
    nrows = len(rows)
    if nrows == 0:
        return True, [Fraction(0)] * nvars
    # Tableau columns: w (nvars) | slacks (nrows) | artificials (on demand) | rhs
    art_rows = [r for r, (_, rhs) in enumerate(rows) if rhs < 0]
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
    if nart == 0:
        witness = [Fraction(0)] * nvars
        return True, witness
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
        return False, None
    witness = [Fraction(0)] * nvars
    for r, b in enumerate(basis):
        if b < nvars:
            witness[b] = tab[r][ncols]
    return True, witness


def lp_feasible(problem: LpProblem) -> bool:
    """Decide whether the constraint polyhedron is nonempty, exactly."""
    return lp_feasibility_witness(problem) is not None


def lp_feasibility_witness(problem: LpProblem) -> list[Fraction] | None:
    """A feasible point of the polyhedron, or None when it is empty.

    Free variables are split into positive/negative parts before the
    phase-1 simplex.
    """
    if not isinstance(problem, LpProblem):
        raise GeometryError("lp_feasible expects an LpProblem")
    k = problem.variables
    rows: list[tuple[list[Fraction], Fraction]] = []
    for coeffs, rel, rhs in problem.constraints:
        split = [c for c in coeffs for c in (c, -c)]
        rows.append((split, rhs))
        if rel == EQ:
            rows.append(([-c for c in split], -rhs))
    ok, w = _phase1_feasible(rows, 2 * k)
    if not ok:
        return None
    return [w[2 * j] - w[2 * j + 1] for j in range(k)]


def _bounded_feasible(widths: list[Fraction],
                      rows: list[tuple[list[Fraction], Fraction]]
                      ) -> tuple[bool, list[Fraction] | None]:
    """Feasibility of {0 <= w <= widths : row . w <= rhs}."""
    all_rows = [([Fraction(1) if j == i else Fraction(0) for j in range(len(widths))],
                 widths[i]) for i in range(len(widths))]
    all_rows.extend(rows)
    return _phase1_feasible(all_rows, len(widths))


# ---------------------------------------------------------------------------
# Reachability relations
# ---------------------------------------------------------------------------

def _axis_image(row_A: Sequence[Fraction], row_B: Sequence[Fraction],
                X: Box, U: Box) -> tuple[Fraction, Fraction]:
    """Exact interval hull of {A_i . x + B_i . u : x in X, u in U}."""
    lo = hi = Fraction(0)
    for a, xl, xh in zip(row_A, X.lower, X.upper):
        lo += a * (xl if a >= 0 else xh)
        hi += a * (xh if a >= 0 else xl)
    for b, ul, uh in zip(row_B, U.lower, U.upper):
        lo += b * (ul if b >= 0 else uh)
        hi += b * (uh if b >= 0 else ul)
    return lo, hi


def _input_feasible(sys: ControlSystem, shift: Sequence[Fraction],
                    target: Box) -> bool:
    """Exists u in U with  shift + B u  in target."""
    U = sys.input_set
    lo = [c - s for c, s in zip(target.lower, shift)]
    hi = [d - s for d, s in zip(target.upper, shift)]
    if is_diagonal(sys.B):
        for i in range(sys.n):
            b = sys.B[i][i]
            blo = b * (U.lower[i] if b >= 0 else U.upper[i])
            bhi = b * (U.upper[i] if b >= 0 else U.lower[i])
            if bhi < lo[i] or blo > hi[i]:
                return False
        return True
    # interval-hull prescreen per row (necessary condition)
    for i in range(sys.n):
        blo = bhi = Fraction(0)
        for b, ul, uh in zip(sys.B[i], U.lower, U.upper):
            blo += b * (ul if b >= 0 else uh)
            bhi += b * (uh if b >= 0 else ul)
        if bhi < lo[i] or blo > hi[i]:
            return False
    # witness probe: aim B u at the target midpoint (square invertible B only)
    probe = _solve_square(sys.B, [(a + b) / 2 for a, b in zip(lo, hi)])
    if probe is not None:
        u = _clamp(probe, U)
        img = mat_vec(sys.B, u)
        if all(l <= v <= h for l, v, h in zip(lo, img, hi)):
            return True
    # exact LP in w = u - U.lower, 0 <= w <= width(U), lo <= B(w + U.lower) <= hi
    widths = list(U.widths())
    base = mat_vec(sys.B, U.lower)
    rows = []
    for i in range(sys.n):
        rows.append((list(sys.B[i]), hi[i] - base[i]))
        rows.append(([-c for c in sys.B[i]], base[i] - lo[i]))
    ok, _ = _bounded_feasible(widths, rows)
    return ok


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


def reach_exists_from_point(x: Sequence[Fraction], Y: Box,
                            sys: ControlSystem) -> bool:
    """Exists u in U with A x + B u in Y (Y clipped to the domain)."""
    x = tuple(to_fraction(v) for v in x)
    if len(x) != sys.n:
        raise GeometryError("point dimension mismatch")
    target = Y.intersect(sys.domain)
    if target.empty:
        return False
    return _input_feasible(sys, mat_vec(sys.A, x), target)


class _SourceView:
    """What the reach relations need of one source box X under one system.

    Everything here depends on X and the system only, so it is computed
    once per source and every target Y is then decided by exact
    comparisons.  Intervals already carry the domain clip: Y meets
    ``D ∩ W`` exactly when ``Y ∩ D`` meets W, so no target is clipped
    unless a probe or the LP runs.

    * ``hull``: the exact interval hull of the image ``A X + B U``
      intersected with the domain, as a box; empty when it misses the
      domain (then no target is reachable).
    * ``windows`` (diagonal B only): per vertex v, the box
      ``(A v + B U) ∩ D``; vertices whose window misses the domain are
      left out.
    * ``common`` (diagonal B only): per axis, the max of the vertex
      windows' lows and the min of their highs, as ``(lows, highs)``.
      Y meets every vertex window on an axis exactly when the lows' max
      is at most Y's high and the highs' min at least Y's low, so this
      pair may be inverted.  None when some vertex's window misses the
      domain (then no target is reachable from every point).
    * ``shifts``: ``A v`` per vertex, where the pessimistic probes start
      when B is not diagonal; ``centre_shift``: ``A c`` for the centre c,
      where the optimistic probe starts.
    """

    __slots__ = ("diag_A", "diag_B", "hull", "windows", "common", "shifts",
                 "centre_shift")

    def __init__(self, X: Box, sys: ControlSystem):
        D, U = sys.domain, sys.input_set
        self.diag_A = is_diagonal(sys.A)
        self.diag_B = is_diagonal(sys.B)
        image = [_axis_image(row_A, row_B, X, U)
                 for row_A, row_B in zip(sys.A, sys.B)]
        self.hull = Box(tuple(lo for lo, _ in image),
                        tuple(hi for _, hi in image)).intersect(D)
        self.shifts = [mat_vec(sys.A, v) for v in X.vertices()]
        self.centre_shift = mat_vec(sys.A, X.center())
        self.windows = []
        self.common = None
        if not self.diag_B:
            return
        # per axis, the interval B_ii * U_i
        inputs = [sorted((sys.B[i][i] * ul, sys.B[i][i] * uh))
                  for i, (ul, uh) in enumerate(zip(U.lower, U.upper))]
        windows = [Box(tuple(s + lo for s, (lo, _) in zip(shift, inputs)),
                       tuple(s + hi for s, (_, hi) in zip(shift, inputs))
                       ).intersect(D)
                   for shift in self.shifts]
        self.windows = [w for w in windows if not w.empty]
        if len(self.windows) == len(windows):
            self.common = ([max(axis) for axis in zip(*(w.lower for w in windows))],
                           [min(axis) for axis in zip(*(w.upper for w in windows))])


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


def _meets(lows: Sequence[Fraction], highs: Sequence[Fraction], Y: Box) -> bool:
    """On every axis, ``lo <= Y's high`` and ``hi >= Y's low``.

    For a nonempty interval that says it meets Y's; for the inverted
    ``common`` pair, that Y meets every vertex window.
    """
    for lo, hi, yl, yh in zip(lows, highs, Y.lower, Y.upper):
        if hi < yl or lo > yh:
            return False
    return True


def reach_pessimistic(X: Box, Y: Box, sys: ControlSystem) -> bool:
    """Every point of X admits an input landing in Y (within the domain).

    Vertex reduction: the set of x that can reach Y is convex, so it
    contains X iff it contains all of X's vertices.  With diagonal B each
    vertex reaches a box window, and the answer is whether Y meets the
    window common to all vertices on every axis (see ``_SourceView``);
    otherwise ``_input_feasible`` decides each vertex from its shift.
    """
    if X.empty:
        raise GeometryError("pessimistic reach from an empty region is undefined")
    if Y.empty:
        return False
    view = _source_view(X, sys)
    if view.diag_B:
        return view.common is not None and _meets(*view.common, Y)
    target = Y.intersect(sys.domain)
    if target.empty:
        return False
    return all(_input_feasible(sys, shift, target) for shift in view.shifts)


def reach_optimistic(X: Box, Y: Box, sys: ControlSystem) -> bool:
    """Some point of X admits an input landing in Y (within the domain).

    Exact shortcuts first, in this order: a target missing the image hull
    is unreachable; with diagonal A and B the hull is the image itself, so
    meeting it suffices; with diagonal B a vertex whose input window meets
    Y is a witness.  Then the centre of X is probed, and the joint LP in
    (x, u) decides what is left.
    """
    if X.empty or Y.empty:
        raise GeometryError("optimistic reach needs nonempty regions")
    view = _source_view(X, sys)
    if view.hull.empty or not _meets(view.hull.lower, view.hull.upper, Y):
        return False
    if view.diag_A and view.diag_B:
        return True
    for window in view.windows:
        if _meets(window.lower, window.upper, Y):
            return True
    target = Y.intersect(sys.domain)
    # witness probe from the source centre
    if _input_feasible(sys, view.centre_shift, target):
        return True
    # joint LP in (x, u), both shifted to nonnegative bounded variables
    widths = list(X.widths()) + list(sys.input_set.widths())
    base = tuple(a + b for a, b in zip(mat_vec(sys.A, X.lower),
                                       mat_vec(sys.B, sys.input_set.lower)))
    rows = []
    for i in range(sys.n):
        coeffs = list(sys.A[i]) + list(sys.B[i])
        rows.append((coeffs, target.upper[i] - base[i]))
        rows.append(([-c for c in coeffs], base[i] - target.lower[i]))
    ok, _ = _bounded_feasible(widths, rows)
    return ok


_COARSE_GRID = 1 << 20


def _coarse_pick(lo: Fraction, hi: Fraction) -> Fraction:
    """A point of [lo, hi] with a small denominator when the width allows.

    Long exact simulations would otherwise double denominators at every
    midpoint halving; snapping to a 2^-20 grid keeps state arithmetic
    bounded without ever leaving the feasible interval.
    """
    mid = (lo + hi) / 2
    if mid.denominator <= _COARSE_GRID:
        return mid
    snapped = Fraction(round(mid * _COARSE_GRID), _COARSE_GRID)
    if lo <= snapped <= hi:
        return snapped
    return mid


def input_witness(sys: ControlSystem, x: Sequence[Fraction],
                  target: Box) -> tuple[Fraction, ...] | None:
    """A concrete u in U with A x + B u in target, aimed at the middle.

    Used when lifting discrete strategies to continuous inputs; the
    midpoint aim keeps landings away from shared faces whenever the
    feasible landing set has positive width.
    """
    x = tuple(to_fraction(v) for v in x)
    tgt = target.intersect(sys.domain)
    if tgt.empty:
        return None
    shift = mat_vec(sys.A, x)
    U = sys.input_set
    if is_diagonal(sys.B):
        u = []
        for i in range(sys.n):
            b = sys.B[i][i]
            lo, hi = tgt.lower[i] - shift[i], tgt.upper[i] - shift[i]
            if b == 0:
                if lo > 0 or hi < 0:
                    return None
                u.append(U.lower[i])
                continue
            cand_lo, cand_hi = sorted((lo / b, hi / b))
            wlo, whi = max(cand_lo, U.lower[i]), min(cand_hi, U.upper[i])
            if wlo > whi:
                return None
            u.append(_coarse_pick(wlo, whi))
        return tuple(u)
    def _feasible(u):
        img = [s + v for s, v in zip(shift, mat_vec(sys.B, u))]
        return all(l <= v <= h for l, v, h in zip(tgt.lower, img, tgt.upper))

    def _maybe_coarsen(u):
        if all(v.denominator <= _COARSE_GRID for v in u):
            return u
        snapped = _clamp([Fraction(round(v * _COARSE_GRID), _COARSE_GRID)
                          for v in u], U)
        return snapped if _feasible(snapped) else u

    mid = [(a + b) / 2 for a, b in zip(tgt.lower, tgt.upper)]
    probe = _solve_square(sys.B, [m - s for m, s in zip(mid, shift)])
    if probe is not None:
        u = _clamp(probe, U)
        if _feasible(u):
            return _maybe_coarsen(u)
    widths = list(U.widths())
    base = mat_vec(sys.B, U.lower)
    rows = []
    for i in range(sys.n):
        rows.append((list(sys.B[i]), tgt.upper[i] - shift[i] - base[i]))
        rows.append(([-c for c in sys.B[i]], base[i] - (tgt.lower[i] - shift[i])))
    ok, w = _bounded_feasible(widths, rows)
    if not ok:
        return None
    return _maybe_coarsen(tuple(l + v for l, v in zip(U.lower, w)))
