"""Box geometry and exact one-step reachability.

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

Every question is answered by one of two exact kernels:

* ``_input_toward(sys, shift, target)``, the input kernel: an input u in
  U with ``shift + B u`` in the closed target box, or None.  Its branches
  run in this order: with diagonal B, each axis on its own, at the middle
  of that axis's feasible input window; otherwise the row hull of B U as
  a prescreen, the midpoint probe (square invertible B), then the box LP.
  Only the diagonal branch keeps landings off the target's faces: the
  probe is clamped to U and the LP returns a vertex, so their landings
  may lie on a face.  That is sound, since boxes are closed and a point
  on a shared face belongs to the target.  The row hull depends on the
  system alone and is computed once per system
  (``ControlSystem.input_hull``).  The kernel decides the pessimistic
  vertex and optimistic centre probes, ``reach_exists_from_point`` and
  the controller's ``input_witness``.
* ``_box_lp(M, box, lo, hi)``: a point z of the box with
  ``lo <= M z <= hi``, by an exact phase-1 simplex.  It is the input
  kernel's last resort and, over X × U with M = [A | B], the joint LP of
  ``reach_optimistic``.

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
* otherwise the input kernel (per vertex, or from the centre of X), and
  the joint box LP only for what the centre probe leaves open.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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

    @cached_property
    def diagonal_B(self) -> bool:
        return is_diagonal(self.B)

    @cached_property
    def input_hull(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """Per row i, the exact range ``(lo, hi)`` of ``B_i . u`` over U."""
        return tuple(_row_range(row, self.input_set) for row in self.B)


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


def _input_toward(sys: ControlSystem, shift: Sequence[Fraction],
                  target: Box) -> tuple[Fraction, ...] | None:
    """An input u in U with ``shift + B u`` in target, or None if none exists.

    ``target`` is already clipped to the domain, and the input is snapped
    to the 2^-20 grid when that stays feasible.  With diagonal B each axis
    is decided on its own and u_i is the middle of its feasible window, so
    an axis whose window has positive width lands strictly inside the
    target.  Otherwise a target missing the row hull of B U is
    unreachable; the probe solves B u = the target's middle (square
    invertible B) and clamps u to U, and when that misses, the box LP
    returns a vertex of the feasible inputs.  Either may land on a face of
    the target, which is inside it: boxes are closed.
    """
    U = sys.input_set
    lo = [c - s for c, s in zip(target.lower, shift)]
    hi = [d - s for d, s in zip(target.upper, shift)]
    if sys.diagonal_B:
        u = []
        for i in range(sys.n):
            b = sys.B[i][i]
            if b == 0:
                if lo[i] > 0 or hi[i] < 0:
                    return None
                u.append(U.lower[i])
                continue
            cand_lo, cand_hi = sorted((lo[i] / b, hi[i] / b))
            wlo, whi = max(cand_lo, U.lower[i]), min(cand_hi, U.upper[i])
            if wlo > whi:
                return None
            u.append(_coarse_pick(wlo, whi))
        return tuple(u)
    for (blo, bhi), l, h in zip(sys.input_hull, lo, hi):
        if bhi < l or blo > h:
            return None

    def lands(u):
        return all(l <= v <= h for l, v, h in zip(lo, mat_vec(sys.B, u), hi))

    probe = _solve_square(sys.B, [(a + b) / 2 for a, b in zip(lo, hi)])
    u = _clamp(probe, U) if probe is not None else None
    if u is None or not lands(u):
        u = _box_lp(sys.B, U, lo, hi)
        if u is None:
            return None
    if all(v.denominator <= _COARSE_GRID for v in u):
        return u
    snapped = _clamp([Fraction(round(v * _COARSE_GRID), _COARSE_GRID)
                      for v in u], U)
    return snapped if lands(snapped) else u


def input_witness(sys: ControlSystem, x: Sequence[Fraction],
                  target: Box) -> tuple[Fraction, ...] | None:
    """A concrete u in U with A x + B u in the closed target box, or None.

    Used when lifting discrete strategies to continuous inputs.  With
    diagonal B the input sits at the middle of each axis's feasible
    window, which keeps landings off the target's faces wherever that
    window has positive width; otherwise the landing may lie on a face of
    the target (see ``_input_toward``), which is sound because boxes are
    closed.
    """
    shift = mat_vec(sys.A, [to_fraction(v) for v in x])
    tgt = target.intersect(sys.domain)
    return None if tgt.empty else _input_toward(sys, shift, tgt)


def reach_exists_from_point(x: Sequence[Fraction], Y: Box,
                            sys: ControlSystem) -> bool:
    """Exists u in U with A x + B u in Y (Y clipped to the domain)."""
    return input_witness(sys, x, Y) is not None


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
        D = sys.domain
        self.diag_A = is_diagonal(sys.A)
        self.diag_B = sys.diagonal_B
        lows, highs = [], []
        for row, (blo, bhi) in zip(sys.A, sys.input_hull):
            alo, ahi = _row_range(row, X)
            lows.append(alo + blo)
            highs.append(ahi + bhi)
        self.hull = Box(tuple(lows), tuple(highs)).intersect(D)
        self.shifts = [mat_vec(sys.A, v) for v in X.vertices()]
        self.centre_shift = mat_vec(sys.A, X.center())
        self.windows = []
        self.common = None
        if not self.diag_B:
            return
        # with diagonal B, row i of the hull of B U is the interval B_ii U_i
        inputs = sys.input_hull
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
    otherwise the input kernel ``_input_toward`` decides each vertex from
    its shift.
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
    return all(_input_toward(sys, shift, target) is not None
               for shift in view.shifts)


def reach_optimistic(X: Box, Y: Box, sys: ControlSystem) -> bool:
    """Some point of X admits an input landing in Y (within the domain).

    Exact shortcuts first, in this order: a target missing the image hull
    is unreachable; with diagonal A and B the hull is the image itself, so
    meeting it suffices; with diagonal B a vertex whose input window meets
    Y is a witness.  Then the input kernel probes from the centre of X,
    and the box LP in (x, u) over X × U decides what is left.
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
    if _input_toward(sys, view.centre_shift, target) is not None:
        return True
    XU = Box(X.lower + sys.input_set.lower, X.upper + sys.input_set.upper)
    AB = [row_A + row_B for row_A, row_B in zip(sys.A, sys.B)]
    return _box_lp(AB, XU, target.lower, target.upper) is not None
