"""Independent oracles the test suite checks the library against.

Everything here deliberately avoids the library's own decision procedures:
reachability is re-decided by dense grid sampling, exact per-axis
interval arithmetic or exact Fourier-Motzkin elimination, games by
exhaustive strategy enumeration with lasso checking or by a textbook sweep
of the GR(1) fixpoint over explicit (region, env, bits) triples,
formulas by a recursive interpreter over their parsed tuples,
losing-set soundness by an exact backward-reachability fixpoint, the
controller's probe by a linear solve per query, its vertex control by
a weighted sum in plain ``Fraction``s, and the partition layer's box
tests and splits by comparisons and arithmetic on the ``Fraction``
bounds.  Keep it that way; the value of these tests is the independent
route to the same answer.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import numpy as np

# the only library import: the split oracle returns boxes, and reads and
# tests nothing of them but their bounds
from dualsynth.geometry import Box


# ---------------------------------------------------------------------------
# grid reachability oracles
# ---------------------------------------------------------------------------

def _grid(lo, hi, k):
    return np.linspace(lo, hi, k)


def _box_grid(box, k):
    axes = [_grid(float(lo), float(hi), k) for lo, hi in
            zip(box.lower, box.upper)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    return pts.reshape(-1, len(axes))


def _clip(Y, D):
    """(lower, upper), the bounds of the box Y ∩ D, taken on the
    ``Fraction`` bounds; None when Y and D are disjoint."""
    lower = tuple(map(max, Y.lower, D.lower))
    upper = tuple(map(min, Y.upper, D.upper))
    if any(a > b for a, b in zip(lower, upper)):
        return None
    return lower, upper


def grid_reach(sys, X, Y, kx=64, ku=32, tol=1e-9):
    """(pessimistic, optimistic) verdicts by dense grid sampling.

    Grid-true results are genuine witnesses (up to float slop ``tol``);
    grid-false results may be inconclusive when the real witness falls
    between grid points.
    """
    A = np.array([[float(v) for v in row] for row in sys.A])
    B = np.array([[float(v) for v in row] for row in sys.B])
    target = _clip(Y, sys.domain)
    if target is None:
        return False, False
    t_lo, t_hi = target
    lo = np.array([float(v) for v in t_lo]) - tol
    hi = np.array([float(v) for v in t_hi]) + tol
    xs = _box_grid(X, kx) @ A.T          # (kx^n, n)
    us = _box_grid(sys.input_set, ku)[None]  # (1, ku^m, m)
    ok = True
    flat = [i for i, (c, d) in enumerate(zip(t_lo, t_hi)) if c == d]
    if flat:
        # A grid of inputs misses a flat target.  Project every grid input,
        # per grid state, onto the inputs landing on the flat axes; the
        # projection moves no point of those inputs, so the projected grid
        # stays dense on the ones in U.
        BF = B[flat]
        P = np.linalg.pinv(BF)
        goal = np.array([float(t_lo[i]) for i in flat])
        us = us - us @ (P @ BF).T + ((goal - xs[:, flat]) @ P.T)[:, None, :]
        ulo = np.array([float(v) for v in sys.input_set.lower]) - tol
        uhi = np.array([float(v) for v in sys.input_set.upper]) + tol
        ok = ((us >= ulo) & (us <= uhi)).all(axis=-1)
    for c in range(xs.shape[1]):
        z = xs[:, c, None] + us @ B[c]
        ok = ok & (z >= lo[c]) & (z <= hi[c])
    reach_any_u = ok.any(axis=1)
    return bool(reach_any_u.all()), bool(reach_any_u.any())


def _fm_feasible(rows, lower, upper):
    """Is {z in the box [lower, upper] : a . z <= b for every (a, b) in rows}
    nonempty?

    Fourier-Motzkin elimination in Fraction arithmetic.  Each step drops
    the variable with the fewest new rows, pairing its positive and
    negative rows, the box bounds among them.  Rows are scaled to a
    largest coefficient of 1, and only the tightest bound per left side is
    kept.  A row on two or more variables that the box bounds imply is
    dropped, since the bounds of every variable not yet eliminated are
    still rows; a row the box bounds contradict ends the search.
    """
    nvars = len(lower)
    tight = {}

    def add(a, b):
        scale = max(abs(x) for x in a)
        if not scale:
            return b >= 0
        a = tuple(x / scale for x in a)
        b /= scale
        lo = sum(x * (l if x > 0 else h) for x, l, h in zip(a, lower, upper))
        hi = sum(x * (h if x > 0 else l) for x, l, h in zip(a, lower, upper))
        if lo > b:
            return False
        if hi > b or sum(x != 0 for x in a) == 1:
            tight[a] = min(b, tight.get(a, b))
        return True

    for j in range(nvars):
        unit = [Fraction(0)] * nvars
        unit[j] = Fraction(1)
        add(unit, upper[j])
        add([-x for x in unit], -lower[j])
    if not all([add(list(a), b) for a, b in rows]):
        return False
    for _ in range(nvars):
        live = [k for k in range(nvars) if any(a[k] for a in tight)]
        if not live:
            return True

        def cost(k):
            pos = sum(a[k] > 0 for a in tight)
            neg = sum(a[k] < 0 for a in tight)
            return pos * neg - pos - neg

        k = min(live, key=cost)
        old, tight = tight, {}
        for a, b in old.items():
            if a[k] == 0:
                tight[a] = b
        for ap, bp in old.items():
            for an, bn in old.items():
                if ap[k] > 0 > an[k]:
                    fp, fn = 1 / ap[k], -1 / an[k]
                    if not add([fp * x + fn * y for x, y in zip(ap, an)],
                               fp * bp + fn * bn):
                        return False
    return True


def fm_reach(sys, X, Y):
    """Exact (pessimistic, optimistic) verdicts for any A and B.

    With T = Y ∩ D: optimistic asks whether some (x, u) in X × U has
    A x + B u in T, pessimistic whether for every vertex v of X some u in
    U has A v + B u in T (the points reaching T form a convex set).  Each
    question is a system of linear inequalities decided by Fourier-Motzkin
    elimination (``_fm_feasible``), over (x, u) and over u respectively.
    """
    t_lo = [max(a, b) for a, b in zip(Y.lower, sys.domain.lower)]
    t_hi = [min(a, b) for a, b in zip(Y.upper, sys.domain.upper)]
    if any(a > b for a, b in zip(t_lo, t_hi)):
        return False, False

    def target_rows(coeffs, offsets):
        """t_lo <= row . z + offset <= t_hi, row by row."""
        rows = []
        for row, off, lo, hi in zip(coeffs, offsets, t_lo, t_hi):
            rows.append((row, hi - off))
            rows.append(([-c for c in row], off - lo))
        return rows

    U = sys.input_set
    joint = [list(a) + list(b) for a, b in zip(sys.A, sys.B)]
    opt = _fm_feasible(target_rows(joint, [0] * len(joint)),
                       X.lower + U.lower, X.upper + U.upper)
    pess = all(
        _fm_feasible(target_rows(sys.B, [sum(a * x for a, x in zip(row, v))
                                         for row in sys.A]),
                     U.lower, U.upper)
        for v in product(*zip(X.lower, X.upper)))
    return pess, opt


def is_diagonal_system(sys) -> bool:
    """A and B are square with zeros off the diagonal."""
    return all(len(mat) == len(mat[0]) and all(
        v == 0 for i, row in enumerate(mat) for j, v in enumerate(row)
        if i != j) for mat in (sys.A, sys.B))


def box_volume(box) -> Fraction:
    """Exact volume of a ``Box``."""
    vol = Fraction(1)
    for lo, hi in zip(box.lower, box.upper):
        vol *= hi - lo
    return vol


# ---------------------------------------------------------------------------
# the partition layer's box tests and splits, restated
# ---------------------------------------------------------------------------

def contains_box_plain(outer, inner) -> bool:
    """``inner`` lies inside ``outer``, on the ``Fraction`` bounds."""
    return all(a <= c and d <= b for a, b, c, d in
               zip(outer.lower, outer.upper, inner.lower, inner.upper))


def overlaps_interior_plain(box, other) -> bool:
    """``box`` and ``other`` share a piece of ``other`` of full dimension
    relative to ``other``: per axis, the overlap is no interval at all
    (length below 0) nowhere, and a point (length 0) only where ``other``
    is flat."""
    for a, b, c, d in zip(box.lower, box.upper, other.lower, other.upper):
        length = min(b, d) - max(a, c)
        if length < 0 or length == 0 and c != d:
            return False
    return True


def _prime_factors(m: int) -> list[int]:
    out, p = [], 2
    while m > 1:
        while m % p == 0:
            out.append(p)
            m //= p
        p += 1
    return out


def split_counts_plain(box, m: int):
    """Per-axis slice counts with product m: each prime factor of m,
    largest first, multiplies the count of the axis whose slices are
    widest, the lowest such axis on a tie.  None when that axis has width
    0 (the box cannot be split into m)."""
    widths = [hi - lo for lo, hi in zip(box.lower, box.upper)]
    counts = [1] * len(widths)
    for f in sorted(_prime_factors(m), reverse=True):
        slices = [w / c for w, c in zip(widths, counts)]
        axis = slices.index(max(slices))
        if widths[axis] == 0:
            return None
        counts[axis] *= f
    return counts


def split_box_plain(box, m: int):
    """The boxes cutting ``box`` into ``split_counts_plain`` equal slices
    per axis, the first axis varying slowest; None as there."""
    counts = split_counts_plain(box, m)
    if counts is None:
        return None
    axes = []
    for lo, hi, k in zip(box.lower, box.upper, counts):
        step = (hi - lo) / k
        axes.append([(lo + i * step, lo + (i + 1) * step) for i in range(k)])
    return [Box(tuple(lo for lo, _ in cell), tuple(hi for _, hi in cell))
            for cell in product(*axes)]


def interval_reach(sys, X, Y):
    """Exact per-axis verdicts for diagonal A, B (Fraction arithmetic)."""
    assert is_diagonal_system(sys)
    target = _clip(Y, sys.domain)
    if target is None:
        return False, False
    t_lo, t_hi = target
    pess = opt = True
    for i in range(sys.n):
        a, b = sys.A[i][i], sys.B[i][i]
        blo = b * (sys.input_set.lower[i] if b >= 0 else sys.input_set.upper[i])
        bhi = b * (sys.input_set.upper[i] if b >= 0 else sys.input_set.lower[i])
        xl, xh = X.lower[i], X.upper[i]
        c, d = t_lo[i], t_hi[i]
        win = [(a * x + blo, a * x + bhi) for x in (xl, xh)]
        if any(w_hi < c or w_lo > d for (w_lo, w_hi) in win):
            pess = False
        full_lo = min(w for w, _ in win)
        full_hi = max(w for _, w in win)
        if full_hi < c or full_lo > d:
            opt = False
    return pess, opt


def planar_input_reach(sys, X, Y):
    """Exact verdicts for 2-D systems with diagonal B and any A (Fraction).

    With diagonal B the inputs reach the box Z = (Y ∩ D) - B U from the
    origin, so x reaches Y exactly when A x lies in Z.  Pessimistic: every
    vertex of X maps into Z.  Optimistic: the parallelogram A X meets Z,
    decided by separating axes (the box's two normals and the normal of
    every pair of image vertices, a superset of the parallelogram's edges).
    """
    assert sys.n == 2 and all(sys.B[i][j] == 0 for i in range(2)
                              for j in range(2) if i != j)
    target = _clip(Y, sys.domain)
    if target is None:
        return False, False
    t_lo, t_hi = target
    z_lo, z_hi = [], []
    for i in range(2):
        b, ul, uh = sys.B[i][i], sys.input_set.lower[i], sys.input_set.upper[i]
        b_lo, b_hi = min(b * ul, b * uh), max(b * ul, b * uh)
        z_lo.append(t_lo[i] - b_hi)
        z_hi.append(t_hi[i] - b_lo)
    images = [tuple(sum(a * x for a, x in zip(row, v)) for row in sys.A)
              for v in product(*zip(X.lower, X.upper))]
    pess = all(z_lo[i] <= p[i] <= z_hi[i] for p in images for i in range(2))
    corners = list(product(*zip(z_lo, z_hi)))
    axes = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
    axes += [(p[1] - q[1], q[0] - p[0]) for p in images for q in images
             if p != q]
    opt = True
    for n in axes:
        proj_a = [n[0] * p[0] + n[1] * p[1] for p in images]
        proj_z = [n[0] * c[0] + n[1] * c[1] for c in corners]
        if max(proj_a) < min(proj_z) or max(proj_z) < min(proj_a):
            opt = False
            break
    return pess, opt


# ---------------------------------------------------------------------------
# formula oracle: a recursive interpreter over the parsed tuples
# ---------------------------------------------------------------------------

def interpret_formula(expr, labels, env, bits):
    """A parsed formula's value in one state, one call per node.

    An atom reads a memory bit first, then an environment variable (as a
    bool), then the labels; ``and``, ``or`` and ``->`` short-circuit and
    return their operands' values as they are.  ``var=value`` with ``var``
    missing from ``env`` raises ValueError with the library's message.
    """
    op = expr[0]
    if op == "true":
        return True
    if op == "false":
        return False
    if op == "atom":
        name = expr[1]
        if name in bits:
            return bits[name]
        if name in env:
            return bool(env[name])
        return name in labels
    if op == "eq":
        name = expr[1]
        if name not in env:
            raise ValueError(f"{name!r} is not an environment variable")
        return env[name] == expr[2]
    if op == "not":
        return not interpret_formula(expr[1], labels, env, bits)
    if op == "and":
        return interpret_formula(expr[1], labels, env, bits) and \
            interpret_formula(expr[2], labels, env, bits)
    if op == "or":
        return interpret_formula(expr[1], labels, env, bits) or \
            interpret_formula(expr[2], labels, env, bits)
    if op == "imp":
        return (not interpret_formula(expr[1], labels, env, bits)) or \
            interpret_formula(expr[2], labels, env, bits)
    raise ValueError(f"unknown operator {op!r}")


# ---------------------------------------------------------------------------
# game oracle: exhaustive goal-indexed strategy enumeration + lasso check
# ---------------------------------------------------------------------------

def _violating_path_exists(nodes, succ, preds_p, preds_q, start):
    """Does some path from start satisfy all []<>p_i but miss some []<>q_j?

    Equivalently: a reachable cycle, within the complement of some q_j,
    touching every p_i.  Also true when a reachable node is stuck
    (no successor): a stuck system is inconsistent, hence loses.
    """
    reach = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in succ[v]:
            if w not in reach:
                reach.add(w)
                stack.append(w)
    if any(not succ[v] for v in reach):
        return True
    nq = len(preds_q)
    for j in range(nq):
        sub = {v for v in reach if not preds_q[j](v)}
        for scc in _sccs(sub, succ):
            cyclic = len(scc) > 1 or any(v in succ[v] for v in scc)
            if not cyclic:
                continue
            if all(any(p(v) for v in scc) for p in preds_p):
                return True
    return False


def _sccs(nodes, succ):
    """Tarjan over the subgraph induced by ``nodes``."""
    index, low, onstk = {}, {}, set()
    stack, out, counter = [], [], [0]
    for root in nodes:
        if root in index:
            continue
        work = [(root, iter([w for w in succ[root] if w in nodes]))]
        index[root] = low[root] = counter[0]; counter[0] += 1
        stack.append(root); onstk.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]; counter[0] += 1
                    stack.append(w); onstk.add(w)
                    work.append((w, iter([u for u in succ[w] if u in nodes])))
                    advanced = True
                    break
                elif w in onstk:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop(); onstk.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                out.append(frozenset(comp))
    return out


def brute_force_winning(regions, region_succ, env_values, p_preds, q_preds):
    """Largest winning set of GameStates by strategy enumeration.

    ``p_preds`` / ``q_preds`` are lists of functions over (region, env).
    A candidate controller is a table (region, env, goal) -> next region
    (goal pointer advances exactly when the current q is satisfied);
    states from which some table wins every play are winning.  The union
    of per-table winning sets is the largest winning set because a union
    of winning sets is winning (index-switch construction).
    """
    n_goals = max(1, len(q_preds))
    slots = [(r, e, g) for r in regions for e in env_values
             for g in range(n_goals)]
    choice_lists = []
    for (r, _e, _g) in slots:
        choice_lists.append(region_succ[r] if region_succ[r] else [None])
    total = 1
    for c in choice_lists:
        total *= len(c)
    if total > 300000:
        raise RuntimeError(f"strategy space too large for brute force ({total})")

    game_states = [(r, e) for r in regions for e in env_values]
    winning = set()
    remaining = set(game_states)

    for assignment in product(*choice_lists):
        table = dict(zip(slots, assignment))
        nodes = [(r, e, g) for (r, e) in game_states for g in range(n_goals)]
        succ = {}
        for (r, e, g) in nodes:
            if q_preds:
                g2 = (g + 1) % n_goals if q_preds[g](r, e) else g
            else:
                g2 = g
            nxt_r = table[(r, e, g2)]
            if nxt_r is None:
                succ[(r, e, g)] = []
            else:
                succ[(r, e, g)] = [(nxt_r, e2, g2) for e2 in env_values]
        pp = [(lambda v, p=p: p(v[0], v[1])) for p in p_preds]
        qq = [(lambda v, q=q: q(v[0], v[1])) for q in q_preds] or \
             [lambda v: True]
        newly = set()
        for (r, e) in remaining:
            if not _violating_path_exists(nodes, succ, pp, qq, (r, e, 0)):
                newly.add((r, e))
        winning |= newly
        remaining -= newly
        if not remaining:
            break
    return winning


def sweep_gr1_winning(regions, region_succ, env_values, n_bits, update,
                      p_preds, q_preds):
    """Winning GameStates by sweeping the GR(1) fixpoint over explicit nodes.

    Nodes are (region, env, bits) triples, ``bits`` a tuple of ``n_bits``
    booleans holding their value after entering (region, env);
    ``update(bits, region, env)`` gives that value from the previous one.
    From (r, e, b) the system picks a successor s of r, then the
    environment any e', and the play enters (s, e', update(b, s, e')).
    ``p_preds`` / ``q_preds`` are functions over a node.  Computes

        Z = nuZ. AND_j muY. OR_i nuX. (q_j & cpre(Z)) | cpre(Y) | (!p_i & cpre(X))

    (Bloem et al., JCSS 2012) by full sweeps, every cpre over every node,
    and returns the (r, e) whose entry node with cleared bits is in Z.
    """
    zero = (False,) * n_bits
    nodes = [(r, e, b) for r in regions for e in env_values
             for b in product((False, True), repeat=n_bits)]
    moves = {(r, e, b): [[(s, e2, update(b, s, e2)) for e2 in env_values]
                         for s in region_succ[r]]
             for (r, e, b) in nodes}

    def cpre(S):
        return {v for v in nodes
                if any(all(w in S for w in fan) for fan in moves[v])}

    def mu_y(q, Z):
        start = {v for v in cpre(Z) if q(v)}
        Y = set()
        while True:
            base = start | cpre(Y)
            new_y = set()
            for p in p_preds or [lambda v: True]:
                X = set(nodes)
                while True:
                    nx = base | {v for v in cpre(X) if not p(v)}
                    if nx == X:
                        break
                    X = nx
                new_y |= X
            if new_y == Y:
                return Y
            Y = new_y

    Z = set(nodes)
    while True:
        nz = set(nodes)
        for q in q_preds:
            nz &= mu_y(q, Z)
        if nz == Z:
            break
        Z = nz
    return {(r, e) for r in regions for e in env_values
            if (r, e, update(zero, r, e)) in Z}


def strategy_wins(initial, step, env_values, state, p_preds, q_preds):
    """No play of a finite-memory strategy violates the GR(1) condition.

    ``step(m, e)`` is the memory after memory m reads env value e, and
    ``state(m, e)`` the node the play is then in, which the predicates
    read.  Explores the (memory, env) product from every initial memory
    and looks for a reachable cycle that meets every p_i but misses some
    q_j, as the enumeration oracle does.
    """
    succ = {}
    stack = [(m, e) for m in initial for e in env_values]
    starts = list(stack)
    while stack:
        v = stack.pop()
        if v not in succ:
            m2 = step(*v)
            succ[v] = [(m2, e2) for e2 in env_values]
            stack += succ[v]
    pp = [lambda v, p=p: p(state(*v)) for p in p_preds]
    qq = [lambda v, q=q: q(state(*v)) for q in q_preds]
    return not any(_violating_path_exists(list(succ), succ, pp, qq, v)
                   for v in starts)


# ---------------------------------------------------------------------------
# exact backward reachability for diagonal systems
# ---------------------------------------------------------------------------

def backward_reach_interval(a, b, ulo, uhi, goal_lo, goal_hi, dom_lo, dom_hi,
                            iters=200):
    """Per-axis set of points that can reach [goal_lo, goal_hi] in <= k steps.

    One exact pre-image step for x' = a x + b u, u in [ulo, uhi]:
    pre([c, d]) = {x : [a x + min(bu), a x + max(bu)] meets [c, d]},
    clipped to the domain.  Returns the (still exact) interval after
    ``iters`` steps; monotone increasing in ``iters``.
    """
    a, b = Fraction(a), Fraction(b)
    blo = b * (ulo if b >= 0 else uhi)
    bhi = b * (uhi if b >= 0 else ulo)
    c, d = Fraction(goal_lo), Fraction(goal_hi)
    lo, hi = c, d
    for _ in range(iters):
        if a == 0:
            new_lo, new_hi = (dom_lo, dom_hi) if (blo <= hi and bhi >= lo) \
                else (lo, hi)
        else:
            p1, p2 = (lo - bhi) / a, (hi - blo) / a
            new_lo, new_hi = min(p1, p2), max(p1, p2)
        lo = max(dom_lo, min(lo, new_lo))
        hi = min(dom_hi, max(hi, new_hi))
    return lo, hi


# ---------------------------------------------------------------------------
# the controller's midpoint probe, restated
# ---------------------------------------------------------------------------

_GRID = 2 ** 20


def _gauss_solve(M, rhs):
    """Exact solution of M z = rhs by Gauss-Jordan elimination with the
    first nonzero pivot, or None when M is singular."""
    n = len(M)
    rows = [list(row) + [r] for row, r in zip(M, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        top = rows[col]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col] / top[col]
                rows[r] = [v - f * p for v, p in zip(rows[r], top)]
    return [rows[i][n] / rows[i][i] for i in range(n)]


def midpoint_probe(A, B, U, D, T, x):
    """The input the controller's probe picks to move x into box T, or None.

    ``U``, ``D`` and ``T`` are ``[[lo, hi], ...]`` bounds (input set,
    domain, target).  T is clipped to D; A x + B u lies in the clip exactly
    when ``lo <= B u <= hi`` for the window lo, hi = clip - A x.  B must
    be square and invertible, diagonal or not: u solves B u = the window's
    middle, is clamped to U and must land in the window; it is then
    rounded to the 2^-20 grid and clamped to U, kept when that still
    lands.  None when no step lands this way.
    """
    F = Fraction
    A = [[F(v) for v in row] for row in A]
    B = [[F(v) for v in row] for row in B]
    U = [(F(lo), F(hi)) for lo, hi in U]
    lo = [max(F(t[0]), F(d[0])) for t, d in zip(T, D)]
    hi = [min(F(t[1]), F(d[1])) for t, d in zip(T, D)]
    if any(a > b for a, b in zip(lo, hi)):
        return None
    x = [F(v) for v in x]
    ax = [sum(a * v for a, v in zip(row, x)) for row in A]
    lo = [a - s for a, s in zip(lo, ax)]
    hi = [b - s for b, s in zip(hi, ax)]
    if len(B) != len(B[0]):
        return None
    sol = _gauss_solve(B, [(a + b) / 2 for a, b in zip(lo, hi)])
    if sol is None:
        return None

    def clamped(vec):
        return tuple(min(max(v, ulo), uhi) for v, (ulo, uhi) in zip(vec, U))

    def lands(u):
        return all(a <= sum(c * v for c, v in zip(row, u)) <= b
                   for row, a, b in zip(B, lo, hi))

    u = clamped(sol)
    if not lands(u):
        return None
    if all(v.denominator <= _GRID for v in u):
        return u
    grid = clamped([F(round(v * _GRID), _GRID) for v in u])
    return grid if lands(grid) else u


# ---------------------------------------------------------------------------
# the controller's vertex control, restated
# ---------------------------------------------------------------------------

def vertex_control_input(A, B, U, D, T, X, inputs, x):
    """The input the controller interpolates from a vertex table, or None.

    ``U``, ``D``, ``T`` and ``X`` are ``[[lo, hi], ...]`` bounds (input
    set, domain, target, source box); ``inputs`` holds one input per
    vertex of X, the first axis varying slowest.  Per axis,
    t = (x - lo) / (hi - lo) (0 on a flat axis), a vertex weighs the
    product of t where it takes the upper bound and 1 - t where it takes
    the lower, and u is the weighted sum of the vertex inputs.  u must
    land in T clipped to D; it is then rounded to the 2^-20 grid and
    clamped to U, kept when that still lands.  None when u does not land.
    """
    F = Fraction
    A = [[F(v) for v in row] for row in A]
    B = [[F(v) for v in row] for row in B]
    U = [(F(lo), F(hi)) for lo, hi in U]
    lo = [max(F(t[0]), F(d[0])) for t, d in zip(T, D)]
    hi = [min(F(t[1]), F(d[1])) for t, d in zip(T, D)]
    x = [F(v) for v in x]
    weights = [F(1)]
    for v, (a, b) in zip(x, X):
        a, b = F(a), F(b)
        t = (v - a) / (b - a) if b != a else F(0)
        weights = [w * f for w in weights for f in (1 - t, t)]
    u = [sum((w * F(inp[j]) for w, inp in zip(weights, inputs)), F(0))
         for j in range(len(U))]
    ax = [sum(a * v for a, v in zip(row, x)) for row in A]

    def lands(vec):
        return all(l <= s + sum(c * v for c, v in zip(row, vec)) <= h
                   for row, s, l, h in zip(B, ax, lo, hi))

    if not all(v.denominator <= _GRID for v in u):
        grid = tuple(min(max(F(round(v * _GRID), _GRID), ulo), uhi)
                     for v, (ulo, uhi) in zip(u, U))
        if lands(grid):
            return grid
    return tuple(u) if lands(u) else None
