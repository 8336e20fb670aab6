"""GR(1) specifications, explicit-state game solving, strategy extraction.

The winning condition is
``(and_i always-eventually p_i) -> (and_j always-eventually q_j)``
over plays in which the environment reveals its valuation first and the
system replies with a successor region; the controller may also carry
finite memory bits (used to encode response obligations).  Each spec
compiles its formulas once, on first use, into generated functions
(``compile_formula``), and its bit updates into one function that builds
the whole next-bits dict; names and values reach the generated code as
namespace constants, so no user string enters its source.

The solver runs the three-nested fixpoint of Bloem, Jobstmann, Piterman,
Pnueli and Sa'ar, "Synthesis of Reactive(1) Designs" (JCSS 2012),
explicit-state, cycling through the guarantees until Z is stable.  Each
muY grows Y layer by layer with worklist attractors (Graedel, Thomas and
Wilke, LNCS 2500, 2002): the graph keeps region predecessor lists, one
table of each (region, bits) pair's env fan-out (``GameGraph.fan_out``)
and its inverse, and muY keeps one counter per pair of fan-out nodes not
yet in Y.  Without assumptions a layer costs work proportional to the
nodes it adds, so a whole muY is O(nodes + edges * bit values) plus one
``cpre`` call for goal & cpre(Z), which tests the goal's nodes only.
With assumptions, a layer's trap nuX adds to the base the !p nodes
outside it that a removal worklist keeps.  After a run's first layer its
candidates are only the !p nodes that lead back to the nodes that just
joined Y, so a layer also costs, per assumption, work proportional to
those candidates and their edges.  The goals are visited in a cycle,
and the fixpoint stops as soon as the last ``len(goals)`` visits in a
row left Z unchanged.  muY reads Z only through its start, goal &
cpre(Z), so a visit whose start equals the one of its goal's last run
reuses that run's Y and tables and runs no muY: the simplest decremental
case (Chatterjee and Henzinger, JACM 2014), a rerun whose input did not
change.  Z is computed once per graph (``GameGraph.fixpoint``), so
solving a graph a second time to extract a strategy runs no muY.

Every muY records rank tables: each node's layer and case, and per
assumption the layer at which each node enters the trap.  The graph keeps
each goal's tables from its last run, whose start is the goal's start
under the final Z, and strategies are read from them: advance the goal
pointer when the current guarantee is satisfied, otherwise descend the
ranks, otherwise dwell inside an assumption-violating trap.  ``cpre``,
the traps, the entry nodes and the extraction read every fan-out from
the graph's table, and the extraction reads the rank tables from
``GameGraph.fixpoint``; a solution keeps no copy of them.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import chain, compress

logger = logging.getLogger(__name__)


class SpecError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Boolean formulas over labels, environment variables, and memory bits
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(->|&&|\|\||[()&|!=]|[A-Za-z_][A-Za-z0-9_]*|-?\d+)")

TRUE = ("true",)
FALSE = ("false",)
MAX_FORMULA_DEPTH = 100


def _tokenize(text: str) -> list[str]:
    tokens, pos = [], 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        for bad in ("[]", "<>", "□", "◇", "○"):
            if text.startswith(bad, pos):
                raise SpecError(
                    f"temporal operator {bad!r} is not allowed inside a "
                    f"Boolean formula: {text!r}")
        m = _TOKEN.match(text, pos)
        if not m:
            raise SpecError(f"cannot tokenize {text[pos:]!r} in formula {text!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def parse_formula(text: str):
    """Parse ``!``, ``&``, ``|``, ``->``, parentheses, atoms, ``var=value``.

    A formula nesting deeper than ``MAX_FORMULA_DEPTH`` raises SpecError,
    so that no recursive walk over it can exhaust the interpreter's stack.
    """
    tokens = _tokenize(text)
    pos = [0]
    depth = [0]     # the parser's own nesting, through "(" and "!"

    def nested(parse):
        depth[0] += 1
        if depth[0] > MAX_FORMULA_DEPTH:
            raise _too_deep(text)
        e = parse()
        depth[0] -= 1
        return e

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def take(expected=None):
        tok = peek()
        if tok is None:
            raise SpecError(f"unexpected end of formula {text!r}")
        if expected is not None and tok != expected:
            raise SpecError(f"expected {expected!r}, found {tok!r} in {text!r}")
        pos[0] += 1
        return tok

    def primary():
        tok = take()
        if tok == "(":
            e = nested(implication)
            take(")")
            return e
        if tok == "!":
            return ("not", nested(primary))
        if tok in ("true", "True"):
            return TRUE
        if tok in ("false", "False"):
            return FALSE
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok):
            raise SpecError(f"unexpected token {tok!r} in formula {text!r}")
        if peek() == "=":
            take("=")
            lit = take()
            if re.fullmatch(r"-?\d+", lit):
                value = int(lit)
            elif lit in ("true", "True"):
                value = True
            elif lit in ("false", "False"):
                value = False
            else:
                value = lit
            return ("eq", tok, value)
        return ("atom", tok)

    def conjunction():
        e = primary()
        while peek() in ("&", "&&"):
            take()
            e = ("and", e, primary())
        return e

    def disjunction():
        e = conjunction()
        while peek() in ("|", "||"):
            take()
            e = ("or", e, conjunction())
        return e

    def implication():
        # "->" groups to the right; parsed in a loop, like "&" and "|"
        parts = [disjunction()]
        while peek() == "->":
            take()
            parts.append(disjunction())
        e = parts.pop()
        while parts:
            e = ("imp", parts.pop(), e)
        return e

    expr = implication()
    if peek() is not None:
        raise SpecError(f"trailing token {peek()!r} in formula {text!r}")
    if _depth(expr) > MAX_FORMULA_DEPTH:  # a long chain of "&" or "|"
        raise _too_deep(text)
    return expr


def _too_deep(text: str) -> SpecError:
    return SpecError(f"formula of {len(text)} characters nests deeper than "
                     f"{MAX_FORMULA_DEPTH} levels")


def _depth(expr) -> int:
    """Nesting depth of a parsed formula, found without recursion."""
    deepest, stack = 0, [(expr, 1)]
    while stack:
        e, d = stack.pop()
        deepest = max(deepest, d)
        stack.extend((sub, d + 1) for sub in e[1:] if isinstance(sub, tuple))
    return deepest


def _source(expr, consts: list) -> str:
    """Python source of ``expr`` over ``labels``, ``env`` and ``bits``;
    each name and value it reads is appended to ``consts`` and read as
    ``c<index>``.  An atom reads a bit, else an env variable as a bool,
    else the labels; ``and``, ``or`` and ``->`` short-circuit."""
    op = expr[0]
    if op in ("true", "false"):
        return str(op == "true")
    if op in ("atom", "eq"):
        c, v = f"c{len(consts)}", f"c{len(consts) + 1}"
        consts.extend(expr[1:])
        if op == "atom":
            return (f"(bits[{c}] if {c} in bits else bool(env[{c}]) "
                    f"if {c} in env else {c} in labels)")
        return f"((env[{c}] if {c} in env else _no_env_var({c})) == {v})"
    if op == "not":
        return f"(not {_source(expr[1], consts)})"
    if op in ("and", "or", "imp"):
        a, b = _source(expr[1], consts), _source(expr[2], consts)
        return f"(not {a} or {b})" if op == "imp" else f"({a} {op} {b})"
    raise SpecError(f"unknown operator {op!r}")


def _no_env_var(name):
    raise SpecError(f"{name!r} is not an environment variable")


def _compile(source: str, consts: list):
    namespace = {f"c{k}": value for k, value in enumerate(consts)}
    namespace.update(__builtins__={}, bool=bool, _no_env_var=_no_env_var)
    return eval(source, namespace)


def compile_formula(expr):
    """``expr`` as one generated function ``holds(labels, env, bits)``,
    whose every value and error is the formula's in that state."""
    consts: list = []
    return _compile(f"lambda labels, env, bits: {_source(expr, consts)}",
                    consts)


def formula_literals(expr):
    """The ("atom", name) and ("eq", name, value) leaves of a formula."""
    if expr[0] in ("atom", "eq"):
        yield expr
    else:
        for sub in expr[1:]:
            yield from formula_literals(sub)


def check_names(expr, names: dict, what: str) -> None:
    """Raise SpecError unless every literal of ``expr`` means something.

    ``names`` maps every name the formula may use to None (a proposition
    or a memory bit) or to the values of an environment variable; ``what``
    says which names those are, for the message.
    """
    for lit in formula_literals(expr):
        name = lit[1]
        if name not in names:
            raise SpecError(f"{name!r} is not {what}")
        if lit[0] == "eq" and names[name] is None:
            raise SpecError(f"{format_formula(lit)}: {name!r} is not an "
                            f"environment variable")
        if lit[0] == "eq" and lit[2] not in names[name]:
            raise SpecError(f"{format_formula(lit)}: the value is not one "
                            f"of {list(names[name])}")


def format_formula(expr) -> str:
    op = expr[0]
    if op == "true":
        return "true"
    if op == "false":
        return "false"
    if op == "atom":
        return expr[1]
    if op == "eq":
        v = expr[2]
        return f"{expr[1]}={str(v).lower() if isinstance(v, bool) else v}"
    if op == "not":
        return f"!{format_formula(expr[1])}"
    if op in ("and", "or", "imp"):
        sym = {"and": "&", "or": "|", "imp": "->"}[op]
        return f"({format_formula(expr[1])} {sym} {format_formula(expr[2])})"
    raise SpecError(f"unknown operator {op!r}")


# ---------------------------------------------------------------------------
# Specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RawSpec:
    """User-facing spec: recurrence goals, response obligations, init labels.

    ``names`` holds the problem's proposition and environment-variable
    names, which no memory bit may take, whether a formula reads them or
    not."""
    assumptions: tuple[str, ...] = ()
    guarantees: tuple[str, ...] = ()
    responses: tuple[tuple[str, str], ...] = ()
    init: str | None = None
    names: tuple[str, ...] = ()


@dataclass(frozen=True)
class Gr1Spec:
    """Normalized spec: every guarantee/assumption sits under always-eventually.

    ``memory_bits`` holds (name, update) pairs; an update formula reads
    the *previous* bit values plus the newly entered state and yields the
    next bit value.
    """
    assumptions: tuple = ()
    guarantees: tuple = ()
    memory_bits: tuple = ()
    init_assumption: object = None

    def __post_init__(self):
        if len(self.guarantees) < 1:
            raise SpecError("at least one recurrence guarantee is required")
        names = self.bit_names
        if len(set(names)) != len(names):
            twice = next(n for k, n in enumerate(names) if n in names[:k])
            raise SpecError(f"memory bit {twice!r} is named more than once")

    @property
    def bit_names(self) -> tuple[str, ...]:
        return tuple(name for name, _upd in self.memory_bits)

    # The compiled forms are made on first use and kept in the instance
    # dict, outside the fields: ==, hash, replace and pickle ignore them.
    @cached_property
    def update_bits(self):
        """``update_bits(bits, labels, env)``: the dict of next bit values
        on entering a state with ``labels`` and env valuation ``env`` from
        the bit values ``bits``, built by one generated function."""
        consts = list(self.bit_names)
        items = ", ".join(f"c{k}: {_source(upd, consts)}"
                          for k, (_name, upd) in enumerate(self.memory_bits))
        return _compile(f"lambda bits, labels, env: {{{items}}}", consts)

    @cached_property
    def assumption_fns(self) -> tuple:
        return tuple(map(compile_formula, self.assumptions))

    @cached_property
    def guarantee_fns(self) -> tuple:
        return tuple(map(compile_formula, self.guarantees))

    @cached_property
    def init_fn(self):
        """The init assumption compiled, or None without one."""
        return None if self.init_assumption is None else \
            compile_formula(self.init_assumption)

    def __getstate__(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def initial_bits(self) -> dict:
        return {name: False for name, _ in self.memory_bits}


def _bit_name(index: int, trigger_expr, taken: set[str]) -> str:
    base = "pending"
    if trigger_expr[0] == "atom":
        base = f"pending_{trigger_expr[1]}"
    name = base
    k = index
    while name in taken:
        name = f"{base}_{k}"
        k += 1
    return name


def convert_to_gr1(raw: RawSpec) -> Gr1Spec:
    """Lower response obligations to memory bits plus recurrence guarantees.

    ``always (trigger -> eventually response)`` becomes a pending bit b
    (set on trigger, cleared on response) and the guarantee
    ``always eventually (!b | response)``; plain goals and assumptions
    pass through unchanged.  A bit's name is none of ``raw.names`` and
    none of the names any formula of ``raw`` reads, so no bit shadows a
    proposition or an environment variable of the problem.
    """
    assumptions = tuple(parse_formula(a) for a in raw.assumptions)
    guarantees = [parse_formula(g) for g in raw.guarantees]
    responses = [tuple(map(parse_formula, pair)) for pair in raw.responses]
    init = parse_formula(raw.init) if raw.init else None
    taken = {lit[1] for f in (*guarantees, *assumptions, init,
                              *chain.from_iterable(responses))
             if f is not None for lit in formula_literals(f)}
    taken.update(raw.names)
    bits = []
    for k, (trig, resp) in enumerate(responses):
        name = _bit_name(k, trig, taken)
        taken.add(name)
        update = ("and", ("not", resp), ("or", ("atom", name), trig))
        bits.append((name, update))
        guarantees.append(("or", ("not", ("atom", name)), resp))
    return Gr1Spec(assumptions=assumptions, guarantees=tuple(guarantees),
                   memory_bits=tuple(bits), init_assumption=init)


# ---------------------------------------------------------------------------
# Game graph: regions x environment x memory bits
# ---------------------------------------------------------------------------

def _successor_rows(n: int, succ) -> list[list[int]]:
    """``succ[i]`` sorted, for i in 0..n-1; SpecError naming the row count
    when it is not n, the first row that is no iterable, or the first
    edge whose target is no index: an ``int`` in 0..n-1, and neither a
    ``bool`` nor a float."""
    if len(succ) != n:
        raise SpecError(f"{len(succ)} successor rows for {n} regions")
    try:
        rows = [sorted(succ[i]) for i in range(n)]
    except KeyError as exc:
        raise SpecError(f"no successor row for region index "
                        f"{exc.args[0]!r}") from None
    except TypeError:  # targets that do not compare with each other
        rows = None
    if rows is not None and set(map(type, chain.from_iterable(rows))) \
            <= {int} and all(not row or 0 <= row[0] and row[-1] < n
                             for row in rows):
        return rows
    for i in range(n):
        try:
            row = iter(succ[i])
        except TypeError:
            raise SpecError(f"successor row {i}: {succ[i]!r} is not a list "
                            f"of region indices") from None
        for s in row:
            if type(s) is not int or not 0 <= s < n:
                raise SpecError(f"edge {i} -> {s!r}: {s!r} is not a region "
                                f"index in 0..{n - 1}")


def _unique_regions(regions) -> list:
    """``regions`` as a list; SpecError naming the first id that repeats
    and both its indices."""
    regions = list(regions)
    if len(set(regions)) < len(regions):
        first: dict = {}
        for i, r in enumerate(regions):
            if first.setdefault(r, i) != i:
                raise SpecError(f"region id {r!r} repeats, at indices "
                                f"{first[r]} and {i}")
    return regions


class GameGraph:
    """Explicit product arena for one FTS and one spec.

    ``succ[i]``, from a list or a mapping keyed 0..n-1, lists the
    successors of ``regions[i]`` as indices into ``regions``, which keep
    the caller's order; each row is sorted, which sets the strategies'
    tie-break.  Region ids are read only to report results.

    A composite step from node (region, env, bits): the system commits to
    a successor region (it has seen the current env valuation, not the
    next one), then the environment picks any next valuation.  A node
    whose region has no successors loses: no consistent controller exists
    there.

    Node (r, e, b) is ``(r * n_env + e) * n_bitvals + b``.  ``fan_out[q]``
    lists the env fan-out of pair q = s * n_bitvals + b: per env e, the
    node (s, e, b'), where b' is b updated on entering s under e.
    ``fan_in[v]`` is its inverse, the pairs whose fan-out holds node v.

    Formulas read a region only through its labels, so the bit updates
    and the assumption and guarantee tables are evaluated once per
    distinct label set, env valuation and bit value; regions with equal
    labels share those rows.  None of these tables reads an edge, so a
    graph built with ``tables_from`` (a graph over the same regions,
    labels, env valuations and spec) shares that graph's tables instead
    of building its own; only the successor and predecessor rows are its
    own.  ``fixpoint`` is computed on first use and kept, and
    ``mu_y_runs`` counts the muY runs it made; a goal visit that reuses
    a run adds none.
    """

    # the tables that read no edge, shared by ``tables_from``
    _EDGE_FREE = ("regions", "labels", "env_valuations", "spec", "n_regions",
                  "n_env", "n_bits", "n_bitvals", "n_nodes", "fan_out",
                  "assumption_preds", "guarantee_preds", "fan_in")

    def __init__(self, regions, succ, labels, env_valuations, spec,
                 tables_from: "GameGraph | None" = None):
        if tables_from is None:
            self.regions = _unique_regions(regions)
            self.labels = [frozenset(labels.get(r, ())) for r in self.regions]
            self.env_valuations = list(env_valuations) or [{}]
            self.spec = spec
            self.n_regions = len(self.regions)
            self.n_env = len(self.env_valuations)
            self.n_bits = len(spec.memory_bits)
            self.n_bitvals = 1 << self.n_bits
            self.n_nodes = self.n_regions * self.n_env * self.n_bitvals
            self._build_tables()
        else:
            for name in self._EDGE_FREE:
                setattr(self, name, getattr(tables_from, name))
        self.succ_idx = _successor_rows(self.n_regions, succ)
        # pred_idx[s]: the regions with an edge to s, once per edge
        self.pred_idx = [[] for _ in range(self.n_regions)]
        for ri, row in enumerate(self.succ_idx):
            for si in row:
                self.pred_idx[si].append(ri)
        self.mu_y_runs = 0

    def _build_tables(self):
        spec = self.spec
        nbv, names = self.n_bitvals, tuple(enumerate(spec.bit_names))
        envs = self.env_valuations
        # bit value b as a dict, and a dict's bit value
        bit_dicts = [{name: bool(b >> k & 1) for k, name in names}
                     for b in range(nbv)]

        def bits_val(bits):
            return sum(1 << k for k, name in names if bits[name])

        # label_sets: each distinct label set, in order of first region
        label_sets: dict = {}
        set_of = [label_sets.setdefault(labels, len(label_sets))
                  for labels in self.labels]
        # per label set and bit value b, the fan-out's offsets from its
        # region's first node: e * n_bitvals + the update of b under env e
        update = spec.update_bits
        offsets = [[[e * nbv + bits_val(update(bits, labels, env))
                     for e, env in enumerate(envs)] for bits in bit_dicts]
                   for labels in label_sets]
        stride = self.n_env * nbv
        self.fan_out = [[s * stride + o for o in row]
                        for s, k in enumerate(set_of) for row in offsets[k]]

        def pred_array(holds):
            # node order: region, then env, then bits
            blocks = [[holds(labels, env, bits)
                       for env in envs for bits in bit_dicts]
                      for labels in label_sets]
            return [x for k in set_of for x in blocks[k]]

        self.assumption_preds = list(map(pred_array, spec.assumption_fns))
        self.guarantee_preds = list(map(pred_array, spec.guarantee_fns))
        self.fan_in = [[] for _ in range(self.n_nodes)]
        for q, fan in enumerate(self.fan_out):
            for v in fan:
                self.fan_in[v].append(q)

    # node indexing -------------------------------------------------------
    def pair_of(self, v: int) -> int:
        """The pair of node v = (r, e, b), as r * n_bitvals + b."""
        return v // (self.n_env * self.n_bitvals) * self.n_bitvals \
            + v % self.n_bitvals

    def pair_nodes(self, q: int) -> range:
        """The nodes (r, e, b), one per env e, of pair q = r * n_bitvals + b."""
        r, b = divmod(q, self.n_bitvals)
        stride = self.n_env * self.n_bitvals
        return range(r * stride + b, (r + 1) * stride, self.n_bitvals)

    # controllable predecessor -------------------------------------------
    def cpre(self, S: list[bool], among: list[bool]) -> list[bool]:
        """The nodes of ``among`` in cpre(S): nodes (r, e, b) from which the
        system can move to a successor s of r whose pair (s, b) has its
        ``fan_out`` in S.  Only the nodes of ``among`` are tested, and each
        pair has its fan-out tested once."""
        nbv, fan_out = self.n_bitvals, self.fan_out
        stride = self.n_env * nbv
        inside = [None] * len(fan_out)  # fan-out of pair (s, b) in S
        out = [False] * self.n_nodes
        for v in compress(range(self.n_nodes), among):
            r, b = v // stride, v % nbv
            for s in self.succ_idx[r]:
                q = s * nbv + b
                if inside[q] is None:
                    inside[q] = all([S[u] for u in fan_out[q]])
                if inside[q]:
                    out[v] = True
                    break
        return out

    @cached_property
    def fixpoint(self) -> tuple:
        """(Z, rank, case, trap_layer), computed once per graph and shared
        by every solution of it.

        The last three hold one table per goal j, from its last muY run:
        ``rank[j][v]`` is the layer at which node v joined Y, or None, so
        layer k is {v : rank[j][v] <= k}; ``case[j][v]`` is (kind, trap
        index); ``trap_layer[j][i][v]`` is the first layer whose trap X_i
        holds v, or None, and X_i grows with k, so X_i at layer k is
        {v : trap_layer[j][i][v] <= k}.

        Cycle through the guarantees and stop as soon as the last
        ``len(goals)`` visits in a row left Z as they found it.  A visit
        to goal j computes start = goal_j & cpre(Z), the only thing muY
        reads of Z, and runs muY from it, recording the rank tables,
        unless start equals the one of goal j's last run: then that run's
        Y and tables are reused.  The last visits are one per goal and
        all saw the final Z, so every goal's tables, kept from the run
        whose start equals goal_j & cpre(final Z), are the ones a
        strategy is read from.  Z only shrinks, and a Z every goal leaves
        unchanged is the greatest fixpoint, whichever goal the cycle
        stops at.
        """
        n, p_preds, goals = self.n_nodes, self.assumption_preds, \
            self.guarantee_preds
        Z = [True] * n
        runs = [None] * len(goals)   # goal j's last run: (start, Y, tables)
        j = unchanged = 0
        while unchanged < len(goals):
            start = self.cpre(Z, goals[j])
            if runs[j] is None or runs[j][0] != start:
                tables = ([None] * n, [None] * n, [[None] * n for _ in p_preds])
                runs[j] = (start, _mu_y(self, start, p_preds, tables), tables)
            Y = runs[j][1]
            unchanged = unchanged + 1 if Y == Z else 0
            Z, j = Y, (j + 1) % len(goals)
        return (Z, *map(list, zip(*(tables for _, _, tables in runs))))


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------

_GOAL, _DESCEND, _TRAP = 0, 1, 2


@dataclass
class GameSolution:
    graph: GameGraph
    z_nodes: list[bool]
    winning: set          # (region, env index) pairs, cleared-bit entry
    region_winning: set   # regions winning for every env valuation
    strategy: "StrategyAutomaton | None" = None


def _trap(graph: GameGraph, cands: list[int], base: list[bool]) -> list[int]:
    """The nodes of ``cands``, the !p nodes outside the base, that
    nuX. base | (!p & cpre(X)) keeps: a removal worklist over their pairs.

    ``alive[t]``, for a candidate's pair t = r * n_bitvals + b, counts the
    successors s of r whose pair (s, b) has its env fan-out inside X, as
    ``inside`` records; a candidate leaves with the last of them.  Each
    pair dies once, so the work is proportional to the candidates' pairs,
    their edges and those edges' fan-outs.
    """
    nbv, fan_in, fan_out = graph.n_bitvals, graph.fan_in, graph.fan_out
    pred = graph.pred_idx
    in_x = set(cands)
    inside, alive = {}, {}
    for t in {graph.pair_of(v) for v in cands}:
        r, b = divmod(t, nbv)
        row = [s * nbv + b for s in graph.succ_idx[r]]
        for q in row:
            if q not in inside:
                inside[q] = all(base[u] or u in in_x for u in fan_out[q])
        alive[t] = sum(inside[q] for q in row)
    stack = [v for v in cands if not alive[graph.pair_of(v)]]
    in_x.difference_update(stack)
    while stack:
        for q in fan_in[stack.pop()]:
            if not inside.get(q):
                continue
            inside[q] = False
            s, b = divmod(q, nbv)
            for r in pred[s]:
                t = r * nbv + b
                if t in alive:
                    alive[t] -= 1
                    if not alive[t]:
                        for u in graph.pair_nodes(t):
                            if u in in_x:
                                in_x.remove(u)
                                stack.append(u)
    return [v for v in cands if v in in_x]


def _trap_candidates(graph: GameGraph, p: list[bool], base: list[bool],
                     joined: list[int] | None) -> list[int]:
    """The !p nodes outside ``base`` that the trap nuX. base | (!p &
    cpre(X)) may keep, given the nodes ``joined`` the base since the last
    layer, or None at a run's first layer: then every !p node outside it.

    A node outside the base stays in X only through a pair whose env
    fan-out lies in X, so holds only base and !p nodes.  At a later layer
    the extras of the last trap are in the base, and extras that reach no
    joined node through such pairs would have been extras of that trap
    too.  So the candidates are the !p nodes outside the base from which
    such pairs lead to a joined node: a backward search from the joined
    nodes over ``fan_in`` and the predecessor rows.
    """
    if joined is None:
        return [v for v in range(graph.n_nodes) if not (p[v] or base[v])]
    nbv, pred = graph.n_bitvals, graph.pred_idx
    pairs, cands, stack = set(), {}, list(joined)   # cands: ordered set
    while stack:
        for q in graph.fan_in[stack.pop()]:
            if q in pairs:
                continue
            pairs.add(q)
            if all(base[u] or not p[u] for u in graph.fan_out[q]):
                s, b = divmod(q, nbv)
                for r in pred[s]:
                    for u in graph.pair_nodes(r * nbv + b):
                        if not (p[u] or base[u] or u in cands):
                            cands[u] = None
                            stack.append(u)
    return list(cands)


def _mu_y(graph: GameGraph, start: list[bool], p_preds: list,
          record) -> list[bool]:
    """muY. OR_i nuX. start | cpre(Y) | (!p_i & cpre(X)), where start is
    goal & cpre(Z), the only part of Z a run reads.

    Layer k is Y_k = OR_i X_i^k over the base start | cpre(Y_{k-1}), which
    holds Y_{k-1}: so it adds the base's new nodes and each trap's extras,
    the !p_i nodes outside the base that ``_trap`` keeps.
    ``missing[s * n_bitvals + b]`` counts the env fan-out nodes of pair
    (s, b) not yet in Y; when it reaches 0, every predecessor r of s gets
    (r, b) into cpre(Y), and its nodes outside Y are new base nodes of
    the next layer.  A layer costs work proportional to the nodes it adds,
    plus per assumption its ``_trap_candidates`` and their edges: every
    !p_i node outside the base at the first layer, then those that lead
    to the nodes that joined Y since the layer before.
    ``record`` = (rank, case, trap_layer) is filled in place: at layer k,
    X_i gains the base's new nodes, its own extras and the other traps'
    extras of layer k - 1, the only nodes of Y not yet in X_i.
    """
    graph.mu_y_runs += 1
    rank, case, trap_layer = record
    nbv = graph.n_bitvals
    fan_in, pred = graph.fan_in, graph.pred_idx
    stride = graph.n_env * nbv
    in_y = [False] * graph.n_nodes
    missing = [graph.n_env] * (graph.n_regions * nbv)
    in_pre = [False] * len(missing)   # pair (r, b) is in cpre(Y)
    # the base's new nodes: the start, since cpre of the empty set is empty
    layer = [v for v in range(graph.n_nodes) if start[v]]
    kind = (_GOAL, -1)
    extras, new = [], []
    k = 0
    while True:
        k += 1
        for v in layer:
            in_y[v] = True
            rank[v] = k
            case[v] = kind
        # a fork of its own without assumptions: folding it into the trap
        # path made the arena solve slower in 3 of 4 alternating runs
        if p_preds:
            prev, joined = extras, layer + new if k > 1 else None
            extras = [_trap(graph, _trap_candidates(graph, p, in_y, joined),
                            in_y) for p in p_preds]
            new = []
            for i, x in enumerate(extras):
                for v in x:
                    if not in_y[v]:
                        in_y[v] = True
                        rank[v] = k
                        case[v] = (_TRAP, i)
                        new.append(v)
            if not (layer or new):
                return in_y
            for entered, x in zip(trap_layer, extras):
                for v in chain(layer, x, *prev):
                    if entered[v] is None:
                        entered[v] = k
            layer = layer + new
        elif not layer:
            return in_y
        fresh = []
        for v in layer:
            for q in fan_in[v]:
                missing[q] -= 1
                if missing[q]:
                    continue
                s, b = divmod(q, nbv)
                for r in pred[s]:
                    t = r * nbv + b
                    if not in_pre[t]:
                        in_pre[t] = True
                        lo = r * stride + b   # the nodes of pair t
                        for u in range(lo, lo + stride, nbv):
                            if not in_y[u]:
                                fresh.append(u)
        layer, kind = fresh, (_DESCEND, -1)


def solve_game(graph: GameGraph, extract_strategy=True):
    """Largest winning set of the game plus a finite-memory strategy.

    Z and the rank tables come from ``graph``'s fixpoint, so only the
    first solve of a graph runs muY; a later one with ``extract_strategy``
    runs only the extraction.
    """
    Z, fan_out, nbv = graph.fixpoint[0], graph.fan_out, graph.n_bitvals
    winning, region_winning = set(), set()
    # (r, e) wins when its entry node, with cleared bits, lies in Z: the
    # node of env e in the fan-out of pair (r, 0)
    for ri, r in enumerate(graph.regions):
        wins = [ei for ei, v in enumerate(fan_out[ri * nbv]) if Z[v]]
        winning.update((r, ei) for ei in wins)
        if len(wins) == graph.n_env:
            region_winning.add(r)
    sol = GameSolution(graph=graph, z_nodes=Z, winning=winning,
                       region_winning=region_winning)
    if extract_strategy:
        sol.strategy = _extract_strategy(sol)
    return sol


def _extract_strategy(sol: GameSolution):
    """Deterministic finite-memory strategy over (region, bits, goal).

    The rank, case and trap tables are the graph's ``fixpoint``.  Each
    pair (s, b) a move may enter is tabulated once, on first use: each
    goal's worst rank over its ``fan_out`` when that lies inside Z, or
    None when it leaves Z.  Every node of Z has a rank in every goal's
    tables, since each goal's last run left Z unchanged.  A move depends
    on its node and goal alone, so it is chosen once per (node, goal), in
    one pass over the node's successor row, however many memory states
    enter that node with that goal.  Ties go to the first successor in
    the row.
    """
    graph = sol.graph
    nbv, n_env = graph.n_bitvals, graph.n_env
    stride = n_env * nbv
    n_goals = len(graph.guarantee_preds)
    Z, ranks, cases, trap_layers = graph.fixpoint
    fan_out, succ = graph.fan_out, graph.succ_idx
    pairs = [None] * len(fan_out)
    moves: dict = {}

    def tabulate(q):
        """(fan-out of pair q, each goal's worst rank over it or None)"""
        fan = fan_out[q]
        pairs[q] = entry = (fan, [max([rank[v] for v in fan])
                                  for rank in ranks]
                            if all([Z[v] for v in fan]) else None)
        return entry

    def next_move(node, j):
        """(successor region index, next goal) of ``node`` under goal j:
        on to the next goal from the lowest rank of that goal, otherwise
        to the lowest rank of goal j below the node's own, otherwise to
        the first successor whose fan-out the node's trap holds."""
        b = node % nbv
        kind, trap_i = cases[j][node]
        k = ranks[j][node]
        j2 = (j + 1) % n_goals if kind == _GOAL else j
        entered = trap_layers[j][trap_i] if kind == _TRAP else None
        best = best_rank = None
        for s in succ[node // stride]:
            q = s * nbv + b
            fan, worst = pairs[q] or tabulate(q)
            if worst is None:
                continue
            if entered is not None:
                if all(entered[v] is not None and entered[v] <= k
                       for v in fan):
                    return s, j
            elif (kind == _GOAL or worst[j] < k) and (
                    best is None or worst[j2] < best_rank):
                best, best_rank = s, worst[j2]
        if best is None:
            what = ("goal", "descending", "trap-keeping")[kind]
            raise AssertionError(f"winning node without a {what} successor")
        return best, j2

    # memory states are (region index, bits, goal) until they are returned;
    # a state is explored once, when it is first numbered
    memory_states: list[tuple] = []
    memory_index: dict[tuple, int] = {}
    initial: dict = {}
    transitions: dict = {}
    regions = graph.regions
    for ri, r in enumerate(regions):
        if r in sol.region_winning:
            initial[r] = memory_index[(ri, 0, 0)] = len(memory_states)
            memory_states.append((ri, 0, 0))
    frontier = list(range(len(memory_states)))
    while frontier:
        mid = frontier.pop()
        ri, b_prev, j = memory_states[mid]
        for ei, node in enumerate(fan_out[ri * nbv + b_prev]):
            b = node % nbv
            assert Z[node], "strategy reached a non-winning node"
            key = node * n_goals + j
            move = moves.get(key)
            if move is None:
                move = moves[key] = next_move(node, j)
            s_idx, j2 = move
            state = (s_idx, b, j2)
            mid2 = memory_index.get(state)
            if mid2 is None:
                mid2 = memory_index[state] = len(memory_states)
                memory_states.append(state)
                frontier.append(mid2)
            transitions[(mid, ei)] = (mid2, regions[s_idx])
    return StrategyAutomaton(bit_names=graph.spec.bit_names,
                             memory_states=tuple((regions[ri], b, j) for
                                                 ri, b, j in memory_states),
                             initial=initial, transitions=transitions,
                             n_env=n_env)


# ---------------------------------------------------------------------------
# Strategy automaton
# ---------------------------------------------------------------------------

@dataclass
class StrategyAutomaton:
    """Finite-memory winning controller.

    Memory is (current region, previous bit values, goal pointer).  Feeding
    the current environment valuation index yields the successor region
    and the next memory state; every emitted move follows a pessimistic
    edge of the FTS the game was solved on.
    """
    bit_names: tuple[str, ...]
    memory_states: tuple
    initial: dict
    transitions: dict
    n_env: int

    def step(self, memory_id: int, env_index: int):
        try:
            return self.transitions[memory_id, env_index]
        except KeyError:
            raise SpecError(f"strategy has no move for memory={memory_id}, "
                            f"env={env_index}") from None

    def start(self, region):
        if region not in self.initial:
            raise SpecError(f"strategy cannot start in region {region!r}")
        return self.initial[region]

    def to_json(self) -> dict:
        from dualsynth.partition import format_region_id
        def _rid(r):
            return format_region_id(r) if isinstance(r, tuple) else str(r)
        return {
            "bit_names": list(self.bit_names),
            "memory_states": [
                {"region": _rid(r), "bits": b, "goal": j}
                for (r, b, j) in self.memory_states],
            "initial": {_rid(r): mid for r, mid in self.initial.items()},
            "transitions": [
                {"memory": mid, "env": ei, "next_memory": mid2,
                 "next_state": _rid(target)}
                for (mid, ei), (mid2, target) in sorted(self.transitions.items())],
            "n_env": self.n_env,
        }

    @staticmethod
    def from_json(data: dict) -> "StrategyAutomaton":
        from dualsynth.partition import parse_region_id
        states = tuple((parse_region_id(s["region"]), s["bits"], s["goal"])
                       for s in data["memory_states"])
        initial = {parse_region_id(r): mid for r, mid in data["initial"].items()}
        transitions = {
            (t["memory"], t["env"]): (t["next_memory"],
                                      parse_region_id(t["next_state"]))
            for t in data["transitions"]}
        return StrategyAutomaton(bit_names=tuple(data["bit_names"]),
                                 memory_states=states, initial=initial,
                                 transitions=transitions, n_env=data["n_env"])


# ---------------------------------------------------------------------------
# Lasso acceptance and strategy invariance
# ---------------------------------------------------------------------------

def check_lasso(prefix, cycle, spec: Gr1Spec) -> bool:
    """Acceptance of an ultimately periodic run under the GR(1) condition.

    States are (labels, env valuation, bits) triples.  The run satisfies
    the condition iff some assumption never occurs in the cycle or every
    guarantee occurs in the cycle; the prefix cannot affect a pure
    recurrence condition.
    """
    if not cycle:
        raise SpecError("lasso cycle must be nonempty")

    def holds_somewhere(holds):
        return any(holds(labels, env, bits) for labels, env, bits in cycle)

    if not all(map(holds_somewhere, spec.assumption_fns)):
        return True
    return all(map(holds_somewhere, spec.guarantee_fns))


def strategy_invariance_check(strategy: StrategyAutomaton, graph: GameGraph,
                              solution: GameSolution) -> bool:
    """Every strategy-controlled play stays inside the winning set.

    Explores the full (memory, env) product; a visited (region, env)
    pair outside the solver's winning set means the strategy (or the
    solver) is broken.
    """
    winning = solution.winning
    ids = graph.regions
    succ = {r: {ids[i] for i in row} for r, row in zip(ids, graph.succ_idx)}
    pending = list(strategy.initial.values())
    seen_mem = set(pending)
    while pending:
        mid = pending.pop()
        region = strategy.memory_states[mid][0]
        for ei in range(graph.n_env):
            if (region, ei) not in winning:
                return False
            key = (mid, ei)
            if key not in strategy.transitions:
                return False
            mid2, target = strategy.transitions[key]
            if strategy.memory_states[mid2][0] != target:
                return False
            if target not in succ[region]:
                return False  # move does not follow any edge of the FTS
            if any((target, e2) not in winning for e2 in range(graph.n_env)):
                return False
            if mid2 not in seen_mem:
                seen_mem.add(mid2)
                pending.append(mid2)
    return True
