import hashlib
import json
import pickle
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from dualsynth import gr1
from dualsynth.gr1 import (
    MAX_FORMULA_DEPTH,
    GameGraph,
    Gr1Spec,
    RawSpec,
    SpecError,
    check_lasso,
    compile_formula,
    convert_to_gr1,
    format_formula,
    parse_formula,
    solve_game,
    strategy_invariance_check,
)

from oracles import (
    brute_force_winning,
    interpret_formula,
    strategy_wins,
    sweep_gr1_winning,
)


class TestFormulas:
    def test_parse_eval_basics(self):
        e = parse_formula("!a & (b | c) -> d")
        assert compile_formula(e)(frozenset("d"), {}, {})
        assert compile_formula(e)(frozenset("a"), {}, {})  # antecedent false
        assert not compile_formula(e)(frozenset("b"), {}, {})

    def test_env_equality_and_truthiness(self):
        e = parse_formula("mode=3 & park")
        holds = compile_formula(e)
        assert holds(frozenset(), {"mode": 3, "park": True}, {})
        assert not holds(frozenset(), {"mode": 2, "park": True}, {})

    def test_bits_shadow_labels(self):
        e = parse_formula("pending_park")
        assert compile_formula(e)(frozenset(), {}, {"pending_park": True})
        assert not compile_formula(e)(frozenset(["pending_park"]), {},
                                      {"pending_park": False})

    def test_temporal_operators_rejected_by_name(self):
        with pytest.raises(SpecError, match="temporal operator"):
            parse_formula("[]<>home")
        with pytest.raises(SpecError, match="◇"):
            parse_formula("□◇home" .replace("□", "◇"))

    def test_trailing_garbage_named(self):
        with pytest.raises(SpecError, match="trailing token"):
            parse_formula("a b")

    def test_format_roundtrip(self):
        for text in ("!a & b | c -> d", "x=3 | y=false", "true & !false"):
            e = parse_formula(text)
            assert parse_formula(format_formula(e)) == e

    @pytest.mark.parametrize("nest", [
        lambda f, k: "!" * k + f,
        lambda f, k: "(" * k + f + ")" * k,
        lambda f, k: " & ".join([f] * (k + 1)),
        lambda f, k: " | ".join([f] * (k + 1)),
        lambda f, k: " -> ".join([f] * (k + 1)),
    ], ids=["not", "parens", "and", "or", "imp"])
    def test_nesting_is_bounded(self, nest):
        # at the bound the formula parses and evaluates; one level more,
        # or thousands, is a SpecError and never a RecursionError
        e = parse_formula(nest("a", MAX_FORMULA_DEPTH - 1))
        compile_formula(e)(frozenset("a"), {}, {})
        assert parse_formula(format_formula(e)) == e
        for k in (MAX_FORMULA_DEPTH + 1, 20 * MAX_FORMULA_DEPTH):
            with pytest.raises(SpecError, match="nests deeper than"):
                parse_formula(nest("a", k))


def outcome(holds, *state):
    """A formula's value with its type, or the message of the error it
    raised: the compiled form raises SpecError, the oracle ValueError."""
    try:
        value = holds(*state)
    except ValueError as exc:
        assert holds is interpret_formula or type(exc) is SpecError
        return "error", str(exc)
    return type(value), value


class TestCompileFormula:
    """``compile_formula`` and the compiled forms of ``Gr1Spec`` against
    the oracle interpreter: the same value, of the same type, and the same
    error in every state."""

    NAMES = ("a", "b", "m", "x")    # each may be a bit, an env var, a label
    ENV_VALUES = (True, False, 0, 1, 2, -1, "s", "", None)
    BIT_VALUES = (True, False, 0, 2, "t", "")
    EQ_VALUES = (0, 1, 2, -1, True, False, "s", "", "t")

    def random_formula(self, rng, depth):
        ops = ["atom", "eq", "true", "false"]
        if depth > 0:
            ops += ["not", "and", "or", "imp"] * 2
        op = ops[int(rng.integers(len(ops)))]
        if op in ("true", "false"):
            return (op,)
        name = self.NAMES[int(rng.integers(len(self.NAMES)))]
        if op == "atom":
            return ("atom", name)
        if op == "eq":
            return ("eq", name,
                    self.EQ_VALUES[int(rng.integers(len(self.EQ_VALUES)))])
        subs = [self.random_formula(rng, depth - 1)
                for _ in range(1 if op == "not" else 2)]
        return (op, *subs)

    def random_state(self, rng):
        def pick(values):
            return {n: values[int(rng.integers(len(values)))]
                    for n in self.NAMES if rng.random() < 0.5}
        labels = frozenset(n for n in self.NAMES if rng.random() < 0.5)
        return labels, pick(self.ENV_VALUES), pick(self.BIT_VALUES)

    def test_random_formulas_match_the_oracle(self):
        rng = np.random.default_rng(2024)
        ops, kinds = Counter(), Counter()
        for _ in range(400):
            expr = self.random_formula(rng, int(rng.integers(0, 5)))
            ops.update(sub[0] for sub in _subformulas(expr))
            holds = gr1.compile_formula(expr)
            for _ in range(20):
                state = self.random_state(rng)
                got = outcome(holds, *state)
                assert got == outcome(interpret_formula, expr, *state), \
                    (format_formula(expr), state)
                kinds[got[0]] += 1
        assert set(ops) == {"true", "false", "atom", "eq", "not", "and",
                            "or", "imp"}
        # errors, and values that are not bools, reach both sides
        assert {"error", bool, int, str} <= set(kinds)

    def test_eq_on_int_bool_and_str_values(self):
        for text, env, want in (("v=3", {"v": 3}, True),
                                ("v=3", {"v": 4}, False),
                                ("v=true", {"v": True}, True),
                                ("v=false", {"v": True}, False),
                                ("v=slow", {"v": "slow"}, True),
                                ("v=slow", {"v": "fast"}, False)):
            expr = parse_formula(text)
            assert gr1.compile_formula(expr)(frozenset(), env, {}) is want
            assert interpret_formula(expr, frozenset(), env, {}) is want

    def test_bits_shadow_env_and_labels(self):
        holds = gr1.compile_formula(parse_formula("a"))
        assert holds(frozenset("a"), {"a": True}, {"a": 0}) == 0
        assert holds(frozenset("a"), {"a": 0}, {}) is False
        assert holds(frozenset("a"), {}, {}) is True

    def test_missing_env_variable_raises_at_evaluation(self):
        holds = gr1.compile_formula(parse_formula("a | mode=2"))
        assert holds(frozenset("a"), {}, {}) is True  # short-circuited
        with pytest.raises(SpecError, match="'mode' is not an environment"):
            holds(frozenset(), {}, {})

    @pytest.mark.parametrize("nest", [
        lambda f, k: "!" * k + f,
        lambda f, k: "(" * k + f + ")" * k,
        lambda f, k: " & ".join([f] * (k + 1)),
        lambda f, k: " | ".join([f] * (k + 1)),
        lambda f, k: " -> ".join([f] * (k + 1)),
    ], ids=["not", "parens", "and", "or", "imp"])
    def test_deepest_response_update(self, nest):
        # the trigger nests as deep as a parsed formula may, and its
        # bit's update (!resp & (bit | trig)) two levels deeper
        trigger = nest("a", MAX_FORMULA_DEPTH - 1)
        spec = convert_to_gr1(RawSpec(guarantees=("g",),
                                      responses=((trigger, "b"),)))
        (name, update), = spec.memory_bits
        assert gr1._depth(update) == gr1._depth(parse_formula(trigger)) + 2
        for labels in map(frozenset, ("", "a", "b", "ab")):
            for bit in (False, True):
                want = interpret_formula(update, labels, {}, {name: bit})
                assert spec.update_bits({name: bit}, labels, {}) == \
                    {name: want}

    NASTY = ("q'uote", 'd"quote', "new\nline", "__import__('os')", "'''",
             "back\\slash", "c0")

    def test_user_strings_never_enter_the_source(self):
        a, b, c, d, e, f, g = self.NASTY
        spec = Gr1Spec(
            assumptions=(("atom", d),),
            guarantees=(("eq", a, c), ("imp", ("atom", g), ("eq", f, d))),
            memory_bits=((b, ("or", ("atom", b), ("eq", e, d))),
                         (c, ("and", ("not", ("atom", a)), ("atom", c)))),
            init_assumption=("atom", e))
        fns = (spec.update_bits, *spec.assumption_fns, *spec.guarantee_fns,
               spec.init_fn)
        for fn in fns:
            code = fn.__code__
            assert not set(self.NASTY) & set(code.co_consts)
            assert {n for n in code.co_names
                    if not re.fullmatch(r"c[0-9]+", n)} <= \
                {"bool", "_no_env_var"}
        formulas = (*spec.assumptions, *spec.guarantees, spec.init_assumption)
        rng = np.random.default_rng(7)
        for _ in range(200):
            env = {n: self.NASTY[int(rng.integers(7))]
                   for n in self.NASTY if rng.random() < 0.7}
            bits = {n: bool(rng.random() < 0.5) for n in (b, c)}
            labels = frozenset(n for n in self.NASTY if rng.random() < 0.5)
            for expr, holds in zip(formulas, fns[1:]):
                assert outcome(holds, labels, env, bits) == \
                    outcome(interpret_formula, expr, labels, env, bits)
            news = [outcome(interpret_formula, upd, labels, env, bits)
                    for _name, upd in spec.memory_bits]
            errors = [new for new in news if new[0] == "error"]
            assert outcome(spec.update_bits, bits, labels, env) == (
                errors[0] if errors else
                (dict, dict(zip(spec.bit_names, (v for _t, v in news)))))

    def test_compiled_forms_are_no_fields(self):
        spec = convert_to_gr1(RawSpec(assumptions=("p",), guarantees=("g",),
                                      responses=(("a", "b"),), init="s"))
        fresh = replace(spec)
        spec.update_bits({"pending_a": False}, frozenset(), {})
        spec.init_fn(frozenset(), {}, {})
        assert spec == fresh and hash(spec) == hash(fresh)
        assert "update_bits" not in vars(replace(spec))
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec and "update_bits" not in vars(clone)
        assert clone.update_bits({"pending_a": True}, frozenset("b"), {}) \
            == {"pending_a": False}

    def test_formulas_compile_once_per_spec(self, monkeypatch):
        calls = []
        compile_ = gr1._compile
        monkeypatch.setattr(gr1, "_compile",
                            lambda *args: calls.append(1) or compile_(*args))
        spec = convert_to_gr1(RawSpec(assumptions=("p",), guarantees=("g",),
                                      responses=(("a", "b"),)))
        succ = {0: [1], 1: [0]}
        labels = {0: {"a", "p"}, 1: {"b", "g"}}
        for _ in range(3):
            graph = GameGraph([0, 1], succ, labels, [{}], spec)
            solve_game(graph)
        cycle = [(frozenset(labels[r]), {}, {"pending_a": False})
                 for r in (0, 1)]
        assert check_lasso([], cycle, spec)
        # one function for the bit update and one per formula, once
        assert len(calls) == 1 + len(spec.assumptions) + len(spec.guarantees)


def _subformulas(expr):
    yield expr
    for sub in expr[1:]:
        if isinstance(sub, tuple):
            yield from _subformulas(sub)


class TestConvertToGr1:
    def test_park_example_conversion(self):
        raw = RawSpec(guarantees=("home",),
                      responses=(("park", "lot"),))
        spec = convert_to_gr1(raw)
        assert len(spec.guarantees) == 2
        assert len(spec.memory_bits) == 1
        name, update = spec.memory_bits[0]
        assert name == "pending_park"
        # set on trigger, cleared on response
        assert spec.update_bits({name: False}, frozenset(), {"park": True})[name]
        assert not spec.update_bits({name: True}, frozenset(["lot"]),
                                    {"park": True})[name]
        assert spec.update_bits({name: True}, frozenset(), {"park": False})[name]
        assert format_formula(spec.guarantees[1]) == "(!pending_park | lot)"

    @pytest.mark.parametrize("raw", [
        RawSpec(guarantees=("home",), responses=(("park", "pending_park"),)),
        RawSpec(guarantees=("home",), responses=(("park", "lot"),),
                init="pending_park"),
        RawSpec(guarantees=("home",), responses=(("park", "lot"),
                                                 ("pending_park", "home"))),
    ], ids=["response", "init", "trigger"])
    def test_bit_names_avoid_every_literal(self, raw):
        # "pending_park" is taken by a response, init or trigger, so the
        # bit of "park" takes the next free name
        spec = convert_to_gr1(raw)
        assert spec.bit_names[0] == "pending_park_0"
        assert len(set(spec.bit_names)) == len(spec.bit_names)

    def test_bit_names_avoid_the_problems_names(self):
        # "pending_park" is a proposition no formula reads: the bit still
        # may not take its name
        raw = RawSpec(guarantees=("home",), responses=(("park", "lot"),))
        assert convert_to_gr1(raw).bit_names == ("pending_park",)
        spec = convert_to_gr1(RawSpec(
            guarantees=("home",), responses=(("park", "lot"),),
            names=("home", "lot", "pending_park", "park")))
        assert spec.bit_names == ("pending_park_0",)

    def test_identity_conversion_without_responses(self):
        spec = convert_to_gr1(RawSpec(guarantees=("goal",), init="start"))
        assert spec.memory_bits == ()
        assert len(spec.guarantees) == 1
        assert spec.init_assumption == ("atom", "start")

    def test_two_responses_two_bits(self):
        raw = RawSpec(guarantees=("g",),
                      responses=(("a", "b"), ("c", "d")))
        spec = convert_to_gr1(raw)
        assert len(spec.memory_bits) == 2
        assert len(spec.guarantees) == 3
        # product memory: four bit valuations
        names = spec.bit_names
        vals = {(x, y) for x in (False, True) for y in (False, True)}
        assert len({tuple(spec.update_bits(dict(zip(names, v)), frozenset(), {})
                          .values()) for v in vals} | vals) == 4

    def test_no_guarantees_is_error(self):
        with pytest.raises(SpecError):
            convert_to_gr1(RawSpec())

    def test_repeated_bit_name_is_error(self):
        # two updates of one bit would leave only the second in
        # update_bits' result
        a, b = ("atom", "a"), ("atom", "b")
        with pytest.raises(SpecError, match=r"^memory bit 'b' is named more "
                                            r"than once"):
            Gr1Spec(guarantees=(a,), memory_bits=(
                ("b", ("or", b, a)), ("c", a), ("b", gr1.FALSE)))


def make_graph(succ, labels, n_env=1, spec=None, env_vals=None):
    regions = sorted(succ)
    if env_vals is None:
        env_vals = [{"e": i} for i in range(n_env)] if n_env > 1 else [{}]
    if spec is None:
        spec = Gr1Spec(guarantees=(parse_formula("g"),))
    return GameGraph(regions, succ, labels, env_vals, spec)


class TestSolveGame:
    def test_single_state_self_loop_winning(self):
        g = make_graph({0: [0]}, {0: {"g"}})
        sol = solve_game(g)
        assert sol.winning == {(0, 0)}
        assert sol.region_winning == {0}
        mid = sol.strategy.start(0)
        assert sol.strategy.step(mid, 0) == (mid, 0)
        with pytest.raises(SpecError, match=r"^strategy has no move for "
                           rf"memory={mid}, env=1$"):
            sol.strategy.step(mid, 1)

    def test_no_successors_is_losing(self):
        g = make_graph({0: []}, {0: {"g"}})
        sol = solve_game(g)
        assert sol.winning == set()

    def test_goal_must_be_reachable_infinitely(self):
        # 0 -> 1 -> 1, goal only at 0: once at 1 you never see g again
        g = make_graph({0: [1], 1: [1]}, {0: {"g"}, 1: set()})
        sol = solve_game(g)
        assert sol.winning == set()
        # adding the back edge makes both states winning
        g2 = make_graph({0: [1], 1: [0, 1]}, {0: {"g"}, 1: set()})
        assert solve_game(g2).region_winning == {0, 1}

    def test_assumption_lets_system_win_in_trap(self):
        # q never holds at 1, but p never holds there either: dwelling in 1
        # falsifies the assumption, so 1 is winning
        spec = Gr1Spec(assumptions=(parse_formula("p"),),
                       guarantees=(parse_formula("q"),))
        g = make_graph({0: [0], 1: [1]}, {0: {"q", "p"}, 1: set()},
                       spec=spec)
        sol = solve_game(g)
        assert sol.region_winning == {0, 1}

    def test_env_choice_can_defeat(self):
        # with two env values, label predicate q = (e=0): the env can refuse
        # e=0 forever, so no state is winning without an assumption
        spec = Gr1Spec(guarantees=(parse_formula("e=0"),))
        g = make_graph({0: [0]}, {0: set()}, n_env=2, spec=spec)
        sol = solve_game(g)
        assert sol.winning == set()
        # assuming the env shows e=0 infinitely often flips it
        spec2 = Gr1Spec(assumptions=(parse_formula("e=0"),),
                        guarantees=(parse_formula("e=0"),))
        g2 = make_graph({0: [0]}, {0: set()}, n_env=2, spec=spec2)
        assert solve_game(g2).winning == {(0, 0), (0, 1)}

    def test_memory_bit_response_game(self):
        # two regions: idle (label home), service (label lot); env bit park
        raw = RawSpec(guarantees=("home",), responses=(("park", "lot"),))
        spec = convert_to_gr1(raw)
        succ = {0: [0, 1], 1: [0, 1]}
        labels = {0: {"home"}, 1: {"lot"}}
        env_vals = [{"park": False}, {"park": True}]
        g = GameGraph([0, 1], succ, labels, env_vals, spec)
        sol = solve_game(g)
        assert sol.region_winning == {0, 1}
        assert strategy_invariance_check(sol.strategy, g, sol)


def random_game(rng):
    n_env = int(rng.integers(1, 3))
    n_goals = int(rng.integers(1, 3))
    n_regions = int(rng.integers(2, 5)) if n_goals == 1 else 3
    if n_goals == 2 and n_env == 2:
        n_regions = 3
    n_assump = int(rng.integers(0, 2))
    label_pool = ["g", "h", "p"]
    labels = {r: {l for l in label_pool if rng.random() < 0.4}
              for r in range(n_regions)}
    while True:
        succ = {r: sorted(int(s) for s in
                          rng.choice(n_regions,
                                     size=int(rng.integers(0, min(4, n_regions + 1))),
                                     replace=False))
                for r in range(n_regions)}
        n_slots_choices = 1
        for r in range(n_regions):
            deg = max(1, len(succ[r]))
            n_slots_choices *= deg ** (n_env * n_goals)
        if 1 <= n_slots_choices <= 3000:
            break
    env_vals = [{"e": i} for i in range(n_env)]
    goal_atoms = ["g", "h"][:n_goals]
    guarantees = tuple(parse_formula(a) for a in goal_atoms)
    assumptions = ()
    if n_assump:
        assumptions = (parse_formula("p | e=1" if n_env > 1 else "p"),)
    spec = Gr1Spec(assumptions=assumptions, guarantees=guarantees)
    graph = GameGraph(list(range(n_regions)), succ, labels, env_vals, spec)
    return graph, succ, labels, env_vals, assumptions, guarantees


class TestSolverAgainstBruteForce:
    def test_random_games_match_enumeration(self):
        rng = np.random.default_rng(101)
        games = 0
        while games < 60:
            graph, succ, labels, env_vals, assumptions, guarantees = \
                random_game(rng)
            p_preds = [
                (lambda r, e, a=a: interpret_formula(
                    a, frozenset(labels[r]), env_vals[e], {}))
                for a in assumptions]
            q_preds = [
                (lambda r, e, q=q: interpret_formula(
                    q, frozenset(labels[r]), env_vals[e], {}))
                for q in guarantees]
            expected = brute_force_winning(
                list(range(graph.n_regions)), succ,
                list(range(graph.n_env)), p_preds, q_preds)
            sol = solve_game(graph)
            assert sol.winning == expected, \
                f"solver/brute-force mismatch on game {games}"
            assert strategy_invariance_check(sol.strategy, graph, sol)
            games += 1


# Atoms of the response games: formula text for the library, and the same
# predicate over (labels, env index) for the oracle.
_ATOMS = {
    "a": lambda L, e: "a" in L,
    "b": lambda L, e: "b" in L,
    "g": lambda L, e: "g" in L,
    "p": lambda L, e: "p" in L,
    "e=1": lambda L, e: e == 1,
    "p | e=1": lambda L, e: "p" in L or e == 1,
    "!b": lambda L, e: "b" not in L,
}


def random_response_game(rng):
    """Up to 12 regions, 1-2 env values, 1-2 response bits, 0-2
    assumptions; the oracle's bit update and goals are written out here
    rather than taken from ``convert_to_gr1``."""
    n_regions = int(rng.integers(2, 13))
    n_env = int(rng.integers(1, 3))
    labels = {r: {l for l in ("a", "b", "g", "p") if rng.random() < 0.35}
              for r in range(n_regions)}
    succ = {r: sorted(int(s) for s in rng.choice(
        n_regions, size=int(rng.integers(0, min(4, n_regions) + 1)),
        replace=False)) for r in range(n_regions)}
    triggers = ["a", "e=1"] if n_env > 1 else ["a", "!b"]
    responses = [(triggers[int(rng.integers(0, 2))],
                  ("b", "g")[int(rng.integers(0, 2))])
                 for _ in range(int(rng.integers(1, 3)))]
    goals = [("g", "a")[k] for k in range(int(rng.integers(0, 2)))]
    pool = ["p", "p | e=1"] if n_env > 1 else ["p", "!b"]
    assumptions = [pool[k] for k in range(int(rng.integers(0, 3)))]
    env_vals = [{"e": i} for i in range(n_env)]
    spec = convert_to_gr1(RawSpec(assumptions=tuple(assumptions),
                                  guarantees=tuple(goals),
                                  responses=tuple(responses)))
    graph = GameGraph(list(range(n_regions)), succ, labels, env_vals, spec)

    def holds(text, r, e):
        return _ATOMS[text](labels[r], e)

    def update(bits, r, e):
        # pending_k: set on trigger, cleared on response
        return tuple(not holds(resp, r, e) and (b or holds(trig, r, e))
                     for b, (trig, resp) in zip(bits, responses))

    q_preds = [lambda v, t=t: holds(t, v[0], v[1]) for t in goals]
    q_preds += [lambda v, k=k, t=resp: not v[2][k] or holds(t, v[0], v[1])
                for k, (_trig, resp) in enumerate(responses)]
    p_preds = [lambda v, t=t: holds(t, v[0], v[1]) for t in assumptions]
    expected = sweep_gr1_winning(list(range(n_regions)), succ,
                                 list(range(n_env)), len(responses), update,
                                 p_preds, q_preds)

    def wins(strategy):
        """Every play of the strategy meets the spec; bit k of a memory
        state's bit value is response k."""
        def state(m, e):
            r, b_prev, _goal = strategy.memory_states[m]
            bits = tuple(bool(b_prev >> k & 1) for k in range(len(responses)))
            return r, e, update(bits, r, e)
        return strategy_wins(strategy.initial.values(),
                             lambda m, e: strategy.step(m, e)[0],
                             range(n_env), state, p_preds, q_preds)
    return graph, expected, wins


PINNED_RESPONSE_GAMES = {
    "z_nodes":
        "05e58d5a297390958a32854a35a713c0b463be224664a6864c6b09a00fa3226d",
    "rank":
        "1080f394afff0265c688ba568c7824f6fa83101c033fce8e39cfb4e0ec5cab37",
    "case":
        "4a7f73588192806322f5ba932d25158b5a6dd21ce4ee0d8bb5855bb466170e93",
    "trap_layer":
        "0cdcb9b5ed517a4aebacf0ff0d2c3f8fa4f3cf3c44804785100e4d06a603193c",
    "strategy":
        "2d8e777f22ba6a1271034b2303cb2f90354bbd0fa3358e503fc476549db929ae",
}


class TestSolverAgainstSweepOracle:
    def test_response_bits_and_assumptions_match_sweep(self):
        # winning sets against the sweep; the extracted strategy both
        # stays in the winning set and wins every play
        rng = np.random.default_rng(404)
        kinds = set()
        for k in range(150):
            graph, expected, wins = random_response_game(rng)
            sol = solve_game(graph)
            assert sol.winning == expected, f"mismatch on game {k}"
            assert sol.region_winning == {
                r for r in graph.regions
                if all((r, e) in expected for e in range(graph.n_env))}
            assert strategy_invariance_check(sol.strategy, graph, sol)
            assert wins(sol.strategy), f"losing play on game {k}"
            kinds.add((graph.n_bits, bool(graph.spec.assumptions),
                       bool(expected)))
        # both bit counts, with and without assumptions, won and lost
        assert {(b, a) for b, a, _ in kinds} == {
            (b, a) for b in (1, 2) for a in (False, True)}
        assert {w for *_, w in kinds} == {False, True}

    def test_solutions_are_pinned(self):
        # SHA-256 digests, over the same 150 games, of every table the
        # strategy is read from and of the strategy itself; these games
        # have assumptions and two bits, so the trap case is pinned too
        rng = np.random.default_rng(404)
        solutions = [solve_game(random_response_game(rng)[0])
                     for _ in range(150)]
        tables = {name: [sol.graph.fixpoint[i] for sol in solutions]
                  for i, name in enumerate(("z_nodes", "rank", "case",
                                            "trap_layer"))}
        assert tables["z_nodes"] == [sol.z_nodes for sol in solutions]
        digests = {name: hashlib.sha256(json.dumps(table).encode()
                                        ).hexdigest()
                   for name, table in tables.items()}
        digests["strategy"] = hashlib.sha256(json.dumps(
            [sol.strategy.to_json() for sol in solutions],
            sort_keys=True).encode()).hexdigest()
        assert digests == PINNED_RESPONSE_GAMES


class TestLabelSetTables:
    def test_tables_match_per_node_evaluation(self):
        # the graph evaluates formulas once per label set; here every node
        # (r, e, b) evaluates them itself, regions absent from ``labels``
        # with no labels
        rng = np.random.default_rng(505)
        pool = ["a", "b", "p", "m=0", "m=1", "a | m=1", "!b & m=0", "p -> b"]

        def pick(k):
            return tuple(pool[int(i)] for i in rng.choice(len(pool), size=k))

        for _ in range(80):
            n_regions = int(rng.integers(1, 9))
            n_env = int(rng.integers(1, 4))
            env_vals = [{"m": i} for i in range(n_env)]
            labels = {r: {a for a in ("a", "b", "p") if rng.random() < 0.5}
                      for r in range(n_regions) if rng.random() < 0.7}
            succ = {r: sorted(int(s) for s in rng.choice(
                n_regions, size=int(rng.integers(0, n_regions + 1)),
                replace=False)) for r in range(n_regions)}
            spec = convert_to_gr1(RawSpec(
                assumptions=pick(int(rng.integers(0, 3))),
                guarantees=pick(int(rng.integers(0, 2))),
                responses=tuple(zip(pick(2), pick(2)))[
                    :int(rng.integers(1, 3))]))
            graph = GameGraph(list(range(n_regions)), succ, labels,
                              env_vals, spec)
            nbv = 1 << len(spec.memory_bits)
            assert graph.n_bitvals == nbv

            def node(r, e, b):
                return (r * n_env + e) * nbv + b

            def holds(expr, r, e, b):
                bits = {name: bool(b >> k & 1)
                        for k, name in enumerate(spec.bit_names)}
                return interpret_formula(
                    expr, frozenset(labels.get(r, ())), env_vals[e], bits)

            states = [(r, e, b) for r in range(n_regions)
                      for e in range(n_env) for b in range(nbv)]
            bit_next = {(r, e, b): sum(1 << k for k, (_name, upd) in
                                       enumerate(spec.memory_bits)
                                       if holds(upd, r, e, b))
                        for r, e, b in states}
            fan_out = [[node(s, e, bit_next[s, e, b]) for e in range(n_env)]
                       for s in range(n_regions) for b in range(nbv)]
            assert graph.fan_out == fan_out
            for preds, exprs in ((graph.assumption_preds, spec.assumptions),
                                 (graph.guarantee_preds, spec.guarantees)):
                assert preds == [[holds(x, *v) for v in states]
                                 for x in exprs]
            fan_in = [[] for _ in states]
            for s, e, b in states:
                fan_in[node(s, e, bit_next[s, e, b])].append(s * nbv + b)
            assert graph.fan_in == fan_in


class TestSharedTables:
    def test_shared_tables_equal_a_fresh_build(self):
        # a graph on other edges that shares a graph's edge-free tables
        # equals a fresh five-argument graph on those edges, in every
        # table and in its solution
        rng = np.random.default_rng(808)
        for k in range(40):
            graph, _expected, _wins = random_response_game(rng)
            n = graph.n_regions
            other = {r: [int(s) for s in rng.choice(
                n, size=int(rng.integers(0, n + 1)), replace=False)]
                for r in range(n)}
            args = (graph.regions, other,
                    dict(zip(graph.regions, graph.labels)),
                    graph.env_valuations, graph.spec)
            shared = GameGraph(*args, tables_from=graph)
            fresh = GameGraph(*args)
            for name in GameGraph._EDGE_FREE:
                assert getattr(shared, name) is getattr(graph, name)
            assert vars(shared).keys() == vars(fresh).keys()
            for name, table in vars(fresh).items():
                assert getattr(shared, name) == table, \
                    f"{name} differs on game {k}"
            assert shared.succ_idx == [sorted(other[r]) for r in range(n)]
            a, b = solve_game(shared), solve_game(fresh)
            for name in ("z_nodes", "winning"):
                assert getattr(a, name) == getattr(b, name)
            assert shared.fixpoint == fresh.fixpoint
            assert a.strategy.to_json() == b.strategy.to_json()

    @pytest.mark.parametrize("succ, edge", [
        ({0: [2], 1: []}, r"edge 0 -> 2: 2 is not a region index in 0\.\.1"),
        ([[1], [0, -1]], r"edge 1 -> -1: -1 is not a region index"),
        ([[1], [0, (1,)]], r"edge 1 -> \(1,\): \(1,\) is not a region index"),
        ([[(0,)], [(1,)]], r"edge 0 -> \(0,\): \(0,\) is not a region index"),
        ([[1], [0], [0]], r"3 successor rows for 2 regions"),
        ({0: [1]}, r"1 successor rows for 2 regions"),
        ({0: [1], 7: [0]}, r"no successor row for region index 1"),
        ([[1.0], [0]], r"edge 0 -> 1\.0: 1\.0 is not a region index"),
        ([[1], [0, True]], r"edge 1 -> True: True is not a region index"),
        ([5, [0]], r"successor row 0: 5 is not a list of region indices"),
        ([None, [0]], r"successor row 0: None is not a list of region "
                      r"indices"),
    ], ids=["target", "negative", "tuple-target", "tuple-row",
            "long-succ", "short-succ", "source", "float-target",
            "bool-target", "int-row", "none-row"])
    def test_unknown_region_in_an_edge_is_named(self, succ, edge):
        # succ holds rows of indices into the regions, here (0,) and (1,)
        spec = Gr1Spec(guarantees=(parse_formula("g"),))
        with pytest.raises(SpecError, match=rf"^{edge}"):
            GameGraph([(0,), (1,)], succ, {}, [{}], spec)

    @pytest.mark.parametrize("extract", [False, True])
    def test_repeated_region_id_is_named(self, extract):
        # index 1 is a dead end that shares its id with a winning region;
        # no verdict may come back, whether a strategy is extracted or not
        spec = Gr1Spec(guarantees=(parse_formula("a"),))
        with pytest.raises(SpecError, match=r"^region id 'x' repeats, at "
                                            r"indices 0 and 1$"):
            solve_game(GameGraph(["x", "x"], [[0], []], {"x": {"a"}}, [{}],
                                 spec), extract_strategy=extract)
        with pytest.raises(SpecError, match=r"^region id \(1,\) repeats, "
                                            r"at indices 1 and 3$"):
            GameGraph([(0,), (1,), (2,), (1,), (0,)], [[]] * 5, {}, [{}],
                      spec)

    def test_mapping_rows_equal_list_rows(self):
        # succ keyed 0..n-1, the bench arena's shape, and the equal list
        # of rows give the same graph and the same solution; region ids
        # other than the indices come back in the results
        rng = np.random.default_rng(1102)
        for k in range(30):
            graph, _expected, _wins = random_response_game(rng)
            n = graph.n_regions
            rows = [list(row) for row in graph.succ_idx]
            regions = [(7, r) for r in range(n)]
            labels = dict(zip(regions, graph.labels))
            args = (labels, graph.env_valuations, graph.spec)
            by_key = GameGraph(regions, dict(enumerate(rows)), *args)
            by_list = GameGraph(regions, rows, *args)
            assert vars(by_key).keys() == vars(by_list).keys()
            for name, table in vars(by_list).items():
                assert getattr(by_key, name) == table, \
                    f"{name} differs on game {k}"
            a, b = solve_game(by_key), solve_game(by_list)
            for name in ("z_nodes", "winning", "region_winning"):
                assert getattr(a, name) == getattr(b, name)
            assert by_key.fixpoint == by_list.fixpoint
            assert a.strategy.to_json() == b.strategy.to_json()
            ids = solve_game(graph).region_winning
            assert a.region_winning == {regions[r] for r in ids}


class TestOneFinalSolve:
    def test_second_solve_of_a_graph_is_identical(self):
        # a second solve reuses the graph's winning nodes; everything it
        # returns equals the first solve's and a fresh graph's
        rng = np.random.default_rng(606)
        for k in range(60):
            graph, _expected, _wins = random_response_game(rng)
            fresh = GameGraph(graph.regions, graph.succ_idx,
                              dict(zip(graph.regions, graph.labels)),
                              graph.env_valuations, graph.spec)
            solutions = [solve_game(fresh), solve_game(graph),
                         solve_game(graph)]
            assert solutions[1].z_nodes is solutions[2].z_nodes
            for sol in solutions[1:]:
                for name in ("z_nodes", "winning", "region_winning"):
                    assert getattr(sol, name) == getattr(solutions[0], name), \
                        f"{name} differs on game {k}"
                assert sol.graph.fixpoint == fresh.fixpoint, \
                    f"rank tables differ on game {k}"
                assert sol.strategy.to_json() == \
                    solutions[0].strategy.to_json()

    def test_second_solve_makes_no_cpre_call(self, monkeypatch):
        # each goal visit of the fixpoint makes one cpre call, for
        # goal & cpre(Z), and runs muY only when that start changed; the
        # strategy solve reads the kept tables and makes no call
        calls = []
        original = GameGraph.cpre

        def counted(self, S, among):
            calls.append(among)
            return original(self, S, among)

        monkeypatch.setattr(GameGraph, "cpre", counted)
        rng = np.random.default_rng(707)
        for _ in range(30):
            graph, _expected, _wins = random_response_game(rng)
            solve_game(graph, extract_strategy=False)
            goals = graph.guarantee_preds
            runs = graph.mu_y_runs
            assert [id(a) for a in calls] == \
                [id(goals[i % len(goals)]) for i in range(len(calls))]
            assert len(calls) >= runs >= len(goals)
            calls.clear()
            solve_game(graph, extract_strategy=True)
            assert len(calls) == 0 and graph.mu_y_runs == runs

    def test_fixpoint_stops_once_every_goal_left_z_unchanged(self,
                                                             monkeypatch):
        # the goals run in a cycle, and the fixpoint stops after the first
        # visit that completes len(goals) unchanged visits in a row,
        # wherever in the cycle that falls.  Each visit passes the Z it
        # found to its one cpre call
        seen = []
        original = GameGraph.cpre

        def observed(self, S, among):
            seen.append(S)
            return original(self, S, among)

        monkeypatch.setattr(GameGraph, "cpre", observed)
        rng = np.random.default_rng(909)
        stops = set()
        for k in range(60):
            graph, _expected, _wins = random_response_game(rng)
            seen.clear()
            solve_game(graph)
            g = len(graph.spec.guarantees)
            zs = seen + [graph.fixpoint[0]]
            unchanged = [a == b for a, b in zip(zs, zs[1:])]
            assert len(unchanged) >= graph.mu_y_runs
            assert all(unchanged[-g:]), \
                f"game {k} stopped before Z was stable"
            assert not any(all(unchanged[i:i + g])
                           for i in range(len(unchanged) - g)), \
                f"game {k} ran past a stable window"
            stops.add(len(unchanged) % g)
        # some games stop inside a round, not at its end
        assert len(stops) > 1

    def test_goal_tables_equal_a_run_against_final_z(self):
        # each goal's tables come from a run whose start equals
        # goal & cpre(final Z): a fresh muY from that start gives the same
        # Y and tables, for 1, 2 and 3 goals, with and without assumptions
        rng = np.random.default_rng(1001)
        todo = {(g, a): 10 for g in (1, 2, 3) for a in (False, True)}
        while any(todo.values()):
            graph, _expected, _wins = random_response_game(rng)
            n, p_preds = graph.n_nodes, graph.assumption_preds
            kind = (len(graph.guarantee_preds), bool(p_preds))
            if not todo[kind]:
                continue
            todo[kind] -= 1
            Z, ranks, cases, trap_layers = graph.fixpoint
            for j, goal in enumerate(graph.guarantee_preds):
                fresh = ([None] * n, [None] * n, [[None] * n for _ in p_preds])
                start = graph.cpre(Z, goal)
                assert gr1._mu_y(graph, start, p_preds, fresh) == Z
                assert fresh == (ranks[j], cases[j], trap_layers[j]), \
                    f"goal {j} of a {kind} game differs"


def line_arena(n, ends, response):
    """Regions 0..n-1 on a line with edges to both neighbours, goal ``a`` at
    0 and ``b`` at n-1, and dead end n+k hanging off region ends[k].

    Dead ends have no pessimistic successors; every odd-numbered one may
    step back to the line optimistically.  So the pessimistic winning set
    is the line and the optimistic losing set the even-numbered dead ends.
    Returns (regions, pess, opt, labels, env, spec, line, losing).
    """
    pess = {i: [j for j in (i - 1, i + 1) if 0 <= j < n] for i in range(n)}
    opt = {i: list(v) for i, v in pess.items()}
    for k, at in enumerate(ends):
        pess[at].append(n + k)
        opt[at].append(n + k)
        pess[n + k] = []
        opt[n + k] = [at] if k % 2 else []
    if response:
        env = [{"req": False}, {"req": True}]
        raw = RawSpec(guarantees=("a",), responses=(("req", "b"),))
    else:
        env = [{}]
        raw = RawSpec(guarantees=("a", "b"))
    losing = {n + k for k in range(0, len(ends), 2)}
    return (list(range(n + len(ends))), pess, opt, {0: {"a"}, n - 1: {"b"}},
            env, convert_to_gr1(raw), set(range(n)), losing)


def solve_arena(n, ends, response):
    """The engine's three solves: both classification games, then the
    strategy game."""
    regions, pess, opt, labels, env, spec, line, losing = \
        line_arena(n, ends, response)
    sol_p = solve_game(GameGraph(regions, pess, labels, env, spec),
                       extract_strategy=False)
    sol_o = solve_game(GameGraph(regions, opt, labels, env, spec),
                       extract_strategy=False)
    graph = GameGraph(regions, pess, labels, env, spec)
    return sol_p, sol_o, graph, solve_game(graph), line, losing


class TestLineArenas:
    @pytest.mark.parametrize("response", [False, True])
    def test_dead_ends_give_the_sets_known_by_construction(self, response):
        ends = [3, 40, 41, 118, 199, 247]
        sol_p, sol_o, graph, sol, line, losing = solve_arena(
            250, ends, response)
        n_env = graph.n_env
        assert sol_p.region_winning == line
        assert {r for r in graph.regions
                if all((r, e) not in sol_o.winning
                       for e in range(n_env))} == losing
        assert sol.region_winning == line
        assert strategy_invariance_check(sol.strategy, graph, sol)
        assert sol_p.strategy is None

    @pytest.mark.parametrize("response", [False, True])
    def test_cpre_sweeps_do_not_grow_with_the_arena(self, response,
                                                    monkeypatch):
        # one cpre call per goal visit and three visits per graph: goal a
        # removes the dead ends, then b and a leave Z unchanged.  The
        # second visit to a finds the start of its first run, so it runs
        # no muY: two runs per graph.  A solver that calls cpre per layer
        # makes the count grow with the arena
        calls = []
        original = GameGraph.cpre

        def counted(self, *args):
            calls.append(self.n_regions)
            return original(self, *args)

        monkeypatch.setattr(GameGraph, "cpre", counted)
        for n in (50, 400):
            calls.clear()
            sol_p, sol_o, graph, sol, line, _losing = solve_arena(
                n, [7, 20, 33], response)
            assert sol.region_winning == line
            assert [g.mu_y_runs for g in (sol_p.graph, sol_o.graph, graph)] \
                == [2, 2, 2]
            assert len(calls) == 9

    @pytest.mark.parametrize("response", [False, True])
    def test_a_visit_with_an_unchanged_start_reuses_its_run(self, response,
                                                            monkeypatch):
        # events in order: each visit's cpre call and the muY run that
        # follows it, if any.  A visit with no run of its own reuses the
        # last run of its goal, which must have started where it starts
        events = []
        cpre, mu_y = GameGraph.cpre, gr1._mu_y

        def visit(self, S, among):
            start = cpre(self, S, among)
            j = next(j for j, goal in enumerate(self.guarantee_preds)
                     if goal is among)
            events.append(("visit", (id(self), j), start))
            return start

        def ran(graph, start, *args):
            assert events[-1][0] == "visit" and events[-1][2] is start
            events.append(("run", None, start))
            return mu_y(graph, start, *args)

        monkeypatch.setattr(GameGraph, "cpre", visit)
        monkeypatch.setattr(gr1, "_mu_y", ran)
        *_, sol, line, _losing = solve_arena(50, [7, 20, 33], response)
        assert sol.region_winning == line
        last_run: dict = {}
        reused = 0
        for i, (what, goal, start) in enumerate(events):
            if what != "visit":
                continue
            if i + 1 < len(events) and events[i + 1][0] == "run":
                last_run[goal] = start
            else:
                assert last_run[goal] == start
                reused += 1
        assert reused == 3      # one per graph

    @pytest.mark.parametrize("response, regions_sha, strategy_sha", [
        (False,
         "1aac576c334004f3a7c88e25d5ef9ff8efeea6ea5f1e9978daeaad2b3321b781",
         "b900ca4a0ca9190d82108e68f6031d986d1a9332d34b23340a98113838569318"),
        (True,
         "1aac576c334004f3a7c88e25d5ef9ff8efeea6ea5f1e9978daeaad2b3321b781",
         "35761b01ce4807e45783a66c639de1604a98c33fbe4f58a60bcbcd4d06bb563b"),
    ])
    def test_strategy_is_pinned(self, response, regions_sha, strategy_sha):
        # SHA-256 digests of region_winning (sorted) and strategy.to_json()
        *_, sol, line, _losing = solve_arena(80, [5, 17, 18, 40, 61, 77],
                                             response)
        assert sol.region_winning == line
        digests = [hashlib.sha256(json.dumps(value, sort_keys=True).encode()
                                  ).hexdigest()
                   for value in (sorted(sol.region_winning),
                                 sol.strategy.to_json())]
        assert digests == [regions_sha, strategy_sha]


def assumption_arena(n, response, where):
    """``line_arena`` with dead ends at 7, 20, n/2 and n-9 and the
    assumption always-eventually p, where p labels every region, dead ends
    included ("every"), or the line's lower half ("lower"), or p is an env
    variable ``go`` in {false, true} ("go", the shape of ``ferry.json``).
    Returns the strategy game's graph and the line."""
    regions, pess, _opt, labels, env, spec, line, _losing = \
        line_arena(n, [7, 20, n // 2, n - 9], response)
    if where == "go":
        env = [dict(e, go=go) for e in env for go in (False, True)]
        p = "go"
    else:
        on = range(n + 4) if where == "every" else range(n // 2)
        labels = {r: labels.get(r, set()) | ({"p"} if r in on else set())
                  for r in regions}
        p = "p"
    spec = Gr1Spec(assumptions=(parse_formula(p),),
                   guarantees=spec.guarantees, memory_bits=spec.memory_bits)
    return GameGraph(regions, pess, labels, env, spec), line


ASSUMPTION_ARENAS = [(n, response, where) for n in (100, 400)
                     for response in (False, True)
                     for where in ("every", "lower", "go")]


ASSUMPTION_ARENAS_SHA = \
    "995fdf83c210699828d382e7e4e658bd8478eb1eb2eb91108c5c5fb6af7f5dca"


class TestAssumptionArenas:
    def test_solutions_are_pinned(self):
        # one SHA-256 digest over every arena's winning nodes, rank, case
        # and trap tables and strategy
        solutions = []
        for n, response, where in ASSUMPTION_ARENAS:
            graph, line = assumption_arena(n, response, where)
            sol = solve_game(graph)
            assert sol.region_winning == line
            assert strategy_invariance_check(sol.strategy, graph, sol)
            solutions.append([sol.z_nodes, *graph.fixpoint[1:],
                              sol.strategy.to_json()])
        assert hashlib.sha256(json.dumps(solutions, sort_keys=True).encode()
                              ).hexdigest() == ASSUMPTION_ARENAS_SHA

    @pytest.mark.parametrize("response", [False, True])
    def test_trap_candidates_stay_near_the_joined_nodes(self, response,
                                                         monkeypatch):
        # a run's first layer hands ``_trap`` every !p node outside the
        # base; a later one only the !p nodes from which pairs holding no
        # p node outside the base lead to a node that has just joined Y.
        # So on these lines a node is handed at most twice per muY run,
        # not at every layer: never with p on every region; with p on the
        # lower half, upper-half nodes; with p = go, go=false nodes.  Each
        # dead end, which the trap drops, is handed at the first layer only
        handed = []
        trap = gr1._trap

        def counted(graph, cands, base):
            handed.append(list(cands))
            return trap(graph, cands, base)

        monkeypatch.setattr(gr1, "_trap", counted)
        n = 400
        for where in ("every", "lower", "go"):
            handed.clear()
            graph, line = assumption_arena(n, response, where)
            assert solve_game(graph).region_winning == line
            assert len(handed) > n // 2   # one call per layer
            nodes = [v for cands in handed for v in cands]
            if where == "every":
                assert nodes == []
                continue
            times = Counter(nodes)
            assert max(times.values()) <= 2 * graph.mu_y_runs
            stride = graph.n_env * graph.n_bitvals
            assert {times[v] for v in times
                    if v // stride >= n} == {graph.mu_y_runs}   # dead ends
            if where == "lower":
                assert min(v // stride for v in nodes) >= n // 2
            else:
                assert not any(graph.env_valuations[
                    v // graph.n_bitvals % graph.n_env]["go"] for v in nodes)


class TestEdgeMonotonicity:
    def test_adding_edges_never_shrinks_winning(self):
        rng = np.random.default_rng(303)
        for _ in range(40):
            graph, succ, labels, env_vals, assumptions, guarantees = \
                random_game(rng)
            base = solve_game(graph, extract_strategy=False).winning
            # add one random edge
            r = int(rng.integers(0, graph.n_regions))
            s = int(rng.integers(0, graph.n_regions))
            succ_add = {k: sorted(set(v) | ({s} if k == r else set()))
                        for k, v in succ.items()}
            spec = graph.spec
            bigger = solve_game(GameGraph(list(range(graph.n_regions)),
                                          succ_add, labels, env_vals, spec),
                                extract_strategy=False).winning
            assert base <= bigger
            # remove one random existing edge
            with_edges = [k for k, v in succ.items() if v]
            if not with_edges:
                continue
            r = with_edges[int(rng.integers(0, len(with_edges)))]
            succ_del = {k: [x for x in v if not (k == r and x == v[0])]
                        for k, v in succ.items()}
            smaller = solve_game(GameGraph(list(range(graph.n_regions)),
                                           succ_del, labels, env_vals, spec),
                                 extract_strategy=False).winning
            assert smaller <= base


class TestCheckLasso:
    @staticmethod
    def state(labels=(), env=None, bits=None):
        return (frozenset(labels), env or {}, bits or {})

    def test_all_guarantees_in_cycle_accepts(self):
        spec = Gr1Spec(guarantees=(parse_formula("a"), parse_formula("b")))
        cycle = [self.state(["a"]), self.state(["b"])]
        assert check_lasso([], cycle, spec)

    def test_missing_guarantee_with_live_assumptions_rejects(self):
        spec = Gr1Spec(assumptions=(parse_formula("p"),),
                       guarantees=(parse_formula("a"), parse_formula("b")))
        cycle = [self.state(["a", "p"])]
        assert not check_lasso([], cycle, spec)

    def test_dead_assumption_accepts(self):
        spec = Gr1Spec(assumptions=(parse_formula("p"),),
                       guarantees=(parse_formula("a"),))
        cycle = [self.state(["b"])]  # no p, no a
        assert check_lasso([], cycle, spec)

    def test_rotation_and_prefix_invariance(self):
        rng = np.random.default_rng(5)
        spec = Gr1Spec(assumptions=(parse_formula("p"),),
                       guarantees=(parse_formula("a"), parse_formula("b")))
        accepted = 0
        while accepted < 500:
            cycle = [self.state([l for l in ("a", "b", "p")
                                 if rng.random() < 0.5])
                     for _ in range(int(rng.integers(1, 6)))]
            if not check_lasso([], cycle, spec):
                continue
            accepted += 1
            k = int(rng.integers(0, len(cycle)))
            rotated = cycle[k:] + cycle[:k]
            assert check_lasso([], rotated, spec)
            prefix = [self.state(["b"])] * int(rng.integers(0, 4))
            assert check_lasso(prefix, cycle, spec)

    def test_empty_cycle_rejected(self):
        spec = Gr1Spec(guarantees=(parse_formula("a"),))
        with pytest.raises(SpecError):
            check_lasso([], [], spec)


class TestStrategyInvariance:
    def test_corrupted_strategy_detected(self):
        g = make_graph({0: [0, 1], 1: [1]}, {0: {"g"}, 1: set()})
        sol = solve_game(g)
        assert sol.region_winning == {0}
        assert strategy_invariance_check(sol.strategy, g, sol)
        # redirect the winning self-loop into the losing sink
        strat = sol.strategy
        (key, _old), = list(strat.transitions.items())
        bad = dict(strat.transitions)
        bad[key] = (key[0], 1)
        from dualsynth.gr1 import StrategyAutomaton
        corrupted = StrategyAutomaton(
            bit_names=strat.bit_names, memory_states=strat.memory_states,
            initial=strat.initial, transitions=bad, n_env=strat.n_env)
        assert not strategy_invariance_check(corrupted, g, sol)

    def test_empty_winning_set_vacuously_true(self):
        g = make_graph({0: []}, {0: {"g"}})
        sol = solve_game(g)
        assert strategy_invariance_check(sol.strategy, g, sol)


class TestStrategyJson:
    def test_roundtrip(self):
        raw = RawSpec(guarantees=("home",), responses=(("park", "lot"),))
        spec = convert_to_gr1(raw)
        g = GameGraph([(0,), (1,)], [[0, 1], [0, 1]],
                      {(0,): {"home"}, (1,): {"lot"}},
                      [{"park": False}, {"park": True}], spec)
        sol = solve_game(g)
        data = sol.strategy.to_json()
        from dualsynth.gr1 import StrategyAutomaton
        assert data["initial"] == {"0": 0, "1": 1}
        back = StrategyAutomaton.from_json(data)
        assert back.transitions == sol.strategy.transitions
        assert back.initial == sol.strategy.initial
        assert back.memory_states == sol.strategy.memory_states
