"""Seeded mutation fuzzing of problem files through ``dualsynth synthesize``.

Each case starts from a bundled problem or the benchmark's coupled problem,
which are read and never written, applies one to three random mutations
(a dropped key, a value of another type, a flattened box, a non-finite or
out-of-domain literal, a deeply nested formula) and runs the CLI in-process
with ``--max-iters 1``, which keeps every accepted problem quick to solve.
Every input must end with an exit code 0-3; an exception escaping ``main``
is a traceback the user would see.
"""

import json
import random
from importlib import resources
from pathlib import Path

import pytest

from dualsynth.cli import main

SOURCES = {
    "park": resources.files("dualsynth") / "problems" / "park.json",
    "ferry": resources.files("dualsynth") / "problems" / "ferry.json",
    "invariant": resources.files("dualsynth") / "problems" / "invariant.json",
    "coupled": Path(__file__).resolve().parents[1] / "bench" / "coupled.json",
}
CASES = 120
PLACEHOLDER = "@literal@"
# non-finite, beyond the float range, out of every domain, or degenerate
LITERALS = ["NaN", "Infinity", "-Infinity", "1e400", "-1" + "0" * 400,
            "1e300", "-5", "0", "0.5", "7"]
OTHER_TYPES = [None, True, "x", 2, 0.5, [], {}, [[0, 1]], {"x": 1}]


def _nodes(node, path=()):
    """Every (path, value) of the JSON tree below ``node``."""
    yield path, node
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _nodes(value, path + (i,))


def _parent(data, path):
    for step in path[:-1]:
        data = data[step]
    return data


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_box(v):
    return isinstance(v, list) and v and all(
        isinstance(p, list) and len(p) == 2 and all(map(_is_number, p))
        for p in v)


def drop_key(rng, data):
    paths = [p for p, _v in _nodes(data)
             if p and isinstance(_parent(data, p), dict)]
    path = rng.choice(paths)
    del _parent(data, path)[path[-1]]
    return f"drop {path}"


def swap_type(rng, data):
    path, value = rng.choice([(p, v) for p, v in _nodes(data) if p])
    new = rng.choice([v for v in OTHER_TYPES if type(v) is not type(value)])
    _parent(data, path)[path[-1]] = new
    return f"set {path} = {new!r}"


def flatten_box(rng, data):
    boxes = [p for p, v in _nodes(data) if p and _is_box(v)]
    if not boxes:
        return swap_type(rng, data)
    path = rng.choice(boxes)
    box = _parent(data, path)[path[-1]]
    if rng.random() < 0.5:
        axis = rng.randrange(len(box))
        lo, hi = box[axis]
        box[axis] = rng.choice([[lo, lo], [hi, hi], [hi, lo]])
        return f"flatten axis {axis} of {path}"
    _parent(data, path)[path[-1]] = [v for pair in box for v in pair]
    return f"unnest {path}"


def bad_literal(rng, data):
    path = rng.choice([p for p, v in _nodes(data) if p and _is_number(v)])
    _parent(data, path)[path[-1]] = PLACEHOLDER
    literal = rng.choice(LITERALS)
    return f"literal {path} = {literal}", literal


def nest_formula(rng, data):
    spec = [p for p, v in _nodes(data)
            if p and p[0] == "spec" and isinstance(v, str)]
    if not spec:
        return swap_type(rng, data)
    path = rng.choice(spec)
    text = _parent(data, path)[path[-1]]
    k = rng.choice([1, 99, 101, 2000])
    _parent(data, path)[path[-1]] = rng.choice([
        "!" * k + text, "(" * k + text + ")" * k,
        " & ".join([f"({text})"] * k), " -> ".join([f"({text})"] * k)])
    return f"nest {path} {k} deep"


MUTATIONS = [drop_key, swap_type, flatten_box, bad_literal, nest_formula]


def mutated(source: str, seed: int):
    """(description, JSON text) of one fuzz case: up to three mutations,
    each of a different kind."""
    rng = random.Random(f"{source}/{seed}")
    data = json.loads(SOURCES[source].read_text(encoding="utf-8"))
    done, literal = [], None
    for mutate in rng.sample(MUTATIONS, rng.randint(1, 3)):
        out = mutate(rng, data)
        if isinstance(out, tuple):
            out, literal = out
        done.append(out)
    text = json.dumps(data)
    if literal is not None:
        text = text.replace(json.dumps(PLACEHOLDER), literal)
    return "; ".join(done), text


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_mutated_problems_exit_zero_to_three(source, tmp_path, capsys):
    path = tmp_path / "problem.json"
    crashes = []
    for seed in range(CASES):
        what, text = mutated(source, seed)
        path.write_text(text, encoding="utf-8")
        try:
            code = main(["synthesize", str(path), "--max-iters", "1",
                         "--out", str(tmp_path / "run")])
        except Exception as exc:  # noqa: BLE001 - any escape is a failure
            crashes.append(f"seed {seed} ({what}): "
                           f"{type(exc).__name__}: {exc}")
            continue
        if code not in (0, 1, 2, 3):
            crashes.append(f"seed {seed} ({what}): exit {code}")
    capsys.readouterr()
    assert not crashes, "\n".join(crashes)
