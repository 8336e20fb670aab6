"""Command-line front end: synthesize, simulate, report.

Problem files are JSON; every run writes its artifacts (canonical problem
echo, verdict, per-iteration partitions, controller when one exists) into
an output directory that ``report`` can summarize later.  Exit codes of
``synthesize``: 0 realizable, 1 unrealizable, 2 unknown, 3 input error;
a usage error (an unknown flag, or a flag value that does not parse)
exits 3 from every command.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import os
import sys as _sys
from dataclasses import dataclass
from fractions import Fraction

from dualsynth.abstraction import EnvAlphabet, repeated_value
from dualsynth.engine import (
    ContinuousController,
    EngineError,
    EngineOptions,
    Verdict,
    run,
    simulate,
)
from dualsynth.geometry import Box, ControlSystem, GeometryError
from dualsynth.gr1 import (
    RawSpec,
    SpecError,
    StrategyAutomaton,
    check_names,
    convert_to_gr1,
    parse_formula,
)
from dualsynth.partition import (
    Node,
    PartitionForest,
    Status,
    format_region_id,
    parse_region_id,
    partition_to_json,
    render_svg,
)

logger = logging.getLogger(__name__)

EXIT_REALIZABLE = 0
EXIT_UNREALIZABLE = 1
EXIT_UNKNOWN = 2
EXIT_INPUT_ERROR = 3


class ProblemError(ValueError):
    """Problem-file violation, reported with the offending JSON path."""


@dataclass
class ProblemFile:
    sys: ControlSystem
    env: EnvAlphabet
    raw_spec: RawSpec
    options: dict
    canonical: dict

    @property
    def sha256(self) -> str:
        return hashlib.sha256(
            json.dumps(self.canonical, sort_keys=True,
                       separators=(",", ":")).encode()).hexdigest()


def _expect(cond: bool, path: str, message: str):
    if not cond:
        raise ProblemError(f"{path}: {message}")


def _number(v, path: str):
    """``v`` is a JSON number with a finite float value.  Python's json
    reads NaN, Infinity and overflowing literals such as 1e400 as
    non-finite floats, and an integer literal beyond the float range
    would overflow where the artifacts print bounds as floats."""
    _expect(isinstance(v, (int, float)) and not isinstance(v, bool), path,
            f"expected a number, got {v!r}")
    _expect(abs(v) <= _sys.float_info.max, path, "expected a finite number")


def _num_matrix(value, path: str):
    _expect(isinstance(value, list) and value and
            all(isinstance(r, list) and r for r in value), path,
            "expected a nonempty numeric matrix (list of rows)")
    for i, row in enumerate(value):
        for j, v in enumerate(row):
            _number(v, f"{path}[{i}][{j}]")
    return value


def _bounds(value, path: str):
    _expect(isinstance(value, list) and value, path,
            "expected [[lo, hi], ...] bounds")
    for i, pair in enumerate(value):
        _expect(isinstance(pair, list) and len(pair) == 2,
                f"{path}[{i}]", "expected [lo, hi]")
        for k, v in enumerate(pair):
            _number(v, f"{path}[{i}][{k}]")
        lo, hi = pair
        _expect(lo <= hi, f"{path}[{i}]", f"lower bound {lo} exceeds {hi}")
    return value


def _formula(text, path: str, names: dict, what: str):
    """Check that a formula parses and means something (``check_names``)."""
    _expect(isinstance(text, str), path,
            f"expected a formula string, got {text!r}")
    try:
        check_names(parse_formula(text), names, what)
    except SpecError as exc:
        raise ProblemError(f"{path}: {exc}") from exc


_OPTION_DEFAULTS = {"m": None, "max_iters": 20, "min_cell": 0.001, "seed": 0}


def parse_problem(data: dict) -> ProblemFile:
    _expect(isinstance(data, dict), "$", "problem file must be a JSON object")
    known = {"dynamics", "input_set", "domain", "initial_set", "propositions",
             "environment", "spec", "options"}
    for key in data:
        _expect(key in known, key, "unknown top-level key")
    dyn = data.get("dynamics")
    _expect(isinstance(dyn, dict), "dynamics", "expected an object with A, B")
    A = _num_matrix(dyn.get("A"), "dynamics.A")
    B = _num_matrix(dyn.get("B"), "dynamics.B")
    input_set = _bounds(data.get("input_set"), "input_set")
    domain = _bounds(data.get("domain"), "domain")
    initial_set = _bounds(data.get("initial_set"), "initial_set")

    props = data.get("propositions", [])
    _expect(isinstance(props, list), "propositions", "expected a list")
    propositions = []
    for i, p in enumerate(props):
        _expect(isinstance(p, dict) and "name" in p and "box" in p,
                f"propositions[{i}]", "expected {name, box}")
        _expect(isinstance(p["name"], str) and p["name"],
                f"propositions[{i}].name", "expected a nonempty string")
        box = _bounds(p["box"], f"propositions[{i}].box")
        for d, (lo, hi) in enumerate(box):
            _expect(lo < hi, f"propositions[{i}].box[{d}]",
                    f"a proposition box must be full-dimensional, got "
                    f"[{lo}, {hi}]")
        propositions.append((p["name"], box))
    prop_names = {name: None for name, _box in propositions}

    env_vars = data.get("environment", [])
    _expect(isinstance(env_vars, list), "environment", "expected a list")
    env_pairs = []
    for i, v in enumerate(env_vars):
        _expect(isinstance(v, dict) and "name" in v and "values" in v,
                f"environment[{i}]", "expected {name, values}")
        _expect(isinstance(v["name"], str) and v["name"],
                f"environment[{i}].name", "expected a nonempty string")
        _expect(v["name"] not in prop_names, f"environment[{i}].name",
                f"{v['name']!r} is also the name of a proposition")
        _expect(isinstance(v["values"], list) and v["values"],
                f"environment[{i}].values", "expected a nonempty list")
        k = repeated_value(v["values"])
        if k is not None:
            raise ProblemError(f"environment[{i}].values[{k}]: equals an "
                               f"earlier value, and formulas compare with ==")
        env_pairs.append((v["name"], tuple(v["values"])))
    names = {**prop_names, **dict(env_pairs)}

    spec = data.get("spec")
    _expect(isinstance(spec, dict), "spec", "expected an object")
    for key in spec:
        _expect(key in {"init", "assumptions", "guarantees", "responses"},
                f"spec.{key}", "unknown spec key")
    assumptions = spec.get("assumptions", [])
    guarantees = spec.get("guarantees", [])
    responses = spec.get("responses", [])
    anything = "a proposition or an environment variable"
    for key, formulas in (("assumptions", assumptions),
                          ("guarantees", guarantees)):
        _expect(isinstance(formulas, list), f"spec.{key}",
                "expected a list of formula strings")
        for i, text in enumerate(formulas):
            _formula(text, f"spec.{key}[{i}]", names, anything)
    _expect(isinstance(responses, list), "spec.responses", "expected a list")
    resp_pairs = []
    for i, r in enumerate(responses):
        _expect(isinstance(r, dict) and "trigger" in r and "response" in r,
                f"spec.responses[{i}]", "expected {trigger, response}")
        for key in ("trigger", "response"):
            _formula(r[key], f"spec.responses[{i}].{key}", names, anything)
        resp_pairs.append((r["trigger"], r["response"]))
    init = spec.get("init")
    _expect(init is None or isinstance(init, str), "spec.init",
            "expected a formula string or null")
    if init:
        # the engine evaluates init on a region's labels alone, before the
        # environment has a value
        _formula(init, "spec.init", prop_names,
                 "a proposition (spec.init may name propositions only)")

    options = dict(_OPTION_DEFAULTS)
    given = data.get("options", {})
    _expect(isinstance(given, dict), "options", "expected an object")
    for key, val in given.items():
        _expect(key in _OPTION_DEFAULTS, f"options.{key}", "unknown option")
        if key == "seed":
            _expect(isinstance(val, int) and not isinstance(val, bool),
                    "options.seed", f"expected an integer, got {val!r}")
        else:
            try:
                EngineOptions(**{key: val})
            except EngineError as exc:
                raise ProblemError(f"options.{key}: {exc}") from exc
        options[key] = val

    try:
        sys = ControlSystem.create(A=A, B=B, input_set=input_set,
                                   domain=domain, initial_set=initial_set,
                                   propositions=propositions)
        env = EnvAlphabet.create(env_pairs)
        raw = RawSpec(assumptions=tuple(assumptions),
                      guarantees=tuple(guarantees),
                      responses=tuple(resp_pairs), init=init,
                      names=tuple(names))
        convert_to_gr1(raw)  # validates formulas early
    except (GeometryError, SpecError, ValueError) as exc:
        raise ProblemError(str(exc)) from exc

    canonical = {
        "dynamics": {"A": A, "B": B},
        "input_set": input_set,
        "domain": domain,
        "initial_set": initial_set,
        "propositions": [{"name": n, "box": b} for n, b in propositions],
        "environment": [{"name": n, "values": list(vs)}
                        for n, vs in env_pairs],
        "spec": {"init": init, "assumptions": list(assumptions),
                 "guarantees": list(guarantees),
                 "responses": [{"trigger": t, "response": r}
                               for t, r in resp_pairs]},
        "options": options,
    }
    return ProblemFile(sys=sys, env=env,
                       raw_spec=raw, options=options, canonical=canonical)


def load_problem(path: str) -> ProblemFile:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ProblemError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProblemError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    return parse_problem(data)


# ---------------------------------------------------------------------------
# artifact writing
# ---------------------------------------------------------------------------

def _controller_json(problem: ProblemFile, controller: ContinuousController) -> dict:
    forest = controller.forest  # bounds exact: a float may shift a proved box
    return {
        "problem_sha256": problem.sha256,
        "strategy": controller.strategy.to_json(),
        "leaves": [{
            "region_id": format_region_id(rid),
            "box": forest.box(rid).as_exact_bounds(),
            "labels": sorted(forest.labels(rid)),
            "status": forest.status(rid).value,
        } for rid in forest.leaves],
        "spec": problem.canonical["spec"],
        "environment": problem.canonical["environment"],
    }


def _read_artifact(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ProblemError(f"cannot read {path}: {exc}") from exc


def _fields(value, where: str, fields: dict):
    """``value`` is a JSON object holding every key of ``fields`` with a
    value of the mapped type; otherwise ProblemError naming ``where``."""
    _expect(isinstance(value, dict), where,
            f"expected a JSON object, got {value!r}")
    for key, kind in fields.items():
        _expect(key in value, where, f"missing key {key!r}")
        _expect(isinstance(value[key], kind)
                and not isinstance(value[key], bool), where,
                f"key {key!r} holds {value[key]!r}")


def _rebuild_controller(problem: ProblemFile, path: str) -> ContinuousController:
    data = _read_artifact(path)
    _fields(data, path, {"problem_sha256": str, "strategy": dict,
                         "leaves": list})
    if data["problem_sha256"] != problem.sha256:
        raise ProblemError(
            "controller was synthesized for a different problem file "
            "(hash mismatch); refusing to simulate")
    try:
        nodes = {parse_region_id(leaf["region_id"]): Node(
            box=Box.from_bounds(leaf["box"]),
            labels=frozenset(leaf["labels"]), status=Status(leaf["status"]))
            for leaf in data["leaves"]}
        strategy = StrategyAutomaton.from_json(data["strategy"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ProblemError(f"{path}: malformed controller "
                           f"({type(exc).__name__}: {exc})") from exc
    roots = sorted(nodes)
    forest = PartitionForest(domain=problem.sys.domain, nodes=nodes,
                             roots=roots, leaves=list(roots),
                             initial_set=problem.sys.initial_set)
    spec = convert_to_gr1(problem.raw_spec)
    return ContinuousController(sys=problem.sys, env=problem.env, spec=spec,
                                forest=forest, strategy=strategy)


def _write_artifacts(out_dir: str, problem: ProblemFile, verdict: Verdict):
    os.makedirs(out_dir, exist_ok=True)

    def write_json(name, payload):
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")

    write_json("problem.canonical.json", problem.canonical)
    verdict_payload = verdict.to_json()
    verdict_payload["problem_sha256"] = problem.sha256
    write_json("verdict.json", verdict_payload)
    for triple in verdict.history:
        write_json(f"partition_{triple.iteration:03d}.json",
                   partition_to_json(triple.rows))
        if problem.sys.domain.dim == 2:
            svg = render_svg(problem.sys.domain, triple.rows)
            path = os.path.join(out_dir,
                                f"partition_{triple.iteration:03d}.svg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(svg)
    if verdict.controller is not None:
        write_json("controller.json",
                   _controller_json(problem, verdict.controller))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_synthesize(args) -> int:
    try:
        problem = load_problem(args.problem)
    except ProblemError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_INPUT_ERROR
    opts = problem.options
    try:
        engine_opts = EngineOptions(
            m=args.m if args.m is not None else opts["m"],
            max_iters=args.max_iters if args.max_iters is not None
            else opts["max_iters"],
            min_cell=args.min_cell if args.min_cell is not None
            else Fraction(str(opts["min_cell"])))
        verdict = run(problem.sys, problem.env,
                      convert_to_gr1(problem.raw_spec), engine_opts)
    except EngineError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_INPUT_ERROR
    out_dir = args.out or (os.path.splitext(args.problem)[0] + ".out")
    try:
        _write_artifacts(out_dir, problem, verdict)
    except OSError as exc:
        print(f"error: cannot write artifacts to {out_dir}: {exc}",
              file=_sys.stderr)
        return EXIT_INPUT_ERROR
    print(f"{verdict.outcome} after {verdict.iterations} iteration(s); "
          f"artifacts in {out_dir}")
    if verdict.outcome == "unrealizable":
        for box in verdict.witness:
            print(f"  losing initial box: {json.dumps(box.as_exact_bounds())}")
    if verdict.reason:
        print(f"  reason: {verdict.reason}")
    return {"realizable": EXIT_REALIZABLE,
            "unrealizable": EXIT_UNREALIZABLE,
            "unknown": EXIT_UNKNOWN}[verdict.outcome]


def _env_script(problem: ProblemFile, args, steps: int):
    valuations = problem.env.valuations
    if args.env_script:
        script = _read_artifact(args.env_script)
        if not isinstance(script, list) or not script:
            raise ProblemError("env script must be a nonempty JSON list")
        idxs = []
        for entry in script:
            if isinstance(entry, int) and not isinstance(entry, bool):
                if not 0 <= entry < len(valuations):
                    raise ProblemError(f"env index {entry} out of range")
                idxs.append(entry)
            elif isinstance(entry, dict):
                try:
                    idxs.append(valuations.index(entry))
                except ValueError:
                    raise ProblemError(
                        f"env valuation {entry} not in the alphabet")
            else:
                raise ProblemError(f"bad env script entry {entry!r}")
        return [idxs[t % len(idxs)] for t in range(steps + 1)]
    import random
    rng = random.Random(args.seed if args.seed is not None
                        else problem.options["seed"])
    return [rng.randrange(len(valuations)) for _ in range(steps + 1)]


def _start_state(text: str) -> tuple:
    try:
        start = json.loads(text)
    except json.JSONDecodeError:
        start = None
    _expect(isinstance(start, list) and all(
        isinstance(v, (int, float)) and not isinstance(v, bool)
        for v in start), "--start",
        f"expected a JSON list of numbers, got {text}")
    for i, v in enumerate(start):
        _number(v, f"--start[{i}]")
    return tuple(Fraction(str(v)) for v in start)


def cmd_simulate(args) -> int:
    try:
        problem = load_problem(args.problem)
        controller = _rebuild_controller(problem, args.controller)
        steps = args.steps
        env_idx = _env_script(problem, args, steps)
        if args.start is not None:
            s0 = _start_state(args.start)
        else:
            s0 = problem.sys.initial_set.center()
        execution = simulate(controller, problem.sys, iter(env_idx), s0, steps)
    except (ProblemError, SpecError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_INPUT_ERROR
    out = args.out or "trace.csv"
    n, m = problem.sys.n, problem.sys.m
    env_names = [name for name, _vals in problem.env.variables]
    try:
        with open(out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t"] + [f"s{i}" for i in range(n)] + env_names
                            + [f"u{i}" for i in range(m)] + ["region"])
            for step in execution.steps:
                env_cols = [step.env_valuation[name] for name in env_names]
                u_cols = ([repr(float(v)) for v in step.inp]
                          if step.inp is not None else [""] * m)
                writer.writerow([step.t] + [repr(float(v)) for v in step.state]
                                + env_cols + u_cols
                                + [format_region_id(step.region)])
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=_sys.stderr)
        return EXIT_INPUT_ERROR
    print(f"wrote {len(execution.steps)} trace rows to {out} "
          f"({controller.probe_steps} probe, "
          f"{_count(controller.table_steps, 'table step')}, "
          f"{_count(controller.tables_built, 'table')} built)")
    return 0


def _count(n: int, noun: str) -> str:
    return f"{n} {noun}" + ("" if n == 1 else "s")


_STATS_KEYS = ("iteration", "leaves", "winning", "maybe", "losing",
               "queries_issued", "queries_saved", "wall_time_s")
# absent from artifacts written before these were recorded, and a null
# peak_rss_mb where the run could not read its memory; shown as "-"
_OPTIONAL_STATS = {
    **dict.fromkeys(("queries_pruned", "queries_slab_pess",
                     "queries_slab_opt", "game_nodes", "mu_y_runs",
                     "advance_s", "abstraction_s", "classify_s",
                     "strategy_s"), (int, float)),
    "peak_rss_mb": (int, float, type(None)),
}


def cmd_report(args) -> int:
    verdict_path = os.path.join(args.run_dir, "verdict.json")
    try:
        verdict = _read_artifact(verdict_path)
        _fields(verdict, verdict_path, {})
        rows = verdict.get("stats", [])
        _expect(isinstance(rows, list), verdict_path,
                f"key 'stats' holds {rows!r}")
        for i, row in enumerate(rows):
            where = f"{verdict_path}: stats[{i}]"
            _fields(row, where, dict.fromkeys(_STATS_KEYS, (int, float)))
            _fields(row, where, {key: kind for key, kind in
                                 _OPTIONAL_STATS.items() if key in row})
    except ProblemError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_INPUT_ERROR
    incomplete = not rows or "outcome" not in verdict
    if incomplete:
        print("warning: run directory looks incomplete; partial report",
              file=_sys.stderr)
    header = ["iter", "leaves", "rss_mb", "W", "M", "L", "queries", "saved",
              "pruned", "slab", "nodes", "muY", "adv_s", "abstr_s",
              "class_s", "strat_s", "time_s"]
    table = [header]
    for row in rows:
        slab = (str(row["queries_slab_pess"] + row["queries_slab_opt"])
                if "queries_slab_pess" in row and "queries_slab_opt" in row
                else "-")
        rss = row.get("peak_rss_mb")
        table.append([str(row["iteration"]), str(row["leaves"]),
                      "-" if rss is None else f"{rss:.1f}",
                      str(row["winning"]), str(row["maybe"]),
                      str(row["losing"]), str(row["queries_issued"]),
                      str(row["queries_saved"]),
                      str(row.get("queries_pruned", "-")), slab,
                      *(str(row.get(key, "-")) for key in
                        ("game_nodes", "mu_y_runs")),
                      *(f"{row[key]:.3f}" if key in row else "-" for key in
                        ("advance_s", "abstraction_s", "classify_s",
                         "strategy_s")),
                      f"{row['wall_time_s']:.3f}"])
    widths = [max(len(r[c]) for r in table) for c in range(len(header))]
    lines = ["  ".join(cell.rjust(w) for cell, w in zip(r, widths))
             for r in table]
    text = "\n".join(lines)
    text += f"\noutcome: {verdict.get('outcome', '?')}"
    if verdict.get("witness"):
        text += f"\nwitness boxes: {verdict['witness']}"
    print(text)
    payload = {"outcome": verdict.get("outcome"),
               "iterations": verdict.get("iterations"),
               "witness": verdict.get("witness", []),
               "per_iteration": rows}
    report_path = os.path.join(args.run_dir, "report.json")
    try:
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        print(f"warning: cannot write {report_path}: {exc}", file=_sys.stderr)
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 3 (input error); argparse's own 2 means "unknown".

    Subparsers take the class of their parent, so this covers every
    command.
    """

    def error(self, message):
        self.print_usage(_sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dualsynth",
        description="GR(1) controller synthesis by dual-abstraction "
                    "refinement for discrete-time affine systems")
    sub = parser.add_subparsers(dest="command", required=True)

    p_syn = sub.add_parser("synthesize", help="decide realizability and "
                           "extract a controller")
    p_syn.add_argument("problem", help="problem JSON file")
    p_syn.add_argument("--m", type=int, default=None,
                       help="children per split (default 2^n)")
    p_syn.add_argument("--max-iters", type=int, default=None)
    p_syn.add_argument("--min-cell", type=Fraction, default=None)
    p_syn.add_argument("--out", default=None, help="artifact directory")
    p_syn.set_defaults(func=cmd_synthesize)

    p_sim = sub.add_parser("simulate", help="run a synthesized controller")
    p_sim.add_argument("problem")
    p_sim.add_argument("controller", help="controller.json from synthesize")
    p_sim.add_argument("--steps", type=int, default=100)
    p_sim.add_argument("--env-script", default=None,
                       help="JSON list of env valuations or indices (cycled)")
    p_sim.add_argument("--random", dest="seed", type=int, default=None,
                       help="seed for a random env script")
    p_sim.add_argument("--start", default=None,
                       help="initial state as a JSON list")
    p_sim.add_argument("--out", default=None, help="trace CSV path")
    p_sim.set_defaults(func=cmd_simulate)

    p_rep = sub.add_parser("report", help="summarize a run directory")
    p_rep.add_argument("run_dir")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("DUALSYNTH_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
