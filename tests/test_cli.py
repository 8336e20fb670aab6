import csv
import hashlib
import json
import re
import time
from importlib import resources
from pathlib import Path

import pytest

from dualsynth.cli import (
    EXIT_INPUT_ERROR,
    EXIT_REALIZABLE,
    EXIT_UNKNOWN,
    EXIT_UNREALIZABLE,
    ProblemError,
    load_problem,
    main,
    parse_problem,
)
from dualsynth.geometry import Box, GeometryError, to_fraction


FERRY_CONTROLLER_SHA = \
    "c0348996fb4c9ad4243063cf46266535dd0263a4d7f06a6d608d64b7cecc75e6"


def bundled(name: str) -> str:
    return str(resources.files("dualsynth") / "problems" / name)


@pytest.fixture
def park_path(tmp_path):
    return bundled("park.json")


@pytest.fixture
def invariant_path():
    return bundled("invariant.json")


class TestProblemParsing:
    def test_park_parses(self, park_path):
        problem = load_problem(park_path)
        assert problem.sys.n == 2
        assert len(problem.env) == 2
        assert problem.raw_spec.responses == (("park", "lot"),)

    def test_canonical_roundtrip_is_fixed_point(self, park_path, tmp_path):
        problem = load_problem(park_path)
        echo = tmp_path / "echo.json"
        echo.write_text(json.dumps(problem.canonical))
        again = load_problem(str(echo))
        assert again.canonical == problem.canonical
        assert again.sha256 == problem.sha256

    def test_initial_outside_domain_is_input_error(self, tmp_path):
        data = json.loads(open(bundled("park.json")).read())
        data["initial_set"] = [[0, 9], [0, 9]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        with pytest.raises(ProblemError, match="initial set"):
            load_problem(str(bad))

    def test_diagnostics_carry_json_path(self):
        with pytest.raises(ProblemError, match=r"dynamics\.A"):
            parse_problem({"dynamics": {"A": "oops", "B": [[1]]},
                           "input_set": [[0, 1]], "domain": [[0, 1]],
                           "initial_set": [[0, 1]], "spec": {
                               "guarantees": ["g"]}})

    def test_syntax_error_reports_line(self, tmp_path):
        bad = tmp_path / "syntax.json"
        bad.write_text('{\n "dynamics": [,]\n}')
        with pytest.raises(ProblemError, match="line 2"):
            load_problem(str(bad))

    @pytest.mark.parametrize("old, new, where", [
        ('"guarantees": ["home"],',
         '"guarantees": ["home"], "guarantees": [],', "spec.guarantees"),
        ('{"name": "lot", "box"', '{"name": "lot", "name": "home", "box"',
         "propositions[1].name"),
        ('"options":', '"domain": [[0, 3], [0, 2]], "options":', "domain"),
        # the inner repeat is dropped with the first "domain"
        ('"domain":', '"domain": {"lo": 0, "lo": 1}, "domain":', "domain"),
    ])
    def test_repeated_key_is_input_error_with_path(self, old, new, where,
                                                   tmp_path, capsys):
        # Python's json keeps the last value of a repeated key, so the
        # second "guarantees" would drop the guarantee without a word
        text = open(bundled("park.json")).read()
        assert text.count(old) == 1
        bad = tmp_path / "repeated.json"
        bad.write_text(text.replace(old, new))
        key = where.rsplit(".", 1)[-1]
        with pytest.raises(ProblemError, match=re.escape(
                f"{bad}: {where}: repeated key {key!r}")):
            load_problem(str(bad))
        code = main(["synthesize", str(bad), "--out", str(tmp_path / "r")])
        assert code == EXIT_INPUT_ERROR
        assert f"{where}: repeated key" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_bad_formula_rejected(self, tmp_path):
        data = json.loads(open(bundled("park.json")).read())
        data["spec"]["guarantees"] = ["[]<>home"]
        bad = tmp_path / "badspec.json"
        bad.write_text(json.dumps(data))
        with pytest.raises(ProblemError, match="temporal"):
            load_problem(str(bad))


class TestSynthesizeCommand:
    def test_park_exit_zero_and_artifacts(self, park_path, tmp_path):
        out = tmp_path / "run"
        code = main(["synthesize", park_path, "--out", str(out)])
        assert code == EXIT_REALIZABLE
        assert (out / "verdict.json").exists()
        assert (out / "controller.json").exists()
        assert (out / "partition_000.json").exists()
        assert (out / "partition_000.svg").exists()
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["outcome"] == "realizable"
        # svg statuses match the partition json statuses
        rows = json.loads((out / "partition_000.json").read_text())
        svg = (out / "partition_000.svg").read_text()
        color = {"winning": "#2ca02c", "losing": "#d62728",
                 "maybe": "#ffd92f", "unexplored": "#c7c7c7"}
        for status in ("winning", "losing", "maybe", "unexplored"):
            n = sum(1 for r in rows if r["status"] == status)
            assert svg.count(color[status]) == n

    def test_invariant_exit_one_with_witness(self, invariant_path, tmp_path):
        out = tmp_path / "run"
        code = main(["synthesize", invariant_path, "--out", str(out)])
        assert code == EXIT_UNREALIZABLE
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["outcome"] == "unrealizable"
        assert [["3", "7/2"], ["3", "7/2"]] in verdict["witness"]
        assert not (out / "controller.json").exists()

    def test_ferry_wins_only_under_its_assumption(self, tmp_path):
        # ferry must reach lot while go holds, which the environment may
        # withhold forever: realizable under []<>go, unrealizable without
        out = tmp_path / "run"
        assert main(["synthesize", bundled("ferry.json"), "--out", str(out)]
                    ) == EXIT_REALIZABLE
        stats = json.loads((out / "verdict.json").read_text())["stats"]
        assert [(s["leaves"], s["game_nodes"], s["mu_y_runs"])
                for s in stats] == [(6, 24, 4)]
        assert hashlib.sha256((out / "controller.json").read_bytes()
                              ).hexdigest() == FERRY_CONTROLLER_SHA
        data = json.loads(open(bundled("ferry.json")).read())
        data["spec"]["assumptions"] = []
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(data))
        out = tmp_path / "bare-run"
        assert main(["synthesize", str(bare), "--out", str(out)]
                    ) == EXIT_UNREALIZABLE
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["iterations"] == 1
        assert sorted(verdict["witness"]) == [
            [[str(x), str(x + 1)], [str(y), str(y + 1)]]
            for x in range(3) for y in range(2)]

    def test_init_violation_exit_three(self, tmp_path):
        data = json.loads(open(bundled("park.json")).read())
        data["initial_set"] = [[0, 9], [0, 9]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["synthesize", str(bad)]) == EXIT_INPUT_ERROR

    def test_deeply_nested_file_exit_three(self, tmp_path, capsys):
        # json's decoder recurses once per level
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        code = main(["synthesize", str(deep), "--out", str(tmp_path / "r")])
        assert code == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == \
            f"error: {deep}: JSON nested too deeply\n"
        assert not (tmp_path / "r").exists()

    def test_removed_rebuild_check_flag_is_usage_error(self, invariant_path,
                                                       tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["synthesize", invariant_path, "--rebuild-check",
                  "--out", str(tmp_path / "r")])
        assert exc.value.code == EXIT_INPUT_ERROR

    def test_unwritable_out_is_input_error(self, park_path, tmp_path,
                                           capsys):
        # a component of the artifact path is a regular file
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code = main(["synthesize", park_path, "--out", str(blocker / "run")])
        assert code == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith("error: ")

    def test_init_held_by_no_initial_region_exit_three(self, tmp_path,
                                                       capsys):
        # "lot" is a proposition, but no initial leaf carries it
        data = json.loads(open(bundled("park.json")).read())
        data["initial_set"] = [[0, 1], [0, 1]]
        data["spec"]["init"] = "lot"
        path = tmp_path / "init.json"
        path.write_text(json.dumps(data))
        code = main(["synthesize", str(path), "--out", str(tmp_path / "r")])
        assert code == EXIT_INPUT_ERROR
        assert "no initial region satisfies" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()


def _set_guarantee(text):
    def mutate(data):
        data["spec"]["guarantees"] = [text]
    return mutate


def _set_init(text):
    def mutate(data):
        data["spec"]["init"] = text
    return mutate


def _rename_env(data):
    data["environment"][0]["name"] = "home"


def _flatten_home(data):
    data["propositions"][0]["box"] = [[1, 1], [0, 2]]


def _typo_response(data):
    data["spec"]["responses"][0]["response"] = "lto"


def _value_on_proposition(data):
    data["spec"]["assumptions"] = ["lot=true"]


def _ambiguous_env_values(data):
    # park=1 would match both 1 and true
    data["environment"][0]["values"] = [0, 1, True]


# park.json mutations whose names or regions mean nothing, with the JSON
# path each is rejected at
MEANINGLESS = [
    (_set_guarantee("hom"), "spec.guarantees[0]"),
    (_set_guarantee("park=maybe"), "spec.guarantees[0]"),
    (_rename_env, "environment[0].name"),
    (_flatten_home, "propositions[0].box[0]"),
    (_set_init("park=true"), "spec.init"),
    (_set_init("park"), "spec.init"),
    (_typo_response, "spec.responses[0].response"),
    (_value_on_proposition, "spec.assumptions[0]"),
    (_ambiguous_env_values, "environment[0].values[2]"),
]


class TestMeaningfulNames:
    @pytest.mark.parametrize("mutate, path", MEANINGLESS,
                             ids=[p for _m, p in MEANINGLESS])
    def test_rejected_with_path_and_exit_three(self, mutate, path, tmp_path,
                                               capsys):
        data = json.loads(open(bundled("park.json")).read())
        mutate(data)
        with pytest.raises(ProblemError, match=rf"^{re.escape(path)}: "):
            parse_problem(data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["synthesize", str(bad), "--out",
                     str(tmp_path / "r")]) == EXIT_INPUT_ERROR
        assert path in capsys.readouterr().err

    @pytest.mark.parametrize("goal", ["spot", "pending_park"])
    def test_goal_named_like_a_memory_bit_keeps_its_verdict(self, goal,
                                                            tmp_path):
        # no input moves the state, so "lot" is never reached from the
        # initial "home" box: the spec is not realizable, and two
        # iterations leave it unknown under either name.  The bit of
        # "park" must not take the name of the goal.
        data = json.loads(open(bundled("park.json")).read())
        data["dynamics"]["B"] = [[0, 0], [0, 0]]
        data["initial_set"] = [[0, 1], [0, 1]]
        data["propositions"][1]["name"] = goal
        data["spec"]["guarantees"] = ["home | !home"]
        data["spec"]["responses"] = [{"trigger": "park", "response": goal}]
        data["options"]["max_iters"] = 2
        path = tmp_path / "p.json"
        path.write_text(json.dumps(data))
        assert main(["synthesize", str(path), "--out",
                     str(tmp_path / "r")]) == EXIT_UNKNOWN

    def test_unused_proposition_named_like_a_memory_bit(self, park_path,
                                                        tmp_path):
        # a proposition that no formula reads still reserves its name: the
        # bit of "park" becomes "pending_park_0", and the run synthesizes
        # exactly as park does
        data = json.loads(open(park_path).read())
        data["propositions"].append({"name": "pending_park",
                                     "box": [[0, 1], [1, 2]]})
        assert parse_problem(data).raw_spec.names == (
            "home", "lot", "pending_park", "park")
        path = tmp_path / "p.json"
        path.write_text(json.dumps(data))
        runs = {}
        for name, problem in (("park", park_path), ("pending", path)):
            out = tmp_path / name
            assert main(["synthesize", str(problem), "--out",
                         str(out)]) == EXIT_REALIZABLE
            verdict = json.loads((out / "verdict.json").read_text())
            strategy = json.loads((out / "controller.json").read_text()
                                  )["strategy"]
            runs[name] = ([s["leaves"] for s in verdict["stats"]],
                          strategy.pop("bit_names"), strategy)
        assert runs["pending"][1] == ["pending_park_0"]
        assert runs["park"][1] == ["pending_park"]
        assert runs["pending"][0] == runs["park"][0]
        assert runs["pending"][2] == runs["park"][2]

    def test_meaningful_literals_accepted(self):
        data = json.loads(open(bundled("park.json")).read())
        data["spec"]["guarantees"] = ["home | park=false", "!park -> home"]
        data["spec"]["init"] = "home | !lot"
        problem = parse_problem(data)
        assert problem.raw_spec.init == "home | !lot"


def _put(*path):
    """A mutation putting the placeholder ``"@"`` at ``path``."""
    def mutate(data):
        *parents, key = path
        target = data
        for step in parents:
            target = target[step]
        target[key] = "@"
    return mutate


# where a non-finite number goes in park.json, and the JSON path it is
# rejected at
NON_FINITE_AT = [
    (_put("dynamics", "A", 0, 0), "dynamics.A[0][0]"),
    (_put("dynamics", "B", 1, 1), "dynamics.B[1][1]"),
    (_put("domain", 0, 1), "domain[0][1]"),
    (_put("input_set", 1, 0), "input_set[1][0]"),
    (_put("propositions", 0, "box", 1, 1), "propositions[0].box[1][1]"),
]


class TestNonFiniteNumbers:
    """Python's json reads NaN, Infinity and 1e400 as non-finite floats;
    an integer literal beyond the float range has no finite float value."""

    @pytest.mark.parametrize("literal", [
        "NaN", "Infinity", "-Infinity", "1e400", "-1" + "0" * 400],
        ids=["NaN", "Infinity", "-Infinity", "1e400", "-10**400"])
    @pytest.mark.parametrize("mutate, path", NON_FINITE_AT,
                             ids=[p for _m, p in NON_FINITE_AT])
    def test_rejected_with_path_and_exit_three(self, mutate, path, literal,
                                               tmp_path, capsys):
        data = json.loads(open(bundled("park.json")).read())
        mutate(data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data).replace('"@"', literal))
        message = f"{path}: expected a finite number"
        with pytest.raises(ProblemError, match=rf"^{re.escape(message)}$"):
            load_problem(str(bad))
        assert main(["synthesize", str(bad), "--out",
                     str(tmp_path / "r")]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       -float("inf")])
    def test_library_rejects_non_finite_floats(self, value):
        with pytest.raises(GeometryError, match="finite"):
            to_fraction(value)
        with pytest.raises(GeometryError, match="finite"):
            Box.from_bounds([[0, value]])

    @pytest.mark.parametrize("text", ["inf", "-Infinity", "nan", " +NaN "])
    def test_library_rejects_non_finite_strings(self, text):
        # the same error as a non-finite float, not Fraction's ValueError
        message = rf"^expected a finite number, got {re.escape(repr(text))}$"
        with pytest.raises(GeometryError, match=message):
            to_fraction(text)
        with pytest.raises(GeometryError, match=message):
            Box.from_bounds([[0, text]])

    def test_library_reads_long_decimal_strings_exactly(self):
        # beyond the float range, but a finite rational
        assert to_fraction("1e400") == 10 ** 400


BAD_OPTIONS = [
    ("m", 0), ("m", -2), ("m", 1.5), ("m", True), ("m", "4"),
    ("max_iters", -1), ("max_iters", 1.5), ("max_iters", "3"),
    ("max_iters", None), ("max_iters", False),
    ("min_cell", 0), ("min_cell", -1), ("min_cell", "abc"),
    ("min_cell", True), ("min_cell", None),
    ("min_cell", float("inf")), ("min_cell", float("nan")),
    ("seed", 1.5), ("seed", "0"), ("seed", True), ("seed", None),
]


class TestOptionValidation:
    @staticmethod
    def with_option(tmp_path, key, value):
        data = json.loads(open(bundled("invariant.json")).read())
        data["options"] = {key: value}
        path = tmp_path / "options.json"
        path.write_text(json.dumps(data))
        return str(path)

    @pytest.mark.parametrize("key, value", BAD_OPTIONS)
    def test_bad_option_is_input_error_with_path(self, key, value, tmp_path):
        path = self.with_option(tmp_path, key, value)
        with pytest.raises(ProblemError, match=rf"^options\.{key}: "):
            load_problem(path)
        assert main(["synthesize", path, "--out",
                     str(tmp_path / "run")]) == EXIT_INPUT_ERROR

    @pytest.mark.parametrize("key, value", [
        ("m", None), ("m", 1), ("max_iters", 0), ("min_cell", 0.5),
        ("min_cell", 2), ("seed", -3)])
    def test_valid_option_accepted(self, key, value, tmp_path):
        assert load_problem(self.with_option(tmp_path, key, value)
                            ).options[key] == value

    def test_options_must_be_an_object(self, tmp_path):
        data = json.loads(open(bundled("invariant.json")).read())
        data["options"] = [1]
        path = tmp_path / "options.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ProblemError, match=r"^options: "):
            load_problem(str(path))

    def test_split_count_beyond_min_cell_ends_unknown(self, tmp_path):
        # with its inputs halved park leaves regions undecided, and no
        # region holds 10^9 + 7 cells min_cell wide: the run ends unknown
        # without factoring m
        data = json.loads(open(bundled("park.json")).read())
        data["input_set"] = [[-0.5, 0.5], [-0.5, 0.5]]
        data["options"]["m"] = 1000000007
        path = tmp_path / "prime.json"
        path.write_text(json.dumps(data))
        t0 = time.perf_counter()
        assert main(["synthesize", str(path), "--out",
                     str(tmp_path / "run")]) == EXIT_UNKNOWN
        assert time.perf_counter() - t0 < 30

    @pytest.mark.parametrize("flag", [
        ["--m", "0"], ["--max-iters", "-1"], ["--min-cell", "0"],
        ["--min-cell", "-1"]])
    def test_out_of_range_flag_is_input_error(self, flag, invariant_path,
                                              tmp_path, capsys):
        code = main(["synthesize", invariant_path, *flag,
                     "--out", str(tmp_path / "run")])
        assert code == EXIT_INPUT_ERROR
        assert "must be" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("flag", [["--m", "abc"], ["--min-cell", "nan"]])
    def test_unparsable_flag_is_input_error(self, flag, invariant_path,
                                            tmp_path, capsys):
        # argparse would exit 2, the code of the verdict "unknown"
        with pytest.raises(SystemExit) as exc:
            main(["synthesize", invariant_path, *flag,
                  "--out", str(tmp_path / "run")])
        assert exc.value.code == EXIT_INPUT_ERROR
        assert "invalid" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


def _drop(*path):
    """A mutation deleting the key at ``path`` from a JSON document."""
    def mutate(data):
        *parents, key = path
        target = data
        for step in parents:
            target = target[step]
        del target[key]
        return data
    return mutate


# a problem with coupled A and non-diagonal B, whose controller takes
# vertex tables on some steps
COUPLED = {
    "dynamics": {"A": [[1, 0.25], [0, 1]], "B": [[1, 0.5], [0, 1]]},
    "input_set": [[-0.5, 0.5], [-0.5, 0.5]],
    "domain": [[0, 4], [0, 4]], "initial_set": [[2, 2.5], [2, 2.5]],
    "propositions": [{"name": "a", "box": [[0, 1], [0, 1]]},
                     {"name": "b", "box": [[3, 4], [3, 4]]},
                     {"name": "c", "box": [[1, 2], [1, 2]]}],
    "environment": [{"name": "req", "values": [False, True]}],
    "spec": {"init": None, "assumptions": [], "guarantees": ["a"],
             "responses": [{"trigger": "req", "response": "b"}]},
    "options": {"m": 4}}


class TestSimulateCommand:
    @pytest.fixture
    def park_run(self, park_path, tmp_path):
        out = tmp_path / "run"
        assert main(["synthesize", park_path, "--out", str(out)]) == 0
        return out

    def test_scripted_park_gets_served(self, park_path, park_run, tmp_path):
        script = tmp_path / "script.json"
        # park at t=5 (index patterns cycle)
        script.write_text(json.dumps(
            [0, 0, 0, 0, 0, 1] + [0] * 30))
        trace = tmp_path / "trace.csv"
        code = main(["simulate", park_path,
                     str(park_run / "controller.json"),
                     "--steps", "30", "--env-script", str(script),
                     "--start", "[0.5, 0.5]", "--out", str(trace)])
        assert code == 0
        with open(trace) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 31
        problem = load_problem(park_path)
        lot_rows = [
            r for r in rows
            if "lot" in _labels_of(problem, r["region"], park_run)]
        assert any(int(r["t"]) > 5 for r in lot_rows)

    def test_closing_line_counts_controller_paths(self, park_path, park_run,
                                                  tmp_path, capsys):
        # diagonal B: the probe decides every step and no table is built
        trace = tmp_path / "t.csv"
        code = main(["simulate", park_path,
                     str(park_run / "controller.json"), "--steps", "30",
                     "--random", "2", "--out", str(trace)])
        assert code == 0
        assert capsys.readouterr().out == (
            f"wrote 31 trace rows to {trace} "
            f"(30 probe, 0 table steps, 0 tables built)\n")

    def test_closing_line_counts_table_steps(self, tmp_path, capsys):
        # coupled A and non-diagonal B: the probe misses some steps
        problem = tmp_path / "coupled.json"
        problem.write_text(json.dumps(COUPLED))
        out = tmp_path / "run"
        assert main(["synthesize", str(problem), "--out", str(out)]) == 0
        capsys.readouterr()
        trace = tmp_path / "t.csv"
        code = main(["simulate", str(problem), str(out / "controller.json"),
                     "--steps", "200", "--random", "5", "--start",
                     "[2.25, 2.25]", "--out", str(trace)])
        assert code == 0
        line = capsys.readouterr().out
        match = re.fullmatch(
            rf"wrote 201 trace rows to {re.escape(str(trace))} \((\d+) "
            rf"probe, (\d+) table steps?, (\d+) tables? built\)\n", line)
        assert match, line
        probe, table, built = map(int, match.groups())
        assert probe + table == 200 and table > 0 and built > 0

    def test_zero_steps_single_row(self, park_path, park_run, tmp_path):
        trace = tmp_path / "t.csv"
        code = main(["simulate", park_path,
                     str(park_run / "controller.json"), "--steps", "0",
                     "--start", "[0.5, 0.5]", "--out", str(trace)])
        assert code == 0
        with open(trace) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1 and rows[0]["u0"] == ""

    def test_same_seed_byte_identical(self, park_path, park_run, tmp_path):
        t1, t2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for t in (t1, t2):
            code = main(["simulate", park_path,
                         str(park_run / "controller.json"),
                         "--steps", "200", "--random", "7",
                         "--start", "[1.5, 1.0]", "--out", str(t)])
            assert code == 0
        assert t1.read_bytes() == t2.read_bytes()

    def test_unwritable_out_is_input_error(self, park_path, park_run,
                                           tmp_path, capsys):
        trace = tmp_path / "missing" / "t.csv"
        code = main(["simulate", park_path,
                     str(park_run / "controller.json"), "--steps", "3",
                     "--start", "[0.5, 0.5]", "--out", str(trace)])
        assert code == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith("error: ")

    def test_hash_mismatch_refused(self, park_run, invariant_path, tmp_path):
        code = main(["simulate", invariant_path,
                     str(park_run / "controller.json"),
                     "--steps", "5", "--out", str(tmp_path / "t.csv")])
        assert code == EXIT_INPUT_ERROR

    @pytest.mark.parametrize("start", ["5", "null", "[0.5, true]", "[0.5"])
    def test_start_must_be_a_list_of_numbers(self, start, park_path, park_run,
                                             tmp_path, capsys):
        code = main(["simulate", park_path, str(park_run / "controller.json"),
                     "--start", start, "--out", str(tmp_path / "t.csv")])
        assert code == EXIT_INPUT_ERROR
        assert "--start: expected a JSON list of numbers" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("start, element", [
        ("[Infinity, 1]", 0), ("[0.5, NaN]", 1), ("[0.5, -Infinity]", 1),
        ("[1e400, 0.5]", 0), ("[0.5, 1" + "0" * 400 + "]", 1)],
        ids=["Infinity", "NaN", "-Infinity", "1e400", "10**400"])
    def test_start_must_be_finite(self, start, element, park_path, park_run,
                                  tmp_path, capsys):
        code = main(["simulate", park_path, str(park_run / "controller.json"),
                     "--start", start, "--out", str(tmp_path / "t.csv")])
        assert code == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == \
            f"error: --start[{element}]: expected a finite number\n"
        assert not (tmp_path / "t.csv").exists()

    def test_negative_steps_is_input_error(self, park_path, park_run,
                                           tmp_path, capsys):
        code = main(["simulate", park_path, str(park_run / "controller.json"),
                     "--steps", "-4", "--out", str(tmp_path / "t.csv")])
        assert code == EXIT_INPUT_ERROR
        assert "steps must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("entry", [True, False])
    def test_boolean_env_entry_rejected(self, entry, park_path, park_run,
                                        tmp_path, capsys):
        script = tmp_path / "script.json"
        script.write_text(json.dumps([0, entry]))
        code = main(["simulate", park_path, str(park_run / "controller.json"),
                     "--env-script", str(script),
                     "--out", str(tmp_path / "t.csv")])
        assert code == EXIT_INPUT_ERROR
        assert "bad env script entry" in capsys.readouterr().err

    def test_deeply_nested_env_script_is_input_error(self, park_path,
                                                     park_run, tmp_path,
                                                     capsys):
        script = tmp_path / "script.json"
        script.write_text("[" * 100_000 + "]" * 100_000)
        code = main(["simulate", park_path, str(park_run / "controller.json"),
                     "--env-script", str(script),
                     "--out", str(tmp_path / "t.csv")])
        assert code == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == \
            f"error: {script}: JSON nested too deeply\n"
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("mutate, message", [
        (_drop("strategy"), "missing key 'strategy'"),
        (lambda data: [], "expected a JSON object"),
        (_drop("leaves", 0, "box"), "malformed controller (KeyError: 'box')"),
        (_drop("strategy", "transitions"),
         "malformed controller (KeyError: 'transitions')"),
    ])
    def test_malformed_controller_is_input_error(self, mutate, message,
                                                 park_path, park_run,
                                                 tmp_path, capsys):
        data = json.loads((park_run / "controller.json").read_text())
        bad = tmp_path / "bad_controller.json"
        bad.write_text(json.dumps(mutate(data)))
        code = main(["simulate", park_path, str(bad),
                     "--out", str(tmp_path / "t.csv")])
        assert code == EXIT_INPUT_ERROR
        assert f"{bad}: {message}" in capsys.readouterr().err

    def test_repeated_artifact_keys_are_input_errors(self, park_path,
                                                     park_run, tmp_path,
                                                     capsys):
        # the controller and the env script are read by the same strict
        # reader as the problem file
        text = (park_run / "controller.json").read_text()
        assert text.startswith("{")
        bad = tmp_path / "repeated_controller.json"
        bad.write_text('{"spec": null, ' + text[1:])
        code = main(["simulate", park_path, str(bad),
                     "--out", str(tmp_path / "t.csv")])
        assert code == EXIT_INPUT_ERROR
        assert f"{bad}: spec: repeated key 'spec'" in capsys.readouterr().err
        script = tmp_path / "script.json"
        script.write_text('[0, {"park": true, "park": false}]')
        code = main(["simulate", park_path,
                     str(park_run / "controller.json"),
                     "--env-script", str(script),
                     "--out", str(tmp_path / "t.csv")])
        assert code == EXIT_INPUT_ERROR
        assert f"{script}: [1].park: repeated key 'park'" in \
            capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    def test_controller_without_the_start_leaf_is_input_error(
            self, park_path, park_run, tmp_path, capsys):
        # every leaf holding the start state is dropped, so no region of
        # the rebuilt partition holds it
        problem = load_problem(park_path)
        start = problem.sys.initial_set.center()
        data = json.loads((park_run / "controller.json").read_text())
        kept = [leaf for leaf in data["leaves"]
                if not Box.from_bounds(leaf["box"]).contains(start)]
        assert 0 < len(kept) < len(data["leaves"])
        data["leaves"] = kept
        bad = tmp_path / "holed_controller.json"
        bad.write_text(json.dumps(data))
        code = main(["simulate", park_path, str(bad),
                     "--out", str(tmp_path / "t.csv")])
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        point = "(" + ", ".join(map(str, start)) + ")"
        assert f"no region of the partition holds point {point}" in err
        assert not (tmp_path / "t.csv").exists()


def _labels_of(problem, region_str, run_dir):
    ctrl = json.loads((run_dir / "controller.json").read_text())
    for leaf in ctrl["leaves"]:
        if leaf["region_id"] == region_str:
            return set(leaf["labels"])
    return set()


class TestReportCommand:
    def test_report_invariant_run(self, invariant_path, tmp_path, capsys):
        out = tmp_path / "run"
        main(["synthesize", invariant_path, "--out", str(out)])
        assert main(["report", str(out)]) == 0
        text = capsys.readouterr().out
        assert "unrealizable" in text
        assert "iter" in text and "leaves" in text
        report = json.loads((out / "report.json").read_text())
        assert report["outcome"] == "unrealizable"
        assert report["per_iteration"][0]["losing"] == 12

    def test_incomplete_dir_partial_report(self, tmp_path, capsys):
        run_dir = tmp_path / "empty"
        run_dir.mkdir()
        (run_dir / "verdict.json").write_text("{}")
        assert main(["report", str(run_dir)]) == 0
        err = capsys.readouterr().err
        assert "incomplete" in err

    def test_abstraction_time_column(self, invariant_path, tmp_path, capsys):
        out = tmp_path / "run"
        main(["synthesize", invariant_path, "--out", str(out)])
        rows = json.loads((out / "verdict.json").read_text())["stats"]
        assert rows and all(0 <= r["abstraction_s"] <= r["wall_time_s"]
                            for r in rows)
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        header, first = capsys.readouterr().out.splitlines()[:2]
        assert header.split()[-5:] == ["adv_s", "abstr_s", "class_s",
                                       "strat_s", "time_s"]
        assert first.split()[-4] == f"{rows[0]['abstraction_s']:.3f}"

    def test_layer_time_columns(self, park_path, tmp_path, capsys):
        # half park's inputs, so the run splits and refines
        data = json.loads(Path(park_path).read_text())
        data["input_set"] = [[-0.5, 0.5], [-0.5, 0.5]]
        path = tmp_path / "slow_park.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "run"
        main(["synthesize", str(path), "--out", str(out)])
        rows = json.loads((out / "verdict.json").read_text())["stats"]
        assert len(rows) > 1
        for r in rows:
            layers = r["advance_s"] + r["abstraction_s"] + r["classify_s"]
            assert min(r["advance_s"], r["classify_s"]) > 0
            assert layers <= r["wall_time_s"]
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        header, *lines = capsys.readouterr().out.splitlines()
        header = header.split()
        for row, line in zip(rows, lines):
            cells = dict(zip(header, line.split()))
            assert cells["adv_s"] == f"{row['advance_s']:.3f}"
            assert cells["class_s"] == f"{row['classify_s']:.3f}"

    def test_game_columns(self, park_path, tmp_path, capsys):
        # half park's inputs, so the strategy comes after a refinement
        data = json.loads(Path(park_path).read_text())
        data["input_set"] = [[-0.5, 0.5], [-0.5, 0.5]]
        path = tmp_path / "slow_park.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "run"
        assert main(["synthesize", str(path), "--out", str(out)]) == 0
        rows = json.loads((out / "verdict.json").read_text())["stats"]
        assert len(rows) > 1
        assert all(r["game_nodes"] > 0 and r["mu_y_runs"] > 0 for r in rows)
        assert [r["strategy_s"] > 0 for r in rows] == \
            [False] * (len(rows) - 1) + [True]
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        header, *lines = capsys.readouterr().out.splitlines()
        header = header.split()
        assert header[header.index("slab") + 1:header.index("adv_s")] == \
            ["nodes", "muY"]
        assert header[header.index("class_s") + 1] == "strat_s"
        for row, line in zip(rows, lines):
            cells = dict(zip(header, line.split()))
            assert cells["nodes"] == str(row["game_nodes"])
            assert cells["muY"] == str(row["mu_y_runs"])
            assert cells["strat_s"] == f"{row['strategy_s']:.3f}"

    def test_pruned_column_follows_saved(self, park_path, tmp_path, capsys):
        # half park's inputs: the first partition is too coarse to decide
        data = json.loads(Path(park_path).read_text())
        data["input_set"] = [[-0.5, 0.5], [-0.5, 0.5]]
        path = tmp_path / "slow_park.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "run"
        assert main(["synthesize", str(path), "--out", str(out)]) == 0
        rows = json.loads((out / "verdict.json").read_text())["stats"]
        assert rows[0]["queries_pruned"] == 0   # build_initial prunes nothing
        assert any(r["queries_pruned"] > 0 for r in rows[1:])
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        header, *lines = capsys.readouterr().out.splitlines()
        header = header.split()
        assert header[header.index("saved") + 1] == "pruned"
        col = header.index("pruned")
        for row, line in zip(rows, lines):
            assert line.split()[col] == str(row["queries_pruned"])

    @pytest.mark.parametrize("problem, slab_tested", [
        ("park", False), ("cube", True)])
    def test_slab_column_follows_pruned(self, problem, slab_tested, tmp_path,
                                        capsys):
        # park's only normals are the axes, so its index decides every
        # query; the 3-D cube has 12 other normals, so the queries its
        # axes leave open go to the slab test
        path = (bundled("park.json") if problem == "park" else
                str(Path(__file__).parent / "data" / "cube.json"))
        out = tmp_path / "run"
        assert main(["synthesize", path, "--out", str(out), "--max-iters",
                     "1", "--min-cell", "1/8"]) in (EXIT_REALIZABLE,
                                                    EXIT_UNKNOWN)
        rows = json.loads((out / "verdict.json").read_text())["stats"]
        slab = [r["queries_slab_pess"] + r["queries_slab_opt"] for r in rows]
        assert all(r["queries_slab_pess"] <= r["queries_issued"] for r in rows)
        assert any(slab) == slab_tested
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        header, *lines = capsys.readouterr().out.splitlines()
        header = header.split()
        assert header[header.index("pruned") + 1] == "slab"
        col = header.index("slab")
        assert [line.split()[col] for line in lines[:len(rows)]] == \
            list(map(str, slab))

    @staticmethod
    def _report_without(key, invariant_path, tmp_path, capsys):
        """The report line of iteration 0 once ``key`` is deleted from every
        stats row, as in verdict.json files written before it existed."""
        out = tmp_path / "run"
        main(["synthesize", invariant_path, "--out", str(out)])
        verdict = json.loads((out / "verdict.json").read_text())
        for row in verdict["stats"]:
            del row[key]
        (out / "verdict.json").write_text(json.dumps(verdict))
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        header, line = captured.out.splitlines()[:2]
        return dict(zip(header.split(), line.split()))

    def test_report_reads_rows_without_abstraction_time(self, invariant_path,
                                                        tmp_path, capsys):
        line = self._report_without("abstraction_s", invariant_path,
                                    tmp_path, capsys)
        assert line["abstr_s"] == "-"

    def test_report_reads_rows_without_pruned_count(self, invariant_path,
                                                    tmp_path, capsys):
        line = self._report_without("queries_pruned", invariant_path,
                                    tmp_path, capsys)
        assert line["pruned"] == "-"

    @pytest.mark.parametrize("key", ["queries_slab_pess",
                                     "queries_slab_opt"])
    def test_report_reads_rows_without_slab_count(self, key, invariant_path,
                                                  tmp_path, capsys):
        line = self._report_without(key, invariant_path, tmp_path, capsys)
        assert line["slab"] == "-"
        assert line["pruned"] != "-"

    @pytest.mark.parametrize("key, column", [("advance_s", "adv_s"),
                                             ("classify_s", "class_s")])
    def test_report_reads_rows_without_layer_time(self, key, column,
                                                  invariant_path, tmp_path,
                                                  capsys):
        line = self._report_without(key, invariant_path, tmp_path, capsys)
        assert line[column] == "-"
        assert line["abstr_s"] != "-"

    @pytest.mark.parametrize("key, column", [("game_nodes", "nodes"),
                                             ("mu_y_runs", "muY"),
                                             ("strategy_s", "strat_s")])
    def test_report_reads_rows_without_game_counts(self, key, column,
                                                   invariant_path, tmp_path,
                                                   capsys):
        line = self._report_without(key, invariant_path, tmp_path, capsys)
        assert line[column] == "-"
        assert line["class_s"] != "-"

    def test_peak_rss_column(self, tmp_path, capsys):
        # the cube refines once, so the report has two rows to read
        path = str(Path(__file__).parent / "data" / "cube.json")
        out = tmp_path / "run"
        assert main(["synthesize", path, "--out", str(out), "--max-iters",
                     "1", "--min-cell", "1/8"]) == EXIT_UNKNOWN
        rows = json.loads((out / "verdict.json").read_text())["stats"]
        peaks = [r["peak_rss_mb"] for r in rows]
        assert len(peaks) == 2 and 0 < peaks[0] <= peaks[1]
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        header, *lines = capsys.readouterr().out.splitlines()
        header = header.split()
        assert header[header.index("leaves") + 1] == "rss_mb"
        col = header.index("rss_mb")
        assert [line.split()[col] for line in lines[:2]] == \
            [f"{peak:.1f}" for peak in peaks]

    def test_report_reads_rows_without_peak_rss(self, invariant_path,
                                                tmp_path, capsys):
        line = self._report_without("peak_rss_mb", invariant_path, tmp_path,
                                    capsys)
        assert line["rss_mb"] == "-"
        assert line["leaves"] != "-"

    def test_no_resource_module_records_null_peak_rss(
            self, invariant_path, tmp_path, capsys, monkeypatch):
        from dualsynth import engine
        monkeypatch.setattr(engine, "resource", None)
        out = tmp_path / "run"
        main(["synthesize", invariant_path, "--out", str(out)])
        rows = json.loads((out / "verdict.json").read_text())["stats"]
        assert rows and all(r["peak_rss_mb"] is None for r in rows)
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        header, line = capsys.readouterr().out.splitlines()[:2]
        assert dict(zip(header.split(), line.split()))["rss_mb"] == "-"

    def test_missing_dir_is_error(self, tmp_path):
        assert main(["report", str(tmp_path / "nope")]) == EXIT_INPUT_ERROR

    @pytest.mark.parametrize("verdict, message", [
        ([], "expected a JSON object"),
        ({"outcome": "unknown", "stats": [{"iteration": 0}]},
         "stats[0]: missing key 'leaves'"),
        ({"outcome": "unknown", "stats": [dict.fromkeys(
            ("iteration", "leaves", "winning", "maybe", "losing",
             "queries_issued", "queries_saved", "wall_time_s"), 0)
            | {"abstraction_s": "0.1"}]},
         "stats[0]: key 'abstraction_s' holds '0.1'"),
        ({"outcome": "unknown", "stats": [dict.fromkeys(
            ("iteration", "leaves", "winning", "maybe", "losing",
             "queries_issued", "queries_saved", "wall_time_s"), 0)
            | {"queries_pruned": None}]},
         "stats[0]: key 'queries_pruned' holds None"),
        ({"outcome": "unknown", "stats": [dict.fromkeys(
            ("iteration", "leaves", "winning", "maybe", "losing",
             "queries_issued", "queries_saved", "wall_time_s"), 0)
            | {"classify_s": [0.1]}]},
         "stats[0]: key 'classify_s' holds [0.1]"),
        ({"outcome": "unknown", "stats": [dict.fromkeys(
            ("iteration", "leaves", "winning", "maybe", "losing",
             "queries_issued", "queries_saved", "wall_time_s"), 0)
            | {"advance_s": "fast"}]},
         "stats[0]: key 'advance_s' holds 'fast'"),
        ({"outcome": "unknown", "stats": [dict.fromkeys(
            ("iteration", "leaves", "winning", "maybe", "losing",
             "queries_issued", "queries_saved", "wall_time_s"), 0)
            | {"game_nodes": "96"}]},
         "stats[0]: key 'game_nodes' holds '96'"),
        ({"outcome": "unknown", "stats": [dict.fromkeys(
            ("iteration", "leaves", "winning", "maybe", "losing",
             "queries_issued", "queries_saved", "wall_time_s"), 0)
            | {"mu_y_runs": True}]},
         "stats[0]: key 'mu_y_runs' holds True"),
        ({"outcome": "unknown", "stats": [dict.fromkeys(
            ("iteration", "leaves", "winning", "maybe", "losing",
             "queries_issued", "queries_saved", "wall_time_s"), 0)
            | {"strategy_s": None}]},
         "stats[0]: key 'strategy_s' holds None"),
        ({"outcome": "unknown", "stats": [dict.fromkeys(
            ("iteration", "leaves", "winning", "maybe", "losing",
             "queries_issued", "queries_saved", "wall_time_s"), 0)
            | {"peak_rss_mb": "40 MB"}]},
         "stats[0]: key 'peak_rss_mb' holds '40 MB'"),
    ])
    def test_malformed_verdict_is_input_error(self, verdict, message,
                                              tmp_path, capsys):
        (tmp_path / "verdict.json").write_text(json.dumps(verdict))
        assert main(["report", str(tmp_path)]) == EXIT_INPUT_ERROR
        assert f"{tmp_path / 'verdict.json'}: {message}" in \
            capsys.readouterr().err

    def test_repeated_verdict_key_is_input_error(self, invariant_path,
                                                 tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["synthesize", invariant_path, "--out", str(out)]) == 1
        path = out / "verdict.json"
        text = path.read_text()
        assert text.count('"stats": [') == 1
        path.write_text(text.replace('"stats": [', '"stats": [{"iteration"'
                                     ': 0, "iteration": 1}, ', 1))
        capsys.readouterr()
        assert main(["report", str(out)]) == EXIT_INPUT_ERROR
        assert f"{path}: stats[0].iteration: repeated key 'iteration'" in \
            capsys.readouterr().err


class TestExitCodeInjectivity:
    def test_codes_distinct(self):
        from dualsynth.cli import (EXIT_REALIZABLE, EXIT_UNREALIZABLE,
                                   EXIT_UNKNOWN, EXIT_INPUT_ERROR)
        codes = {EXIT_REALIZABLE, EXIT_UNREALIZABLE, EXIT_UNKNOWN,
                 EXIT_INPUT_ERROR}
        assert codes == {0, 1, 2, 3}
