import functools
import io
import itertools
import json

from hypothesis import given, settings
from hypothesis import strategies as st
from ideal_reference import borel_closure

from stablebetti import (
    InfeasibleSpec,
    NotStable,
    SpecError,
    UncoveredByCharacterization,
    VerificationFailed,
    __version__,
    cli,
    enumerate_strongly_stable,
    realize_module,
)
from stablebetti import errors, oracle
from stablebetti.cli import _exit_code, _UsageError, run
from stablebetti.monomials import format_monomial
from test_cli_snapshot import CASES, EXPECTED, _snapshot

STABLE3 = json.dumps({"n": 3, "generators": ["x1^2", "x1*x2", "x1*x3"]})
UNSTABLE = json.dumps({"n": 3, "generators": ["x2^2"]})
# every subcommand but census, which reads no document
_READERS = (
    "betti",
    "corners",
    "check-stable",
    "diagram",
    "oracle-betti",
    "realize-ideal",
    "realize-module",
)
SPEC3 = {
    "n": 6,
    "corners": [
        {"k": 5, "l": 2, "a": 1},
        {"k": 3, "l": 3, "a": 3},
        {"k": 2, "l": 5, "a": 1},
    ],
}


def invoke(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err, stdin=io.StringIO(stdin_text))
    return code, out.getvalue(), err.getvalue()


def test_version_flag():
    code, out, err = invoke(["--version"])
    assert (code, err) == (0, "")
    assert out == f"stablebetti {__version__}\n"


def test_help_exits_zero(capsys):
    # argparse prints help to the real stdout; with one shared parser the
    # texts must not depend on which help was asked for first
    argvs = [["--help"]] + [[command, "--help"] for command in (*_READERS, "census")]

    def helps(order):
        texts = {}
        for argv in order:
            assert invoke(argv)[0] == 0
            texts[argv[0]] = capsys.readouterr().out
        return texts

    forward = helps(argvs)
    assert helps(reversed(argvs)) == forward
    assert all(text.startswith("usage: stablebetti") for text in forward.values())


def test_no_command_is_usage_error():
    code, out, err = invoke([])
    assert code == 1
    assert json.loads(err)["error"] == "_UsageError"


def test_unknown_command_and_flag():
    assert invoke(["frobnicate"])[0] == 1
    assert invoke(["betti", "--bogus"], STABLE3)[0] == 1


def test_betti_on_stdin():
    code, out, err = invoke(["betti"], STABLE3)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    entries = {(e["i"], e["j"]): e["beta"] for e in payload["table"]["entries"]}
    assert entries == {(0, 2): 3, (1, 3): 3, (2, 4): 1}
    assert payload["diagram"] == "1: 3 3 1*"


def test_betti_rejects_unstable_input():
    code, out, err = invoke(["betti"], UNSTABLE)
    assert code == 2
    assert json.loads(err)["error"] == "NotStable"


def test_input_file_matches_stdin(tmp_path):
    doc = tmp_path / "ideal.json"
    doc.write_text(STABLE3, encoding="utf-8")
    assert invoke(["betti", "-i", str(doc)]) == invoke(["betti"], STABLE3)


def test_missing_input_file():
    code, out, err = invoke(["betti", "-i", "/no/such/file.json"])
    assert code == 1
    assert json.loads(err)["error"] == "FileNotFoundError"


def test_garbage_json():
    code, out, err = invoke(["betti"], "not json at all")
    assert code == 1
    assert json.loads(err)["error"] == "JSONDecodeError"


def test_input_file_that_is_not_utf8_is_malformed_json(tmp_path):
    doc = tmp_path / "ideal.json"
    doc.write_bytes(b'{"n": 2, \xff "generators": ["x1"]}')
    for command in _READERS:
        code, out, err = invoke([command, "-i", str(doc)])
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "error": "JSONDecodeError",
            "message": "input is not valid utf-8: line 1 column 10 (char 9)",
        }


def test_json_nested_past_the_parser_is_malformed_json():
    for command in _READERS:
        code, out, err = invoke([command], "[" * 100_000)
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "error": "JSONDecodeError",
            "message": "document nested too deeply: line 1 column 1 (char 0)",
        }


def test_error_payload_shape():
    _code, _out, err = invoke(["betti"], UNSTABLE)
    payload = json.loads(err)
    assert set(payload) == {"error", "message"}
    assert isinstance(payload["message"], str) and payload["message"]


def test_check_stable_never_fails():
    code, out, err = invoke(["check-stable"], UNSTABLE)
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "stable": False,
        "strongly_stable": False,
        "violation": {
            "component": 1,
            "generator": "x2^2",
            "variable": 2,
            "target": 1,
            "moved": "x1*x2",
        },
    }
    code, out, _err = invoke(["check-stable"], STABLE3)
    assert code == 0
    assert json.loads(out) == {
        "stable": True,
        "strongly_stable": True,
        "violation": None,
    }


def test_diagram_plain_text():
    code, out, err = invoke(["diagram"], STABLE3)
    assert (code, out, err) == (0, "1: 3 3 1*\n", "")


def test_corners_report_shape():
    code, out, _err = invoke(["corners"], STABLE3)
    assert code == 0
    report = json.loads(out)
    assert report["corners"] == [{"k": 2, "l": 2, "beta": 1}]
    assert report["corner_matrix"] == [[1]]
    assert report["corner_components"] == [1]
    assert report["components"][0]["module_corners"] == [{"k": 2, "l": 2}]


def test_oracle_betti_cross_checks_stable_input():
    code, out, _err = invoke(["oracle-betti"], STABLE3)
    assert code == 0
    payload = json.loads(out)
    assert payload["matches_generator_formula"] is True


def test_oracle_betti_handles_unstable_input():
    doc = json.dumps({"n": 3, "generators": ["x1*x2", "x3^2"]})
    code, out, _err = invoke(["oracle-betti"], doc)
    assert code == 0
    payload = json.loads(out)
    assert "matches_generator_formula" not in payload
    entries = {(e["i"], e["j"]): e["beta"] for e in payload["table"]["entries"]}
    assert entries == {(0, 2): 2, (1, 4): 1}


def test_realize_ideal_round_trip():
    code, out, err = invoke(["realize-ideal"], json.dumps(SPEC3))
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["mode"] == "coupled"
    assert len(payload["witness"]["generators"]) == 13
    assert payload["picks"] == ["x1*x6", "x2*x4^2", "x3^5"]


def test_realize_ideal_uncovered_exit_3():
    doc = json.dumps({"n": 3, "corners": [{"k": 1, "l": 2, "a": 1}]})
    code, _out, err = invoke(["realize-ideal"], doc)
    assert code == 3
    assert json.loads(err)["error"] == "UncoveredByCharacterization"


def test_realize_ideal_mode_flag_beats_file_key():
    doc = {
        "n": 6,
        "corners": [{"k": 3, "l": 3, "a": 4}, {"k": 2, "l": 5, "a": 2}],
        "mode": "strict-paper",
    }
    code, _out, err = invoke(["realize-ideal"], json.dumps(doc))
    assert code == 2
    assert json.loads(err)["error"] == "InfeasibleSpec"
    code, out, _err = invoke(
        ["realize-ideal", "--mode", "coupled"], json.dumps(doc)
    )
    assert code == 0
    assert json.loads(out)["mode"] == "coupled"


def test_realize_module_needs_m():
    code, _out, err = invoke(["realize-module"], json.dumps(SPEC3))
    assert code == 1
    assert 'pass --m or an "m" key' in json.loads(err)["message"]


def test_realize_module_m_flag_beats_file_key():
    doc = {"n": 4, "corners": [{"k": 2, "l": 2, "a": 6}], "m": 2}
    code, out, _err = invoke(["realize-module"], json.dumps(doc))
    assert code == 0
    assert json.loads(out)["matrix"] == [[3, 3]]
    code, _out, err = invoke(
        ["realize-module", "--m", "1"], json.dumps(doc)
    )
    assert code == 2
    assert json.loads(err)["error"] == "InfeasibleSpec"


def test_realize_module_infeasible_exit_2():
    doc = {"n": 4, "corners": [{"k": 2, "l": 2, "a": 7}], "m": 2}
    code, _out, err = invoke(["realize-module"], json.dumps(doc))
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "InfeasibleSpec"
    assert "cap 6" in payload["message"]


def test_exhausted_search_budget_exits_1(monkeypatch):
    # a feasible spec that a 2,000-node search cannot settle is refused as
    # budget trouble (exit 1), not as an infeasible spec (exit 2)
    monkeypatch.setattr(
        cli, "realize_module", functools.partial(realize_module, node_budget=2000)
    )
    doc = {
        "n": 8,
        "m": 3,
        "corners": [
            {"k": 7, "l": 2, "a": 4},
            {"k": 5, "l": 5, "a": 48},
            {"k": 3, "l": 8, "a": 119},
        ],
    }
    code, out, err = invoke(["realize-module"], json.dumps(doc))
    assert (code, out) == (1, "")
    payload = json.loads(err)
    assert payload["error"] == "InfeasibleSpec"
    assert "budget exhausted" in payload["message"]


def test_deep_corner_matrix_searches_return():
    # a search nests one call per column and per filled cell; a tail of
    # empty columns is filled without nesting, and a search still too deep
    # for the interpreter is refused like an exhausted budget
    one = {"n": 4, "m": 990, "corners": [{"k": 2, "l": 2, "a": 1}]}
    code, out, err = invoke(["realize-module"], json.dumps(one))
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["matrix"] == [[1] + [0] * 989]
    assert payload["fillers"] == list(range(2, 991))
    full = {"n": 4, "m": 400, "corners": [{"k": 2, "l": 2, "a": 1200}]}
    code, out, err = invoke(["realize-module"], json.dumps(full))
    assert (code, out) == (1, "")
    payload = json.loads(err)
    assert payload["error"] == "InfeasibleSpec"
    assert "nested too deeply" in payload["message"]


def test_realize_module_filler_columns():
    code, out, _err = invoke(["realize-module", "--m", "3"], json.dumps(SPEC3))
    assert code == 0
    payload = json.loads(out)
    assert payload["matrix"] == [[1, 0, 0], [3, 0, 0], [1, 0, 0]]
    assert payload["fillers"] == [2, 3]
    assert payload["module"]["components"][1]["generators"] == ["x1", "x2", "x3"]


def test_realize_module_is_deterministic():
    first = invoke(["realize-module", "--m", "2"], json.dumps(SPEC3))
    second = invoke(["realize-module", "--m", "2"], json.dumps(SPEC3))
    assert first == second and first[0] == 0


def test_census_matches_library_enumeration():
    code, out, err = invoke(["census", "-n", "2", "-d", "2"])
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines == [i.to_json() for i in enumerate_strongly_stable(2, 2)]
    assert len(lines) == 6


def test_census_guard_rails_exit_1():
    code, _out, err = invoke(["census", "-n", "6", "-d", "7"])
    assert code == 1
    assert json.loads(err)["error"] == "BudgetExceeded"


def test_census_past_its_decision_budget_exits_1(monkeypatch):
    # the lines printed before the budget ran out stay on stdout, and
    # they begin the full enumeration
    monkeypatch.setattr(oracle, "CENSUS_DECISIONS", 2000)
    code, out, err = invoke(["census", "-n", "4", "-d", "6"])
    assert code == 1
    assert json.loads(err) == {  # one object: a second would be extra data
        "error": "BudgetExceeded",
        "message": "census decision budget of 2000 exhausted at n=4, "
        "max_degree=6; pass allow_large=True to lift",
    }
    lines = out.splitlines()
    assert lines
    full = enumerate_strongly_stable(4, 6, allow_large=True)
    assert lines == [i.to_json() for i in itertools.islice(full, len(lines))]


def test_exit_code_mapping():
    assert _exit_code(VerificationFailed("x")) == 4
    assert _exit_code(UncoveredByCharacterization("x")) == 3
    assert _exit_code(NotStable("x", 1)) == 2
    assert _exit_code(InfeasibleSpec("x")) == 2
    assert _exit_code(InfeasibleSpec("x", exhausted_budget=True)) == 1
    assert _exit_code(SpecError("x")) == 1


_ODD_LEAF = st.none() | st.booleans() | st.just(1.5) | st.sampled_from(["", "k", "ab"])
_JSON_LEAF = _ODD_LEAF | st.integers(-8, 8)
_JSON = st.recursive(
    _JSON_LEAF,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["k", "l", "a", "x"]), inner, max_size=4),
    max_leaves=12,
)
_CORNERS = _JSON | st.lists(
    st.fixed_dictionaries({"k": _JSON_LEAF, "l": _JSON_LEAF, "a": _JSON_LEAF}),
    max_size=3,
)
_EXIT_BY_ERROR = {"SpecError": 1, "InfeasibleSpec": 2, "UncoveredByCharacterization": 3}


@settings(deadline=None, max_examples=300)
@given(n=_JSON_LEAF, corners=_CORNERS)
def test_any_corners_document_gets_a_typed_answer(n, corners):
    # no traceback (run would raise), the exit code follows the error, and
    # a malformed container gets a fixed message, never Python's own text
    code, out, err = invoke(["realize-ideal"], json.dumps({"n": n, "corners": corners}))
    if code == 0:
        assert err == "" and json.loads(out)["witness"]
        return
    assert out == ""
    payload = json.loads(err)
    assert code == _EXIT_BY_ERROR[payload["error"]]
    if not isinstance(corners, list) or not all(isinstance(e, dict) for e in corners):
        assert payload == {
            "error": "SpecError",
            "message": '"corners" must be a list of corner objects',
        }
    elif not all({"k", "l", "a"} <= set(e) for e in corners):
        assert payload == {
            "error": "SpecError",
            "message": 'every corner needs keys "k", "l" and "a"',
        }


def test_parser_is_built_at_most_once_per_process(monkeypatch):
    # each subcommand parser is a _Parser too; the top-level one marks a build
    builds = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    for argv, doc in [
        (["betti"], STABLE3),
        (["diagram"], STABLE3),
        (["check-stable"], UNSTABLE),
        (["census", "-n", "2", "-d", "2"], ""),
        (["frobnicate"], ""),
        ([], ""),
        (["realize-ideal"], json.dumps(SPEC3)),
    ]:
        invoke(argv, doc)
    assert builds.count("stablebetti") <= 1


def test_no_state_leaks_between_calls():
    assert invoke(["realize-module", "--m", "3"], json.dumps(SPEC3))[0] == 0
    code, out, err = invoke(["realize-module"], json.dumps(SPEC3))
    assert (code, out) == (1, "")
    assert "realize-module needs a component count" in json.loads(err)["message"]
    # a --mode given once does not become the default of the next call
    doc = json.dumps(
        {"n": 6, "corners": [{"k": 3, "l": 3, "a": 4}, {"k": 2, "l": 5, "a": 2}]}
    )
    assert invoke(["realize-ideal", "--mode", "strict-paper"], doc)[0] == 2
    code, out, _err = invoke(["realize-ideal"], doc)
    assert code == 0 and json.loads(out)["mode"] == "coupled"


def test_snapshot_in_reverse_order_in_one_process():
    for name in reversed(list(CASES)):
        assert _snapshot(*CASES[name]) == EXPECTED[name], name


def _mostly(good, junk):
    # good four times in five, so that most documents pass the first checks
    return st.integers(0, 4).flatmap(lambda r: good if r else junk)


# documents of the shapes the commands read, every number in 0..6
_SMALL = _mostly(st.integers(0, 6), _ODD_LEAF)
_MONOMIAL = _mostly(
    st.lists(st.integers(0, 6), min_size=1, max_size=6).map(format_monomial),
    st.sampled_from(["1", "x0", "x7", "x1^-1", "x1*x1", "y2", ""]) | _JSON_LEAF,
)


@st.composite
def _stable_ideal(draw):
    n = draw(st.integers(1, 4))
    seeds = draw(
        st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=1, max_size=3)
    )
    return {"n": n, "generators": [format_monomial(g) for g in borel_closure(n, seeds).gens]}


@st.composite
def _well_formed_spec(draw):
    # positions decrease within 1..n-2 and degrees increase from 2
    n = draw(st.integers(3, 6))
    r = draw(st.integers(1, min(3, n - 2)))
    ks = draw(st.lists(st.integers(1, n - 2), min_size=r, max_size=r, unique=True))
    ls = draw(st.lists(st.integers(2, 6), min_size=r, max_size=r, unique=True))
    corners = [
        {"k": k, "l": l, "a": draw(st.integers(1, 3))}
        for k, l in zip(sorted(ks, reverse=True), sorted(ls))
    ]
    return {"n": n, "m": draw(st.integers(1, 3)), "corners": corners}


_IDEAL = _stable_ideal() | st.fixed_dictionaries(
    {"n": _SMALL, "generators": _mostly(st.lists(_MONOMIAL, max_size=4), _JSON)}
)
_MODULE = st.fixed_dictionaries(
    {"n": _SMALL, "components": _mostly(st.lists(_IDEAL, min_size=1, max_size=3), _JSON)},
    optional={"shifts": _mostly(st.lists(_SMALL, max_size=3), _JSON), "m": _SMALL},
)
_SPEC = _well_formed_spec() | st.fixed_dictionaries(
    {
        "n": _SMALL,
        "corners": _mostly(
            st.lists(
                st.fixed_dictionaries({"k": _SMALL, "l": _SMALL, "a": _SMALL}),
                min_size=1,
                max_size=3,
            ),
            _JSON,
        ),
    },
    optional={
        "m": _SMALL,
        "mode": st.sampled_from(["coupled", "strict-paper", "paper"]) | _JSON_LEAF,
    },
)
_ERROR_CLASSES = {
    cls.__name__: cls
    for cls in (*vars(errors).values(), _UsageError)
    if isinstance(cls, type) and issubclass(cls, Exception)
}


def _expected_exit(payload) -> int:
    # _exit_code reads the class and, for InfeasibleSpec, the budget flag
    cls = _ERROR_CLASSES[payload["error"]]
    if cls is InfeasibleSpec:
        exhausted = "budget exhausted" in payload["message"]
        return _exit_code(InfeasibleSpec(payload["message"], exhausted_budget=exhausted))
    return _exit_code(cls.__new__(cls))


@settings(deadline=None, max_examples=400)
@given(command=st.sampled_from(_READERS), data=st.data())
def test_every_reading_command_gives_a_typed_answer(command, data):
    # run never raises; a failure prints nothing on stdout and exactly one
    # JSON object on stderr, and its exit code is the one its class maps to
    shapes = _SPEC if command.startswith("realize") else _IDEAL | _MODULE
    doc = data.draw(_mostly(shapes, _JSON | _IDEAL | _MODULE | _SPEC))
    code, out, err = invoke([command], json.dumps(doc))
    if code == 0:
        assert err == "" and out
        return
    assert out == ""
    assert err.endswith("\n") and err.count("\n") == 1
    payload = json.loads(err)
    assert set(payload) == {"error", "message"}
    assert code == _expected_exit(payload)
