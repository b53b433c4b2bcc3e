import functools
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

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
from stablebetti.cli import _exit_code, run

STABLE3 = json.dumps({"n": 3, "generators": ["x1^2", "x1*x2", "x1*x3"]})
UNSTABLE = json.dumps({"n": 3, "generators": ["x2^2"]})
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
    assert invoke(["--help"])[0] == 0
    capsys.readouterr()  # argparse prints help to the real stdout


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


def test_exit_code_mapping():
    assert _exit_code(VerificationFailed("x")) == 4
    assert _exit_code(UncoveredByCharacterization("x")) == 3
    assert _exit_code(NotStable("x", 1)) == 2
    assert _exit_code(InfeasibleSpec("x")) == 2
    assert _exit_code(InfeasibleSpec("x", exhausted_budget=True)) == 1
    assert _exit_code(SpecError("x")) == 1


_JSON_LEAF = (
    st.none()
    | st.booleans()
    | st.integers(-8, 8)
    | st.just(1.5)
    | st.sampled_from(["", "k", "ab"])
)
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
