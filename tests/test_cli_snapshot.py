"""Byte snapshot of the CLI on the bundled fixtures and spec documents.

c10 checks that repeated runs agree with each other; this file pins the
bytes themselves. For every case it holds the exit code, the sha256 of
stdout and the verbatim stderr (a JSON error object, or empty), recorded
from the code before the corner windows were shared between bounds,
verdicts, chain and search; the last seven cases (a zero component for
check-stable, six mistyped JSON fields) were added when those inputs
stopped crashing or being coerced, and the five malformed "corners"
containers after them when those got fixed messages, and the last case
(oracle-betti with the removed --degree-cap flag) when the flag went.
The case census_max_gens (a cap of 0, which used to print nothing and exit
0) was added when census started refusing caps below 1.
The cases "realize-module m990" (989 filler columns), deep_search (400
full columns) and deep_json (nesting past the parser) were added when
those three stopped ending in a RecursionError traceback. deep_search was
then refused as a search nested too deeply; it was re-recorded as a
realization when the search came to walk its columns on an explicit
stack, and keeps its "bad" name so the case list stays the same.
Any change to what a subcommand prints shows up here as a digest
mismatch.
"""

import hashlib
import io
import json

import pytest

from conftest import BUNDLE3_GENS, BUNDLE4_GENS, CHAIN_LARGE_GENS, CHAIN_SMALL_GENS
from stablebetti import MonomialIdeal, MonomialSubmodule
from stablebetti.cli import run


def _module_doc(gens):
    module = MonomialSubmodule(
        6, tuple(MonomialIdeal.from_strings(6, gens[h]) for h in sorted(gens))
    )
    return json.dumps(module.to_obj())


DOCUMENTS = {
    "chain_small": json.dumps({"n": 8, "generators": CHAIN_SMALL_GENS}),
    "chain_large": json.dumps({"n": 8, "generators": CHAIN_LARGE_GENS}),
    "bundle4": _module_doc(BUNDLE4_GENS),
    "bundle3": _module_doc(BUNDLE3_GENS),
}

SPEC_DOCS = {
    "three_corners": json.dumps(
        {
            "n": 6,
            "corners": [
                {"k": 5, "l": 2, "a": 1},
                {"k": 3, "l": 3, "a": 3},
                {"k": 2, "l": 5, "a": 1},
            ],
        }
    ),
    "two_corners": json.dumps(
        {"n": 6, "corners": [{"k": 5, "l": 2, "a": 2}, {"k": 2, "l": 5, "a": 1}]}
    ),
    "coupled_only": json.dumps(
        {"n": 6, "corners": [{"k": 3, "l": 3, "a": 4}, {"k": 2, "l": 5, "a": 2}]}
    ),
}

MODULE_SPEC_DOCS = {
    "three_corners_m2": json.dumps(
        {
            "n": 6,
            "m": 2,
            "corners": [
                {"k": 5, "l": 2, "a": 1},
                {"k": 3, "l": 3, "a": 3},
                {"k": 2, "l": 5, "a": 1},
            ],
        }
    ),
    "single_corner_m2": json.dumps(
        {"n": 4, "m": 2, "corners": [{"k": 2, "l": 2, "a": 6}]}
    ),
}

BAD_INPUTS = {
    "garbage_json": (["betti"], "not json at all"),
    "unstable": (["betti"], json.dumps({"n": 3, "generators": ["x2^2"]})),
    "no_command": ([], ""),
    "unknown_command": (["frobnicate"], ""),
    "uncovered": (
        ["realize-ideal"],
        json.dumps({"n": 3, "corners": [{"k": 1, "l": 2, "a": 1}]}),
    ),
    "unordered_positions": (
        ["realize-ideal"],
        json.dumps(
            {"n": 6, "corners": [{"k": 2, "l": 2, "a": 1}, {"k": 3, "l": 3, "a": 1}]}
        ),
    ),
    "over_cap": (
        ["realize-ideal"],
        json.dumps({"n": 6, "corners": [{"k": 3, "l": 3, "a": 99}]}),
    ),
    "missing_corners": (["realize-ideal"], json.dumps({"n": 6})),
    "module_needs_m": (["realize-module"], SPEC_DOCS["three_corners"]),
    "module_over_cap": (
        ["realize-module"],
        json.dumps({"n": 4, "m": 2, "corners": [{"k": 2, "l": 2, "a": 7}]}),
    ),
    "module_one_column": (
        ["realize-module", "--m", "1"],
        MODULE_SPEC_DOCS["single_corner_m2"],
    ),
    "census_guard": (["census", "-n", "6", "-d", "7"], ""),
    "float_shift": (
        ["betti"],
        json.dumps(
            {"n": 2, "shifts": [0.5], "components": [{"n": 2, "generators": ["x1"]}]}
        ),
    ),
    "components_not_a_list": (["betti"], json.dumps({"n": 2, "components": 5})),
    "string_m": (
        ["realize-module"],
        json.dumps({"n": 4, "m": "2", "corners": [{"k": 2, "l": 2, "a": 6}]}),
    ),
    "bool_n": (["betti"], json.dumps({"n": True, "generators": ["x1"]})),
    "float_value": (
        ["realize-ideal"],
        json.dumps({"n": 6, "corners": [{"k": 3, "l": 3, "a": 1.9}]}),
    ),
    "bool_value": (
        ["realize-ideal"],
        json.dumps({"n": 6, "corners": [{"k": 3, "l": 3, "a": True}]}),
    ),
    # malformed "corners" containers: a fixed message, never Python's text
    "corners_object": (["realize-ideal"], json.dumps({"n": 4, "corners": {"k": 3}})),
    "corners_int_list": (["realize-ideal"], json.dumps({"n": 4, "corners": [3]})),
    "corners_string": (["realize-ideal"], json.dumps({"n": 4, "corners": "ab"})),
    "corners_null": (["realize-ideal"], json.dumps({"n": 4, "corners": None})),
    "corner_without_a": (
        ["realize-ideal"],
        json.dumps({"n": 4, "corners": [{"k": 3, "l": 2}]}),
    ),
    # oracle-betti takes no degree cap: the flag is a usage error
    "degree_cap": (["oracle-betti", "--degree-cap", "4"], DOCUMENTS["chain_small"]),
    # a generator cap below 1 is refused, not answered with an empty census
    "census_max_gens": (["census", "-n", "2", "-d", "2", "--max-gens", "0"], ""),
    # 400 full columns, a search once refused as too deep to recurse
    "deep_search": (
        ["realize-module"],
        json.dumps({"n": 4, "m": 400, "corners": [{"k": 2, "l": 2, "a": 1200}]}),
    ),
    # nesting past the parser is malformed JSON
    "deep_json": (["betti"], "[" * 100_000),
}


def _cases():
    cases = {}
    for name, doc in DOCUMENTS.items():
        for command in ("betti", "corners", "check-stable", "diagram", "oracle-betti"):
            cases[f"{command} {name}"] = ([command], doc)
    for name, doc in SPEC_DOCS.items():
        cases[f"realize-ideal {name}"] = (["realize-ideal"], doc)
        cases[f"realize-ideal strict {name}"] = (
            ["realize-ideal", "--mode", "strict-paper"],
            doc,
        )
    for name, doc in MODULE_SPEC_DOCS.items():
        cases[f"realize-module {name}"] = (["realize-module"], doc)
        cases[f"realize-module strict {name}"] = (
            ["realize-module", "--mode", "strict-paper"],
            doc,
        )
        cases[f"realize-module m3 {name}"] = (["realize-module", "--m", "3"], doc)
    cases["census n2 d2"] = (["census", "-n", "2", "-d", "2"], "")
    cases["census n3 d3"] = (["census", "-n", "3", "-d", "3"], "")
    cases["check-stable zero_component"] = (
        ["check-stable"],
        json.dumps({"n": 2, "generators": []}),
    )
    for name, case in BAD_INPUTS.items():
        cases[f"bad {name}"] = case
    cases["realize-module m990"] = (
        ["realize-module"],
        json.dumps({"n": 4, "m": 990, "corners": [{"k": 2, "l": 2, "a": 1}]}),
    )
    return cases


CASES = _cases()


def _snapshot(argv, stdin_text):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err, stdin=io.StringIO(stdin_text))
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(), err.getvalue()


# name: (exit code, sha256 of stdout, stderr)
EXPECTED = {
    'bad census_guard': (
        1,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '{"error": "BudgetExceeded", "message": "census guard rails allow n <= 5 and max_degree <= 6, got n=6, max_degree=7; pass allow_large=True to lift"}\n',
    ),
    'bad garbage_json': (
        1,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '{"error": "JSONDecodeError", "message": "Expecting value: line 1 column 1 (char 0)"}\n',
    ),
    'bad missing_corners': (
        1,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '{"error": "SpecError", "message": "spec document needs keys \\"n\\" and \\"corners\\""}\n',
    ),
    'bad module_needs_m': (
        1,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '{"error": "_UsageError", "message": "realize-module needs a component count: pass --m or an \\"m\\" key"}\n',
    ),
    'bad module_one_column': (
        2,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '{"error": "InfeasibleSpec", "message": "no corner matrix exists for this spec; tightest row is corner 1 (k=2, l=2): value 6 against per-column cap 3"}\n',
    ),
    'bad module_over_cap': (
        2,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '{"error": "InfeasibleSpec", "message": "corner (k=2, l=2) requests 7, above the 2-component cap 6"}\n',
    ),
    'bad no_command': (
        1,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '{"error": "_UsageError", "message": "stablebetti: a COMMAND is required (see --help)"}\n',
    ),
    'bad over_cap': (
        2,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '{"error": "InfeasibleSpec", "message": "corner 1 requests 99 but the coupled cap is 10"}\n',
    ),
    'bad uncovered': (
        3,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '{"error": "UncoveredByCharacterization", "message": "first corner degree 2 with final homological position 1 is outside the decided cases"}\n',
    ),
    'bad unknown_command': (
        1,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '{"error": "_UsageError", "message": "stablebetti: argument COMMAND: invalid choice: \'frobnicate\' (choose from \'betti\', \'corners\', \'check-stable\', \'diagram\', \'oracle-betti\', \'realize-ideal\', \'realize-module\', \'census\')"}\n',
    ),
    'bad unordered_positions': (
        1,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '{"error": "SpecError", "message": "homological positions must strictly decrease: [2, 3]"}\n',
    ),
    'bad unstable': (
        2,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '{"error": "NotStable", "message": "component 1 is not stable: generator x2^2 fails the exchange (i=2, j=1) -> x1*x2"}\n',
    ),
    'betti bundle3': (
        0,
        '3d1c03855aae54590ad2352599ffd5dedd6c4ab09f3af3c431700889880a4fc4',
        '',
    ),
    'betti bundle4': (
        0,
        '5ad75924df5a26013758abe93213e41ee1ab23100d79a9773a7450c7fc0fc0bc',
        '',
    ),
    'betti chain_large': (
        0,
        '46b1be756beda0bd60863820bcb9242c20931c35f20d89a52a96e3cdab42a6ac',
        '',
    ),
    'betti chain_small': (
        0,
        'a8661c8fbace2e988c0b3bb22fa54e9280805f398410ba09a8e92ff70a80ba18',
        '',
    ),
    'census n2 d2': (
        0,
        '716e4da9961a7f8929fce2ca4e4ecd642741d0c8abdf6441f2483efe333118c7',
        '',
    ),
    'census n3 d3': (
        0,
        '39f61d67545b2b2c029ad030904647dc299a54c1bd55ec7a16b11b71772e4e9a',
        '',
    ),
    'check-stable bundle3': (
        0,
        '677a847cae918dd8ce30743f4120ea68b51a3c530071c047aaf47dda161acb58',
        '',
    ),
    'check-stable bundle4': (
        0,
        '677a847cae918dd8ce30743f4120ea68b51a3c530071c047aaf47dda161acb58',
        '',
    ),
    'check-stable chain_large': (
        0,
        '677a847cae918dd8ce30743f4120ea68b51a3c530071c047aaf47dda161acb58',
        '',
    ),
    'check-stable chain_small': (
        0,
        '677a847cae918dd8ce30743f4120ea68b51a3c530071c047aaf47dda161acb58',
        '',
    ),
    'corners bundle3': (
        0,
        '7133683f7716659a158f56f64078be476265c0ad30434485b23a81949e208f9c',
        '',
    ),
    'corners bundle4': (
        0,
        'f07e8ea0edffcaf0d667d2b72666befc776ec5bbfe42d7a79c870071212525f2',
        '',
    ),
    'corners chain_large': (
        0,
        'd3e9c98d88a07f32866ac9529c414e42a18066f50a899cfd853631252ab96d41',
        '',
    ),
    'corners chain_small': (
        0,
        '907c728a45368aa4cb0a98621780bbd7ef039ceb6232fe46ed4f6ef4ce98f68a',
        '',
    ),
    'diagram bundle3': (
        0,
        '82d046fb3be3da36eb8cb22db2ccc53fdcda4a0017322ce0879c627f669aceae',
        '',
    ),
    'diagram bundle4': (
        0,
        'ef3f5f32b4718d7eee34a311deac0f03f47a262730dbc4178d2ec3832960778d',
        '',
    ),
    'diagram chain_large': (
        0,
        'bccfd5b8e0f343bb8894fe215e7510470230801b852a18548b0836a37004d554',
        '',
    ),
    'diagram chain_small': (
        0,
        '80560904aef69c32d662a0defdd4280a5f266d2656f4c027cad25a380dabac76',
        '',
    ),
    'oracle-betti bundle3': (
        0,
        'ff5e594390e6b3f2793f954c131410a58a502cce1b0d6b4326e7bbc71b9fb069',
        '',
    ),
    'oracle-betti bundle4': (
        0,
        'ad4abb08c2d1896d2101b672d5279f6154f9552315c22529654a1e450735081f',
        '',
    ),
    'oracle-betti chain_large': (
        0,
        'c50d09bd7d1567cb02d9d2a3adca7c3bba4e50ae39bc4e2ad245e0d8b9d7be11',
        '',
    ),
    'oracle-betti chain_small': (
        0,
        '41582ff1171ccf2d27c8de11f7a80808c1057b2aeb05bb69a01a6a17151912a8',
        '',
    ),
    'realize-ideal coupled_only': (
        0,
        '09f72c84ddc825c36ee5b6d0d1b0fdc1cdce11a226343be3bbe33d225fe21a26',
        '',
    ),
    'realize-ideal strict coupled_only': (
        2,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '{"error": "InfeasibleSpec", "message": "corner 2 requests 2 but the strict-paper cap is 1"}\n',
    ),
    'realize-ideal strict three_corners': (
        0,
        '4249f071eb0665beaf636181ff3e7d9b7a97b78a6a91ab611c40f60c93611604',
        '',
    ),
    'realize-ideal strict two_corners': (
        0,
        '9bfe80d2db4f350ae4deb66bd8069d14855461284abfeb29a58f482f7801b813',
        '',
    ),
    'realize-ideal three_corners': (
        0,
        'b20e08642611c224c6e74d4fadf47e0e0c96bb3b92ff235dd13f3e57e0eb41f3',
        '',
    ),
    'realize-ideal two_corners': (
        0,
        '46245c1870d1cc12ab8236772f834df8a7312235addf339b658287a03902a85f',
        '',
    ),
    'realize-module m3 single_corner_m2': (
        0,
        'ba873d390cb1a1b4c61fed8e3c23f517d869467cb5a902e37f9cb5f8a11f573a',
        '',
    ),
    'realize-module m3 three_corners_m2': (
        0,
        '44cdb1bc48b342ccee1699388033e051dff6898218c7e1e087d9592022082ae9',
        '',
    ),
    'realize-module single_corner_m2': (
        0,
        '60e132cef266aca39d9cdb2c894637f17eed680dcb31c300b8c5e65a1fc6bd5d',
        '',
    ),
    'realize-module strict single_corner_m2': (
        0,
        '71ca83dbf2f025bd8f857a124d60d98bb1b724e5624c0989f1c833e2b908b9fa',
        '',
    ),
    'realize-module strict three_corners_m2': (
        0,
        '6224ca9cc25d2368400128c5437a780d59ee3c6f46be9cd55b6555b1e82471dd',
        '',
    ),
    'realize-module three_corners_m2': (
        0,
        '92c8f4fb827b565881386980ba6e8b4d48aafb4b261de8c42ede94ace06e98e5',
        '',
    ),
    # recorded from the code that stopped these inputs from crashing or
    # being coerced (the old code printed a traceback or took them)
    'bad bool_n': (
        1,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '{"error": "MonomialSyntaxError", "message": "\\"n\\" must be a positive integer, got True"}\n',
    ),
    'bad bool_value': (
        1,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '{"error": "SpecError", "message": "corner \\"a\\" must be an integer, got True"}\n',
    ),
    'bad components_not_a_list': (
        1,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '{"error": "MonomialSyntaxError", "message": "\\"components\\" must be a list of ideal documents"}\n',
    ),
    'bad float_shift': (
        1,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '{"error": "MonomialSyntaxError", "message": "a shift must be an integer, got 0.5"}\n',
    ),
    'bad float_value': (
        1,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '{"error": "SpecError", "message": "corner \\"a\\" must be an integer, got 1.9"}\n',
    ),
    'bad string_m': (
        1,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '{"error": "SpecError", "message": "m must be an integer, got \'2\'"}\n',
    ),
    'check-stable zero_component': (
        0,
        '928f4c8555417e18b30bc04a1d4e6c46c412915e697a35a7c76b04c8e786cb52',
        '',
    ),
    # recorded when malformed corner containers got fixed messages
    'bad corners_object': (
        1,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '{"error": "SpecError", "message": "\\"corners\\" must be a list of corner objects"}\n',
    ),
    'bad corners_int_list': (
        1,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '{"error": "SpecError", "message": "\\"corners\\" must be a list of corner objects"}\n',
    ),
    'bad corners_string': (
        1,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '{"error": "SpecError", "message": "\\"corners\\" must be a list of corner objects"}\n',
    ),
    'bad corners_null': (
        1,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '{"error": "SpecError", "message": "\\"corners\\" must be a list of corner objects"}\n',
    ),
    'bad corner_without_a': (
        1,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '{"error": "SpecError", "message": "every corner needs keys \\"k\\", \\"l\\" and \\"a\\""}\n',
    ),
    # recorded when oracle-betti lost its degree cap
    'bad degree_cap': (
        1,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '{"error": "_UsageError", "message": "stablebetti: unrecognized arguments: --degree-cap 4"}\n',
    ),
    # recorded when census started refusing a generator cap below 1
    'bad census_max_gens': (
        1,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '{"error": "BadRange", "message": "need max_gens >= 1, got 0"}\n',
    ),
    # recorded when deep searches and deep documents stopped raising
    # RecursionError; the m990 stdout equals what the fully recursive
    # search printed when given a stack deep enough to finish
    'realize-module m990': (
        0,
        '957a0891e96567beb7269f5a022948361f8e2846660444268bdcea531c32bf1f',
        '',
    ),
    # re-recorded when the search stopped nesting once per column: the
    # spec it used to refuse as nested too deeply realizes, all 3s
    'bad deep_search': (
        0,
        '4fab5f6e67f0e8a7969b8260ca60de2636f9d8a0b374d05bdf2eedb43db2bffc',
        '',
    ),
    'bad deep_json': (
        1,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '{"error": "JSONDecodeError", "message": "document nested too deeply: line 1 column 1 (char 0)"}\n',
    ),
}


def test_snapshot_covers_every_case():
    assert sorted(EXPECTED) == sorted(CASES)
    commands = {argv[0] for argv, _doc in CASES.values() if argv}
    assert commands >= {
        "betti",
        "corners",
        "check-stable",
        "diagram",
        "oracle-betti",
        "realize-ideal",
        "realize-module",
        "census",
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_bytes_match_snapshot(name):
    argv, stdin_text = CASES[name]
    assert _snapshot(argv, stdin_text) == EXPECTED[name]
