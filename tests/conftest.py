"""Shared fixtures: the bundled reference ideals and modules, and the
helpers that build ideals and corner specs from short literals.

Two families: chain ideals (one generator per corner value, first corner
in degree 2) and two module bundles whose corner matrices and component
ownership facts are known exactly.
"""

import sys

import pytest

from stablebetti import Corner, CornerSpec, MonomialIdeal, MonomialSubmodule


def ideal(n, gens):
    return MonomialIdeal.from_strings(n, gens)


def spec(n, pairs, values):
    return CornerSpec(n, tuple(Corner(k, l) for k, l in pairs), tuple(values))


CHAIN_SMALL_GENS = [
    "x1^2", "x1*x2", "x1*x3", "x1*x4", "x1*x5", "x1*x6", "x1*x7", "x1*x8",
    "x2^4", "x2^3*x3", "x2^3*x4", "x2^3*x5", "x2^3*x6",
    "x2^2*x3^4", "x2^2*x3^3*x4", "x2*x3^8",
]
CHAIN_SMALL_CORNERS = [(7, 2), (5, 4), (3, 6), (2, 9)]

CHAIN_LARGE_GENS = [
    "x1^2", "x1*x2", "x1*x3", "x1*x4", "x1*x5", "x1*x6", "x1*x7", "x1*x8",
    "x2^4", "x2^3*x3", "x2^3*x4", "x2^3*x5", "x2^3*x6", "x2^3*x7",
    "x2^2*x3^3", "x2^2*x3^2*x4", "x2^2*x3^2*x5", "x2^2*x3^2*x6",
    "x2^2*x3*x4^4", "x2^2*x3*x4^3*x5", "x2^2*x4^7", "x2*x3^9",
]
CHAIN_LARGE_CORNERS = [(7, 2), (6, 4), (5, 5), (4, 7), (3, 9), (2, 10)]

BUNDLE4_GENS = {
    1: [
        "x1^2", "x1*x2", "x1*x3", "x1*x4", "x1*x5", "x1*x6",
        "x2^3", "x2^2*x3", "x2^2*x4", "x2*x3^4",
    ],
    2: ["x1^2", "x1*x2", "x1*x3"],
    3: ["x1^3", "x1^2*x2", "x1^2*x3", "x1^2*x4"],
    4: [
        "x1^2", "x1*x2", "x1*x3", "x1*x4", "x1*x5",
        "x2^3", "x2^2*x3", "x2^2*x4", "x2*x3^2", "x2*x3*x4", "x2*x4^2",
    ],
}

BUNDLE3_GENS = {
    1: [
        "x1^2", "x1*x2", "x1*x3", "x1*x4", "x1*x5", "x1*x6",
        "x2^3", "x2^2*x3", "x2^2*x4", "x2*x3^2", "x2*x3*x4", "x2*x4^2",
        "x3^5",
    ],
    2: [
        "x1^3", "x1^2*x2", "x1^2*x3", "x1^2*x4",
        "x1*x2^2", "x1*x2*x3", "x1*x2*x4", "x1*x3^2", "x1*x3*x4", "x1*x4^2",
        "x2^5", "x2^4*x3", "x2^3*x3^2",
    ],
    3: [
        "x1^2", "x1*x2", "x1*x3", "x1*x4", "x1*x5", "x1*x6",
        "x2^2", "x2*x3", "x2*x4", "x2*x5", "x2*x6",
        "x3^5",
    ],
}


def patch_everywhere(monkeypatch, original, replacement):
    """Swap a package function for another in every stablebetti module
    that holds it, the package namespace included."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "stablebetti":
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, key, replacement)


@pytest.fixture(scope="session")
def chain_small():
    return ideal(8, CHAIN_SMALL_GENS)


@pytest.fixture(scope="session")
def chain_large():
    return ideal(8, CHAIN_LARGE_GENS)


@pytest.fixture(scope="session")
def bundle4_ideals():
    return {h: ideal(6, gens) for h, gens in BUNDLE4_GENS.items()}


@pytest.fixture(scope="session")
def bundle4(bundle4_ideals):
    return MonomialSubmodule(6, tuple(bundle4_ideals[h] for h in (1, 2, 3, 4)))


@pytest.fixture(scope="session")
def bundle3_ideals():
    return {h: ideal(6, gens) for h, gens in BUNDLE3_GENS.items()}


@pytest.fixture(scope="session")
def bundle3(bundle3_ideals):
    return MonomialSubmodule(6, tuple(bundle3_ideals[h] for h in (1, 2, 3)))
