"""Shared fixtures: the module battery, compiled movie fixtures, the chains.

``scripts/`` is put on the import path so that tests can import the scripts
as modules.
"""
from __future__ import annotations

import sys
from pathlib import Path

import pytest

from xmod.battery import standard_battery
from xmod.fixtures import FIXTURE_NAMES, load_fixture
from xmod.movies import compile_movie
from xmod.presentations import CrossedPresentation, CrossedWord
from xmod.words import EMPTY_WORD, FreeWord

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))


@pytest.fixture(scope="session")
def battery():
    return standard_battery()


@pytest.fixture(scope="session")
def battery_by_name(battery):
    return dict(battery)


@pytest.fixture(scope="session")
def compiled_fixtures():
    return {name: compile_movie(load_fixture(name)) for name in FIXTURE_NAMES}


def chain(n_cells: int, padded: bool = False) -> CrossedPresentation:
    """One generator X and ``n_cells`` cells of trivial boundary, relation i
    making cell i the image of cell i-1 under X**(i % 2).

    The count is |G| * |E| for a module with trivial boundary and |G| for
    an injective one.  Each cell other than the ends is in two terms, so the
    chain cancels from an end down to one cell and no relation.  Padded,
    relation i also carries (1 ; c_i ; +) (1 ; c_i ; -) and the same pair for
    c_{i-1}: every cell is then in at least three terms, nothing cancels,
    the count is the same, and each relation ends one cell deeper than the
    last, so an engine that recursed per cell would nest 1200 deep.
    """
    cells = tuple(f"c{i}" for i in range(n_cells))
    x = FreeWord((("X", 1),))
    relations = []
    for i in range(1, n_cells):
        terms = ((x if i % 2 else EMPTY_WORD, cells[i], 1), (EMPTY_WORD, cells[i - 1], -1))
        if padded:
            terms += tuple((EMPTY_WORD, cells[j], sign)
                           for j in (i, i - 1) for sign in (1, -1))
        relations.append(CrossedWord(terms))
    return CrossedPresentation(("X",), cells, {c: EMPTY_WORD for c in cells},
                               tuple(relations))


@pytest.fixture(scope="session")
def deep_chain():
    """The 1200-cell chain, which cancels to one cell."""
    return chain(1200)


@pytest.fixture(scope="session")
def padded_chain():
    """The padded 1200-cell chain, which nothing cancels."""
    return chain(1200, padded=True)
