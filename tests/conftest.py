"""Shared fixtures: the module battery, compiled movie fixtures, the deep chain.

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


@pytest.fixture(scope="session")
def deep_chain():
    """One generator X and 1200 cells of trivial boundary, relation i making
    cell i the image of cell i-1 under X**(i % 2).

    Each relation ends one cell deeper than the last, so a search nests
    once per cell.  The count is |G| * |E| for a module with trivial
    boundary and |G| for an injective one.
    """
    cells = tuple(f"c{i}" for i in range(1200))
    x = FreeWord((("X", 1),))
    return CrossedPresentation(
        ("X",), cells, {c: EMPTY_WORD for c in cells},
        tuple(CrossedWord(((x if i % 2 else EMPTY_WORD, cells[i], 1),
                           (EMPTY_WORD, cells[i - 1], -1)))
              for i in range(1, len(cells))),
    )
