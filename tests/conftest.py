"""Shared fixtures: the module battery and compiled movie fixtures.

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
