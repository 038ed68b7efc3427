"""Fixtures shared by the test modules."""

import os
from pathlib import Path

import pytest

import octamoment


@pytest.fixture(scope="session")
def child_env():
    """The environment for a child ``python`` process: this one's, with
    ``PYTHONPATH`` led by the directory this run imports ``octamoment``
    from, so that the child runs the tree under test and not whatever
    ``octamoment`` its environment would otherwise provide."""
    tree = str(Path(octamoment.__file__).resolve().parent.parent)
    rest = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": tree + (os.pathsep + rest if rest else "")}
