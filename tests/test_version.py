"""The package version has one copy, diampart.__version__, which
pyproject.toml reads as setuptools' dynamic version."""

import os

import pytest

PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "pyproject.toml")


def test_version_is_read_from_the_package():
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        config = tomllib.load(fh)
    assert "version" in config["project"]["dynamic"]
    assert "version" not in config["project"]
    assert config["tool"]["setuptools"]["dynamic"]["version"]["attr"] == "diampart.__version__"
