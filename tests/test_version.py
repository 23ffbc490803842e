"""The package version has one value: pyproject.toml's."""

import os
import re

import diampart

PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "pyproject.toml")


def test_version_matches_pyproject():
    with open(PYPROJECT) as fh:
        text = fh.read()
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    declared = re.search(r'^version\s*=\s*"([^"]+)"', project, re.MULTILINE).group(1)
    assert diampart.__version__ == declared
