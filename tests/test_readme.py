"""The library-tour example of ``README.md`` runs as written."""

import doctest
import pathlib

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_example_runs():
    result = doctest.testfile(str(README), module_relative=False, verbose=False)
    assert result.failed == 0 and result.attempted >= 6
