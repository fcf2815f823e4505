"""README's package-layout table says in a few words what each module does;
the mechanics live in the docstrings beside the code."""

import pathlib

import pytest

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

# the rows cut to the budget so far; optim and experiment join when cut
BUDGETED_MODULES = ("nn_core", "model", "data", "codec", "cli")


def layout_rows() -> dict[str, list[str]]:
    """Each module's name -> the words of its row in the package layout."""
    rows = {}
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("| `ftlab."):
            name, text = line.strip("| ").split(" | ", 1)
            rows[name.strip("`").removeprefix("ftlab.")] = text.split()
    return rows


@pytest.mark.parametrize("module", BUDGETED_MODULES)
def test_package_layout_row_is_at_most_80_words(module):
    assert len(layout_rows()[module]) <= 80
