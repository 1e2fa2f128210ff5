"""Size budget of the package source."""

from pathlib import Path

# the ceiling of the project's design aim: the package may get faster and
# better checked, but not larger than this
MAX_SOURCE_LINES = 2720


def test_package_source_within_line_budget():
    sources = sorted((Path(__file__).parents[1] / "src" / "utal").glob("*.py"))
    assert sources
    total = sum(len(path.read_text().splitlines()) for path in sources)
    assert total <= MAX_SOURCE_LINES, f"src/utal/*.py holds {total} lines"
