"""Facts the documentation states that the code can check.

README's "Environment" table lists every ``REPRO_*`` environment
variable; a variable the library reads but the table omits, or one the
table lists but nothing reads any more, fails here.  Nothing outside
ROADMAP.md and CHANGES.md cites ROADMAP's numbered items.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV_NAME = re.compile(r"REPRO_[A-Z0-9_]+")


def _names_read_by_the_library() -> set[str]:
    """Every string constant under ``src/repro`` that is exactly a
    ``REPRO_*`` name: the keys the code looks up in ``os.environ``
    (docstrings that merely mention one are longer strings)."""
    names = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and ENV_NAME.fullmatch(node.value)
            ):
                names.add(node.value)
    return names


def _names_in_the_readme_table() -> set[str]:
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Environment\n", 1)[1].split("\n## ", 1)[0]
    return {
        ENV_NAME.search(line).group(0)
        for line in section.splitlines()
        if line.startswith("| `REPRO_")
    }


def test_readme_environment_table_matches_the_code():
    documented = _names_in_the_readme_table()
    assert documented == _names_read_by_the_library()
    assert "REPRO_TELEMETRY" in documented


#: A pointer into ROADMAP's numbered list goes stale when the list is
#: renumbered; the code and its documentation describe things instead.
#: (A pattern, so this file does not match itself; it also catches the
#: phrase wrapped across two lines.)
ROADMAP_ITEM = re.compile(rb"ROADMAP\s+item")


def test_no_roadmap_item_cross_references():
    paths = [ROOT / "README.md", ROOT / "DESIGN.md"]
    for tree in ("src", "tests"):
        paths += [
            path
            for path in (ROOT / tree).rglob("*")
            if path.is_file() and "__pycache__" not in path.parts
        ]
    stale = [
        str(path.relative_to(ROOT))
        for path in paths
        if ROADMAP_ITEM.search(path.read_bytes())
    ]
    assert stale == []
