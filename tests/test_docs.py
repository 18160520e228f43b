"""Facts the documentation states that the code can check.

README's "Environment" table lists every ``REPRO_*`` environment
variable; a variable the library reads but the table omits, or one the
table lists but nothing reads any more, fails here.  Every command the
docs and CI quote runs something that exists, and every ``--flag``
quoted after a script is one its parser defines.  Nothing outside
ROADMAP.md and CHANGES.md cites ROADMAP's numbered items.  README's
numpy-engine table is the kernel record rendered, not a transcript.
Every keyword the docs and examples pass to ``ProverConfig(...)`` or
``ServiceConfig(...)`` is a field of that class.  No module of the
library imports or calls ``pickle``: what the artifact cache reads back
from disk goes through a typed codec, never through code.
"""

import ast
import dataclasses
import importlib.util
import json
import re
from pathlib import Path

from repro.config import ProverConfig, ServiceConfig

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


def test_no_pickle_in_the_library():
    """Neither ``import pickle`` / ``from pickle import ...`` nor a use
    of the name ``pickle`` in any module under ``src/``."""
    uses = []
    for path in (ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            elif isinstance(node, ast.Name):
                modules = [node.id]
            else:
                continue
            if any(m.split(".")[0] in ("pickle", "cPickle") for m in modules):
                uses.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert uses == []


def test_readme_engine_table_is_the_kernel_record():
    path = ROOT / "benchmarks" / "bench_kernels.py"
    spec = importlib.util.spec_from_file_location("bench_kernels", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    record = json.loads(
        (ROOT / "benchmarks" / "results" / "kernels.json").read_text()
    )
    table = bench.readme_table(record)
    assert table in (ROOT / "README.md").read_text(), (
        "README's numpy-engine table is not the kernel record; "
        f"replace it with:\n{table}"
    )


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


#: Where commands are quoted: prose whose code spans are read, and the
#: CI workflow whose lines are.
COMMAND_DOCS = ("README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md")
CI_WORKFLOW = ".github/workflows/ci.yml"
#: ``python -m pkg.mod ARGS`` or ``python path/to/script.py ARGS``; the
#: whitespace classes let a command wrap across lines.
COMMAND = re.compile(
    r"python3?\s+(?:-m\s+(?P<module>[\w.]+)|(?P<script>[\w/]+\.py))"
    r"(?P<args>(?:[ \t\n]+[^\s`]+)*)"
)
FLAG = re.compile(r"--[a-z][\w-]*")


def _quoted_commands():
    """(source, code) for every inline code span, fenced-block line and
    workflow line that holds a ``python`` command."""
    units = []
    for name in COMMAND_DOCS:
        text = (ROOT / name).read_text()
        fenced = re.findall(r"```.*?```", text, flags=re.S)
        units += [(name, line) for block in fenced for line in block.splitlines()]
        text = re.sub(r"```.*?```", "", text, flags=re.S)
        units += [(name, span) for span in re.findall(r"`([^`]+)`", text)]
    units += [
        (CI_WORKFLOW, line)
        for line in (ROOT / CI_WORKFLOW).read_text().splitlines()
    ]
    return [
        (source, match)
        for source, unit in units
        for match in COMMAND.finditer(unit)
    ]


def _module_file(module: str) -> Path | None:
    parts = module.split(".")
    for base in (ROOT / "src", ROOT):
        for path in (
            base.joinpath(*parts).with_suffix(".py"),
            base.joinpath(*parts, "__main__.py"),
        ):
            if path.is_file():
                return path
    return None


def test_quoted_commands_exist():
    commands = _quoted_commands()
    assert any(m["module"] == "repro.telemetry.report" for _, m in commands)
    broken = []
    for source, match in commands:
        module, script = match["module"], match["script"]
        if module == "pytest":
            continue
        if module is not None:
            path = _module_file(module)
            runnable = path is not None and (
                path.name == "__main__.py"
                or 'if __name__ == "__main__":' in path.read_text()
            )
            if not runnable:
                broken.append(f"{source}: python -m {module}")
                continue
        else:
            path = ROOT / script
            if not path.is_file():
                broken.append(f"{source}: {script} does not exist")
                continue
        if not path.is_relative_to(ROOT / "benchmarks"):
            continue
        source_text = path.read_text()
        broken += [
            f"{source}: {path.relative_to(ROOT)} defines no {flag}"
            for flag in FLAG.findall(match["args"])
            if f'"{flag}"' not in source_text
        ]
    assert broken == []


#: A config construction, and a keyword argument at its top level.
CONFIG_CALL = re.compile(r"\b(ProverConfig|ServiceConfig)\(")
KEYWORD = re.compile(r"\s*(\w+)\s*=(?!=)")


def _config_keywords():
    """(source, class name, keyword) for every keyword passed to a
    ``ProverConfig(...)`` or ``ServiceConfig(...)`` in README.md,
    DESIGN.md and the examples."""
    paths = [ROOT / "README.md", ROOT / "DESIGN.md"]
    paths += sorted((ROOT / "examples").glob("*.py"))
    found = []
    for path in paths:
        text = path.read_text()
        for call in CONFIG_CALL.finditer(text):
            depth, top, i = 1, [], call.end()
            while depth and i < len(text):
                ch = text[i]
                if ch in "([{":
                    depth += 1
                elif ch in ")]}":
                    depth -= 1
                elif depth == 1:
                    top.append(ch)
                i += 1
            found += [
                (path.name, call[1], keyword[1])
                for argument in "".join(top).split(",")
                if (keyword := KEYWORD.match(argument))
            ]
    return found


def test_config_keywords_in_the_docs_are_fields():
    fields = {
        cls.__name__: {field.name for field in dataclasses.fields(cls)}
        for cls in (ProverConfig, ServiceConfig)
    }
    found = _config_keywords()
    assert ("README.md", "ServiceConfig", "max_retries") in found
    stale = [
        f"{source}: {cls}({keyword}=...)"
        for source, cls, keyword in found
        if keyword not in fields[cls]
    ]
    assert stale == []
