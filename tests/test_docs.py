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
from disk goes through a typed codec, never through code.  The circuit
field has one name, ``SCALAR_FIELD``: no function or object of the
proving stack takes or keeps a field of its own, and ``repro.algebra``
offers no polynomial or element wrapper that nothing calls.  No
polynomial keeps its evaluations on the quotient's whole coset.  Every
module of the library is reached by ``import repro`` but for a named
few; test harnesses live in ``tests/``, and no production signature
carries a fault-injection port for them.  Every ``repro.…`` name the
docs quote resolves, and every ``session.…(`` / ``service.…(`` call
they show is a method.  DESIGN.md's fixed-base table counts (windows
per half, points per base, doubling passes of a build) are the
module's constants.  Every counter or gauge the library names has a
reader: a test, a benchmark or its record, ``BENCHMARK.json``, or
library code.
"""

import ast
import dataclasses
import importlib
import importlib.util
import json
import re
from pathlib import Path

import pytest

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


#: The proving stack: every module here reads the circuit field as
#: ``repro.algebra.field.SCALAR_FIELD``.  (``repro.algebra`` and
#: ``repro.ecc`` take a field or curve argument on purpose: curve
#: arithmetic needs both Pasta fields.)
PROVING_STACK = (
    "transcript.py", "plonkish", "proving", "commit", "db", "system",
    "sql", "gates",
)


def _proving_stack_trees():
    for name in PROVING_STACK:
        root = ROOT / "src" / "repro" / name
        for path in [root] if root.is_file() else sorted(root.rglob("*.py")):
            yield path.relative_to(ROOT), ast.parse(path.read_text(), str(path))


def test_no_field_parameter_in_the_proving_stack():
    """No function of the proving stack takes a ``field`` / ``field_``
    parameter: the circuit field is a constant, not a setting."""
    found = []
    for path, tree in _proving_stack_trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                names = args.posonlyargs + args.args + args.kwonlyargs
                found += [
                    f"{path}:{node.lineno} {arg.arg}"
                    for arg in names
                    if arg.arg in ("field", "field_")
                ]
    assert found == []


def test_no_field_attribute_in_the_proving_stack():
    """No object of the proving stack keeps its own copy of the field:
    no ``self.field = ...`` and no dataclass field named ``field``."""
    found = []
    for path, tree in _proving_stack_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                if node.attr == "field" and getattr(node.value, "id", "") == "self":
                    found.append(f"{path}:{node.lineno} self.field")
            elif isinstance(node, ast.ClassDef):
                found += [
                    f"{path}:{item.lineno} {node.name}.field"
                    for item in node.body
                    if isinstance(item, ast.AnnAssign)
                    and getattr(item.target, "id", "") == "field"
                ]
    assert found == []


def _identifiers(tree: ast.AST):
    """(line, name) for every name a module binds, reads or passes:
    variables, attributes, parameters, keywords, definitions."""
    for node in ast.walk(tree):
        for attr in ("id", "attr", "arg", "name"):
            name = getattr(node, attr, None)
            if isinstance(name, str):
                yield getattr(node, "lineno", 0), name


#: Modules ``import repro`` does not reach, on purpose: each is its own
#: entry point.  A name covers the package and its submodules.
UNREACHED_ON_PURPOSE = {
    "repro.tpch": "the TPC-H data generator, imported by its users",
    "repro.telemetry.report": "the `python -m repro.telemetry.report` CLI",
    "repro.baselines": "the systems the paper compares against (zkSQL, GKR)",
    "repro.bench": "the harness of the figure scripts in benchmarks/",
}


def _library_modules() -> dict[str, Path]:
    """Every module under ``src/repro`` by dotted name."""
    modules = {}
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        parts = path.relative_to(ROOT / "src").with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def _imported_names(path: Path):
    """Every dotted name an import statement anywhere in the module
    (top level, function body, ``if TYPE_CHECKING``) names: the module
    imported and, for ``from M import a``, ``M.a``, which is a module
    when ``a`` is a submodule.  (The library has no relative imports.)"""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def _reached_from_the_package_root() -> set[str]:
    modules = _library_modules()
    reached, todo = set(), ["repro"]
    while todo:
        module = todo.pop()
        if module in reached:
            continue
        reached.add(module)
        for name in _imported_names(modules[module]):
            parts = name.split(".")
            # Importing a.b.c runs a, a.b and a.b.c.
            todo += [
                prefix for i in range(1, len(parts) + 1)
                if (prefix := ".".join(parts[:i])) in modules
            ]
    return reached


def _on_purpose(module: str) -> bool:
    return any(
        module == name or module.startswith(name + ".")
        for name in UNREACHED_ON_PURPOSE
    )


def test_every_library_module_is_reached_by_import_repro():
    """A module nothing imports is dead code or a harness that belongs
    with the tests; the walk follows imports statically from
    ``src/repro/__init__.py``, function-level ones included (such as
    ``repro.telemetry.__getattr__``'s import of ``CircuitReport``)."""
    reached = _reached_from_the_package_root()
    unreached = sorted(set(_library_modules()) - reached)
    assert [m for m in unreached if not _on_purpose(m)] == []
    assert "repro.telemetry.circuit" in reached
    for name in UNREACHED_ON_PURPOSE:
        assert name in unreached, f"{name} is reached: drop it from the list"


#: Parameter names of the fault-injection ports the harnesses in
#: ``tests/soundness.py`` and ``tests/chaos.py`` replaced with seams.
FAULT_PORTS = ("_faults", "chaos")


def test_no_fault_port_in_the_library():
    """The harnesses reach the prover and the service through what the
    honest path already has (a module function called by name, a
    witness-building method, ``ProvingService._spawn_worker``): no
    function takes a fault parameter, the prover state keeps no faults,
    and nothing under ``src/`` imports the tests."""
    from repro.proving.prover import ProverState

    found = []
    for path in (ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                names = args.posonlyargs + args.args + args.kwonlyargs
                found += [
                    f"{path.relative_to(ROOT)}:{node.lineno} {arg.arg}"
                    for arg in names
                    if arg.arg in FAULT_PORTS
                ]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = (
                    [alias.name for alias in node.names]
                    if isinstance(node, ast.Import) else [node.module or ""]
                )
                found += [
                    f"{path.relative_to(ROOT)}:{node.lineno} imports {m}"
                    for m in modules
                    if m.split(".")[0] == "tests"
                ]
    assert found == []
    assert "faults" not in {f.name for f in dataclasses.fields(ProverState)}


#: A dotted name in the library's namespace, not part of a path or of a
#: longer dotted name.
LIBRARY_NAME = re.compile(r"(?<![\w./])repro(?:\.\w+)+")


def _resolves(name: str) -> bool:
    """Whether ``name`` is a module, or an attribute (chain) of the
    longest module it starts with."""
    parts = name.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for attr in parts[i:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_library_names_in_the_docs_resolve():
    """Every ``repro.…`` name in a code span or block of the prose docs
    is a module or an attribute of one, so a moved or deleted module
    cannot stay quoted."""
    found = []
    for name in COMMAND_DOCS:
        text = (ROOT / name).read_text()
        spans = re.findall(r"```.*?```", text, flags=re.S)
        spans += re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", text, flags=re.S))
        found += [
            (name, match) for span in spans for match in LIBRARY_NAME.findall(span)
        ]
    assert ("README.md", "repro.telemetry.report") in found
    assert [f"{source}: {n}" for source, n in found if not _resolves(n)] == []


def test_no_whole_coset_copy_in_the_library():
    """The quotient round evaluates a polynomial one n-point part of its
    coset at a time and drops the part with the round's step; nothing in
    the library keeps a polynomial's evaluations on the whole extended
    coset (the old ``extended_evals`` of every committed polynomial)."""
    found = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in (ROOT / "src" / "repro").rglob("*.py")
        for line, name in _identifiers(ast.parse(path.read_text(), str(path)))
        if name == "extended_evals"
    ]
    assert found == []


def test_algebra_offers_no_polynomial_or_element_wrapper():
    """No ``Polynomial`` or ``Felt``: the library works on raw
    coefficient lists and ints."""
    for module in ("repro.algebra", "repro.algebra.field", "repro.algebra.poly"):
        namespace = vars(importlib.import_module(module))
        assert not {"Polynomial", "Felt"} & set(namespace), module


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


def test_design_quotes_the_fixed_base_layout():
    from repro.ecc import fixed_base

    text = " ".join((ROOT / "DESIGN.md").read_text().split())
    quoted = {
        pattern: set(re.findall(pattern, text))
        for pattern in (
            r"(\d+) windows per half",
            r"(\d+) points per base",
            r"(\d+) `batch_double` passes",
        )
    }
    assert list(quoted.values()) == [
        {str(fixed_base.WINDOWS)},
        {str(2 * fixed_base.WINDOWS)},
        {str(fixed_base.BUILD_PASSES)},
    ]


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


#: ``telemetry.incr`` / ``telemetry.gauge`` and the registry's own
#: ``metrics.incr`` / ``metrics.gauge``.
METRIC_CALLS = {"incr", "gauge"}
METRIC_OWNERS = {"telemetry", "metrics"}


def _metric_names(
    source: Path = ROOT / "src" / "repro",
) -> tuple[dict[str, str], set[str]]:
    """The literal names ``source`` passes to a counter or gauge call
    (name -> first call site), and every other string constant there,
    which is where library code reads a name back."""
    emitted: dict[str, str] = {}
    constants: set[str] = set()
    for path in sorted(source.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        names = set()
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in METRIC_CALLS
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                continue
            owner = node.func.value
            if getattr(owner, "id", getattr(owner, "attr", None)) in METRIC_OWNERS:
                names.add(id(node.args[0]))
                site = f"{path.relative_to(source.parent.parent)}:{node.lineno}"
                emitted.setdefault(node.args[0].value, site)
        constants |= {
            node.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in names
        }
    return emitted, constants


def _metric_reader_text() -> str:
    paths = [ROOT / "BENCHMARK.json"]
    paths += sorted((ROOT / "tests").rglob("*.py"))
    for pattern in ("*.py", "*.json"):
        paths += sorted((ROOT / "benchmarks").rglob(pattern))
    return "\n".join(path.read_text() for path in paths)


def _unread(emitted: dict[str, str], constants: set[str], readers: str):
    return [
        f"{site}: {name}"
        for name, site in sorted(emitted.items())
        if name not in constants
        and f'"{name}"' not in readers
        and f"'{name}'" not in readers
    ]


def test_every_metric_name_has_a_reader():
    emitted, constants = _metric_names()
    assert "msm.calls" in emitted
    assert _unread(emitted, constants, _metric_reader_text()) == []


def test_metric_guard_sees_literal_counter_and_gauge_calls(tmp_path):
    """The guard collects the first argument of ``telemetry.`` /
    ``metrics.`` ``incr`` and ``gauge`` when it is a literal, and
    nothing else."""
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "def work(name, registry):\n"
        "    telemetry.incr('x.calls')\n"
        "    self.metrics.gauge('x.depth', 3)\n"
        "    telemetry.incr(name)\n"
        "    registry.incr('y.other_owner')\n"
        "    telemetry.span('x.span')\n"
        "    telemetry.incr('x.calls', 2)\n"
    )
    emitted, constants = _metric_names(package)
    assert emitted == {
        "x.calls": "src/pkg/mod.py:2",
        "x.depth": "src/pkg/mod.py:3",
    }
    assert {"y.other_owner", "x.span"} <= constants
    assert "x.calls" not in constants


def test_metric_guard_flags_a_name_nobody_reads(tmp_path):
    """A name is read when a reader file quotes it or another string
    constant of the library spells it; one that neither does is
    reported with its call site."""
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "READ_BACK = 'x.read_back'\n"
        "def work():\n"
        "    telemetry.incr('x.read_back')\n"
        "    telemetry.incr('x.quoted')\n"
        "    telemetry.incr('x.unread')\n"
    )
    emitted, constants = _metric_names(package)
    readers = 'assert counters["x.quoted"] == 1\n'
    assert _unread(emitted, constants, readers) == [
        "src/pkg/mod.py:5: x.unread"
    ]


#: Receivers the docs' examples call methods on, and the class each is.
DOC_RECEIVERS = {
    "session": "repro.api.Session",
    "service": "repro.service.ProvingService",
}


@pytest.mark.parametrize("receiver", sorted(DOC_RECEIVERS))
def test_methods_the_docs_call_exist(receiver):
    """Every ``session.name(`` / ``service.name(`` the prose docs quote
    is a method of the class, so a deleted method cannot stay in an
    example."""
    module, _, cls = DOC_RECEIVERS[receiver].rpartition(".")
    target = getattr(importlib.import_module(module), cls)
    called = {
        (name, method)
        for name in COMMAND_DOCS
        for method in re.findall(
            rf"\b{receiver}\.([a-z_]+)\(", (ROOT / name).read_text()
        )
    }
    assert called
    missing = [
        f"{name}: {receiver}.{method}()"
        for name, method in sorted(called)
        if not callable(getattr(target, method, None))
    ]
    assert missing == []
