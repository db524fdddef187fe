"""Scope guard: every ``src/repro`` module and definition must be
reached by a result.

A module belongs in the package only if a result reaches it: a
registered ``repro run`` experiment (``repro.cli`` and
``repro.experiments.registry``), the ``repro fleet`` command, a detector
plugin registered by :mod:`repro.detectors`, or a ``benchmarks/``
reproduction (``bench_*.py`` and the ``pipeline/`` benchmark).  Code
that only tests, examples or package re-exports import belongs under
``tests/`` or nowhere.

The walk is static (:mod:`ast`).  ``from repro.x import name`` is
resolved through package re-exports to the module that defines
``name``, so a package ``__init__`` that re-exports a module does not by
itself keep that module alive; an ``__init__`` reaches only what its
own code uses.

The same rule holds one level down: every top-level function and class,
and every method, of a reached module must be read by root code (the
benchmark files and the Python of the CI workflows), by code a reached
module runs at import, or by the body of another reached definition.
A definition under a decorator that registers it (``register_detector``)
counts as reached, and so do the dunder methods of a reached class;
Python's own wrappers (``property``, ``classmethod``, ``dataclass`` and
the like, :data:`WRAPPERS`) only reshape a definition, so it still has
to be read by name.  Names are matched
bare, so a common name can keep a dead definition alive; it can never
flag a live one.  Top-level imports that a module never reads fail too,
in ``src/repro``, ``tests/`` and ``benchmarks/`` alike (a test file's
parameter names count as reads, for imported pytest fixtures).
"""

from __future__ import annotations

import ast
import importlib.util
import re
import textwrap
from functools import lru_cache
from pathlib import Path

from repro.detectors import REGISTRY
from tests import scope_exec

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
BENCHMARKS = REPO / "benchmarks"
WORKFLOWS = REPO / ".github" / "workflows"
ROOT_MODULES = ("repro.cli", "repro.experiments.registry", "repro.fleet.cli")


def _module_paths() -> dict[str, Path]:
    """Dotted name -> file of every module under ``src/repro``."""
    out = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        out[".".join(parts)] = path
    return out


MODULES = _module_paths()


def _is_package(name: str) -> bool:
    return MODULES[name].name == "__init__.py"


@lru_cache(maxsize=None)
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _bindings(tree: ast.Module) -> dict[str, tuple[str, str | None]]:
    """Top-level imported names: local -> (module, name or None)."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            for alias in node.names:
                out[alias.asname or alias.name] = (node.module, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    out[alias.asname] = (alias.name, None)
    return out


def resolve(module: str, name: str, _seen: frozenset = frozenset()) -> str:
    """The ``src/repro`` module that defines *name* as seen from *module*.

    Submodules of a package win; an imported name is followed to its
    source; anything else is defined in *module* itself.
    """
    if f"{module}.{name}" in MODULES:
        return f"{module}.{name}"
    binding = _bindings(_tree(MODULES[module])).get(name)
    if binding is None or (module, name) in _seen:
        return module
    source, orig = binding
    if source not in MODULES:
        return module
    if orig is None:
        return source
    return resolve(source, orig, _seen | {(module, name)})


def _used_names(tree: ast.Module) -> set[str]:
    """Names an ``__init__``'s own code reads (not just re-exports)."""
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def _attribute_chain(node: ast.Attribute) -> tuple[str, list[str]] | None:
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return node.id, attrs[::-1]


def _reached_from(tree: ast.Module, package_init: bool) -> set[str]:
    """``src/repro`` modules one file's imports and attributes reach."""
    used = _used_names(tree) if package_init else None
    reached: set[str] = set()
    modules_by_alias: dict[str, str] = {}

    def keep(local: str) -> bool:
        return used is None or local in used

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name not in MODULES:
                    continue
                local = alias.asname or alias.name.split(".")[0]
                if not keep(local):
                    continue
                reached.add(alias.name)
                modules_by_alias[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module not in MODULES:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                if not keep(local):
                    continue
                target = resolve(node.module, alias.name)
                reached.add(target)
                if target == f"{node.module}.{alias.name}":
                    modules_by_alias[local] = target
    # ``pkg.name`` through a module bound by an import statement.
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        chain = _attribute_chain(node)
        if chain is None or chain[0] not in modules_by_alias:
            continue
        module = modules_by_alias[chain[0]]
        for attr in chain[1]:
            target = resolve(module, attr)
            reached.add(target)
            if target != f"{module}.{attr}":
                break
            module = target
    return reached


def _root_files() -> list[Path]:
    files = sorted(BENCHMARKS.glob("bench_*.py"))
    files += sorted((BENCHMARKS / "pipeline").glob("*.py"))
    return files


def _sibling_imports(path: Path) -> set[Path]:
    """Local helper modules a benchmark file imports (e.g. ``conftest``)."""
    out = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            sibling = path.parent / f"{name}.py"
            if sibling.is_file():
                out.add(sibling)
    return out


def reached_modules() -> set[str]:
    """Every ``src/repro`` module some result reaches."""
    plugins = {cls.__module__ for cls in REGISTRY.values()}
    todo = list(ROOT_MODULES) + sorted(plugins)
    files, pending = set(), _root_files()
    while pending:
        path = pending.pop()
        if path not in files:
            files.add(path)
            todo.extend(_reached_from(_tree(path), package_init=False))
            pending.extend(_sibling_imports(path))
    reached: set[str] = set()
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        # Importing a module runs its parent packages' ``__init__``.
        parent = name.rpartition(".")[0]
        if parent:
            todo.append(parent)
        todo.extend(
            _reached_from(_tree(MODULES[name]), package_init=_is_package(name))
        )
    return reached


def test_every_src_module_is_reached_by_a_result():
    unreached = sorted(set(MODULES) - reached_modules())
    assert not unreached, (
        "src/repro modules that no experiment, fleet command, detector "
        f"plugin or benchmark reaches: {', '.join(unreached)}"
    )


def test_reexports_resolve_to_the_defining_module():
    assert resolve("repro.analysis", "amplitude_spectrum") == (
        "repro.analysis.spectral"
    )
    assert resolve("repro", "RuntimeTrustEvaluator") == (
        "repro.framework.evaluator"
    )
    assert resolve("repro.experiments", "campaign") == (
        "repro.experiments.campaign"
    )


def test_package_reexports_alone_reach_nothing():
    # ``repro/__init__`` re-exports the framework but its own code uses
    # none of it, so reaching the package reaches no submodule.
    tree = _tree(MODULES["repro"])
    assert _reached_from(tree, package_init=True) == set()
    assert "repro.framework.evaluator" in _reached_from(
        tree, package_init=False
    )


def test_signoff_benchmark_keeps_drc():
    # ``layout.drc`` has no experiment; the signoff reproduction of the
    # paper's design-flow claim is what keeps it.
    bench = _tree(BENCHMARKS / "bench_signoff.py")
    assert "repro.layout.drc" in _reached_from(bench, package_init=False)


# ----------------------------------------------------------------------
# Definitions
# ----------------------------------------------------------------------
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFINITIONS = _FUNCTIONS + (ast.ClassDef,)
#: A tracer target as ``benchmarks/pipeline/tracer.py`` writes them.
_TARGET = re.compile(r"[\w.]+:([\w.]+)")
#: A ``python - <<'PY'`` heredoc in a workflow ``run:`` block.
_HEREDOC = re.compile(r"<<'PY'\n(.*?)\n[ \t]*PY$", re.S | re.M)
#: Decorators that wrap a definition without calling or registering
#: it: a definition under only these is reached when its name is read.
WRAPPERS = frozenset({
    "property", "classmethod", "staticmethod", "cached_property",
    "lru_cache", "contextmanager", "dataclass", "runtime_checkable",
})


def _names_read(node: ast.AST) -> set[str]:
    """Names *node* reads: ``Name`` ids, ``Attribute`` attributes and the
    dotted tail of ``"module:Class.method"`` strings."""
    out: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            match = _TARGET.fullmatch(sub.value)
            if match:
                out.update(match.group(1).split("."))
    return out


def _workflow_python() -> list[ast.Module]:
    """The Python the CI workflows run inline."""
    return [
        ast.parse(textwrap.dedent(match.group(1)))
        for path in sorted(WORKFLOWS.glob("*.yml"))
        for match in _HEREDOC.finditer(path.read_text())
    ]


def _import_time(body: list[ast.stmt]) -> list[ast.AST]:
    """What a module or class body runs when it is executed: every
    statement, but of a definition only its decorators, defaults and
    bases -- function bodies run only when called."""
    out: list[ast.AST] = []
    for stmt in body:
        if isinstance(stmt, _FUNCTIONS):
            out += stmt.decorator_list + [stmt.args]
        elif isinstance(stmt, ast.ClassDef):
            out += stmt.decorator_list + stmt.bases + stmt.keywords
            out += _import_time(stmt.body)
        else:
            out.append(stmt)
    return out


def _definitions(module: str) -> list[tuple[str, ast.AST, str | None]]:
    """``(qualified name, node, owning class)`` of every top-level
    function and class of *module* and every method of its classes."""
    out = []
    for stmt in _tree(MODULES[module]).body:
        if not isinstance(stmt, _DEFINITIONS):
            continue
        owner = f"{module}:{stmt.name}"
        out.append((owner, stmt, None))
        if isinstance(stmt, ast.ClassDef):
            out += [
                (f"{owner}.{sub.name}", sub, owner)
                for sub in stmt.body
                if isinstance(sub, _FUNCTIONS)
            ]
    return out


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _registers(decorator: ast.expr) -> bool:
    """Whether *decorator* can call or register what it decorates,
    i.e. is not one of Python's own :data:`WRAPPERS`
    (``@lru_cache(...)`` and ``@functools.lru_cache`` included)."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    if isinstance(decorator, ast.Attribute):
        return decorator.attr not in WRAPPERS
    return not (isinstance(decorator, ast.Name) and decorator.id in WRAPPERS)


def unreached_definitions() -> list[str]:
    """Definitions of reached modules that no result reads."""
    read: set[str] = set()
    files, pending = set(), _root_files()
    while pending:
        path = pending.pop()
        if path not in files:
            files.add(path)
            read |= _names_read(_tree(path))
            pending.extend(_sibling_imports(path))
    for tree in _workflow_python():
        read |= _names_read(tree)
    definitions = []
    for module in sorted(reached_modules()):
        for node in _import_time(_tree(MODULES[module]).body):
            read |= _names_read(node)
        definitions += _definitions(module)
    reached: set[str] = set()
    grew = True
    while grew:
        grew = False
        for name, node, owner in definitions:
            if name in reached:
                continue
            if _is_dunder(node.name) and owner is not None:
                # ``Cls(...)`` and operators call these, not their name.
                hit = owner in reached
            else:
                hit = node.name in read or any(
                    map(_registers, node.decorator_list)
                )
            if hit:
                reached.add(name)
                grew = True
                if isinstance(node, _FUNCTIONS):
                    read |= _names_read(node)
    return [name for name, _node, _owner in definitions if name not in reached]


def test_every_definition_is_reached_by_a_result():
    unreached = unreached_definitions()
    assert not unreached, (
        "src/repro definitions that no experiment, fleet command, detector "
        f"plugin, benchmark or CI step reads: {', '.join(unreached)}"
    )


def test_workflow_python_is_a_root():
    # The CI smoke jobs validate artifacts and load journals inline.
    read = set().union(*map(_names_read, _workflow_python()))
    assert {"validate_artifact", "load", "EventJournal"} <= read


def test_wrapper_decorators_do_not_count_as_reads():
    tree = ast.parse(
        "@property\ndef a(self): ...\n"
        "@functools.lru_cache(maxsize=None)\ndef b(): ...\n"
        "@dataclass(frozen=True)\nclass C: ...\n"
        "@register_detector\nclass D: ...\n"
        "@registry.register('x')\ndef e(): ...\n"
    )
    registers = {
        node.name: any(map(_registers, node.decorator_list))
        for node in tree.body
    }
    assert registers == {"a": False, "b": False, "C": False,
                         "D": True, "e": True}


def test_tracer_targets_count_as_reads():
    node = ast.parse('T = "repro.chip.chip:Chip.build"')
    assert {"Chip", "build"} <= _names_read(node)


def _unused_imports(path: Path, parameters_read: bool) -> list[str]:
    """Top-level imports of *path* that no name in the file reads.

    With *parameters_read*, a parameter name counts as a read, so a
    pytest fixture imported only to be requested by name is kept.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if parameters_read:
        used |= {node.arg for node in ast.walk(tree) if isinstance(node, ast.arg)}
    unused = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            unused += [
                local
                for alias in node.names
                if (local := alias.asname or alias.name.split(".")[0])
                not in used
            ]
    return unused


def test_no_unused_imports():
    unused = [
        f"{module}:{local}"
        for module, path in MODULES.items()
        if path.name != "__init__.py"
        for local in _unused_imports(path, parameters_read=False)
    ]
    for path in sorted(REPO.glob("tests/**/*.py")) + sorted(
        BENCHMARKS.glob("**/*.py")
    ):
        if path.name != "__init__.py":
            rel = path.relative_to(REPO)
            unused += [
                f"{rel}:{local}"
                for local in _unused_imports(path, parameters_read=True)
            ]
    assert not unused, f"unused top-level imports: {', '.join(unused)}"


def test_fixture_imports_read_by_parameter_name_are_used(tmp_path):
    path = tmp_path / "test_fixture_import.py"
    path.write_text(
        "from tests.fleet.conftest import tiny_fleet\n"
        "import numpy as np\n\n\n"
        "def test_requests_fixture(tiny_fleet):\n"
        "    pass\n"
    )
    assert _unused_imports(path, parameters_read=True) == ["np"]
    assert _unused_imports(path, parameters_read=False) == ["tiny_fleet", "np"]


# ----------------------------------------------------------------------
# The executed audit (tests/scope_exec.py), without running its roots
# ----------------------------------------------------------------------
_ENUMERATED = '''
from typing import Protocol


def outer():
    def inner():
        return [x for x in range(3)]
    return lambda: inner()


class Shape(Protocol):
    def area(self) -> float: ...


class Square:
    @property
    def side(self):
        return (s for s in ())

    if True:
        def conditional(self):
            pass
'''


def test_exec_audit_enumerates_definitions_not_expressions():
    defs = scope_exec.definitions_in(_ENUMERATED, "m.py", "m")
    assert [(d.name, d.line, d.parent) for d in defs] == [
        ("m:outer", 5, None),
        ("m:outer.inner", 6, "m:outer"),
        ("m:Shape", 11, None),
        ("m:Square", 15, None),
        ("m:Square.side", 16, "m:Square"),
        ("m:Square.conditional", 21, "m:Square"),
    ]


def test_exec_audit_reports_outermost_dead_definitions():
    defs = scope_exec.definitions_in(_ENUMERATED, "m.py", "m")
    seen = {("m.py", 15), ("m.py", 16)}  # Square's body and its property
    dead = [d.name for d in scope_exec.never_run(defs, seen)]
    # ``outer.inner`` is implied by ``outer``; a method is reported
    # even though its class body ran.
    assert dead == ["m:outer", "m:Shape", "m:Square.conditional"]


def test_exec_audit_rejects_stale_exemptions():
    defs = scope_exec.all_definitions()
    assert scope_exec.check_exemptions(defs, scope_exec.EXEMPT) == []
    stale = {**scope_exec.EXEMPT, "repro.em.noise:no_such_helper": "gone"}
    assert scope_exec.check_exemptions(defs, stale) == [
        "exempt but not defined: repro.em.noise:no_such_helper"
    ]
    blank = {"repro.detectors.roc:auc": " "}
    assert scope_exec.check_exemptions(defs, blank) == [
        "exempt without a reason: repro.detectors.roc:auc"
    ]
    assert len(scope_exec.EXEMPT) <= 8


def _pipeline_parse_args():
    spec = importlib.util.spec_from_file_location(
        "pipeline_run", BENCHMARKS / "pipeline" / "run.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.parse_args


def test_exec_audit_roots_name_real_commands(tmp_path, monkeypatch):
    from repro.cli import _parser as repro_parser
    from repro.fleet.cli import _parser as fleet_parser

    monkeypatch.syspath_prepend(str(BENCHMARKS / "pipeline"))
    pipeline_parse_args = _pipeline_parse_args()
    documented = (REPO / "docs" / "CONFIG.md").read_text()
    roots = scope_exec.roots()
    assert len({r.name for r in roots}) == len(roots)
    for root in roots:
        argv = [a.replace("{work}", str(tmp_path)) for a in root.argv]
        for var in root.env:
            if var.startswith("REPRO_"):
                assert f"`{var}`" in documented, (root.name, var)
        if root.module() == "repro.cli" and argv[2] == "fleet":
            fleet_parser().parse_args(argv[3:])  # as `repro.cli.main`
        elif root.module() == "repro.cli":
            repro_parser().parse_args(argv[2:])
        elif root.module() == "repro.fleet.cli":
            fleet_parser().parse_args(argv[2:])
        elif root.module() == "pytest":
            plugin = argv.index("-p")  # the audit's own plugin
            assert argv[plugin + 1] == "scope_exec_plugin", root
            paths = [a.split("=", 1)[-1] for a in argv[plugin + 2:]
                     if not a.startswith("-") or a.startswith("--ignore=")]
            assert paths and all((REPO / p).exists() for p in paths), root
        elif root.script() == "benchmarks/pipeline/run.py":
            pipeline_parse_args(argv[1:])
        elif root.script() is not None:
            assert (REPO / root.script()).is_file() and len(argv) == 1, root
        else:
            assert argv == ["-"] and root.stdin, root
            ast.parse(root.stdin)
