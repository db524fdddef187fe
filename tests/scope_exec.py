"""Executed-scope audit: every ``src/repro`` definition must run under a root.

``tests/test_scope.py`` walks names statically, so a definition whose
bare name is read anywhere (``FaultSpec.any`` next to numpy's
``.any()``) passes it without ever running.  This script runs the
commands a user or CI runs -- the roots, :func:`roots` -- each in a
subprocess under ``sys.setprofile`` and ``threading.setprofile``, and
records every ``src/repro`` code object that is called.  It exits
non-zero when a function, method or class of ``src/repro`` never runs
under any root and is not in :data:`EXEMPT`, whose entries each give
the reason no root can reach them.

The hook writes each newly seen code object to a per-process file as
soon as it is seen: pool workers leave through ``os._exit``, so nothing
may wait for ``atexit``.  The seen-set is cleared in the forked child.
pytest-benchmark's ``PauseInstrumentation`` is neutralised in the
benchmark root, because it calls ``sys.setprofile(None)`` around every
timed body.

Comprehension, generator-expression and lambda bodies are not counted
(they are expressions of a function that runs), nor are the method
stubs of ``typing.Protocol`` classes.  A class counts as run when its
body runs, i.e. when its module is imported.

Run from the repository root (about three minutes on two CPUs)::

    python tests/scope_exec.py             # every root
    python tests/scope_exec.py fleet-ci    # only the named roots
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import subprocess
import sys
import tempfile
import textwrap
import time
from dataclasses import dataclass, field
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
PACKAGE = SRC / "repro"
CI = REPO / ".github" / "workflows" / "ci.yml"
#: A ``python - <<'PY'`` heredoc in a workflow ``run:`` block.
HEREDOC = re.compile(r"<<'PY'\n(.*?)\n[ \t]*PY$", re.S | re.M)
#: Per-root wall-clock limit [s].
ROOT_TIMEOUT_S = 900

#: Definitions no root runs, each with the reason it stays in ``src/``.
EXEMPT = {
    "repro.io.store:TraceBundle.verify":
        "integrity check a user requests on a loaded bundle",
    "repro.layout.drc:DrcReport.add":
        "records a violation; runs only when a design rule fails",
    "repro.framework.batched:BatchedFleetMonitor._ring_sum":
        "drift refresh after 4,096 windows, longer than any smoke root",
    "repro.em.noise:EnvironmentNoise.scaled":
        "the full-size tournament's 0.5x/2x noise scales; no smoke size "
        "sweeps noise",
    "repro.detectors.roc:auc":
        "the pipeline benchmark's tracer names it in its detectors.roc span",
    "repro.config:parse_sensor_array":
        "parses REPRO_SENSOR_ARRAY, a documented knob that no root sets",
}


# ----------------------------------------------------------------------
# Definitions
# ----------------------------------------------------------------------
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


@dataclass(frozen=True)
class Definition:
    """A function, method or class of ``src/repro``."""

    name: str              # ``module:Outer.inner``
    path: str              # absolute file path
    line: int              # first line of its code object
    parent: str | None     # enclosing definition's name
    is_function: bool


def _is_protocol(node: ast.ClassDef) -> bool:
    return any(
        (isinstance(base, ast.Name) and base.id == "Protocol")
        or (isinstance(base, ast.Attribute) and base.attr == "Protocol")
        for base in node.bases
    )


def definitions_in(source: str, path: str, module: str) -> list[Definition]:
    """Every def and class of one module, nested ones included; a code
    object's first line is its first decorator's line, if it has one."""
    out: list[Definition] = []

    def visit(body, prefix: str, parent: Definition | None) -> None:
        for node in body:
            if isinstance(node, _FUNCTIONS + (ast.ClassDef,)):
                line = min([node.lineno] + [d.lineno for d in node.decorator_list])
                found = Definition(
                    name=f"{prefix}{node.name}", path=path, line=line,
                    parent=parent.name if parent else None,
                    is_function=isinstance(node, _FUNCTIONS),
                )
                out.append(found)
                if isinstance(node, ast.ClassDef) and _is_protocol(node):
                    continue  # method stubs: a type, never called
                visit(node.body, f"{found.name}.", found)
            else:
                # defs under ``if``/``try``/``with`` at this level
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, ast.stmt):
                        visit([child], prefix, parent)

    visit(ast.parse(source, filename=path).body, f"{module}:", None)
    return out


def all_definitions() -> list[Definition]:
    out = []
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        out += definitions_in(path.read_text(), str(path), ".".join(parts))
    return out


def check_exemptions(defs: list[Definition], exempt: dict[str, str]) -> list[str]:
    """Problems with an exemption table: unknown names, empty reasons."""
    names = {d.name for d in defs}
    problems = [f"exempt but not defined: {n}" for n in exempt if n not in names]
    problems += [f"exempt without a reason: {n}"
                 for n, why in exempt.items() if not why.strip()]
    return problems


def never_run(defs: list[Definition], seen: set[tuple[str, int]]) -> list[Definition]:
    """Definitions whose code never ran, outermost first: a nested def
    of a function that never ran is implied by its parent."""
    by_name = {d.name: d for d in defs}
    dead = {d.name for d in defs if (d.path, d.line) not in seen}
    return [
        d for d in defs
        if d.name in dead
        and not (d.parent in dead and by_name[d.parent].is_function)
    ]


# ----------------------------------------------------------------------
# Roots
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Root:
    """One command a user or CI runs.  ``argv`` follows the interpreter;
    ``{work}`` in it or in ``env`` is the audit's scratch directory."""

    name: str
    argv: tuple[str, ...]
    env: dict[str, str] = field(default_factory=dict)
    stdin: str | None = None
    #: Exit codes that count as a completed run.
    ok_codes: tuple[int, ...] = (0,)

    def module(self) -> str | None:
        return self.argv[1] if self.argv[0] == "-m" else None

    def script(self) -> str | None:
        return None if self.argv[0] in ("-m", "-") else self.argv[0]


def _smoke(cache: str | None = None) -> dict[str, str]:
    out = {"REPRO_BENCH_SMOKE": "1"}
    if cache:
        out["REPRO_CACHE_DIR"] = f"{{work}}/{cache}"
    return out


REPRO = ("-m", "repro.cli")
FLEET = REPRO + ("fleet", "--smoke")
FLEET_CI = (
    "-m", "repro.fleet.cli", "--check-oneshot",
    "--drop", "0.02", "--duplicate", "0.02", "--reorder", "0.05",
    "--journal", "{work}/fleet.jsonl", "--json", "{work}/fleet.json",
)
RUN_ALL = REPRO + ("run", "--all", "--smoke", "--out", "{work}/artifacts")
QUEUED = FLEET + ("--queue-depth", "1", "--consume-every", "3", "--policy")


def _workloads() -> list[str]:
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    return [w["name"] for w in spec["workloads"]]


def ci_heredocs() -> list[str]:
    """The Python the CI workflow runs inline, in file order."""
    return [textwrap.dedent(m.group(1)) for m in HEREDOC.finditer(CI.read_text())]


def roots() -> list[Root]:
    """Every root, in run order: a heredoc reads the artifacts the
    CLI roots before it wrote."""
    out = [
        Root("list", REPRO + ("list",)),
        Root("detectors", REPRO + ("detectors",)),
        Root("run-all-cold", RUN_ALL, _smoke("cache-run")),
        Root("run-all-warm", RUN_ALL, _smoke("cache-run")),
        Root("run-metrics", REPRO + ("run", "fig4", "--smoke", "--metrics",
                                     "--out", "{work}/metrics"), _smoke()),
        Root("fleet-ci", FLEET_CI, _smoke("cache-fleet")),
        Root("fleet-block", QUEUED + ("block",)),
        Root("fleet-drop-oldest", QUEUED + ("drop_oldest",)),
    ]
    for detector in ("spectral", "spectral_median", "persistence"):
        for state in ("cold", "warm"):
            out.append(Root(
                f"fleet-{detector}-{state}", FLEET,
                {"REPRO_DETECTOR": detector,
                 "REPRO_CACHE_DIR": f"{{work}}/cache-{detector}"},
            ))
    out.append(Root(
        "workers-evict", FLEET,
        {"REPRO_WORKERS": "2", "REPRO_CACHE_MB": "1",
         "REPRO_CACHE_DIR": "{work}/cache-evict"},
    ))
    out += [
        Root(f"ci-heredoc-{i}", ("-",),
             {"RUNNER_TEMP": "{work}",
              "REPRO_CACHE_DIR": f"{{work}}/cache-heredoc-{i}"}, source)
        for i, source in enumerate(ci_heredocs(), 1)
    ]
    out += [
        Root("quickstart", ("examples/quickstart.py",)),
        Root("em-field-map", ("examples/em_field_map.py",)),
        # Exit 1 (a failed test) still counts: the speed-up floors of the
        # benchmark files do not hold under the profiler, and the
        # benchmark CI jobs gate those files without it.
        Root("benchmarks",
             ("-m", "pytest", "-q", "-p", "scope_exec_plugin",
              "benchmarks", "--ignore=benchmarks/pipeline"), _smoke(),
             ok_codes=(0, 1)),
    ]
    out += [
        Root(f"pipeline-{w}",
             ("benchmarks/pipeline/run.py", "--workload", w, "--seed", "1",
              "--seconds", "1", "--trace", "0"))
        for w in _workloads()
    ]
    return out


# ----------------------------------------------------------------------
# The hook, installed in every child through ``sitecustomize``
# ----------------------------------------------------------------------
HOOK = '''\
import os, sys, threading

_SRC = os.environ["SCOPE_EXEC_SRC"]
_OUT = os.environ["SCOPE_EXEC_OUT"]
_seen = {}
_file = None


def _open():
    global _file
    _file = open(os.path.join(_OUT, f"{os.getpid()}.tsv"), "a", buffering=1)


def _hook(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    if id(code) in _seen:
        return
    _seen[id(code)] = code  # held, so its id is never reused
    if code.co_filename.startswith(_SRC):
        _file.write(f"{code.co_filename}\\t{code.co_firstlineno}\\n")


def _after_fork():
    _seen.clear()
    _open()


_open()
os.register_at_fork(after_in_child=_after_fork)
threading.setprofile(_hook)
sys.setprofile(_hook)
'''

PLUGIN = '''\
import pytest_benchmark.fixture


class _KeepProfile:
    def __init__(self, *args, **kwargs):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


pytest_benchmark.fixture.PauseInstrumentation = _KeepProfile
'''


def run_root(root: Root, work: Path, hook_dir: Path, out: Path) -> tuple[int | None, float, str]:
    """Run one root under the hook; (exit code or ``None`` on timeout,
    seconds, log tail)."""
    expand = lambda s: s.replace("{work}", str(work))  # noqa: E731
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update({k: expand(v) for k, v in root.env.items()})
    env["PYTHONPATH"] = os.pathsep.join([str(hook_dir), str(SRC)])
    env["SCOPE_EXEC_SRC"] = str(PACKAGE) + os.sep
    env["SCOPE_EXEC_OUT"] = str(out)
    log = work / "logs" / f"{root.name}.log"
    start = time.perf_counter()
    with open(log, "w") as sink:
        try:
            proc = subprocess.run(
                [sys.executable, *map(expand, root.argv)], cwd=REPO, env=env,
                input=root.stdin, text=True, stdout=sink,
                stderr=subprocess.STDOUT, timeout=ROOT_TIMEOUT_S,
            )
            code = proc.returncode
        except subprocess.TimeoutExpired:
            code = None
    tail = "".join(log.read_text().splitlines(keepends=True)[-15:])
    return code, time.perf_counter() - start, tail


def seen_code(out: Path) -> set[tuple[str, int]]:
    seen = set()
    for path in out.glob("*.tsv"):
        for line in path.read_text().splitlines():
            filename, lineno = line.rsplit("\t", 1)
            seen.add((os.path.realpath(filename), int(lineno)))
    return seen


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("only", nargs="*", help="run only these roots")
    p.add_argument("--keep", type=Path, default=None,
                   help="scratch directory to use and keep")
    args = p.parse_args(argv)

    defs = all_definitions()
    problems = check_exemptions(defs, EXEMPT)
    selected = [r for r in roots() if not args.only or r.name in args.only]
    if args.only and len(selected) != len(set(args.only)):
        p.error(f"unknown root among {args.only}")

    with tempfile.TemporaryDirectory(prefix="scope-exec-") as tmp:
        work = args.keep or Path(tmp)
        hook_dir, out = work / "hook", work / "seen"
        for d in (hook_dir, out, work / "logs"):
            d.mkdir(parents=True, exist_ok=True)
        (hook_dir / "sitecustomize.py").write_text(HOOK)
        (hook_dir / "scope_exec_plugin.py").write_text(PLUGIN)
        for root in selected:
            code, seconds, tail = run_root(root, work, hook_dir, out)
            ok = code in root.ok_codes
            note = "" if code == 0 else f"  (exit {code})"
            print(f"{'ok ' if ok else 'FAIL'} {root.name:28s} {seconds:6.1f} s"
                  f"{note}", flush=True)
            if not ok:
                problems.append(f"root {root.name} failed:\n{tail}")
        seen = seen_code(out)

    dead = never_run(defs, seen)
    ran = sum((d.path, d.line) in seen for d in defs)
    unexempt = [d for d in dead if d.name not in EXEMPT]
    print(f"{len(defs)} definitions in src/repro: {ran} ran, "
          f"{len(defs) - ran} never ran ({len(dead)} outermost, "
          f"{len(dead) - len(unexempt)} exempt)")
    if not args.only:
        problems += [f"never runs under any root: {d.name}" for d in unexempt]
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
