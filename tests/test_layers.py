"""One declared layer order for ``src/repro`` (DESIGN.md §5).

``LAYERS`` lists the 18 top-level names under ``src/repro`` bottom-up.
Every ``repro`` import in the package must name its own package or one
earlier in the list, so the runtime import graph is a DAG and stays
one.  The check is on the source, not on what happens to be loaded:
imports inside functions count, and ``from repro import x`` counts as
an import of ``x``.  The only exemption is an ``if TYPE_CHECKING:``
block, which never runs.

Inside one package the modules must not import each other in a circle
either, counted the same way (a cycle hidden behind an in-function
import is still a cycle).

Four modules at the old ``repro.core`` paths only re-export
``repro.plan`` for ``benchmarks/perf``; nothing in ``src/``, ``tests/``
or ``examples/`` may import them.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]
DESIGN = ROOT / "DESIGN.md"
SECTION = "## 5. Repository layout"

LAYERS = (
    "errors", "util", "obs", "algorithms", "faults", "sim", "dpu",
    "datasets", "plan", "select", "sched", "doca", "stream", "core",
    "mpi", "serve", "cluster", "bench",
)
RANK = {name: i for i, name in enumerate(LAYERS)}
REEXPORTS = frozenset(
    f"repro.core.{name}" for name in ("codecs", "designs", "header", "sz3_hybrid")
)


def _is_type_checking(node: ast.AST) -> bool:
    test = getattr(node, "test", None)
    return isinstance(node, ast.If) and (
        (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING")
        or (isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"))


def _imports(path: Path):
    """Yield ``(lineno, module)`` for every import that runs, at any depth.

    ``from a import b`` yields ``a.b`` (``b`` may be a submodule); a
    relative import is resolved against the file's own package.
    """
    package = (["repro", *path.relative_to(SRC).parent.parts]
               if SRC in path.parents else [])

    def walk(nodes):
        for node in nodes:
            if _is_type_checking(node):
                yield from walk(node.orelse)
                continue
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield node.lineno, alias.name
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    up = package[:len(package) - node.level + 1]
                    base = ".".join(up + ([base] if base else []))
                for alias in node.names:
                    yield node.lineno, f"{base}.{alias.name}"
            yield from walk(ast.iter_child_nodes(node))

    yield from walk(ast.parse(path.read_text(encoding="utf-8")).body)


def _layer(module: str) -> "str | None":
    parts = module.split(".")
    if parts[0] != "repro":
        return None
    return parts[1] if len(parts) > 1 and parts[1] in RANK else "repro"


def test_layers_name_every_top_level_entry():
    names = {p.name.removesuffix(".py") for p in SRC.iterdir()
             if p.name != "__init__.py"
             and (p.suffix == ".py" or (p / "__init__.py").exists())}
    assert sorted(names) == sorted(LAYERS)
    assert len(LAYERS) == len(set(LAYERS)) == 18


def test_every_import_points_down():
    upward = []
    for path in sorted(SRC.rglob("*.py")):
        if path == SRC / "__init__.py":
            continue  # the facade over every layer
        own = path.relative_to(SRC).parts[0].removesuffix(".py")
        for lineno, module in _imports(path):
            target = _layer(module)
            if target is None or target == own:
                continue
            if target == "repro" or RANK[target] > RANK[own]:
                upward.append(f"{path.relative_to(SRC)}:{lineno} {own} -> {module}")
    assert upward == []


def _module_name(path: Path) -> str:
    parts = ["repro", *path.relative_to(SRC).with_suffix("").parts]
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def test_no_import_cycle_inside_a_package():
    """Within each top-level package, the module import graph is a DAG.

    An import names the longest module prefix of its target (``from
    repro.plan import registry`` is ``repro.plan.registry``, ``from
    repro.obs import get_metrics`` is ``repro.obs``).  The implicit
    import of a module's parent package is not an edge.
    """
    paths = {_module_name(path): path for path in SRC.rglob("*.py")}

    def module_of(target: str) -> str:
        while target not in paths and "." in target:
            target = target.rpartition(".")[0]
        return target

    graph = {}
    for name, path in paths.items():
        package = name.split(".")[:2]
        graph[name] = sorted({
            target for target in map(module_of, (m for _, m in _imports(path)))
            if target != name and len(package) == 2
            and target.split(".")[:2] == package})

    cycles, state = [], {}  # state: 1 on the DFS stack, 2 done

    def visit(node, trail):
        state[node] = 1
        for nxt in graph[node]:
            if state.get(nxt) == 1:
                cycles.append(" -> ".join(trail[trail.index(nxt):] + [nxt]))
            elif nxt not in state:
                visit(nxt, trail + [nxt])
        state[node] = 2

    for name in sorted(graph):
        if name not in state:
            visit(name, [name])
    assert cycles == []


@pytest.mark.parametrize("tree", ["src", "tests", "examples"])
def test_nothing_imports_the_core_reexports(tree):
    hits = []
    for path in sorted((ROOT / tree).rglob("*.py")):
        for lineno, module in _imports(path):
            if module in REEXPORTS or module.rsplit(".", 1)[0] in REEXPORTS:
                hits.append(f"{path.relative_to(ROOT)}:{lineno} {module}")
    assert hits == []


def test_design_layout_lists_the_order():
    text = DESIGN.read_text(encoding="utf-8")
    start = text.index(SECTION)
    end = text.index("\n## ", start + len(SECTION))
    listed = re.findall(r"^  (\w+)(?:/|\.py)\s", text[start:end], re.MULTILINE)
    assert tuple(listed) == LAYERS
