"""No builtin ``sum`` over floats in ``src/repro``.

From Python 3.12 on, builtin ``sum`` of floats is compensated
(Neumaier), so it can round differently from 3.10 and 3.11 and move an
exact-gated figure in its last bits.  A float total is therefore an
explicit left fold from ``0`` (``functools.reduce(operator.add, xs, 0)``),
which gives the 3.10/3.11 bits on every interpreter.  Builtin ``sum``
stays only where every term is an ``int``: the sites below, keyed by
file and enclosing function, each with its number of calls and the
reason their terms are integers.  The check is on the source, so a new
call anywhere, also inside a listed function, or a stale entry here,
fails.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent

#: ``(file, enclosing function)`` -> (calls, why every term is an ``int``).
INTEGER_SUMS = {
    ("algorithms/deflate/compress.py", "_deflate_compress"): (1, "token lengths are ints"),
    ("algorithms/huffman.py", "HuffmanDecoder.__init__"):
        (1, "code-space slots, ``size >> length`` of ints"),
    ("algorithms/lz77.py", "TokenStream.n_literals"): (1, "counts tokens"),
    ("bench/experiments/cluster_fleet.py", "_failover_count"): (1, "counts routing records"),
    ("bench/experiments/cluster_fleet.py", "run_cluster_point"): (1, "counts alerts"),
    ("bench/experiments/obs_telemetry.py", "run_fleet_demo"): (2, "counts alerts"),
    ("cluster/cluster.py", "ServeCluster.completed"): (1, "per-gateway request counts"),
    ("cluster/cluster.py", "ServeCluster.sample_count"): (1, "per-gateway sample counts"),
    ("core/parallel.py", "ParallelCompressor._fan_out"): (1, "counts chunk outcomes"),
    ("doca/buffers.py", "BufInventory.mapped_bytes"): (1, "buffer sizes in bytes"),
    ("mpi/streaming.py", "stream_send"): (1, "frame lengths in bytes"),
    ("obs/sketch.py", "QuantileSketch.count_above"): (1, "bucket counts"),
    ("serve/batcher.py", "Batcher.open_count"): (1, "open batch sizes"),
    ("serve/streaming.py", "StreamingSession.decompress"): (1, "frame lengths in bytes"),
}


def _sum_calls(source: str) -> "list[str]":
    """The enclosing function of every builtin ``sum`` call in ``source``."""
    found: "list[str]" = []

    def visit(node: ast.AST, scope: "tuple[str, ...]") -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope += (node.name,)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "sum"):
            found.append(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_builtin_sum_only_at_integer_sites():
    calls = Counter()
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        calls.update((rel, scope) for scope in _sum_calls(path.read_text()))
    assert dict(calls) == {site: count for site, (count, _) in INTEGER_SUMS.items()}


def test_the_guard_sees_a_float_sum():
    """A re-introduced float total, nested in an expression in a method."""
    source = ("class TimeBreakdown:\n"
              "    def total(self):\n"
              "        return 1 / sum(self._phases.values())\n")
    assert _sum_calls(source) == ["TimeBreakdown.total"]
