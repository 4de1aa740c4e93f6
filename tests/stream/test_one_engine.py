"""Source guard: one writer and one verifier of RST1, one codec choice.

The container is written and checked only in :mod:`repro.stream`; the
serving and MPI adapters neither import nor use the frame assembly, the
parser or the CRC.  The DEFLATE / LZ4 / AC ``(compress, decompress)``
choice is made only in :func:`repro.plan.codecs.byte_codec`: the gateway
and the stream engine never use a codec function by name.  (The gateway
still *binds* ``deflate_compress``, unused, as the probe of
benchmarks/perf's harness test.)
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro

_SRC = Path(repro.__file__).parent

_FRAMING = {"encode_stream_header", "encode_data_frame", "encode_end_frame",
            "FrameParser", "crc32"}
_CODECS = {"deflate_compress", "deflate_decompress", "lz4_compress",
           "lz4_decompress", "ac_compress", "ac_decompress"}

# module -> (names it may not import or use, names it may not use)
FORBIDDEN = {
    "serve/streaming.py": (_FRAMING, set()),
    "mpi/streaming.py": (_FRAMING, set()),
    "serve/gateway.py": (set(), _CODECS),
    "stream/api.py": (_CODECS, set()),
}


def _names(module: str) -> tuple[set[str], set[str]]:
    """(names imported, names used) by a module's code."""
    tree = ast.parse((_SRC / module).read_text())
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return imported, used


@pytest.mark.parametrize("module", list(FORBIDDEN))
def test_module_holds_no_copy(module):
    absent, unused = FORBIDDEN[module]
    imported, used = _names(module)
    assert (imported | used) & absent == set()
    assert used & unused == set()
