"""Every config field names its reader (DESIGN.md §5n).

The fields of every ``*Config`` / ``*Policy`` / ``*Spec`` class in
``src/repro`` are collected from the source and compared with the rows
of DESIGN.md's knob table.  A field added without a row, a row left
behind by a deleted field, or a row with an empty reader cell fails
here, so every knob keeps a named gate, figure, experiment or promise.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
DESIGN = Path(__file__).resolve().parents[1] / "DESIGN.md"
SECTION = "## 5n. Knobs"
CLASS_NAME = re.compile(r"(Config|Policy|Spec)$")
ROW = re.compile(r"^\| `(\w+\.\w+)` \|(.*)\|\s*$")
# Fields may only go down from here (the knob item's target is 90).
FIELD_CEILING = 84


def _source_fields() -> "set[str]":
    fields = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.ClassDef)
                    and CLASS_NAME.search(node.name)):
                continue
            for stmt in node.body:
                if (isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)):
                    fields.add(f"{node.name}.{stmt.target.id}")
    return fields


def _table_rows() -> "dict[str, str]":
    text = DESIGN.read_text(encoding="utf-8")
    start = text.index(SECTION)
    end = text.find("\n## ", start + len(SECTION))
    rows: "dict[str, str]" = {}
    for line in text[start:end if end != -1 else None].splitlines():
        match = ROW.match(line)
        if match:
            name, reader = match.groups()
            assert name not in rows, f"duplicate knob row {name}"
            rows[name] = reader.strip()
    return rows


def test_every_field_has_exactly_one_row():
    fields = _source_fields()
    rows = _table_rows()
    assert sorted(fields - rows.keys()) == [], "fields with no knob row"
    assert sorted(rows.keys() - fields) == [], "knob rows with no field"


def test_every_row_names_a_reader():
    empty = [name for name, reader in _table_rows().items()
             if reader.strip("-— ") == ""]
    assert empty == []


def test_field_count_stays_under_the_ceiling():
    assert len(_source_fields()) <= FIELD_CEILING
