"""``regenerate.py`` never moves a pinned digest without ``--format-change``.

Run in-process against a copy of this directory whose manifest holds
one altered digest: the plain run must fail and leave every file of the
copy byte-identical; with ``--format-change`` it rewrites the copy back
to exactly what the encoders produce today — the committed corpus.
"""

from __future__ import annotations

import json
import shutil

from tests.vectors import regenerate


def _snapshot(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_pinned_digest_moves_only_with_format_change(tmp_path, monkeypatch, capsys):
    committed = (regenerate.VECTOR_DIR / "manifest.json").read_bytes()
    copy = tmp_path / "vectors"
    shutil.copytree(regenerate.VECTOR_DIR, copy,
                    ignore=shutil.ignore_patterns("*.py", "__pycache__", "*.md"))
    manifest = json.loads((copy / "manifest.json").read_text())
    manifest["cases"]["text"]["artifacts"]["deflate"]["sha256"] = "0" * 64
    (copy / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    before = _snapshot(copy)
    monkeypatch.setattr(regenerate, "VECTOR_DIR", copy)

    assert regenerate.main([]) != 0
    assert "/cases/text/artifacts/deflate/sha256" in capsys.readouterr().err
    assert _snapshot(copy) == before

    assert regenerate.main(["--format-change"]) == 0
    assert (copy / "manifest.json").read_bytes() == committed
    assert {name: blob for name, blob in _snapshot(copy).items()
            if name != "manifest.json"} == {
        name: blob for name, blob in before.items() if name != "manifest.json"}
