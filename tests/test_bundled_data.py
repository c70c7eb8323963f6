"""The bundled artifacts are exactly what ``tools/make_bundled_data.py``
writes: rerunning it over a copy of the assets changes nothing but the
cassette's ``recorded_at`` times."""

from __future__ import annotations

import importlib.util
import re
import shutil
import sys
from pathlib import Path

from pseudoexec.gateway import (Cassette, _load_index, index_path,
                               load_cassette)

TOOL = Path(__file__).resolve().parents[1] / "tools" / "make_bundled_data.py"
_RECORDED_AT = re.compile(rb'"recorded_at": "[^"]*"')


def _files(root: Path) -> list[Path]:
    return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())


def test_the_tool_rewrites_the_bundled_artifacts_unchanged(
        assets_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))   # the tool prepends src
    spec = importlib.util.spec_from_file_location("make_bundled_data", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    cassette = Path("replay", "cassette.jsonl")
    load_cassette(assets_dir / cassette)     # the index of the bundled bytes
    copy = tmp_path / "assets"
    shutil.copytree(assets_dir, copy)
    monkeypatch.setattr(tool, "ASSETS", copy)
    tool.main()
    capsys.readouterr()

    assert _files(copy) == _files(assets_dir)
    for rel in _files(assets_dir):
        before = (assets_dir / rel).read_bytes()
        after = (copy / rel).read_bytes()
        if rel == cassette:
            assert len(_RECORDED_AT.findall(after)) == after.count(b"\n")
            before, after = (_RECORDED_AT.sub(b"", b) for b in (before, after))
        if rel == index_path(cassette):
            # Rewritten for the restamped bytes: an index hit on each side,
            # with the same digests.  The spans may move: a time stamp
            # whose microseconds are 0 is shorter.
            loaded = [Cassette(root / cassette) for root in (assets_dir, copy)]
            assert all(map(_load_index, loaded))
            before, after = (sorted(each) for each in loaded)
        assert after == before, rel
