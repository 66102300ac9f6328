"""``tools/make_fixtures.py`` rewrites every committed fixture byte for byte.

A fixture the tool no longer reproduces pins what older code wrote, and keys
the code stopped writing would stay in it unnoticed.
"""

import importlib.util
import os

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")
TOOL = os.path.join(os.path.dirname(HERE), "tools", "make_fixtures.py")


def test_make_fixtures_reproduces_every_committed_fixture(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("make_fixtures", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(tool, "FIXTURE_DIR", str(tmp_path))
    assert tool.main() == 0
    names = sorted(os.listdir(FIXTURES))
    assert sorted(os.listdir(tmp_path)) == names and len(names) == 8
    for name in names:
        with open(os.path.join(FIXTURES, name), "rb") as fh:
            assert (tmp_path / name).read_bytes() == fh.read(), name
