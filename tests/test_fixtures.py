"""The files under fixtures/ are what scripts/make_fixtures.py writes."""

import importlib.util

from tests.conftest import FIXTURES, ROOT


def test_the_fixtures_equal_the_generator_output(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "make_fixtures", ROOT / "scripts" / "make_fixtures.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    # write prints each path relative to ROOT, so FIX stays below it
    monkeypatch.setattr(script, "ROOT", tmp_path)
    monkeypatch.setattr(script, "FIX", tmp_path / "fixtures")
    script.main()
    written = {p.name: p.read_bytes() for p in (tmp_path / "fixtures").iterdir()}
    shipped = {p.name: p.read_bytes() for p in FIXTURES.iterdir()}
    assert sorted(written) == sorted(shipped)
    for name, data in written.items():
        assert data == shipped[name], name
