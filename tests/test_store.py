import json

import pytest

from brakekit import store as store_module
from brakekit.loopspace import SymmetricLoop
from brakekit.store import OrbitStore


def test_interrupted_write_leaves_nothing_behind(tmp_path, monkeypatch):
    orbit_store = OrbitStore(tmp_path)
    loop = SymmetricLoop.constant([0.25], 1, n_per_unit=8)

    def broken_dump(obj, fh, **kwargs):
        fh.write('{"period": 1, "gri')
        raise OSError("disk full")

    monkeypatch.setattr(store_module.json, "dump", broken_dump)
    with pytest.raises(OSError):
        orbit_store.save_orbit(loop, {"dim": 1}, {})
    with pytest.raises(OSError):
        orbit_store.save_report("report", {"a": 1})
    assert list((tmp_path / "orbits").iterdir()) == []
    assert list((tmp_path / "reports").iterdir()) == []
    assert orbit_store.orbit_ids() == []


def test_write_replaces_previous_record(tmp_path):
    orbit_store = OrbitStore(tmp_path)
    orbit_store.save_report("report", {"a": 1})
    path = orbit_store.save_report("report", {"a": 2})
    assert json.loads(path.read_text()) == {"a": 2}
    assert sorted(p.name for p in (tmp_path / "reports").iterdir()) == ["report.json"]
