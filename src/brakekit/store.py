"""Deterministic on-disk store for orbit records and reports.

Records are JSON keyed by a content hash of the loop samples and the system
document, so re-running a command on unchanged inputs reproduces identical
files byte for byte (Python's float repr is shortest round-trip).
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import re
from pathlib import Path

import numpy as np

from .errors import MalformedRecord
from .loopspace import SymmetricLoop
from .model import TorusSpace

__all__ = ["OrbitStore", "canonical_json", "content_hash"]


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def content_hash(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()[:12]


# the form content_hash gives an orbit id; nothing else names a stored orbit
_ORBIT_ID = re.compile(r"[0-9a-f]{12}")


def _write_atomic(path, write, newline=None):
    """Run write(fh) on a temp file beside path, then move it onto path.

    An interrupted write leaves neither a truncated file under the final name
    nor the temp file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline=newline) as fh:
            write(fh)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_json(path, payload):
    def write(fh):
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")

    _write_atomic(path, write)


class OrbitStore:
    """Directory of orbit JSON/CSV records plus attached reports."""

    def __init__(self, root):
        self.root = Path(root)
        (self.root / "orbits").mkdir(parents=True, exist_ok=True)
        (self.root / "reports").mkdir(parents=True, exist_ok=True)

    def orbit_ids(self):
        return sorted(p.stem for p in (self.root / "orbits").glob("*.json")
                      if _ORBIT_ID.fullmatch(p.stem))

    def _orbit_path(self, orbit_id):
        """The record's path; an id that is not a content hash names no orbit,
        so no id can reach outside the store."""
        if not (isinstance(orbit_id, str) and _ORBIT_ID.fullmatch(orbit_id)):
            raise FileNotFoundError(f"{orbit_id!r} is not an orbit id "
                                    "(12 lowercase hex digits)")
        return self.root / "orbits" / f"{orbit_id}.json"

    def save_orbit(self, loop: SymmetricLoop, system_doc: dict, extra: dict) -> str:
        payload = {
            "period": loop.period,
            "grid": loop.n,
            "dim": loop.dim,
            "half_values": [[float(v) for v in row] for row in loop.half_values],
            "periods": [float(p) for p in loop.torus.periods],
            "system": system_doc,
        }
        orbit_id = content_hash(payload)
        record = dict(payload)
        record["id"] = orbit_id
        record.update(extra)
        _write_json(self._orbit_path(orbit_id), record)
        self._write_loop_csv(loop, self.root / "orbits" / f"{orbit_id}.csv")
        return orbit_id

    @staticmethod
    def _write_loop_csv(loop: SymmetricLoop, path):
        ts = loop.full_times()
        vals = loop.full_values()

        def write(fh):
            writer = csv.writer(fh)
            writer.writerow(["t"] + [f"q{i + 1}" for i in range(loop.dim)])
            for t, row in zip(ts, vals):
                writer.writerow([repr(float(t))] + [repr(float(x)) for x in row])

        _write_atomic(path, write, newline="")

    def load_orbit(self, orbit_id):
        """(loop, record) of a stored orbit.

        A missing record raises FileNotFoundError; a record that is not JSON,
        or whose dim, periods, period or half_values do not make a loop,
        raises MalformedRecord naming it.
        """
        path = self._orbit_path(orbit_id)
        with open(path) as fh:
            text = fh.read()
        try:
            record = json.loads(text)
            torus = TorusSpace(record["dim"], np.asarray(record["periods"], dtype=float))
            half = np.asarray(record["half_values"], dtype=float)
            period = record["period"]
            if type(period) is not int or half.shape[1:] != (torus.dim,) \
                    or len(half) < 2 or not np.all(np.isfinite(half)):
                raise ValueError("period must be an integer and half_values "
                                 f"finite rows of {torus.dim} coordinates")
            loop = SymmetricLoop(period, half, torus)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            raise MalformedRecord(
                f"orbit record {path}: {type(exc).__name__}: {exc}") from exc
        return loop, record

    def save_report(self, name: str, payload: dict):
        path = self.root / "reports" / f"{name}.json"
        _write_json(path, payload)
        return path
