"""brakekit runs on numpy and scipy.linalg: no other scipy subpackage is loaded.

scipy.integrate, scipy.interpolate and scipy.optimize pull in scipy.special,
scipy.sparse and more, which doubles the start-up cost of every command.  A
fresh interpreter imports the package, loads every benchmark workload
document and runs a small campaign and index certification, so an import
deferred into a function is caught as well as one at module level.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "brakebench"))
from workloads import WORKLOADS  # noqa: E402

FORBIDDEN = ("scipy.integrate", "scipy.interpolate", "scipy.optimize", "scipy.special",
             "scipy.sparse")

CHILD = """
import json, sys, tempfile
from brakekit import bangert, cli, index, modification, store, systems

docs, pendulum = json.loads(sys.argv[1]), json.loads(sys.argv[2])
for doc in docs:
    systems.load_system(doc)
with tempfile.TemporaryDirectory() as tmp:
    config = tmp + "/pendulum.json"
    with open(config, "w") as fh:
        json.dump(pendulum, fh)
    assert cli.main(["--store", tmp, "find-orbits", "--config", config,
                     "--seeds", "1", "--grid", "64"]) == 0
    orbits = store.OrbitStore(tmp)
    system = systems.load_system(pendulum)
    ids = orbits.orbit_ids()
    assert ids
    for orbit_id in ids:
        loop, _ = orbits.load_orbit(orbit_id)
        index.verify_relations(system.L_theta, loop, ks=(1,))
print(json.dumps(sorted(sys.modules)))
"""


def test_runtime_loads_no_scipy_subpackage_but_linalg():
    docs = [wl.document() for wl in WORKLOADS.values()]
    pendulum = {"dim": 1, "theta": ["0.3"],
                "lagrangian": {"builtin": "kinetic_potential", "potential": "cos(2*pi*q1)"}}
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", CHILD, json.dumps(docs), json.dumps(pendulum)],
                         capture_output=True, text=True, env=env, timeout=300)
    assert out.returncode == 0, out.stderr
    modules = json.loads(out.stdout.strip().splitlines()[-1])
    assert "brakekit.ode" in modules and "scipy.linalg" in modules
    loaded = [m for m in modules if m.startswith(FORBIDDEN)]
    assert not loaded, loaded
