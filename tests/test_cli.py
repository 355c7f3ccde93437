import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from brakekit.cli import main

MILD_CONFIG = {
    "dim": 1,
    "theta": ["0.3"],
    "lagrangian": {"builtin": "kinetic_potential",
                   "potential": "cos(2*pi*q1)/(4*pi**2)"},
    "numerics": {"grid": 128},
}
FREE_CONFIG = {"dim": 1, "lagrangian": {"builtin": "kinetic_potential"},
               "numerics": {"grid": 128}}


def write_config(tmp_path, doc, name="system.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture(scope="module")
def mild_store(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    cfg = write_config(tmp, MILD_CONFIG)
    store = str(tmp / "store")
    code = main(["--store", store, "find-orbits", "--config", cfg,
                 "--period", "1", "--seeds", "8", "--seed", "0"])
    assert code == 0
    return tmp, cfg, store


def load_records(store):
    import glob

    out = []
    for p in sorted(glob.glob(f"{store}/orbits/*.json")):
        with open(p) as fh:
            out.append(json.load(fh))
    return out


def test_find_orbits_pendulum_finds_both_constants(mild_store):
    _, _, store = mild_store
    records = load_records(store)
    q_starts = sorted(round(r["q0"][0] % 1.0, 6) % 1.0 for r in records)
    assert any(abs(q) < 1e-6 or abs(q - 1) < 1e-6 for q in q_starts)
    assert any(abs(q - 0.5) < 1e-6 for q in q_starts)
    for r in records:
        assert r["brake_residual"] < 1e-6
        assert r["full_gradient_norm"] < 1e-8


def test_find_orbits_free_particle(tmp_path):
    cfg = write_config(tmp_path, FREE_CONFIG)
    store = str(tmp_path / "store")
    assert main(["--store", store, "find-orbits", "--config", cfg,
                 "--period", "1", "--seeds", "4", "--seed", "3"]) == 0
    for r in load_records(store):
        assert abs(r["mean_action"]) < 1e-10
        vals = np.asarray(r["half_values"])
        assert np.ptp(vals) < 1e-6  # constant loops only


@pytest.mark.parametrize("accept", [True, False], ids=["accept", "reject"])
def test_campaign_verifies_by_integration_when_the_reshoot_fails(accept, monkeypatch):
    from brakekit import dynamics
    from brakekit.cli import run_orbit_campaign
    from brakekit.errors import NonConvergence
    from brakekit.systems import load_system

    def refused(*args, **kwargs):
        raise NonConvergence("shooting refused")

    integrate, integrated = dynamics.integrate, []

    def logged(*args, **kwargs):
        integrated.append(args[2:4])
        return integrate(*args, **kwargs)

    monkeypatch.setattr(dynamics, "brake_shoot", refused)
    monkeypatch.setattr(dynamics, "integrate", logged)
    if not accept:
        monkeypatch.setattr(dynamics, "brake_residual", lambda *args: 1e-3)
    records = run_orbit_campaign(load_system(MILD_CONFIG), 1, n_seeds=1, grid=64,
                                 amplitudes=(0.0,))
    # the variational orbit (an equilibrium) is checked by integrating the
    # twisted flow from its brake start point over one period
    assert integrated == [(0.0, 1.0)]
    if accept:
        assert len(records) == 1 and records[0]["methods"] == ["variational"]
        assert records[0]["brake_residual"] < 1e-6
        assert records[0]["dynamic_tracking"] < 1e-8
    else:
        assert records == []


def test_campaign_refuses_an_odd_grid_before_shooting(monkeypatch):
    from brakekit import dynamics
    from brakekit.cli import run_orbit_campaign
    from brakekit.errors import GridMismatch
    from brakekit.systems import load_system

    shots = []
    brake_shoot = dynamics.brake_shoot

    def counted(*args, **kwargs):
        shots.append(args[2])
        return brake_shoot(*args, **kwargs)

    monkeypatch.setattr(dynamics, "brake_shoot", counted)
    with pytest.raises(GridMismatch):
        run_orbit_campaign(load_system(MILD_CONFIG), 1, 4, seed=2, grid=255)
    assert shots == []


def test_index_command(mild_store):
    tmp, cfg, store = mild_store
    records = load_records(store)
    oid = records[0]["id"]
    assert main(["--store", store, "index", "--config", cfg,
                 "--orbit", oid, "--k", "1,2"]) == 0
    report = json.loads(Path(f"{store}/reports/index_{oid}.json").read_text())
    assert report["all_pass"]


def test_index_rejects_tampered_orbit(mild_store, tmp_path):
    tmp, cfg, store = mild_store
    store2 = str(tmp_path / "tampered")
    shutil.copytree(store, store2)
    records = load_records(store2)
    rec = records[0]
    rec["half_values"] = [[v[0] + 0.02 * np.sin(7 * i)] for i, v in
                          enumerate(rec["half_values"])]
    with open(f"{store2}/orbits/{rec['id']}.json", "w") as fh:
        json.dump(rec, fh)
    code = main(["--store", store2, "index", "--config", cfg,
                 "--orbit", rec["id"], "--k", "1"])
    assert code == 2


def test_unmapped_brakekit_error_exit_code(mild_store, monkeypatch, capsys):
    from brakekit import cli
    from brakekit.errors import IllConditionedCrossing

    def fail(*args, **kwargs):
        raise IllConditionedCrossing("crossing form singular at t = 0.5")

    monkeypatch.setattr(cli, "verify_relations", fail)
    tmp, cfg, store = mild_store
    oid = load_records(store)[0]["id"]
    assert main(["--store", store, "index", "--config", cfg,
                 "--orbit", oid, "--k", "1"]) == 1
    assert "crossing form singular" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["index", "--orbit", "x", "--k", "0"],
    ["index", "--orbit", "x", "--k", "x"],
    ["modify-check", "--T", "4,x"],
    ["bangert", "--n", "1"],
    ["bangert", "--n", "0,2"],
    ["find-orbits", "--period", "0"],
    ["find-orbits", "--period", "-1"],
    ["find-orbits", "--grid", "1"],
    ["find-orbits", "--grid", "-4"],
    ["find-orbits", "--grid", "0"],  # once silently replaced by the document's grid
    ["find-orbits", "--grid", "3"],  # an odd grid once stored loops on the grid 2
    ["find-orbits", "--grid", "255"],
    # numpy's generators take no negative seed; no seed at all once exited 3
    ["find-orbits", "--seed", "-1"],
    ["modify-check", "--seed", "-3"],
    ["find-orbits", "--seeds", "0"],
    ["find-orbits", "--seeds", "-2"],
])
def test_bad_numbers_exit_code(tmp_path, capsys, argv):
    cfg = write_config(tmp_path, MILD_CONFIG)
    with pytest.raises(SystemExit) as err:
        main(["--store", str(tmp_path / "s"), argv[0], "--config", cfg, *argv[1:]])
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert f"error: argument {argv[-2]}" in stderr and "Traceback" not in stderr


def test_modify_check_refuses_a_repeated_T(tmp_path, capsys):
    # T = 4 against itself would certify T-independence vacuously
    cfg = write_config(tmp_path, MILD_CONFIG)
    for t_list in ("4,4", "4,8,4.0"):
        assert main(["--store", str(tmp_path / "s"), "modify-check", "--config", cfg,
                     "--T", t_list]) == 2
        assert "repeats a value" in capsys.readouterr().err


@pytest.mark.parametrize("doc,t_list,what", [
    (MILD_CONFIG, "1e200,1e201", "|v|^2 overflows"),
    ({"dim": 1, "lagrangian": {"builtin": "quartic_kinetic"}}, "1e80,1e81", "L overflows"),
    # builds, but the (M2) ladder out to |v| = 10T and the (M3) samples of
    # about 4T |N(0, 1)| overflow |v|^2
    (MILD_CONFIG, "1e153,2e153", "the certificate samples overflow"),
])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # L at |v| = 2T
def test_modify_check_refuses_an_overflowing_T(tmp_path, capsys, doc, t_list, what):
    cfg = write_config(tmp_path, doc)
    assert main(["--store", str(tmp_path / "s"), "modify-check", "--config", cfg,
                 "--T", t_list, "--seed", "1"]) == 1
    stderr = capsys.readouterr().err
    assert f"error: T = {float(t_list.split(',')[0]):g} is too large: {what}" in stderr
    assert "Traceback" not in stderr


def test_bangert_refuses_a_partial_homotopy_request(tmp_path, capsys):
    cfg = write_config(tmp_path, FREE_CONFIG)
    for extra in (["--c1", "0.5"], ["--c1", "0.06", "--c2", "1.0"], ["--eps", "0.032"]):
        assert main(["--store", str(tmp_path / "s"), "bangert", "--config", cfg,
                     "--family", "two-constant", "--n", "2", *extra]) == 2
        assert "needs all of --c1, --c2 and --eps" in capsys.readouterr().err
    assert not (tmp_path / "s" / "reports").exists()


def test_no_convergence_exit_code(tmp_path, monkeypatch):
    from types import SimpleNamespace

    from brakekit import cli
    from brakekit.errors import NonConvergence

    def fail(*args, **kwargs):
        raise NonConvergence("shooting did not close")

    # neither the shots nor the descents from the one seed converge
    monkeypatch.setattr(cli.dynamics, "brake_shoot", fail)
    monkeypatch.setattr(cli, "find_critical", lambda *a, **k: SimpleNamespace(converged=False))
    cfg = write_config(tmp_path, MILD_CONFIG)
    code = main(["--store", str(tmp_path / "s"), "find-orbits", "--config", cfg,
                 "--period", "1", "--seeds", "1"])
    assert code == 3


def test_schema_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 0, "lagrangian": {"builtin": "kinetic_potential"}}))
    with pytest.raises(SystemExit) as err:
        main(["--store", str(tmp_path / "s"), "find-orbits", "--config", str(bad)])
    assert err.value.code == 2


def test_unread_numerics_key_exit_code(tmp_path, capsys):
    # only grid and integrator_tol are read; anything else is rejected, not ignored
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**MILD_CONFIG, "numerics": {"grid": 128, "grad_tol": 1e-9}}))
    with pytest.raises(SystemExit) as err:
        main(["--store", str(tmp_path / "s"), "find-orbits", "--config", str(bad)])
    assert err.value.code == 2
    assert "grad_tol" in capsys.readouterr().err


def test_odd_document_grid_exit_code(tmp_path, capsys):
    # the half grid holds n/2 + 1 nodes, so an odd grid cannot make a loop
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**MILD_CONFIG, "numerics": {"grid": 255}}))
    with pytest.raises(SystemExit) as err:
        main(["--store", str(tmp_path / "s"), "find-orbits", "--config", str(bad)])
    assert err.value.code == 2
    assert "multiple of 2" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_builtin_rejects_unknown_key_exit_code(tmp_path, capsys):
    # schema-valid, but quartic_kinetic takes no mass
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 1, "lagrangian": {"builtin": "quartic_kinetic",
                                                        "mass": 2.0}}))
    with pytest.raises(SystemExit) as err:
        main(["--store", str(tmp_path / "s"), "find-orbits", "--config", str(bad)])
    assert err.value.code == 2
    assert "'mass'" in capsys.readouterr().err


MISSING = object()


def document_with(path, value):
    """A loadable T^1 document on the grid 16, with the field at the dotted
    path set to value, or removed when value is MISSING."""
    doc = {"dim": 1, "lagrangian": {"builtin": "kinetic_potential"},
           "numerics": {"grid": 16}}
    *parents, key = path.split(".")
    obj = doc
    for name in parents:
        obj = obj[name]
    if value is MISSING:
        del obj[key]
    else:
        obj[key] = value
    return doc


NAN, INF = float("nan"), float("inf")
# both sides of every field rule, and integral floats, with the find-orbits
# exit code; each document but the non-finite ones exits as it did when a
# JSON Schema in the CLI checked the document before load_system
DOCUMENT_RULES = [
    ("dim", 2, 0), ("dim", 2.0, 0), ("dim", 0, 2), ("dim", 2.5, 2), ("dim", True, 2),
    ("dim", "1", 2), ("dim", MISSING, 2),
    ("periods", [2], 0), ("periods", [0.5], 0), ("periods", [0], 2), ("periods", [-1.0], 2),
    ("periods", ["1"], 2), ("periods", [True], 2), ("periods", 1.0, 2),
    ("theta", ["0.3"], 0), ("theta", [0.3], 2), ("theta", "0.3", 2),
    ("name", "an extra top-level key", 0),
    ("lagrangian", MISSING, 2), ("lagrangian", "kinetic_potential", 2),
    ("lagrangian.builtin", MISSING, 2), ("lagrangian.builtin", 1, 2),
    ("lagrangian.potential", "cos(2*pi*q1)", 0), ("lagrangian.potential", 1, 2),
    ("lagrangian.mass", 2, 0), ("lagrangian.mass", 0.5, 0), ("lagrangian.mass", 0, 2),
    ("lagrangian.mass", -1, 2), ("lagrangian.mass", True, 2), ("lagrangian.mass", "1", 2),
    ("numerics", MISSING, 0), ("numerics", {}, 0), ("numerics", [16], 2),
    ("numerics.grid", 16.0, 0), ("numerics.grid", 2, 0), ("numerics.grid", 1, 2),
    ("numerics.grid", 0, 2), ("numerics.grid", 15, 2), ("numerics.grid", 16.5, 2),
    ("numerics.grid", "abc", 2), ("numerics.grid", True, 2),
    ("numerics.grad_tol", 1e-9, 2),
    ("numerics.integrator_tol", 1e-8, 0), ("numerics.integrator_tol", 1, 0),
    ("numerics.integrator_tol", 0, 2), ("numerics.integrator_tol", -1, 2),
    ("numerics.integrator_tol", True, 2), ("numerics.integrator_tol", "1e-8", 2),
    ("dim", NAN, 2), ("dim", INF, 2), ("numerics.grid", NAN, 2), ("numerics.grid", INF, 2),
    # refused only since load_system owns the rules: under the schema, NaN and
    # Infinity periods and an infinite mass exited 1 with a traceback, and a
    # NaN mass and a NaN or infinite integrator_tol ran past 15 s
    ("periods", [NAN], 2), ("periods", [INF], 2), ("lagrangian.mass", NAN, 2),
    ("lagrangian.mass", INF, 2), ("numerics.integrator_tol", NAN, 2),
    ("numerics.integrator_tol", INF, 2),
]


@pytest.mark.parametrize("path, value, code", DOCUMENT_RULES,
                         ids=[f"{p}={v!r}" for p, v, _ in DOCUMENT_RULES])
def test_document_rule_exit_code(tmp_path, capsys, path, value, code):
    # json.dumps writes NaN and Infinity as the literals json.load reads back
    cfg = write_config(tmp_path, document_with(path, value))
    try:
        got = main(["--store", str(tmp_path / "s"), "find-orbits", "--config", cfg,
                    "--seeds", "1"])
    except SystemExit as exc:
        got = exc.code
    assert got == code
    if code == 2:
        err = capsys.readouterr().err
        assert path.split(".")[-1] in err and "Traceback" not in err, err


def test_a_config_that_is_not_an_object_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, [document_with("dim", 1)])
    with pytest.raises(SystemExit) as err:
        main(["--store", str(tmp_path / "s"), "find-orbits", "--config", cfg])
    assert err.value.code == 2
    assert "must be a dict" in capsys.readouterr().err


def test_cli_loads_a_config_without_jsonschema(tmp_path):
    # the document's one validator is load_system: no command imports a schema library
    import subprocess
    import sys

    cfg = write_config(tmp_path, MILD_CONFIG)
    script = ("import sys\nfrom brakekit.cli import main\n"
              f"code = main(['--store', {str(tmp_path / 's')!r}, 'find-orbits', "
              f"'--config', {cfg!r}, '--seeds', '1', '--grid', '64'])\n"
              "print(code, [m for m in sys.modules if m.split('.')[0] == 'jsonschema'])")
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={"PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split()[-2:] == ["0", "[]"]


REJECTED_EXPRESSIONS = [
    # outside the grammar
    "__import__('os').getpid()*0", "exp(q1)", "sqrt(2)*cos(2*pi*q1)", "2^2*cos(2*pi*q1)",
    # inside it, but not a finite real field, or too large to build
    "1/0", "(-1)**0.5*cos(2*pi*q1)", "9**9**8*cos(2*pi*q1)",
]


def find_orbits_exit_code(tmp_path, doc):
    cfg = write_config(tmp_path, doc)
    with pytest.raises(SystemExit) as err:
        main(["--store", str(tmp_path / "s"), "find-orbits", "--config", cfg,
              "--seeds", "1"])
    return err.value.code


@pytest.mark.parametrize("text", REJECTED_EXPRESSIONS)
def test_rejected_expression_exit_code(tmp_path, text):
    as_potential = {"dim": 1, "lagrangian": {"builtin": "kinetic_potential",
                                             "potential": text}}
    assert find_orbits_exit_code(tmp_path, as_potential) == 2
    as_theta = {"dim": 1, "theta": [text],
                "lagrangian": {"builtin": "kinetic_potential"}}
    assert find_orbits_exit_code(tmp_path, as_theta) == 2


@pytest.mark.parametrize("potential", ["cos(q1)", "q1**2"])
def test_nonperiodic_potential_exit_code(tmp_path, capsys, potential):
    doc = {"dim": 1, "lagrangian": {"builtin": "kinetic_potential",
                                    "potential": potential}}
    assert find_orbits_exit_code(tmp_path, doc) == 2
    assert "not lattice-periodic" in capsys.readouterr().err


# lattice-periodic, inside the grammar, and each with a pole on the torus
SINGULAR_FIELDS = ["cos(2*pi*q1)**-1", "1/cos(2*pi*q1)", "sin(2*pi*q1)**(-2)",
                   "1/(1+cos(2*pi*q1))", "1/(3+cos(2*pi*q1)**(-1))"]


@pytest.mark.parametrize("text", SINGULAR_FIELDS)
def test_singular_field_exit_code(tmp_path, capsys, text):
    as_potential = {"dim": 1, "lagrangian": {"builtin": "kinetic_potential",
                                             "potential": text}}
    assert find_orbits_exit_code(tmp_path, as_potential) == 2
    assert "pole" in capsys.readouterr().err
    as_theta = {"dim": 1, "theta": [text],
                "lagrangian": {"builtin": "kinetic_potential"}}
    assert find_orbits_exit_code(tmp_path, as_theta) == 2
    assert "pole" in capsys.readouterr().err


def test_pole_rule_refuses_a_base_too_large_to_expand(tmp_path):
    # expanded, these bases have about 4.5 million and 2556 terms, past the
    # power and past the term count the rule expands; both are refused unexpanded
    for text in ("1/(1+(2+cos(2*pi*q1)+sin(2*pi*q1))**3000)",
                 "1/(2+(1+cos(2*pi*q1)+sin(2*pi*q1))**70)"):
        doc = {"dim": 1, "lagrangian": {"builtin": "kinetic_potential", "potential": text}}
        assert find_orbits_exit_code(tmp_path, doc) == 2


def test_denominator_dominated_by_its_constant_loads():
    from brakekit.systems import load_system

    # a numeric coefficient counts by its size, products and powers by their
    # expanded terms: 3 > 2, and 5 > 1 + 2 + 1
    for text in ("1/(2+cos(2*pi*q1))", "1/(3+2*cos(2*pi*q1)*sin(2*pi*q1))",
                 "1/(5+(cos(2*pi*q1)+sin(2*pi*q1))**2)"):
        system = load_system({"dim": 1, "theta": [text],
                              "lagrangian": {"builtin": "kinetic_potential",
                                             "potential": text}})
        assert np.isfinite(system.L_theta.value(0.0, np.array([0.5]), np.array([0.1])))


def test_grammar_accepts_workload_documents():
    from brakekit.systems import load_system

    for kinetic, theta, potential in [
            ("kinetic_potential", ["0.3"], "1.2*cos(2*pi*q1)"),
            ("quartic_kinetic", ["0.3"], "0.5*cos(2*pi*q1)"),
            ("kinetic_potential", ["0.3", "0.1"],
             "0.7*cos(2*pi*q1) + 0.5*cos(2*pi*q2)"),
            ("kinetic_potential", ["+0.1*sin(2*pi*q2)**2", "-1.5e-1"],
             "(cos(2*pi*q1) - 1)/(4*pi**2) * 3"),
    ]:
        system = load_system({"dim": len(theta), "theta": theta,
                              "lagrangian": {"builtin": kinetic, "potential": potential}})
        assert system.dim == len(theta)


def test_modify_check_command(mild_store, monkeypatch):
    from brakekit.store import OrbitStore

    tmp, cfg, store = mild_store
    loads = []
    load_orbit = OrbitStore.load_orbit

    def counted(self, orbit_id):
        loads.append(orbit_id)
        return load_orbit(self, orbit_id)

    monkeypatch.setattr(OrbitStore, "load_orbit", counted)
    assert main(["--store", store, "modify-check", "--config", cfg,
                 "--T", "2,4"]) == 0
    report = json.loads(Path(f"{store}/reports/modification.json").read_text())
    assert report["all_pass"]
    assert sorted(loads) == sorted(OrbitStore(store).orbit_ids())  # each read once


def test_bangert_command(tmp_path):
    cfg = write_config(tmp_path, FREE_CONFIG)
    store = str(tmp_path / "store")
    code = main(["--store", store, "bangert", "--config", cfg,
                 "--family", "two-constant", "--n", "2,8",
                 "--c1", "0.06", "--c2", "1.0", "--eps", "0.032"])
    assert code == 0
    report = json.loads(Path(f"{store}/reports/bangert_two-constant.json").read_text())
    assert report["passed"]
    assert report["homotopy"]["certificates"]["ii"]


def test_bangert_command_computes_the_glue_constant_once(tmp_path, monkeypatch):
    from brakekit import bangert

    built = []
    hat_segment = bangert._hat_segment

    def counted(family, w, rho=None):
        built.append(w)
        return hat_segment(family, w, rho=rho)

    monkeypatch.setattr(bangert, "_hat_segment", counted)
    cfg = write_config(tmp_path, FREE_CONFIG)
    assert main(["--store", str(tmp_path / "store"), "bangert", "--config", cfg,
                 "--family", "two-constant", "--n", "2,4,8",
                 "--c1", "0.06", "--c2", "1.0", "--eps", "0.032"]) == 0
    # the action bound check and the homotopy share one set of 33 glue segments
    assert len(built) == 33


def test_bangert_refuses_an_unusable_orbit_family(tmp_path, capsys):
    from brakekit.loopspace import SymmetricLoop
    from brakekit.store import OrbitStore

    store = OrbitStore(tmp_path / "store")
    coarse, fine = (store.save_orbit(SymmetricLoop.constant([0.5], n_per_unit=n), {}, {})
                    for n in (64, 128))
    cfg = write_config(tmp_path, MILD_CONFIG)
    for ids, why in ((f"000000000000,{fine}", "orbit not found"),
                     (f"{coarse},{fine}", "on one grid")):
        assert main(["--store", str(store.root), "bangert", "--config", cfg,
                     "--family", f"orbits:{ids}"]) == 2
        assert why in capsys.readouterr().err


def test_bangert_orbit_family_of_two_constant_loops(tmp_path):
    from brakekit.loopspace import SymmetricLoop
    from brakekit.store import OrbitStore

    store = OrbitStore(tmp_path / "store")
    ids = [store.save_orbit(SymmetricLoop.constant([q], n_per_unit=64), {}, {})
           for q in (0.0, 0.5)]
    cfg = write_config(tmp_path, MILD_CONFIG)
    assert main(["--store", str(store.root), "bangert", "--config", cfg,
                 "--family", f"orbits:{','.join(ids)}", "--n", "2,4"]) == 0
    family = f"orbits_{','.join(ids)}"
    report = json.loads((store.root / "reports" / f"bangert_{family}.json").read_text())
    # the action of a constant loop at q is -V(q), V = cos(2 pi q) / (4 pi^2)
    want = [-1.0 / (4 * np.pi ** 2), 1.0 / (4 * np.pi ** 2)]
    assert np.allclose(report["endpoint_actions"], want, rtol=0.0, atol=1e-9)


def test_bangert_refuses_a_builtin_family_off_the_circle(tmp_path, capsys):
    # the builtin families are loops in T^1
    cfg = write_config(tmp_path, {"dim": 2, "theta": ["0.3", "0.1"],
                                  "lagrangian": {"builtin": "kinetic_potential",
                                                 "potential": "cos(2*pi*q1) + cos(2*pi*q2)"}})
    assert main(["--store", str(tmp_path / "store"), "bangert", "--config", cfg,
                 "--family", "two-constant"]) == 2
    assert "T^2" in capsys.readouterr().err


def test_determinism_byte_identical(tmp_path):
    cfg = write_config(tmp_path, MILD_CONFIG)
    outs = []
    for name in ("a", "b"):
        store = str(tmp_path / name)
        assert main(["--store", store, "find-orbits", "--config", cfg,
                     "--period", "1", "--seeds", "3", "--seed", "5"]) == 0
        recs = {}
        import glob

        for p in sorted(glob.glob(f"{store}/orbits/*")):
            recs[p.split("/")[-1]] = Path(p).read_bytes()
        outs.append(recs)
    assert outs[0] == outs[1]


def test_export_command(mild_store, tmp_path):
    _, cfg, store = mild_store
    out = str(tmp_path / "exported")
    assert main(["--store", store, "export", "--out", out]) == 0
    import glob

    assert glob.glob(f"{out}/*.csv") and glob.glob(f"{out}/*.json")


def test_export_refuses_a_missing_orbit(mild_store, tmp_path, capsys):
    _, _, store = mild_store
    oid = load_records(store)[0]["id"]
    out = tmp_path / "exported"
    assert main(["--store", store, "export", "--orbit", f"{oid},000000000000",
                 "--out", str(out)]) == 2
    assert "000000000000" in capsys.readouterr().err and not out.exists()


def _store_beside_a_record(mild_store, tmp_path):
    """(config, a copy of the store under tmp_path, the id of one of its
    orbits, an id that points at a valid record outside the store)."""
    _, cfg, store = mild_store
    oid = load_records(store)[0]["id"]
    outside = tmp_path / "outside"
    outside.mkdir()
    for ext in (".json", ".csv"):
        shutil.copy(f"{store}/orbits/{oid}{ext}", outside / f"stolen{ext}")
    work = tmp_path / "store"
    shutil.copytree(store, work)
    return cfg, str(work), oid, "../../outside/stolen"


@pytest.mark.parametrize("command", ["index", "export", "bangert"])
def test_orbit_id_cannot_reach_outside_the_store(command, mild_store, tmp_path, capsys,
                                                 monkeypatch):
    from brakekit import cli

    def never(*args, **kwargs):
        raise AssertionError("a record outside the store was loaded")

    monkeypatch.setattr(cli, "verify_relations", never)
    cfg, store, oid, stolen = _store_beside_a_record(mild_store, tmp_path)
    argv = {"index": ["index", "--config", cfg, "--orbit", stolen, "--k", "1"],
            "export": ["export", "--orbit", stolen, "--out", str(tmp_path / "out")],
            "bangert": ["bangert", "--config", cfg, "--family", f"orbits:{oid},{stolen}"],
            }[command]
    before = sorted(tmp_path.rglob("*"))
    assert main(["--store", store, *argv]) == 2
    assert "orbit not found" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before  # nothing written, in or out


MALFORMED_RECORDS = [
    '{"period": 1}',
    '{"period": 1, "dim": 1, "periods": [1.0], "half_va',
    '[1, 2]',
    '{"dim": 1, "periods": [1.0], "period": 1, "half_values": [[0.1, 0.2]]}',
    '{"dim": 1, "periods": [1.0], "period": 1.5, "half_values": [[0.1], [0.2]]}',
]


@pytest.mark.parametrize("text", MALFORMED_RECORDS)
def test_malformed_record_exit_code(tmp_path, capsys, text):
    cfg = write_config(tmp_path, MILD_CONFIG)
    orbits = tmp_path / "store" / "orbits"
    orbits.mkdir(parents=True)
    (orbits / "0123456789ab.json").write_text(text)
    assert main(["--store", str(tmp_path / "store"), "index", "--config", cfg,
                 "--orbit", "0123456789ab", "--k", "1"]) == 2
    assert "0123456789ab.json" in capsys.readouterr().err


def test_modify_check_refuses_a_malformed_record(tmp_path, capsys):
    cfg = write_config(tmp_path, FREE_CONFIG)
    orbits = tmp_path / "store" / "orbits"
    orbits.mkdir(parents=True)
    (orbits / "0123456789ab.json").write_text(MALFORMED_RECORDS[0])
    assert main(["--store", str(tmp_path / "store"), "modify-check", "--config", cfg]) == 2
    assert "KeyError" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["index", "modify-check"])
def test_orbit_in_another_dimension_exit_code(command, tmp_path, capsys):
    from brakekit.loopspace import SymmetricLoop
    from brakekit.store import OrbitStore

    store = OrbitStore(tmp_path / "store")
    oid = store.save_orbit(SymmetricLoop.constant([0.5], n_per_unit=64), {}, {})
    cfg = write_config(tmp_path, {"dim": 2, "lagrangian": {"builtin": "kinetic_potential"}})
    argv = ["index", "--orbit", oid] if command == "index" else ["modify-check"]
    assert main(["--store", str(store.root), *argv, "--config", cfg]) == 2
    assert "T^1; the system is on T^2" in capsys.readouterr().err


def test_cli_loads_a_2d_config_without_sympy(tmp_path):
    # the expression compiler is brakekit's own: sympy is a test oracle only
    import subprocess
    import sys

    doc = {"dim": 2, "theta": ["0.3", "0.1"],
           "lagrangian": {"builtin": "kinetic_potential",
                          "potential": "0.7*cos(2*pi*q1) + 0.5*cos(2*pi*q2)"},
           "numerics": {"grid": 64}}
    cfg = write_config(tmp_path, doc)
    script = ("import sys\nfrom brakekit.cli import main\n"
              f"code = main(['--store', {str(tmp_path / 's')!r}, 'find-orbits', "
              f"'--config', {cfg!r}, '--seeds', '1'])\n"
              "print(code, [m for m in sys.modules if m.split('.')[0] == 'sympy'])")
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={"PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split()[-2:] == ["0", "[]"]


@pytest.mark.parametrize("text", ["[" * 200000, '{"dim": ' + "[" * 200000],
                         ids=["array", "object"])
def test_config_nested_too_deeply_exit_code(tmp_path, capsys, text):
    cfg = tmp_path / "deep.json"
    cfg.write_text(text)
    with pytest.raises(SystemExit) as err:
        main(["--store", str(tmp_path / "s"), "find-orbits", "--config", str(cfg),
              "--seeds", "1"])
    assert err.value.code == 2
    assert "invalid config" in capsys.readouterr().err


@pytest.mark.parametrize("n", [3000, 30000])
def test_expression_nested_too_deeply_exit_code(tmp_path, capsys, n):
    doc = {"dim": 1, "lagrangian": {"builtin": "kinetic_potential",
                                    "potential": "-" * n + "cos(2*pi*q1)"}}
    assert find_orbits_exit_code(tmp_path, doc) == 2
    assert "cannot parse" in capsys.readouterr().err
