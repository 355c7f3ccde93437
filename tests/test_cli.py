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
])
def test_bad_numbers_exit_code(tmp_path, capsys, argv):
    cfg = write_config(tmp_path, MILD_CONFIG)
    with pytest.raises(SystemExit) as err:
        main(["--store", str(tmp_path / "s"), argv[0], "--config", cfg, *argv[1:]])
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert f"error: argument {argv[-2]}" in stderr and "Traceback" not in stderr


def test_no_convergence_exit_code(tmp_path):
    cfg = write_config(tmp_path, MILD_CONFIG)
    code = main(["--store", str(tmp_path / "s"), "find-orbits", "--config", cfg,
                 "--period", "1", "--seeds", "0"])
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


def test_builtin_rejects_unknown_key_exit_code(tmp_path, capsys):
    # schema-valid, but quartic_kinetic takes no mass
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 1, "lagrangian": {"builtin": "quartic_kinetic",
                                                        "mass": 2.0}}))
    with pytest.raises(SystemExit) as err:
        main(["--store", str(tmp_path / "s"), "find-orbits", "--config", str(bad)])
    assert err.value.code == 2
    assert "'mass'" in capsys.readouterr().err


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
                   "1/(1+cos(2*pi*q1))"]


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
    # expanded, this base has about 4.5 million terms; it is refused unexpanded
    text = "1/(1+(2+cos(2*pi*q1)+sin(2*pi*q1))**3000)"
    doc = {"dim": 1, "lagrangian": {"builtin": "kinetic_potential", "potential": text}}
    assert find_orbits_exit_code(tmp_path, doc) == 2


def test_denominator_dominated_by_its_constant_loads():
    from brakekit.systems import load_system

    text = "1/(2+cos(2*pi*q1))"
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
