"""Tests of the benchmark's own machinery.  Run: python3 -m pytest brakebench -q"""

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


@pytest.mark.parametrize("coeffs, q, k, period, want", [
    # pendulum V = 1.2 cos(2 pi q): V''(0.5) = 1.2 (2 pi)^2 ~ 47.4 admits
    # modes j <= 1 at k = 1, j <= 2 at k = 2, j <= 4 at k = 4
    ((1.2,), (0.5,), 1, 1, ((3, 0), (2, 0))),
    ((1.2,), (0.5,), 2, 1, ((5, 0), (3, 0))),
    ((1.2,), (0.5,), 4, 1, ((9, 0), (5, 0))),
    ((1.2,), (0.0,), 4, 1, ((0, 0), (0, 0))),
    # T2: V''_1 = 0.7 (2 pi)^2 ~ 27.6, V''_2 = 0.5 (2 pi)^2 ~ 19.7
    ((0.7, 0.5), (0.5, 0.5), 1, 1, ((2, 0), (2, 0))),
    ((0.7, 0.5), (0.5, 0.5), 2, 1, ((6, 0), (4, 0))),
    ((0.7, 0.5), (0.5, 0.5), 4, 1, ((12, 0), (7, 0))),
    ((0.7, 0.5), (0.0, 0.5), 1, 1, ((1, 0), (1, 0))),
    # period 2 halves every frequency: (pi j)^2 < 19.7 for j = 1 only
    ((0.5,), (0.5,), 1, 2, ((3, 0), (2, 0))),
])
def test_fourier_oracle_hand_values(coeffs, q, k, period, want):
    assert oracle.fourier_morse_counts(coeffs, q, k, period) == want


def test_energy_drift_exact_for_constant_and_small_for_harmonic_sample():
    import numpy as np

    assert oracle.energy_drift("kinetic_potential", (1.2,), np.full((64, 1), 0.5), 1) == 0.0
    # a circle at unit speed in a zero potential: constant kinetic energy
    t = np.arange(512) / 512
    loop = np.stack([np.cos(2 * np.pi * t), np.sin(2 * np.pi * t)], axis=1) / (2 * np.pi)
    assert oracle.energy_drift("quartic_kinetic", (0.0, 0.0), loop, 1) < 1e-12


def test_self_time_is_span_minus_children():
    tr = tracing.Tracer()
    tr.spans = [
        tracing.Span("a", 0.0, 10.0),
        tracing.Span("b", 1.0, 3.0, parent=0),
        tracing.Span("c", 2.5, 6.0, parent=0),   # overlaps b: covered once
        tracing.Span("d", 4.0, 5.0, parent=2),
        tracing.Span("e", 12.0, 13.0),
    ]
    assert tr.self_times() == pytest.approx([10.0 - 5.0, 2.0, 3.5 - 1.0, 1.0, 1.0])


def test_spans_nest_and_mark_failures():
    tr = tracing.Tracer()
    with tr.span("outer"):
        with pytest.raises(ValueError):
            with tr.span("inner"):
                raise ValueError
    outer, inner = tr.spans
    assert inner.parent == 0 and outer.parent == -1
    assert outer.ok and not inner.ok
    assert tr.self_times()[0] == pytest.approx(outer.duration - inner.duration)


def test_wrapper_covers_every_import_binding_and_restores_them():
    import brakekit
    from brakekit import cli, index, loopspace, modification, store

    modules = tracing.brakekit_modules(brakekit)
    originals = {(m.__name__, a): o for m in modules for a, o in vars(m).items()}
    public = tracing.public_functions(modules)
    save_orbit = store.OrbitStore.__dict__["save_orbit"]
    L = _free_lagrangian()
    loop = loopspace.SymmetricLoop.constant([0.5], 1, n_per_unit=16)
    tr = tracing.Tracer()
    method = (store.OrbitStore, "save_orbit", "store.save_orbit")
    with tracing.traced(tr, modules, methods=[method]):
        assert store.OrbitStore.__dict__["save_orbit"] is not save_orbit
        wrapped = loopspace.assemble_hessian
        assert wrapped is not originals[("brakekit.loopspace", "assemble_hessian")]
        assert index.assemble_hessian is wrapped
        assert modification.assemble_hessian is wrapped
        assert cli.find_critical is loopspace.find_critical
        assert cli.find_critical is not originals[("brakekit.loopspace", "find_critical")]
        assert cli.verify_relations is index.verify_relations
        assert cli.verify_relations is not originals[("brakekit.index", "verify_relations")]
        # every public function, at every binding, is wrapped
        for m in modules:
            for attr, obj in vars(m).items():
                assert id(obj) not in public, f"{m.__name__}.{attr} left unwrapped"
        index.morse_index(L, loop, k=2)
    for m in modules:
        for attr, obj in vars(m).items():
            assert obj is originals[(m.__name__, attr)], f"{m.__name__}.{attr} not restored"
    assert store.OrbitStore.__dict__["save_orbit"] is save_orbit
    names = [sp.name for sp in tr.spans]
    assert names[0] == "index.morse_index"
    assert "loopspace.assemble_hessian" in names and "loopspace.assemble_gram" in names
    assert tr.spans[0].attrs == {"dof": 16 * 2 * 1}


def _free_lagrangian():
    from brakekit.systems import load_system

    return load_system({"dim": 1, "lagrangian": {"builtin": "kinetic_potential"}}).L_theta


def test_failed_operation_time_stays_out_of_stage_totals():
    class Boom(Exception):
        pass

    ops = run.Ops(Boom)

    def slow_failure():
        time.sleep(0.05)
        raise Boom("fault")

    assert ops.run("index", "bad", slow_failure) is None
    assert ops.stage_s["index"] == 0.0
    assert ops.run("index", "good", lambda: 7) == 7
    assert 0.0 <= ops.stage_s["index"] < 0.05
    assert ops.attempted == 2
    assert [f["op"] for f in ops.failures] == ["bad"]
    with pytest.raises(KeyError):
        ops.run("index", "bug", lambda: {}["missing"])   # other errors propagate


def test_failures_must_match_the_expected_ones():
    class Boom(Exception):
        pass

    def fail():
        raise Boom("fault")

    expected = {("index", "bad"): "Boom"}
    ops = run.Ops(Boom)
    for _ in range(2):
        ops.run("index", "bad", fail)
        ops.run("index", "good", lambda: 1)
    assert ops.unexpected(expected) == []
    # an operation that is not listed fails
    ops.run("bangert", "action bound", fail)
    assert [m.split(":")[0] for m in ops.unexpected(expected)] == ["bangert action bound"]
    # an expected failure that stops happening, or never runs
    mended = run.Ops(Boom)
    mended.run("index", "bad", lambda: 1)
    assert [m.split(":")[0] for m in mended.unexpected(expected)] == ["index bad"]
    assert len(run.Ops(Boom).unexpected(expected)) == 1
    # the right operation failing with another error class
    other = run.Ops((Boom, ValueError))
    other.run("index", "bad", lambda: int("x"))
    assert len(other.unexpected(expected)) == 1


def test_workload_expected_failures_name_real_operations():
    from workloads import WORKLOADS

    for wl in WORKLOADS.values():
        labels = {op.label for op in wl.index_ops}
        for stage, label in wl.expected_failures:
            assert stage == "index" and label in labels


def test_layer_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    assert set(tracing.layer_metrics(tracing.Tracer(), 0)) == names
