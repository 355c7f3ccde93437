"""brakekit benchmark: one workload, timed per stage, in one fresh process.

    python3 brakebench/run.py --workload pendulum-k8 --seed 0 --seconds 30 --trace 0

Stages run in a closed loop with one caller, each starting when the previous
one ends: find-orbits (campaign plus store writes), index certification,
modification certificates, and the Bangert action bound.  A round runs each
stage a fixed number of times (the workload's ``repeats``); rounds repeat while
another one fits in ``--seconds`` (at least one).  A stage's metric is the
median over rounds of the median over its repeats of the stage's total over
its fixed operation list.  An operation that raises a brakekit error is
counted as failed and its time is left out of every metric; a failure the
workload does not list as expected, or an expected one that does not happen,
makes the run incorrect.

``--trace 1`` runs one round with every public brakekit function wrapped in a
span and prints the per-layer metrics instead.  The last line of standard
output is the JSON result; a copy with the environment goes to
``brakebench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# set-up children per run, the metric their minimum: one child takes ~1.6 s
# and the host's brief slow spells only ever lengthen it
SETUP_REPEATS = 3
BLAS_THREADS = "1"
MODIFY_T = (4.0, 8.0)          # the modify-check command's defaults
BANGERT_NS = (2, 4, 8, 16)
BANGERT_NODES = 65             # parameter values checked, both ends included

STAGES = ("find_orbits", "index", "modify_check", "bangert")

# interpreter start to a loaded MagneticSystem, run in a fresh process
SETUP_CHILD = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
from brakekit import bangert, cli, index, modification, store, systems
systems.load_system(json.loads(sys.argv[2]))
print(time.monotonic())
"""


class Ops:
    """Attempted operations of one run, their failures, and per-stage time.

    Only operations that return count towards a stage's time, so a change that
    mends a failing operation is not charged for the work it then does.
    """

    def __init__(self, error_types, tracer=None):
        self.error_types = error_types
        self.tracer = tracer
        self.attempted = 0
        self.failures = []
        self.outcomes = {}     # (stage, label) -> [error class name or None]
        self.stage_s = dict.fromkeys(STAGES, 0.0)

    def run(self, stage, label, fn):
        self.attempted += 1
        span = self.tracer.span(f"op.{stage}", label=label) if self.tracer else nullcontext()
        t0 = time.perf_counter()
        try:
            with span:
                result = fn()
        except self.error_types as exc:
            self.failures.append({"stage": stage, "op": label,
                                  "error": f"{type(exc).__name__}: {exc}"})
            self.outcomes.setdefault((stage, label), []).append(type(exc).__name__)
            return None
        self.stage_s[stage] += time.perf_counter() - t0
        self.outcomes.setdefault((stage, label), []).append(None)
        return result

    def unexpected(self, expected):
        """Operations whose outcomes differ from ``expected``, a map
        {(stage, label): error class name} of operations that must fail on
        every attempt; every other operation must return on every attempt."""
        out = []
        for key, errors in self.outcomes.items():
            want = expected.get(key)
            if any(e != want for e in errors):
                out.append(f"{key[0]} {key[1]}: outcomes {errors}, expected "
                           f"{want or 'success'} every time")
        out += [f"{stage} {label}: expected {err}, never attempted"
                for (stage, label), err in expected.items()
                if (stage, label) not in self.outcomes]
        return out


class Checks:
    def __init__(self):
        self.failed = []

    def expect(self, ok, what):
        if not ok:
            self.failed.append(what)
        return bool(ok)


def environment():
    import numpy
    import scipy

    def blas(cfg):
        return cfg(mode="dicts")["Build Dependencies"]["blas"].get("version")

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas(numpy.show_config),
        "openblas_scipy": blas(scipy.show_config),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def measure_setup(doc):
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        done = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC), json.dumps(doc)],
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]) - t0)
    return min(times), times


def run_round(wl, system, rng, store_dir, ops, checks):
    """One pass over every stage, each repeated ``wl.repeats[stage]`` times.

    Returns ({stage: median over its repeats of the stage's total}, the
    (orbit, k) pairs certified).  brakekit is called through module
    attributes, so a traced run sees every call.
    """
    import numpy as np

    import oracle
    from brakekit import bangert as bg
    from brakekit import cli, index, store
    from brakekit import modification as md
    from brakekit.loopspace import SymmetricLoop

    torus = system.torus
    L = system.L_theta
    N = wl.dim
    times = {}

    def repeat(stage, body):
        totals = []
        for _ in range(wl.repeats.get(stage, 1)):
            before = ops.stage_s[stage]
            out = body()
            totals.append(ops.stage_s[stage] - before)
        times[stage] = statistics.median(totals)
        return out

    # -- find-orbits: the campaign and its store records -------------------
    def campaign():
        records = cli.run_orbit_campaign(system, wl.period, **wl.campaign)
        orbit_store = store.OrbitStore(store_dir)
        for rec in records:
            orbit_store.save_orbit(rec["loop"], system.config,
                                   {k: v for k, v in rec.items() if k != "loop"})
        return records

    def find_orbits():
        records = ops.run("find_orbits", "campaign", campaign) or []
        checks.expect(records, "campaign found no orbit")
        librations = []
        for rec in records:
            loop = rec["loop"]
            checks.expect(rec["brake_residual"] < 1e-6,
                          f"brake residual {rec['brake_residual']}")
            checks.expect(rec["full_gradient_norm"] < 1e-8,
                          f"full gradient norm {rec['full_gradient_norm']}")
            if np.max(np.ptp(loop.half_values, axis=0)) < 1e-6:
                checks.expect(oracle.is_critical_point(wl.coeffs, loop.half_values[0]),
                              f"equilibrium {loop.half_values[0]} is not critical for V")
            else:
                drift = oracle.energy_drift(wl.kinetic, wl.coeffs, loop.full_values(),
                                            loop.period)
                checks.expect(drift < 3e-4, f"energy drift {drift:.3e} along the libration")
                librations.append(loop)
        wants_libration = any(op.orbit == "libration" for op in wl.index_ops)
        checks.expect(len(librations) == int(wants_libration),
                      f"campaign found {len(librations)} librations")
        return librations

    librations = repeat("find_orbits", find_orbits)

    def orbit_loop(orbit):
        if orbit == "libration":
            return librations[0] if librations else None
        return SymmetricLoop.constant(orbit, wl.period, torus=torus, n_per_unit=wl.grid)

    orbits = [(op.orbit, orbit_loop(op.orbit)) for op in wl.index_ops]

    # -- index certification ----------------------------------------------
    def certify():
        certified = 0
        for op, (_, loop) in zip(wl.index_ops, orbits):
            if loop is None:
                continue
            rep = ops.run("index", op.label, lambda: index.verify_relations(
                L, loop, ks=op.ks, mean_k_max=wl.mean_k_max))
            if rep is None:
                continue
            for k in op.ks:
                row = rep["per_k"][k]
                full, even = tuple(row["morse_full"]), tuple(row["morse_even"])
                ok = checks.expect(full == tuple(row["cz"]),
                                   f"{op.label} k={k}: Morse {full} != CZ {row['cz']}")
                ok &= checks.expect(even == (row["l0"][0] + N, row["l0"][1]),
                                    f"{op.label} k={k}: even Morse {even} != L0 + N "
                                    f"{row['l0']}")
                if op.orbit != "libration":
                    want = oracle.fourier_morse_counts(wl.coeffs, op.orbit, k, wl.period)
                    ok &= checks.expect((full, even) == want,
                                        f"{op.label} k={k}: {(full, even)} != Fourier {want}")
                certified += ok
        return certified

    certified = repeat("index", certify)

    # -- modification certificates ------------------------------------------
    def certificates(T, KC, sample_seed):
        spec, params = md.build_modification(L, T, constants=KC)
        r = np.random.default_rng(sample_seed)
        growth = md.check_quadratic_growth(spec, v_ref=max(10.0, 3 * T),
                                           v_hi=max(40.0, 10 * T), rng=r)
        tt = r.uniform(0, 1, 512)
        qq = r.uniform(0, 1, (512, N)) * torus.periods
        vv = r.uniform(-T, T, (512, N))
        vv *= np.minimum(1.0, (T * 0.999) / np.maximum(
            np.linalg.norm(vv, axis=1, keepdims=True), 1e-12))
        m1 = bool(np.all(spec.value(tt, qq, vv) == L.value(tt, qq, vv)))
        tt3 = r.uniform(0, 1, 10000)
        qq3 = r.uniform(0, 1, (10000, N)) * torus.periods
        vv3 = r.normal(size=(10000, N)) * (4 * T)
        floor = float(np.min(spec.value(tt3, qq3, vv3)
                             - (np.linalg.norm(vv3, axis=1) - params.C)))
        return spec, m1, growth["passed"], floor

    def modify_check():
        KC = ops.run("modify_check", "constants", lambda: md.compute_constants(
            system.H, system.theta, rng=int(rng.integers(2 ** 31)), **wl.constants))
        specs = {}
        for T in MODIFY_T:
            sample_seed = int(rng.integers(2 ** 31))
            res = ops.run("modify_check", f"certificates T={T}",
                          lambda: certificates(T, KC, sample_seed))
            if res is not None:
                specs[T] = res[0]
                checks.expect(res[1], f"(M1) not exact at T={T}")
                checks.expect(res[2], f"(M2) growth certificate fails at T={T}")
                checks.expect(res[3] >= 0.0, f"(M3) floor margin {res[3]} at T={T}")
        for orbit, loop in orbits:
            if loop is None:
                continue
            T1, T2 = [T for T in MODIFY_T if T > loop.max_speed()][:2]
            if T1 in specs:
                pres = ops.run("modify_check", f"preservation {orbit}",
                               lambda: md.verify_orbit_preservation(L, specs[T1], loop, T1))
                checks.expect(pres is None or pres["preserved"],
                              f"orbit {orbit} not preserved at T={T1}")
            ind = ops.run("modify_check", f"T-independence {orbit}",
                          lambda: md.hessian_T_independence(L, loop, T1, T2, constants=KC))
            checks.expect(ind is None or (ind["max_entry_deviation"] == 0.0
                                          and ind["index_pairs_equal"]),
                          f"orbit {orbit}: Hessian not T-independent")

    repeat("modify_check", modify_check)

    # -- Bangert action bound ------------------------------------------------
    ends = [SymmetricLoop.constant(q, 1, torus=torus, n_per_unit=wl.grid)
            for q in wl.bangert_ends]
    want = [-float(oracle.potential(wl.coeffs, q)) for q in wl.bangert_ends]

    def action_bound(xs):
        nodes = np.linspace(0.0, 1.0, 17)
        family = bg.LoopFamily(nodes, [
            SymmetricLoop(1, (1 - x) * ends[0].half_values + x * ends[1].half_values, torus)
            for x in nodes])
        return bg.action_bound_check(family, L, ns=BANGERT_NS, xs=xs)

    def bangert():
        xs = np.sort(np.concatenate([[0.0, 1.0],
                                     rng.uniform(0.0, 1.0, BANGERT_NODES - 2)]))
        rep = ops.run("bangert", "action bound", lambda: action_bound(xs))
        if rep is not None:
            checks.expect(rep["passed"], "Bangert action bound fails")
            checks.expect(np.allclose(rep["endpoint_actions"], want, rtol=0, atol=1e-9),
                          f"endpoint actions {rep['endpoint_actions']} != -V {want}")

    repeat("bangert", bangert)
    return times, certified


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    if not (SRC / "brakekit" / "__init__.py").is_file():
        print(f"error: no brakekit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    doc = wl.document()
    trace = bool(args.trace)
    setup = None if trace else measure_setup(doc)

    import numpy as np

    import brakekit
    import tracing
    from brakekit import store, systems
    from brakekit.errors import BrakekitError

    if Path(brakekit.__file__).resolve().parent != (SRC / "brakekit").resolve():
        print(f"error: imported brakekit from {brakekit.__file__}", file=sys.stderr)
        return 2
    tracer = tracing.Tracer() if trace else None
    ops = Ops(BrakekitError, tracer)
    checks = Checks()
    rng = np.random.default_rng(args.seed)
    OUT.mkdir(exist_ok=True)
    store_dir = OUT / f"store-{wl.name}-{os.getpid()}"
    env = environment()

    ctx = (tracing.traced(tracer, tracing.brakekit_modules(brakekit),
                          methods=[(store.OrbitStore, "save_orbit", "store.save_orbit")])
           if trace else nullcontext())
    rounds, round_s, certified = [], [], []
    store_bytes = 0
    try:
        with ctx:
            system = systems.load_system(doc)
            t_start = time.perf_counter()
            while True:
                t0 = time.perf_counter()
                with (tracer.span("round") if trace else nullcontext()):
                    stage_s, n_certified = run_round(wl, system, rng, store_dir, ops, checks)
                round_s.append(time.perf_counter() - t0)
                rounds.append(stage_s)
                certified.append(n_certified)
                store_bytes = sum(f.stat().st_size for f in store_dir.rglob("*") if f.is_file())
                shutil.rmtree(store_dir)
                elapsed = time.perf_counter() - t_start
                if trace or elapsed + max(round_s) > args.seconds:
                    break
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)

    for what in ops.unexpected(wl.expected_failures):
        checks.expect(False, what)
    if trace:
        values = tracing.layer_metrics(tracer, store_bytes)
    else:
        values = {f"{s}_s": statistics.median(r[s] for r in rounds) for s in STAGES}
        values["setup_s"] = setup[0]
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values["index_pairs_certified"] = statistics.median(certified)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if trace else "end_to_end"]}
    result = {"correct": not checks.failed, "attempted": ops.attempted,
              "failed": len(ops.failures), "metrics": metrics}
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": int(trace), "environment": env, "rounds": rounds,
              "round_s": round_s, "setup_samples_s": setup[1] if setup else None,
              "failures": ops.failures, "check_failures": checks.failed, "result": result}
    stem = f"{wl.name}-seed{args.seed}-trace{int(trace)}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        (OUT / f"trace-{stem}.json").write_text(json.dumps(tracer.to_records()) + "\n")
    for what in checks.failed:
        print(f"check failed: {what}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
