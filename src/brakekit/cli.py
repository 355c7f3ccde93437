"""Command-line surface: orbit campaigns, index reports, certificates, dumps.

Exit codes are a stable contract: 2 input errors (a system document that
load_system refuses, an orbit id that names no stored orbit and a malformed
orbit record included), 3 no convergence from any seed, 4 index identity
failure after grid stabilization, 5 modification certificate violation,
6 action bound failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys

import numpy as np

from . import bangert as bg
from . import dynamics, loopspace, modification
from .errors import BrakekitError, InfeasibleParams, MalformedRecord
from .index import verify_relations
from .loopspace import SymmetricLoop, find_critical, loop_distance, mean_action
from .store import OrbitStore
from .systems import MagneticSystem, load_system


def _load_config(path) -> MagneticSystem:
    try:
        with open(path) as fh:
            return load_system(json.load(fh))
    # a JSONDecodeError is a ValueError; JSON nested too deeply is a RecursionError
    except (OSError, ValueError, RecursionError, BrakekitError) as exc:
        print(f"error: invalid config {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _store_dir(args):
    return os.environ.get("BRAKEKIT_STORE", args.store)


def run_orbit_campaign(system: MagneticSystem, period: int, n_seeds: int,
                       seed: int = 0, grid: int = None, amplitudes=(0.0, 0.2, 0.4)):
    """Brake-orbit search by shooting and by variational descent, deduplicated.

    Every accepted orbit is Newton-polished on the loop grid to a gradient
    norm of 1e-10, then verified dynamically: the twisted flow from its brake
    start point must track the loop and close with a small brake residual.
    Orbits closer than 1e-5 in loop_distance are one orbit.
    """
    rng = np.random.default_rng(seed)
    torus = system.torus
    n = torus.dim
    grid = grid if grid is not None else system.numerics["grid"]
    full = SymmetricLoop.full_grid(period, grid)  # refuses an odd grid before any shot
    tol_int = system.numerics["integrator_tol"]
    q_seeds = [torus.periods * rng.uniform(0, 1, n) for _ in range(n_seeds)]

    candidates = []
    for q0 in q_seeds:
        try:
            orbit = dynamics.brake_shoot(system.H, system.theta, q0, float(period),
                                         tol=tol_int)
        except BrakekitError:
            continue
        ts = np.arange(full // 2 + 1) * (period / full)
        half = orbit.trajectory.at(ts)[:, :n]
        loop = SymmetricLoop(period, half, torus)
        candidates.append((loop, "shooting"))
    for q0 in q_seeds:
        for amp in amplitudes:
            direction = rng.normal(size=n)
            direction /= np.linalg.norm(direction)

            def fn(t, q0=q0, amp=amp, d=direction):
                return q0 + amp * np.cos(2 * np.pi * t / period) * d

            seed_loop = SymmetricLoop.from_function(fn, period, torus, n_per_unit=grid)
            rep = find_critical(system.L_theta, seed_loop, grad_tol=1e-9)
            if rep.converged:
                candidates.append((rep.loop, "variational"))

    records = []
    for loop, method in candidates:
        polished = find_critical(system.L_theta, loop, grad_tol=1e-10, max_iter=30)
        if not polished.converged:
            continue
        loop = polished.loop
        matched = None
        for rec in records:
            if loop_distance(rec["loop"], loop) < 1e-5:
                matched = rec
                break
        if matched is not None:
            if method not in matched["methods"]:
                matched["methods"].append(method)
            continue
        # dynamic verification: re-shoot from the loop's brake start point;
        # the resulting trajectory is the true orbit, and its sup distance to
        # the variational loop doubles as the cross-method agreement metric
        q_start = loop.half_values[0]
        try:
            orbit = dynamics.brake_shoot(system.H, system.theta, q_start,
                                         float(period), tol=tol_int)
            traj = orbit.trajectory
            resid = orbit.symmetry_residual
        except BrakekitError:
            y0 = np.concatenate([q_start, -system.theta.components(q_start)])
            traj = dynamics.integrate(
                dynamics.hamiltonian_rhs(system.H, system.theta), y0, 0.0,
                float(period), tol=tol_int)
            resid = dynamics.brake_residual(system.theta, traj, float(period))
        ts = loop.full_times()
        diff = traj.at(ts)[:, :n] - loop.full_values()
        diff -= torus.periods * np.round(diff / torus.periods)
        track = float(np.max(np.abs(diff)))
        if resid > 1e-6 or track > max(1e-4, 400.0 * loop.h ** 2):
            continue
        records.append({
            "loop": loop,
            "methods": [method],
            "period": period,
            "mean_action": mean_action(system.L_theta, loop),
            "max_speed": loop.max_speed(),
            "brake_residual": resid,
            "gradient_norm": polished.gradient_norm,
            "full_gradient_norm": loopspace.full_gradient_check(system.L_theta, loop),
            "dynamic_tracking": track,
            "q0": [float(v) for v in q_start],
            # a symmetric loop closes in the lift, gamma(m) = gamma(0), as its
            # reflection and centred velocities assume: it never winds
            "winding": [0] * n,
        })
    return records


def cmd_find_orbits(args):
    system = _load_config(args.config)
    store = OrbitStore(_store_dir(args))
    records = run_orbit_campaign(system, args.period, args.seeds, seed=args.seed,
                                 grid=args.grid)
    if not records:
        print("error: no brake orbit converged from any seed", file=sys.stderr)
        return 3
    for rec in records:
        loop = rec.pop("loop")
        orbit_id = store.save_orbit(loop, system.config, rec)
        print(f"orbit {orbit_id}: period={rec['period']} action={rec['mean_action']:.9g} "
              f"residual={rec['brake_residual']:.3g} methods={','.join(rec['methods'])}")
    return 0


def cmd_index(args):
    system = _load_config(args.config)
    store = OrbitStore(_store_dir(args))
    try:
        loop, record = store.load_orbit(args.orbit)
    except OSError as exc:
        print(f"error: orbit not found: {exc}", file=sys.stderr)
        return 2
    if loop.dim != system.dim:
        print(f"error: orbit {args.orbit} is a loop in T^{loop.dim}; the system is "
              f"on T^{system.dim}", file=sys.stderr)
        return 2
    grad = loopspace.gradient_norm_w12(system.L_theta, loop)
    if grad > 1e-6:
        print(f"error: stored loop is not critical (gradient residual {grad:.3e}); "
              "the record may be tampered or belong to another system", file=sys.stderr)
        return 2
    report = verify_relations(system.L_theta, loop, ks=args.k)
    payload = {
        "orbit": args.orbit,
        "ks": list(args.k),
        "mean_index": {k: v for k, v in report["mean_index"].items()},
        "per_k": {
            str(k): {
                "morse_full": list(v["morse_full"]),
                "morse_sym": list(v["morse_even"]),
                "cz": list(v["cz"]),
                "l0": list(v["l0"]),
                "identities": {c: bool(ok) for c, ok in v["checks"].items()},
            }
            for k, v in report["per_k"].items()
        },
        "all_pass": bool(report["all_pass"]),
    }
    path = store.save_report(f"index_{args.orbit}", payload)
    print(f"index report: {path}")
    for k, v in payload["per_k"].items():
        print(f"  k={k}: morse_full={v['morse_full']} cz={v['cz']} "
              f"morse_sym={v['morse_sym']} l0={v['l0']} "
              f"pass={all(v['identities'].values())}")
    return 0 if payload["all_pass"] else 4


def cmd_modify_check(args):
    system = _load_config(args.config)
    store = OrbitStore(_store_dir(args))
    t_list = args.T
    if len(t_list) < 2:
        print("error: need at least two T values", file=sys.stderr)
        return 2
    if len(set(t_list)) < len(t_list):
        print(f"error: --T {','.join(map(str, t_list))} repeats a value; the "
              "T-independence check compares distinct T", file=sys.stderr)
        return 2
    rng = np.random.default_rng(args.seed)
    K, C = modification.compute_constants(system.H, system.theta, rng=rng)
    rows = []
    ok = True

    for T in t_list:
        spec, params = modification.build_modification(
            system.L_theta, T, constants=(K, C))
        # the certificates sample out to |v| = max(40, 10T) and about 4T |N(0, 1)|,
        # past the (6T)^2 that the build checks; an overflow there is refused
        with np.errstate(over="ignore", invalid="ignore"):
            cert = modification.check_quadratic_growth(spec, v_ref=max(10.0, 3 * T),
                                                       v_hi=max(40.0, 10 * T))
            # (M1): exact coincidence on a sampled core region
            tt = rng.uniform(0, 1, 512)
            qq = rng.uniform(0, 1, (512, system.dim)) * system.torus.periods
            vv = rng.uniform(-T, T, (512, system.dim))
            vv *= np.minimum(1.0, (T * 0.999) / np.maximum(
                np.linalg.norm(vv, axis=1, keepdims=True), 1e-12))
            core = spec.value(tt, qq, vv)
            m1 = bool(np.all(core == system.L_theta.value(tt, qq, vv)))
            # (M3): growth floor on 10^4 samples
            tt3 = rng.uniform(0, 1, 10000)
            qq3 = rng.uniform(0, 1, (10000, system.dim)) * system.torus.periods
            vv3 = rng.normal(size=(10000, system.dim)) * (4 * T)
            margins = spec.value(tt3, qq3, vv3) - (np.linalg.norm(vv3, axis=1) - params.C)
        if not (np.isfinite(cert["l1"]) and np.isfinite(cert["l2"])
                and np.all(np.isfinite(core)) and np.all(np.isfinite(margins))):
            raise InfeasibleParams(f"T = {T:g} is too large: the certificate samples "
                                   "overflow")
        floor = float(np.min(margins))
        row = {"T": T, "M1_exact": m1, "M2_growth": cert["passed"],
               "M3_floor_margin": floor, "params": params.record()}
        ok &= m1 and cert["passed"] and floor >= 0.0
        rows.append(row)

    orbit_rows = []
    stored = []
    for orbit_id in store.orbit_ids():
        loop, record = store.load_orbit(orbit_id)
        if loop.dim != system.dim:
            print(f"error: orbit {orbit_id} is a loop in T^{loop.dim}; the system is "
                  f"on T^{system.dim}", file=sys.stderr)
            return 2
        stored.append({"period": record.get("period", 1),
                       "mean_action": record.get("mean_action", 0.0),
                       "max_speed": record.get("max_speed", 0.0)})
        speed = loop.max_speed()
        usable = [T for T in t_list if T > speed]
        if len(usable) < 2:
            continue
        T1, T2 = usable[0], usable[1]
        spec1, _ = modification.build_modification(system.L_theta, T1, constants=(K, C))
        pres = modification.verify_orbit_preservation(system.L_theta, spec1, loop, T1)
        ind = modification.hessian_T_independence(system.L_theta, loop, T1, T2,
                                                  constants=(K, C))
        orbit_rows.append({"orbit": orbit_id, "T_pair": [T1, T2],
                           "preserved": bool(pres["preserved"]),
                           "gradient_norm_T": pres["gradient_norm_T"],
                           "hessian_deviation": ind["max_entry_deviation"],
                           "index_pairs_equal": bool(ind["index_pairs_equal"])})
        ok &= pres["preserved"] and ind["max_entry_deviation"] < 1e-12 \
            and ind["index_pairs_equal"]

    speed_table = modification.speed_bound_report(
        stored, alpha=max((r["mean_action"] for r in stored), default=0.0) + 1.0,
        m=max((r["period"] for r in stored), default=1))
    payload = {"constants": {"K": K, "C": C}, "certificates": rows,
               "orbits": orbit_rows, "speed_bound": speed_table,
               "all_pass": bool(ok)}
    path = store.save_report("modification", payload)
    print(f"modification report: {path}")
    for row in rows:
        print(f"  T={row['T']}: M1={row['M1_exact']} M2={row['M2_growth']} "
              f"M3 margin={row['M3_floor_margin']:.4g}")
    for row in orbit_rows:
        print(f"  orbit {row['orbit']}: preserved={row['preserved']} "
              f"Hessian dev={row['hessian_deviation']:.3g}")
    return 0 if ok else 5


_BUILTIN_FAMILIES = {
    "constant": lambda: bg.LoopFamily.from_map(
        lambda x: SymmetricLoop.constant([0.25], 1, n_per_unit=128), 0.0, 1.0, 9),
    "two-constant": lambda: bg.LoopFamily.from_map(
        lambda x: SymmetricLoop.constant([0.5 * x], 1, n_per_unit=128), 0.0, 1.0, 33),
    "pendulum-loops": lambda: bg.LoopFamily.from_map(
        lambda x: SymmetricLoop.from_function(
            lambda t: np.array([0.5 + (0.05 + 0.1 * x) * np.cos(2 * np.pi * t)]),
            1, n_per_unit=128), 0.0, 1.0, 33),
}


def cmd_bangert(args):
    given = [a is not None for a in (args.c1, args.c2, args.eps)]
    if any(given) and not all(given):
        print("error: the homotopy needs all of --c1, --c2 and --eps", file=sys.stderr)
        return 2
    system = _load_config(args.config)
    store = OrbitStore(_store_dir(args))
    if args.family.startswith("orbits:"):
        ids = args.family.split(":", 1)[1].split(",")
        if len(ids) != 2:
            print("error: need exactly two orbit ids", file=sys.stderr)
            return 2
        loops = []
        for oid in ids:
            try:
                loop, _ = store.load_orbit(oid)
            except OSError as exc:
                print(f"error: orbit not found: {exc}", file=sys.stderr)
                return 2
            loops.append(loop)
        if any(lp.period != 1 or lp.dim != system.dim or lp.n != loops[0].n for lp in loops):
            print("error: an orbit family needs two period-1 loops on one grid, in the "
                  "system's dimension", file=sys.stderr)
            return 2
        xs = np.linspace(0.0, 1.0, 17)
        family = bg.LoopFamily(xs, [
            SymmetricLoop(1, (1 - x) * loops[0].half_values + x * loops[1].half_values,
                          system.torus) for x in xs])
    elif args.family in _BUILTIN_FAMILIES:
        if system.dim != 1:
            print(f"error: the builtin family {args.family!r} is a family of loops in "
                  f"T^1; the system is on T^{system.dim}", file=sys.stderr)
            return 2
        family = _BUILTIN_FAMILIES[args.family]()
    else:
        print(f"error: unknown family {args.family!r}", file=sys.stderr)
        return 2

    ns = args.n
    L = system.L_theta
    report = bg.action_bound_check(family, L, ns=ns)
    homotopy = None
    if all(given):
        try:
            homotopy = bg.bangert_homotopy(family, max(ns), args.c1, args.c2,
                                           args.eps, q=1, L=L)
        except BrakekitError as exc:
            print(f"error: homotopy preconditions: {exc}", file=sys.stderr)
            return 6
    payload = {
        "family": args.family,
        "C_theta": report["C_theta"],
        "endpoint_actions": list(report["endpoint_actions"]),
        "per_n": {str(n): {k: v for k, v in row.items()}
                  for n, row in report["per_n"].items()},
        "passed": bool(report["passed"]),
    }
    if homotopy:
        payload["homotopy"] = {
            "n": homotopy["n"], "n_bar": homotopy["n_bar"],
            "C_sigma": homotopy["C_sigma"],
            "certificates": {k: bool(v) for k, v in homotopy["certificates"].items()},
        }
    # loop dump: the interpolating family at the largest n, indexed by x
    dump_dir = store.root / "reports" / f"bangert_{args.family.replace(':', '_')}_loops"
    dump_dir.mkdir(exist_ok=True)
    xs = np.linspace(family.x0, family.x1, 9)
    out = bg.build_theta_2n(family, max(ns), xs=xs, grid_per_unit=64)
    for i, (x, loop) in enumerate(zip(out.xs, out.loops)):
        OrbitStore._write_loop_csv(loop, dump_dir / f"s1_x{i:02d}.csv")
    payload["loop_dump"] = {"dir": str(dump_dir), "s": 1.0,
                            "xs": [float(x) for x in xs]}
    path = store.save_report(f"bangert_{args.family.replace(':', '_')}", payload)
    print(f"bangert report: {path}")
    for n, row in report["per_n"].items():
        print(f"  n={n}: bound holds={row['holds']} max excess={row['max_excess']:.4g}")
    if homotopy:
        print(f"  homotopy n_bar={homotopy['n_bar']} "
              f"certificates={homotopy['certificates']}")
    ok = report["passed"] and (homotopy is None
                               or all(homotopy["certificates"].values()))
    return 0 if ok else 6


def cmd_export(args):
    store = OrbitStore(_store_dir(args))
    known = store.orbit_ids()
    ids = args.orbit.split(",") if args.orbit else known
    missing = [oid for oid in ids if oid not in known]
    if missing:
        print(f"error: orbit not found: {', '.join(missing)}", file=sys.stderr)
        return 2
    os.makedirs(args.out, exist_ok=True)
    for oid in ids:
        for ext in (".json", ".csv"):
            src = store.root / "orbits" / f"{oid}{ext}"
            if src.exists():
                shutil.copy(src, os.path.join(args.out, src.name))
                print(f"exported {src.name}")
    return 0


def _int_where(ok, what):
    """argparse type: one integer that passes ok."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value

    return parse


def _comma_list(cast, ok, what):
    """argparse type: a comma-separated list of cast(item) values that pass ok."""

    def parse(text):
        try:
            values = tuple(cast(v) for v in text.split(","))
        except ValueError:
            values = ()
        if not values or not all(ok(v) for v in values):
            raise argparse.ArgumentTypeError(f"{text!r} is not a comma list of {what}")
        return values

    return parse


def build_parser():
    parser = argparse.ArgumentParser(
        prog="brakekit",
        description="Brake orbits of magnetic Tonelli systems on flat tori: "
                    "search, index theory, modification certificates, "
                    "iteration homotopies.")
    parser.add_argument("--store", default="./brakekit-store",
                        help="result store directory (env BRAKEKIT_STORE overrides)")
    sub = parser.add_subparsers(dest="command", required=True)
    positive = _int_where(lambda m: m >= 1, "a positive integer")
    seed = _int_where(lambda s: s >= 0, "a non-negative integer")  # numpy's seed range

    p = sub.add_parser("find-orbits", help="run a brake-orbit search campaign")
    p.add_argument("--config", required=True)
    p.add_argument("--period", type=positive, default=1)
    p.add_argument("--seeds", type=positive, default=8)
    p.add_argument("--seed", type=seed, default=0)
    # the same rule as the document's numerics.grid: the half grid of a
    # symmetric loop holds n/2 + 1 nodes, so n must be even
    p.add_argument("--grid", type=_int_where(lambda g: g >= 2 and g % 2 == 0,
                                             "an even integer >= 2"), default=None)
    p.set_defaults(func=cmd_find_orbits)

    p = sub.add_parser("index", help="index identities for a stored orbit")
    p.add_argument("--config", required=True)
    p.add_argument("--orbit", required=True)
    p.add_argument("--k", type=_comma_list(int, lambda k: k >= 1, "positive integers"),
                   default="1,2,4")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("modify-check", help="convex quadratic modification certificates")
    p.add_argument("--config", required=True)
    p.add_argument("--T", type=_comma_list(float, lambda T: 0 < T < math.inf,
                                           "positive numbers"), default="4,8")
    p.add_argument("--seed", type=seed, default=0)
    p.set_defaults(func=cmd_modify_check)

    p = sub.add_parser("bangert", help="iteration homotopy demonstration")
    p.add_argument("--config", required=True)
    p.add_argument("--family", default="two-constant")
    p.add_argument("--n", type=_comma_list(int, lambda n: n >= 2, "integers >= 2"),
                   default="2,4,8")
    p.add_argument("--c1", type=float, default=None)
    p.add_argument("--c2", type=float, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.set_defaults(func=cmd_bangert)

    p = sub.add_parser("export", help="copy orbit records out of the store")
    p.add_argument("--orbit", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MalformedRecord as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrakekitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
