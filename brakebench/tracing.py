"""Spans around brakekit's public functions, and the per-layer metrics built from them.

Tracing rebinds every public function of every brakekit module at each
module attribute that refers to it, so calls through ``from .x import f``
bindings and through module attributes are both seen.  Spans are kept in
memory; nothing is written until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
import types
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    ok: bool = True
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name, **attrs):
        sp = Span(name, time.perf_counter(), parent=self._stack[-1] if self._stack else -1,
                  attrs=dict(attrs))
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield sp
        except BaseException:
            sp.ok = False
            raise
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def self_times(self):
        """Each span's duration minus the part of it its child spans cover."""
        children = [[] for _ in self.spans]
        for i, sp in enumerate(self.spans):
            if sp.parent >= 0:
                children[sp.parent].append(i)
        out = []
        for i, sp in enumerate(self.spans):
            covered, reach = 0.0, sp.start
            for lo, hi in sorted((self.spans[c].start, self.spans[c].end)
                                 for c in children[i]):
                lo, hi = max(lo, reach, sp.start), min(hi, sp.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(sp.duration - covered)
        return out

    def outermost(self, name):
        """Spans of ``name`` with no ancestor of the same name (no double count)."""
        out = []
        for sp in self.spans:
            if sp.name != name:
                continue
            p = sp.parent
            while p >= 0 and self.spans[p].name != name:
                p = self.spans[p].parent
            if p < 0:
                out.append(sp)
        return out

    def to_records(self):
        selfs = self.self_times()
        return [{"name": sp.name, "start": sp.start, "end": sp.end, "parent": sp.parent,
                 "self": s, "ok": sp.ok, **sp.attrs}
                for sp, s in zip(self.spans, selfs)]


def _find_critical_attrs(args, result):
    return {"converged": bool(result.converged), "iterations": int(result.iterations)}


def _morse_dof(args, result):
    loop = args.arguments["loop"]
    k = args.arguments.get("k", 1)
    return {"dof": int(loop.n * k * loop.dim)}


# attributes taken from a call's bound arguments and result
ANNOTATORS = {
    "loopspace.find_critical": _find_critical_attrs,
    "index.morse_index": _morse_dof,
}


def brakekit_modules(package):
    return [importlib.import_module(f"{package.__name__}.{m.name}")
            for m in pkgutil.iter_modules(package.__path__)]


def public_functions(modules):
    """Map id(function) -> (layer-qualified name, function) for every public
    module-level function defined in ``modules``."""
    out = {}
    for mod in modules:
        layer = mod.__name__.rsplit(".", 1)[-1]
        for name, obj in vars(mod).items():
            if (isinstance(obj, types.FunctionType) and not name.startswith("_")
                    and obj.__module__ == mod.__name__):
                out[id(obj)] = (f"{layer}.{name}", obj)
    return out


def _wrap(tracer, qualname, fn):
    annotate = ANNOTATORS.get(qualname)
    sig = inspect.signature(fn) if annotate else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(qualname) as sp:
            result = fn(*args, **kwargs)
            if annotate:
                sp.attrs.update(annotate(sig.bind(*args, **kwargs), result))
            return result

    return wrapper


@contextmanager
def traced(tracer, modules, methods=()):
    """Rebind every import binding of every public function in ``modules``
    (plus the given ``(class, attribute, name)`` methods) to a spanning
    wrapper; restore all of them on exit."""
    funcs = public_functions(modules)
    wrappers = {key: _wrap(tracer, name, fn) for key, (name, fn) in funcs.items()}
    saved = []
    try:
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and funcs[id(obj)][1] is obj:
                    saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        for cls, attr, name in methods:
            original = cls.__dict__[attr]
            saved.append((cls, attr, original))
            setattr(cls, attr, _wrap(tracer, name, original))
        yield saved
    finally:
        for owner, attr, obj in reversed(saved):
            setattr(owner, attr, obj)


def layer_metrics(tracer, store_bytes):
    """The per-layer metrics of BENCHMARK.json from one traced run's spans."""
    selfs = tracer.self_times()
    by_name = {}
    for sp, s in zip(tracer.spans, selfs):
        by_name.setdefault(sp.name, []).append((sp, s))

    def calls(name):
        return len(by_name.get(name, []))

    def self_s(name):
        return sum(s for _, s in by_name.get(name, []))

    def total_s(name):
        return sum(sp.duration for sp in tracer.outermost(name))

    def yield_of(name, ok):
        rows = by_name.get(name, [])
        return sum(1 for sp, _ in rows if ok(sp)) / len(rows) if rows else 0.0

    fc = [sp for sp, _ in by_name.get("loopspace.find_critical", [])]
    dofs = [sp.attrs["dof"] for sp, _ in by_name.get("index.morse_index", [])]
    fiber = ("legendre.dual_velocity", "legendre.dual_momentum")
    return {
        "systems.load_system_s": total_s("systems.load_system"),
        "legendre.fiber_solves": sum(calls(n) for n in fiber),
        "legendre.fiber_solve_s": sum(self_s(n) for n in fiber),
        "dynamics.brake_shoot_calls": calls("dynamics.brake_shoot"),
        "dynamics.brake_shoot_yield": yield_of("dynamics.brake_shoot", lambda sp: sp.ok),
        "dynamics.integrate_calls": calls("dynamics.integrate"),
        "dynamics.integrate_s": self_s("dynamics.integrate"),
        "loopspace.find_critical_calls": len(fc),
        "loopspace.find_critical_yield": yield_of(
            "loopspace.find_critical", lambda sp: sp.attrs.get("converged", False)),
        "loopspace.find_critical_iterations": sum(sp.attrs.get("iterations", 0) for sp in fc),
        "loopspace.find_critical_s": self_s("loopspace.find_critical"),
        "loopspace.assemble_hessian_calls": calls("loopspace.assemble_hessian"),
        "loopspace.assemble_hessian_s": total_s("loopspace.assemble_hessian"),
        "loopspace.assemble_gram_s": total_s("loopspace.assemble_gram"),
        "index.morse_index_calls": calls("index.morse_index"),
        "index.morse_index_s": self_s("index.morse_index"),
        "index.morse_dof_max": max(dofs, default=0),
        "index.verify_relations_s": self_s("index.verify_relations"),
        "index.mean_index_s": total_s("index.mean_index"),
        "modification.compute_constants_s": total_s("modification.compute_constants"),
        "modification.hessian_T_independence_s": total_s("modification.hessian_T_independence"),
        "bangert.action_bound_check_s": total_s("bangert.action_bound_check"),
        "store.write_s": total_s("store.save_orbit"),
        "store.bytes_written": store_bytes,
    }
