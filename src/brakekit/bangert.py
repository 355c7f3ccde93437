"""Time-reversible iteration homotopy with quantitative action control.

Given a continuous family of even unit-period loops over a parameter
interval, the construction assembles, for each parameter value x and each n,
an even loop of period 2n that interpolates between the 2n-fold iterates of
the family's endpoint loops.  The half period [0, n] is a concatenation of

    (n - l - 1) copies of the left endpoint loop,
    a broken geodesic to the moving loop's base point,
    one copy of the moving loop (time compressed),
    a broken geodesic to the right base point,
    one compressed and (l - 1) full copies of the right endpoint loop,

with regimes l = 0 and l = n - 1 degenerating to shorter tables, and the
second half defined by reflection, so evenness is exact by construction.
The glue carries total action bounded by a constant C independent of n,
giving the mean-action estimate

    EA^{[2n]}(output(x)) <= max(EA(left), EA(right)) + C / (2n),

which is what drives iterates into prescribed sublevels for n large; the
simplex version applies the same construction chordwise through the
barycenter line and certifies the homotopy properties on sample grids.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, partial, reduce
from typing import List, NamedTuple, Optional

import numpy as np
from scipy.interpolate import PPoly

from .errors import EndpointMismatch, PreconditionViolated, TooFar, Unsupported
from .loopspace import SymmetricLoop, iterate
from .model import LagrangianSpec, TorusSpace

__all__ = [
    "PathSegment",
    "LoopFamily",
    "BangertOutput",
    "reparametrize",
    "reverse_segment",
    "concatenate",
    "shortest_geodesic",
    "broken_geodesic",
    "hat_constant",
    "build_theta_2n",
    "segment_action",
    "loop_action",
    "action_bound_check",
    "bangert_homotopy",
]


@dataclass(frozen=True, eq=False)
class PathSegment:
    """Path on [a, b] with a continuous lift, as a flat piecewise table.

    Piece i spans the times breaks[i] .. breaks[i + 1]: its leaf runs the
    source curve sources[i], qa + s disp for a geodesic and the loop's
    periodic spline (a PPoly) for a loop, from windows[i, 0] to
    windows[i, 1], translated by the lattice vector shifts[i].  A curve gives
    q(s) as curve(s, 0) and dq/ds as curve(s, 1).  The interior breaks are the
    corners, which split the action quadrature.
    """

    breaks: np.ndarray  # (P + 1,) sorted times
    sources: tuple  # P curves
    windows: np.ndarray  # (P, 2)
    shifts: np.ndarray  # (P, N)

    @property
    def a(self) -> float:
        return float(self.breaks[0])

    @property
    def b(self) -> float:
        return float(self.breaks[-1])

    @property
    def corners(self) -> np.ndarray:
        return self.breaks[1:-1]

    @property
    def start(self):
        return self.sources[0](self.windows[0, :1], 0)[0] + self.shifts[0]

    @property
    def end(self):
        return self.sources[-1](self.windows[-1, 1:], 0)[0] + self.shifts[-1]

    def at(self, ts):
        """(values, velocities) at the times ts, one call per touched leaf.

        The times are stably sorted by piece, and each touched leaf evaluates
        its contiguous run of them; ts need not be sorted, and the result at a
        time does not depend on the order of ts.  A junction time belongs to
        the piece on its left, so a piece of zero length is never selected;
        times at or before a go to the first piece of positive length.
        """
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        br = self.breaks
        first = int(np.argmax(br[1:] > br[0]))
        idx = np.minimum(np.maximum(np.searchsorted(br, ts) - 1, first), len(self.sources) - 1)
        s0, s1 = self.windows[idx].T
        scale = (s1 - s0) / (br[idx + 1] - br[idx])
        s = s0 + (ts - br[idx]) * scale
        q, v = self.shifts[idx], np.empty((len(ts), self.shifts.shape[1]))
        order = np.argsort(idx, kind="stable")
        starts = np.flatnonzero(np.diff(idx[order], prepend=-1))
        for lo, hi in zip(starts, [*starts[1:], len(ts)]):
            rows = order[lo:hi]
            curve = self.sources[idx[rows[0]]]
            q[rows] += curve(s[rows], 0)
            v[rows] = curve(s[rows], 1) * scale[rows, None]
        return q, v


class _Chord(NamedTuple):
    """The curve s -> qa + s disp, called like a PPoly: nu = 0 values, nu = 1 derivatives."""

    qa: np.ndarray
    disp: np.ndarray

    def __call__(self, s, nu):
        if nu:
            return np.broadcast_to(self.disp, (len(s), self.disp.size))
        return self.qa + s[:, None] * self.disp


def _piece(curve, t0, t1, s0, s1, dim: int) -> PathSegment:
    """The single leaf running curve from s0 to s1 over the times [t0, t1]."""
    return PathSegment(np.array([t0, t1]), (curve,), np.array([[s0, s1]]),
                       np.zeros((1, dim)))


def reparametrize(seg: PathSegment, a: float, b: float) -> PathSegment:
    """Affine time change onto [a, b]; the image set is unchanged."""
    if b <= a:
        raise ValueError("target interval must have positive length")
    scale = (seg.b - seg.a) / (b - a)
    # the clip keeps rounding from unsorting the breaks of a piece under an ulp
    inner = np.clip(a + (seg.corners - seg.a) / scale, a, b)
    return replace(seg, breaks=np.concatenate([[a], inner, [b]]))


def reverse_segment(seg: PathSegment) -> PathSegment:
    """The inverse path, traversed from seg(b) back to seg(a) on [a, b]."""
    a, b = seg.a, seg.b
    inner = np.clip(a + b - seg.corners[::-1], a, b)  # as in reparametrize
    return PathSegment(np.concatenate([[a], inner, [b]]), seg.sources[::-1],
                       seg.windows[::-1, ::-1], seg.shifts[::-1])


def concatenate(s1: PathSegment, s2: PathSegment,
                torus: Optional[TorusSpace] = None) -> PathSegment:
    """First traverse s1, then s2, parametrized on [a1, b1 + b2 - a2].

    Endpoints must agree on the torus within 1e-10; the lift of s2 is shifted
    by the lattice vector that makes the concatenation continuous.
    """
    gap = s1.end - s2.start
    lattice = (np.zeros_like(gap) if torus is None
               else torus.periods * np.round(gap / torus.periods))
    resid = np.linalg.norm(gap - lattice)
    if resid > 1e-10:
        raise EndpointMismatch(f"segment endpoints differ by {resid:.3e}")
    return PathSegment(np.concatenate([s1.breaks, s2.breaks[1:] + (s1.b - s2.a)]),
                       s1.sources + s2.sources, np.concatenate([s1.windows, s2.windows]),
                       np.concatenate([s1.shifts, s2.shifts + lattice]))


def shortest_geodesic(torus: TorusSpace, qa, qb, a: float = 0.0,
                      b: float = 1.0) -> PathSegment:
    """Straight segment along the minimal lattice lift of qb - qa on [a, b]."""
    qa = np.atleast_1d(np.asarray(qa, dtype=float))
    disp = torus.displacement(qa, qb)
    dist = float(np.linalg.norm(disp))
    if dist >= torus.injectivity_radius:
        raise TooFar(f"distance {dist:.4g} >= injectivity radius "
                     f"{torus.injectivity_radius:.4g}")
    return _piece(_Chord(qa, disp), a, b, 0.0, 1.0, qa.size)


# ---------------------------------------------------------------------------
# loop families
# ---------------------------------------------------------------------------

class LoopFamily:
    """Continuous one-parameter family of even unit-period loops.

    Values interpolate linearly in the parameter between the stored nodes,
    which keeps the family continuous and every member even.  Spline
    interpolation is linear in the data, so the member's periodic spline is
    the same blend of the node loops' splines, which are built once.
    """

    def __init__(self, xs, loops: List[SymmetricLoop]):
        self.xs = np.asarray(xs, dtype=float)
        if len(loops) != len(self.xs) or len(loops) < 2:
            raise ValueError("need one loop per parameter node, at least two")
        if np.any(np.diff(self.xs) <= 0):
            raise ValueError("parameter nodes must increase")
        base = loops[0]
        for lp in loops:
            if lp.period != 1 or lp.n != base.n:
                raise ValueError("family loops must share period 1 and a common grid")
        self.loops = list(loops)
        self.torus = base.torus
        self._hat_constants = {}  # (L, n_w, rho) -> C, filled by hat_constant

    @property
    def x0(self):
        return float(self.xs[0])

    @property
    def x1(self):
        return float(self.xs[-1])

    @classmethod
    def from_map(cls, fn, x0: float, x1: float, nodes: int = 65):
        xs = np.linspace(x0, x1, nodes)
        return cls(xs, [fn(x) for x in xs])

    def _locate(self, x: float):
        """(i, t): x, clipped to the family, lies a fraction t of the way from node i to i + 1."""
        x = float(np.clip(x, self.x0, self.x1))
        i = int(np.searchsorted(self.xs, x, side="right") - 1)
        i = min(max(i, 0), len(self.xs) - 2)
        return i, (x - self.xs[i]) / (self.xs[i + 1] - self.xs[i])

    def _blend(self, x: float, rows) -> np.ndarray:
        """The given rows of the half-grid values, interpolated at x."""
        i, t = self._locate(x)
        return ((1.0 - t) * self.loops[i].half_values[rows]
                + t * self.loops[i + 1].half_values[rows])

    def at(self, x: float) -> SymmetricLoop:
        return SymmetricLoop(1, self._blend(x, slice(None)), self.torus)

    def ev(self, x: float) -> np.ndarray:
        """Evaluation map: the loop's base point at t = 0."""
        return self._blend(x, 0)

    def restrict(self, lo: float, hi: float) -> "LoopFamily":
        if hi <= lo:
            raise ValueError("restriction interval must have positive length")
        inner = [x for x in self.xs if lo < x < hi]
        xs = np.array([lo] + inner + [hi])
        return LoopFamily(xs, [self.at(x) for x in xs])

    @cached_property
    def _node_splines(self):
        return [lp.spline() for lp in self.loops]

    def spline(self, x: float) -> PPoly:
        """The periodic spline of at(x), blended from the node splines."""
        i, t = self._locate(x)
        a, b = self._node_splines[i], self._node_splines[i + 1]
        return PPoly.construct_fast((1.0 - t) * a.c + t * b.c, a.x, extrapolate="periodic")

    def modulus_rho(self) -> float:
        """Largest dyadic step rho >= 2^-16 span with ev-increments below half
        the injectivity radius."""
        inj = self.torus.injectivity_radius
        span = self.x1 - self.x0
        rho = span
        while rho >= 2 ** -16 * span:
            grid = np.arange(self.x0, self.x1 + 0.5 * rho, rho)
            grid[-1] = self.x1
            pts = np.array([self.ev(x) for x in grid])
            steps = [np.linalg.norm(self.torus.displacement(pts[i], pts[i + 1]))
                     for i in range(len(pts) - 1)]
            if max(steps, default=0.0) < inj / 2.0:
                return rho
            rho /= 2.0
        raise TooFar("family base-point curve too wild for the geodesic net")


def broken_geodesic(family: LoopFamily, xa: float, xb: float,
                    rho: Optional[float] = None) -> PathSegment:
    """Concatenated shortest geodesics through ev(family) from xa to xb on [xa, xb]."""
    if xb <= xa:
        raise ValueError("need xb > xa")
    rho = family.modulus_rho() if rho is None else rho
    grid = np.arange(xa, xb, rho)
    knots = list(grid[grid < xb]) + [xb]  # rounding can put the last step at or past xb
    pts = [family.ev(x) for x in knots]
    legs = [shortest_geodesic(family.torus, qa, qb, lo, hi)
            for lo, hi, qa, qb in zip(knots[:-1], knots[1:], pts[:-1], pts[1:])]
    return reduce(partial(concatenate, torus=family.torus), legs)


def _loop_segment(family: LoopFamily, x: float, t0: float, t1: float,
                  src1: float = 1.0) -> PathSegment:
    """The loop at parameter x, source window [0, src1], mapped onto [t0, t1]."""
    return _piece(family.spline(x), t0, t1, 0.0, src1, family.torus.dim)


def loop_action(L: LagrangianSpec, loop: SymmetricLoop) -> float:
    """Mean action of a loop through the quadrature used for glued paths."""
    p = float(loop.period)
    return segment_action(L, _piece(loop.spline(), 0.0, p, 0.0, p, loop.dim)) / p


_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(4)


def segment_action(L: LagrangianSpec, seg: PathSegment) -> float:
    """Integral of L(t, q, qdot) over the segment, split at its breaks.

    Composite 4-point Gauss-Legendre on each smooth span, about 192 nodes per
    unit time and at least 17, with one evaluation of L for the nodes of all
    spans.  The nodes are interior, so no span samples the velocity across a
    corner.  A span's panel edges are those of np.linspace(lo, hi, panels + 1),
    built for all spans at once.
    """
    cuts = np.unique(seg.breaks)
    keep = np.diff(cuts) >= 1e-15
    lo, hi = cuts[:-1][keep], cuts[1:][keep]
    panels = -(-np.maximum(17, (192 * (hi - lo)).astype(int) + 1) // 4)
    span, ends = np.repeat(np.arange(len(lo)), panels), np.cumsum(panels)
    k = np.arange(len(span)) - (ends - panels)[span]  # panel number within its span
    step, start = ((hi - lo) / panels)[span], lo[span]
    left, right = k * step + start, (k + 1) * step + start
    right[ends - 1] = hi
    half = 0.5 * (right - left)
    ts = ((left + half)[:, None] + half[:, None] * _GAUSS_NODES).ravel()
    vals = np.asarray(L.value(ts, *seg.at(ts))).reshape(-1, 4)
    return float(np.sum(half * (vals @ _GAUSS_WEIGHTS)))


# ---------------------------------------------------------------------------
# the construction
# ---------------------------------------------------------------------------

@dataclass
class BangertOutput:
    n: int
    xs: np.ndarray
    loops: List[SymmetricLoop]
    half_paths: List[PathSegment]


def _at_right_end(family: LoopFamily, x: float) -> bool:
    return x >= family.x1 - 1e-14 * max(1.0, abs(family.x1))


def _half_table(family: LoopFamily, n: int, x: float,
                rho: Optional[float] = None) -> PathSegment:
    """The half-period path on [0, n] realizing the regime tables."""
    x0, x1 = family.x0, family.x1
    if _at_right_end(family, x):
        return _loop_segment(family, x1, 0.0, n, float(n))
    span = x1 - x0
    Y = span / n
    l = min(int(np.floor((x - x0) / Y)), n - 1)
    y = (x - x0) - l * Y
    w = x0 + n * y
    z = span - n * y

    pieces = []
    t, f1 = 0.0, 0.0
    if l <= n - 2:
        # n - l - 1 copies of the left loop, then the geodesic out to w; for
        # l = n - 1 the moving loop comes first
        pieces.append(_loop_segment(family, x0, t, t + (n - l - 1), float(n - l - 1)))
        t += n - l - 1
        f1 = n * y / (n * y + 1.0)
        if y > 1e-14:
            pieces.append(reparametrize(broken_geodesic(family, x0, w, rho=rho), t, t + f1))
    pieces.append(_loop_segment(family, w, t + f1, t + 1.0))
    t += 1.0
    if l >= 1:
        # geodesic to x1, one compressed and l - 1 full copies of the right loop
        f2 = z / (z + 1.0)
        if z > 1e-14:
            pieces.append(reparametrize(broken_geodesic(family, w, x1, rho=rho), t, t + f2))
        pieces.append(_loop_segment(family, x1, t + f2, t + 1.0))
        t += 1.0
        if l - 1 > 0:
            pieces.append(_loop_segment(family, x1, t, t + (l - 1), float(l - 1)))
    return reduce(partial(concatenate, torus=family.torus), pieces)


def _half_path_to_loop(seg: PathSegment, n: int, torus: TorusSpace,
                       grid_per_unit: int) -> SymmetricLoop:
    n_full = 2 * n * grid_per_unit
    ts = np.arange(n_full // 2 + 1) * (2.0 * n / n_full)
    q, _ = seg.at(ts)
    return SymmetricLoop(2 * n, q, torus)


def build_theta_2n(family: LoopFamily, n: int, xs: np.ndarray,
                   grid_per_unit: Optional[int] = None) -> BangertOutput:
    """Assemble the even period-2n interpolating loops at the parameters xs.

    At x = x1 the output is exactly the 2n-fold iterate.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    xs = np.asarray(xs, dtype=float)
    gpu = grid_per_unit or family.loops[0].n
    rho = family.modulus_rho()
    paths = [_half_table(family, n, float(x), rho=rho) for x in xs]
    loops = [iterate(family.at(family.x1), 2 * n) if _at_right_end(family, x)
             else _half_path_to_loop(seg, n, family.torus, gpu)
             for x, seg in zip(xs, paths)]
    return BangertOutput(n, xs, loops, paths)


def _hat_segment(family: LoopFamily, w: float, rho: Optional[float] = None):
    """The glue content at moving parameter w, parametrized on [0, 2].

    Full middle-regime glue: geodesic out, moving loop, geodesic to the
    right base point, each for its natural length and together compressed
    onto [0, 1], then the reverse of that half on [1, 2].  The content is
    palindromic by construction, so it samples to an even period-2 loop;
    its total action is the integrand of the constant C.
    """
    x0, x1 = family.x0, family.x1
    rho = family.modulus_rho() if rho is None else rho
    torus, half = family.torus, _loop_segment(family, w, 0.0, 1.0)
    if w - x0 > 1e-14:
        half = concatenate(broken_geodesic(family, x0, w, rho=rho), half, torus=torus)
    if x1 - w > 1e-14:
        half = concatenate(half, broken_geodesic(family, w, x1, rho=rho), torus=torus)
    half = reparametrize(half, 0.0, 1.0)
    return concatenate(half, reparametrize(reverse_segment(half), 1.0, 2.0), torus=torus)


def hat_constant(family: LoopFamily, L: LagrangianSpec, n_w: int = 33,
                 rho: Optional[float] = None) -> float:
    """C = max over the moving parameter of the glue loop's total action.

    The family keeps each C computed on it: a call with the same L object
    and equal n_w and rho returns it again (`brakekit bangert` asks twice,
    in the action bound check and for the homotopy's n_bar).
    """
    rho = family.modulus_rho() if rho is None else rho
    key = (L, n_w, rho)
    if key not in family._hat_constants:
        ws = np.linspace(family.x0, family.x1, n_w)
        family._hat_constants[key] = max(
            segment_action(L, _hat_segment(family, float(w), rho=rho)) for w in ws)
    return family._hat_constants[key]


def action_bound_check(family: LoopFamily, L: LagrangianSpec, ns=(2, 4, 8),
                       xs: Optional[np.ndarray] = None) -> dict:
    """Verify EA^{[2n]}(output(x)) <= max endpoint action + C/(2n) + 1e-3.

    Actions of the assembled loops and of the endpoint loops come from the
    same corner-split Gauss-Legendre quadrature (segment_action), so the two
    sides share one discretization.
    """
    if not L.reversible:
        raise PreconditionViolated("the action estimate needs a reversible Lagrangian")
    if xs is None:
        xs = np.linspace(family.x0, family.x1, 33)
    rho = family.modulus_rho()
    C = hat_constant(family, L, rho=rho)
    ea0 = loop_action(L, family.at(family.x0))
    ea1 = loop_action(L, family.at(family.x1))
    base = max(ea0, ea1)
    report = {"C_theta": C, "endpoint_actions": (ea0, ea1), "per_n": {},
              "passed": True}
    for n in ns:
        # mean over [0, 2n] by evenness
        eas = np.array([segment_action(L, _half_table(family, n, float(x), rho=rho)) / n
                        for x in xs])
        worst = float(np.max(eas - (base + C / (2.0 * n) + 1e-3)))
        report["per_n"][n] = {
            "max_excess": float(np.max(eas - base)),
            "bound_margin": -worst,
            "holds": worst <= 0.0,
        }
        report["passed"] &= worst <= 0.0
    return report


# ---------------------------------------------------------------------------
# step 4: the simplex homotopy
# ---------------------------------------------------------------------------

def _chord_q2(y: float, s: float):
    """Chord [x_lo, x_hi] of s * simplex(0, e1, e2) along the barycenter line.

    Coordinates: x = (z1 + z2)/sqrt(2) along the line, y = (z2 - z1)/sqrt(2).
    """
    return abs(y), s / np.sqrt(2.0)


def _z_from_yx(y: float, x: float):
    return np.array([(x - y) / np.sqrt(2.0), (x + y) / np.sqrt(2.0)])


def _keeps_iterate(L: LagrangianSpec, family: LoopFamily, n: int, x: float,
                   rho: float, plain_action: float) -> bool:
    """Whether the construction at x has the plain iterate's mean action."""
    action = segment_action(L, _half_table(family, n, x, rho=rho)) / n
    return abs(action - plain_action) <= 1e-9 * (1.0 + abs(plain_action))


PARAM_SAMPLES = 33  # bangert_homotopy's steps on [0, 1], or on each side for q = 2
S_SAMPLES = 5  # its slices s in [0, 1] for q = 1


def bangert_homotopy(sigma, n: int, c1: float, c2: float, eps: float,
                     q: int = 1, *, L: LagrangianSpec) -> dict:
    """Certified interpolation homotopy over a q-simplex, q in {1, 2}.

    sigma is a LoopFamily for q = 1 (the simplex [0, 1]) or a callable
    z -> SymmetricLoop of the barycentric point z in the triangle with
    vertices (0, e1, e2) for q = 2.  Preconditions: sampled actions below
    c2 - eps on the simplex and below c1 - eps on its boundary.  The report
    carries n_bar = ceil(C(sigma) / (2 eps)) and the certificates

        (ii) the s = 1 slice lies in the c1-sublevel,
        (iii) boundary points never move: at the boundary parameters of every
              slice s > 0 (for q = 2, at both ends of every full chord) the
              construction's mean action equals the plain 2n-iterate's to
              1e-9 (1 + |a|),

    checked on the sample grid of PARAM_SAMPLES and S_SAMPLES, read at call
    time, for the given n >= n_bar.  The s = 0 slice is the plain 2n-iterate by definition, so
    there is no certificate (i) to compute.
    """
    if q not in (1, 2):
        raise Unsupported("simplex dimensions q in {1, 2} only")

    if q == 1:
        family: LoopFamily = sigma
        xs = np.linspace(family.x0, family.x1, PARAM_SAMPLES)
        boundary = [family.x0, family.x1]
        acts = {float(x): loop_action(L, family.at(x)) for x in xs}
        for x, a in acts.items():
            if a >= c2 - eps:
                raise PreconditionViolated(
                    f"action {a:.6g} at x = {x:.4g} not below c2 - eps", witness=x)
        for x in boundary:
            if loop_action(L, family.at(x)) >= c1 - eps:
                raise PreconditionViolated(
                    f"boundary action at x = {x:.4g} not below c1 - eps", witness=x)
        rho = family.modulus_rho()
        C_sigma = hat_constant(family, L, rho=rho)
        n_bar = int(np.ceil(C_sigma / (2.0 * eps)))
        if n < n_bar:
            raise PreconditionViolated(f"n = {n} below n_bar = {n_bar}")

        cert_ii = True
        cert_iii = True
        max_action_seen = -np.inf
        for s in np.linspace(0.0, 1.0, S_SAMPLES):
            s = float(s)
            # the chord at scale s is [x0, x0 + s span]; outside it the slice
            # is the plain iterate by definition
            chord_hi = family.x0 + s * (family.x1 - family.x0)
            sub = None
            if s > 0.0:
                sub = family.restrict(family.x0, chord_hi) if s < 1.0 else family
                for x in (boundary if s >= 1.0 else boundary[:1]):
                    cert_iii &= _keeps_iterate(L, sub, n, x, rho, acts[x])
            for x in acts:
                if sub is None or x >= chord_hi - 1e-15 or x <= family.x0 + 1e-15:
                    ea = acts[x]
                else:
                    ea = segment_action(L, _half_table(sub, n, x, rho=rho)) / n
                max_action_seen = max(max_action_seen, ea)
                if s >= 1.0 - 1e-15 and ea >= c1:
                    cert_ii = False
        return {
            "q": 1, "n": n, "n_bar": n_bar, "C_sigma": C_sigma,
            "certificates": {"ii": cert_ii, "iii": cert_iii,
                             "inside_c2": max_action_seen < c2},
            "max_action": max_action_seen,
        }

    # q == 2: chords through the barycenter line of the triangle (0, e1, e2)
    sample_zs = []
    for i in range(PARAM_SAMPLES + 1):
        for j in range(PARAM_SAMPLES + 1 - i):
            sample_zs.append(np.array([i, j], dtype=float) / PARAM_SAMPLES)
    acts = {}
    for z in sample_zs:
        a = loop_action(L, sigma(z))
        acts[tuple(z)] = a
        if a >= c2 - eps:
            raise PreconditionViolated(f"action {a:.6g} at z = {z} not below c2 - eps",
                                       witness=z)
        if (min(z) < 1e-12 or abs(sum(z) - 1.0) < 1e-12) and a >= c1 - eps:
            raise PreconditionViolated(f"boundary action at z = {z} not below c1 - eps",
                                       witness=z)

    def chord_family(y: float, s: float):
        lo, hi = _chord_q2(y, s)
        xs_nodes = np.linspace(lo, hi, 17)
        return LoopFamily(xs_nodes, [sigma(_z_from_yx(y, x)) for x in xs_nodes])

    # the full chords at s = 1, each with its modulus rho
    ys = np.linspace(-1.0 / np.sqrt(2.0) + 1e-9, 1.0 / np.sqrt(2.0) - 1e-9, 9)
    chords = []
    for y in ys:
        lo, hi = _chord_q2(float(y), 1.0)
        if hi - lo >= 1e-6:
            fam = chord_family(float(y), 1.0)
            chords.append((float(y), fam, fam.modulus_rho()))
    # C(sigma): max over the full chords
    C_sigma = max([0.0] + [hat_constant(fam, L, n_w=9, rho=rho)
                           for _, fam, rho in chords])
    n_bar = int(np.ceil(C_sigma / (2.0 * eps)))
    if n < n_bar:
        raise PreconditionViolated(f"n = {n} below n_bar = {n_bar}")

    cert_ii = True
    cert_iii = True
    worst = -np.inf
    for y, fam, rho in chords:
        for x in (fam.x0, fam.x1):
            cert_iii &= _keeps_iterate(L, fam, n, x, rho, loop_action(L, fam.at(x)))
        for x in np.linspace(fam.x0, fam.x1, 7):
            if x >= fam.x1 - 1e-14:
                z = _z_from_yx(y, float(x))
                ea = acts[tuple(z)] if tuple(z) in acts else loop_action(L, sigma(z))
            else:
                ea = segment_action(L, _half_table(fam, n, float(x), rho=rho)) / n
            worst = max(worst, ea)
            if ea >= c1:
                cert_ii = False
    return {
        "q": 2, "n": n, "n_bar": n_bar, "C_sigma": C_sigma,
        "certificates": {"ii": cert_ii, "iii": cert_iii, "inside_c2": worst < c2},
        "max_action": worst,
    }
