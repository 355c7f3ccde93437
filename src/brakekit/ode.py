"""DOP853: the explicit Runge-Kutta pair of order 8(5,3) with its order-7 dense output.

E. Hairer, S. P. Norsett and G. Wanner, *Solving Ordinary Differential
Equations I: Nonstiff Problems* (2nd ed., 1993), Sec. II.5 (the method) and
II.6 (the dense output).  This is a port of SciPy's ``solve_ivp(method="DOP853")``
for a forward time span: the initial step selection, the stage sums, the
error norm, the step-size control and the interpolant perform the arithmetic
of ``scipy/integrate/_ivp/rk.py`` and ``common.py`` in the same order, so the
steps and states are bit-equal to it.  Dense output evaluates all query times
at once, each with its own step's coefficients.

The Butcher tableau below is copied from SciPy's
``scipy/integrate/_ivp/dop853_coefficients.py`` under SciPy's license, which
follows.
"""

# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
# All rights reserved.
#
# Redistribution and use in source and binary forms, with or without
# modification, are permitted provided that the following conditions
# are met:
#
# 1. Redistributions of source code must retain the above copyright
#    notice, this list of conditions and the following disclaimer.
#
# 2. Redistributions in binary form must reproduce the above
#    copyright notice, this list of conditions and the following
#    disclaimer in the documentation and/or other materials provided
#    with the distribution.
#
# 3. Neither the name of the copyright holder nor the names of its
#    contributors may be used to endorse or promote products derived
#    from this software without specific prior written permission.
#
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
# "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
# LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
# A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
# OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
# SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
# LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
# DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
# THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
# (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
# OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import NonConvergence

__all__ = ["dop853", "DenseOutput", "Solution", "TOO_SMALL_STEP"]

N_STAGES = 12
N_STAGES_EXTENDED = 16
INTERPOLATOR_POWER = 7

C = np.array([0.0,
              0.526001519587677318785587544488e-01,
              0.789002279381515978178381316732e-01,
              0.118350341907227396726757197510,
              0.281649658092772603273242802490,
              0.333333333333333333333333333333,
              0.25,
              0.307692307692307692307692307692,
              0.651282051282051282051282051282,
              0.6,
              0.857142857142857142857142857142,
              1.0,
              1.0,
              0.1,
              0.2,
              0.777777777777777777777777777778])

A = np.zeros((N_STAGES_EXTENDED, N_STAGES_EXTENDED))
A[1, 0] = 5.26001519587677318785587544488e-2

A[2, 0] = 1.97250569845378994544595329183e-2
A[2, 1] = 5.91751709536136983633785987549e-2

A[3, 0] = 2.95875854768068491816892993775e-2
A[3, 2] = 8.87627564304205475450678981324e-2

A[4, 0] = 2.41365134159266685502369798665e-1
A[4, 2] = -8.84549479328286085344864962717e-1
A[4, 3] = 9.24834003261792003115737966543e-1

A[5, 0] = 3.7037037037037037037037037037e-2
A[5, 3] = 1.70828608729473871279604482173e-1
A[5, 4] = 1.25467687566822425016691814123e-1

A[6, 0] = 3.7109375e-2
A[6, 3] = 1.70252211019544039314978060272e-1
A[6, 4] = 6.02165389804559606850219397283e-2
A[6, 5] = -1.7578125e-2

A[7, 0] = 3.70920001185047927108779319836e-2
A[7, 3] = 1.70383925712239993810214054705e-1
A[7, 4] = 1.07262030446373284651809199168e-1
A[7, 5] = -1.53194377486244017527936158236e-2
A[7, 6] = 8.27378916381402288758473766002e-3

A[8, 0] = 6.24110958716075717114429577812e-1
A[8, 3] = -3.36089262944694129406857109825
A[8, 4] = -8.68219346841726006818189891453e-1
A[8, 5] = 2.75920996994467083049415600797e1
A[8, 6] = 2.01540675504778934086186788979e1
A[8, 7] = -4.34898841810699588477366255144e1

A[9, 0] = 4.77662536438264365890433908527e-1
A[9, 3] = -2.48811461997166764192642586468
A[9, 4] = -5.90290826836842996371446475743e-1
A[9, 5] = 2.12300514481811942347288949897e1
A[9, 6] = 1.52792336328824235832596922938e1
A[9, 7] = -3.32882109689848629194453265587e1
A[9, 8] = -2.03312017085086261358222928593e-2

A[10, 0] = -9.3714243008598732571704021658e-1
A[10, 3] = 5.18637242884406370830023853209
A[10, 4] = 1.09143734899672957818500254654
A[10, 5] = -8.14978701074692612513997267357
A[10, 6] = -1.85200656599969598641566180701e1
A[10, 7] = 2.27394870993505042818970056734e1
A[10, 8] = 2.49360555267965238987089396762
A[10, 9] = -3.0467644718982195003823669022

A[11, 0] = 2.27331014751653820792359768449
A[11, 3] = -1.05344954667372501984066689879e1
A[11, 4] = -2.00087205822486249909675718444
A[11, 5] = -1.79589318631187989172765950534e1
A[11, 6] = 2.79488845294199600508499808837e1
A[11, 7] = -2.85899827713502369474065508674
A[11, 8] = -8.87285693353062954433549289258
A[11, 9] = 1.23605671757943030647266201528e1
A[11, 10] = 6.43392746015763530355970484046e-1

A[12, 0] = 5.42937341165687622380535766363e-2
A[12, 5] = 4.45031289275240888144113950566
A[12, 6] = 1.89151789931450038304281599044
A[12, 7] = -5.8012039600105847814672114227
A[12, 8] = 3.1116436695781989440891606237e-1
A[12, 9] = -1.52160949662516078556178806805e-1
A[12, 10] = 2.01365400804030348374776537501e-1
A[12, 11] = 4.47106157277725905176885569043e-2

A[13, 0] = 5.61675022830479523392909219681e-2
A[13, 6] = 2.53500210216624811088794765333e-1
A[13, 7] = -2.46239037470802489917441475441e-1
A[13, 8] = -1.24191423263816360469010140626e-1
A[13, 9] = 1.5329179827876569731206322685e-1
A[13, 10] = 8.20105229563468988491666602057e-3
A[13, 11] = 7.56789766054569976138603589584e-3
A[13, 12] = -8.298e-3

A[14, 0] = 3.18346481635021405060768473261e-2
A[14, 5] = 2.83009096723667755288322961402e-2
A[14, 6] = 5.35419883074385676223797384372e-2
A[14, 7] = -5.49237485713909884646569340306e-2
A[14, 10] = -1.08347328697249322858509316994e-4
A[14, 11] = 3.82571090835658412954920192323e-4
A[14, 12] = -3.40465008687404560802977114492e-4
A[14, 13] = 1.41312443674632500278074618366e-1

A[15, 0] = -4.28896301583791923408573538692e-1
A[15, 5] = -4.69762141536116384314449447206
A[15, 6] = 7.68342119606259904184240953878
A[15, 7] = 4.06898981839711007970213554331
A[15, 8] = 3.56727187455281109270669543021e-1
A[15, 12] = -1.39902416515901462129418009734e-3
A[15, 13] = 2.9475147891527723389556272149
A[15, 14] = -9.15095847217987001081870187138


B = A[N_STAGES, :N_STAGES]

E3 = np.zeros(N_STAGES + 1)
E3[:-1] = B.copy()
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1

E5 = np.zeros(N_STAGES + 1)
E5[0] = 0.1312004499419488073250102996e-1
E5[5] = -0.1225156446376204440720569753e+1
E5[6] = -0.4957589496572501915214079952
E5[7] = 0.1664377182454986536961530415e+1
E5[8] = -0.3503288487499736816886487290
E5[9] = 0.3341791187130174790297318841
E5[10] = 0.8192320648511571246570742613e-1
E5[11] = -0.2235530786388629525884427845e-1

# First 3 coefficients are computed separately.
D = np.zeros((INTERPOLATOR_POWER - 3, N_STAGES_EXTENDED))
D[0, 0] = -0.84289382761090128651353491142e+1
D[0, 5] = 0.56671495351937776962531783590
D[0, 6] = -0.30689499459498916912797304727e+1
D[0, 7] = 0.23846676565120698287728149680e+1
D[0, 8] = 0.21170345824450282767155149946e+1
D[0, 9] = -0.87139158377797299206789907490
D[0, 10] = 0.22404374302607882758541771650e+1
D[0, 11] = 0.63157877876946881815570249290
D[0, 12] = -0.88990336451333310820698117400e-1
D[0, 13] = 0.18148505520854727256656404962e+2
D[0, 14] = -0.91946323924783554000451984436e+1
D[0, 15] = -0.44360363875948939664310572000e+1

D[1, 0] = 0.10427508642579134603413151009e+2
D[1, 5] = 0.24228349177525818288430175319e+3
D[1, 6] = 0.16520045171727028198505394887e+3
D[1, 7] = -0.37454675472269020279518312152e+3
D[1, 8] = -0.22113666853125306036270938578e+2
D[1, 9] = 0.77334326684722638389603898808e+1
D[1, 10] = -0.30674084731089398182061213626e+2
D[1, 11] = -0.93321305264302278729567221706e+1
D[1, 12] = 0.15697238121770843886131091075e+2
D[1, 13] = -0.31139403219565177677282850411e+2
D[1, 14] = -0.93529243588444783865713862664e+1
D[1, 15] = 0.35816841486394083752465898540e+2

D[2, 0] = 0.19985053242002433820987653617e+2
D[2, 5] = -0.38703730874935176555105901742e+3
D[2, 6] = -0.18917813819516756882830838328e+3
D[2, 7] = 0.52780815920542364900561016686e+3
D[2, 8] = -0.11573902539959630126141871134e+2
D[2, 9] = 0.68812326946963000169666922661e+1
D[2, 10] = -0.10006050966910838403183860980e+1
D[2, 11] = 0.77771377980534432092869265740
D[2, 12] = -0.27782057523535084065932004339e+1
D[2, 13] = -0.60196695231264120758267380846e+2
D[2, 14] = 0.84320405506677161018159903784e+2
D[2, 15] = 0.11992291136182789328035130030e+2

D[3, 0] = -0.25693933462703749003312586129e+2
D[3, 5] = -0.15418974869023643374053993627e+3
D[3, 6] = -0.23152937917604549567536039109e+3
D[3, 7] = 0.35763911791061412378285349910e+3
D[3, 8] = 0.93405324183624310003907691704e+2
D[3, 9] = -0.37458323136451633156875139351e+2
D[3, 10] = 0.10409964950896230045147246184e+3
D[3, 11] = 0.29840293426660503123344363579e+2
D[3, 12] = -0.43533456590011143754432175058e+2
D[3, 13] = 0.96324553959188282948394950600e+2
D[3, 14] = -0.39177261675615439165231486172e+2
D[3, 15] = -0.14972683625798562581422125276e+3


# ---------------------------------------------------------------------------
# the integrator
# ---------------------------------------------------------------------------

SAFETY = 0.9        # factor on the asymptotic step-size estimate
MIN_FACTOR = 0.2    # largest decrease of the step size
MAX_FACTOR = 10     # largest increase of the step size
_ERROR_EXPONENT = -1 / (7 + 1)  # the error estimator is of order 7
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."

# stage s sums the rows of the stages before it with a = A[s, :s], at t + c h;
# the 3 extra stages of the interpolant follow the 13 of a step
_STAGES = [(s, A[s, :s], C[s]) for s in range(1, N_STAGES)]
_EXTRA_STAGES = [(s, A[s, :s], C[s]) for s in range(N_STAGES + 1, N_STAGES_EXTENDED)]


class DenseOutput:
    """The order-7 interpolant of every step, evaluated at many times at once.

    Step j spans ts[j] .. ts[j + 1]; a time on a step end belongs to the
    earlier step, and times outside [ts[0], ts[-1]] extrapolate the first or
    last step.  Called at a scalar t it returns the state, at a 1-D array of
    times the states as rows.
    """

    def __init__(self, ts: np.ndarray, y_old: np.ndarray, F: np.ndarray):
        self.ts = ts
        self.h = ts[1:] - ts[:-1]
        self.y_old = y_old   # (steps, n): each step's start state
        self.F = F           # (steps, INTERPOLATOR_POWER, n)
        self._ts = None

    def __call__(self, t):
        if np.ndim(t) == 0:
            # float arithmetic rounds as numpy's does, and the step is a view
            t = float(t)
            if self._ts is None:
                self._ts = self.ts.tolist()
            j = min(max(bisect_left(self._ts, t) - 1, 0), len(self.h) - 1)
            x = (t - self._ts[j]) / float(self.h[j])
            F, y = self.F[j], np.zeros(self.F.shape[-1])
        else:
            t = np.asarray(t, dtype=float)
            j = np.minimum(np.maximum(np.searchsorted(self.ts, t, side="left") - 1, 0),
                           len(self.h) - 1)
            x = ((t - self.ts[j]) / self.h[j])[..., None]
            F, y = self.F.take(j, axis=0), np.zeros(t.shape + self.F.shape[-1:])
        # the nested form y_old + x (F0 + (1 - x) (F1 + x (F2 + ...))),
        # innermost coefficient first
        for p in range(INTERPOLATOR_POWER - 1, -1, -1):
            y += F[..., p, :]
            y *= x if p % 2 == 0 else 1 - x
        y += self.y_old[j]
        return y


class Solution(NamedTuple):
    """Step ends t (steps + 1,), states y (steps + 1, n) and the interpolant,
    None when it was not built."""

    t: np.ndarray
    y: np.ndarray
    dense: Optional[DenseOutput]


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, t0, y0, t_bound, f0, rtol, atol):
    """Hairer, Norsett and Wanner's starting step, Sec. II.4."""
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    y1 = y0 + h0 * f0
    f1 = fun(t0 + h0, y1)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (7 + 1))
    return min(100 * h0, h1, interval_length)


def _rk_step(fun, t, y, f, h, K, KT):
    """One step of the 12-stage method; the stages land in K's rows 0 .. 12,
    the last being the derivative at the new state.  KT[s] is K[:s].T."""
    K[0] = f
    for s, a, c in _STAGES:
        dy = np.dot(KT[s], a) * h
        K[s] = fun(t + c * h, y + dy)
    y_new = y + h * np.dot(KT[N_STAGES], B)
    f_new = fun(t + h, y_new)
    K[N_STAGES] = f_new
    return y_new, f_new


def _error_norm(KT, h, scale):
    """RMS norm of the order-5 error estimate, corrected by the order-3 one."""
    err5 = np.dot(KT, E5) / scale
    err3 = np.dot(KT, E3) / scale
    err5_norm_2 = np.linalg.norm(err5) ** 2
    err3_norm_2 = np.linalg.norm(err3) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))


def _interpolant(fun, t_old, y_old, y, f, h, K_ext, KT):
    """The step's interpolant coefficients F, from 3 extra stages in K_ext's last rows."""
    for s, a, c in _EXTRA_STAGES:
        dy = np.dot(KT[s], a) * h
        K_ext[s] = fun(t_old + c * h, y_old + dy)
    F = np.empty((INTERPOLATOR_POWER, y.shape[0]))
    f_old = K_ext[0]
    delta_y = y - y_old
    F[0] = delta_y
    F[1] = h * f_old - delta_y
    F[2] = 2 * delta_y - h * (f + f_old)
    F[3:] = h * np.dot(D, K_ext)
    return F


def dop853(fun: Callable, t_span, y0, tol: float, dense_output: bool = True,
           step_check: Optional[Callable] = None) -> Solution:
    """Integrate y' = fun(t, y) over t_span = (t0, t1), t0 < t1, with DOP853 at
    rtol = atol = tol.

    fun maps a time and a 1-D state to the derivative as a float array.
    step_check(t, y), when given, is called at each step end and may raise to
    stop the integration.  Without dense output the steps skip the three
    extra stages of the interpolant; the steps and states are the same.
    Raises NonConvergence when the step size falls below 10 ulps of t.
    """
    t0, t_bound = map(float, t_span)
    if not t0 < t_bound:
        raise ValueError("dop853 integrates forward: t_span must have t0 < t1")
    y = np.asarray(y0, dtype=float)
    if y.ndim != 1:
        raise ValueError("the initial state must be 1-dimensional")
    if not np.isfinite(y).all():
        raise ValueError("All components of the initial state `y0` must be finite.")
    rtol = atol = tol
    t = t0
    f = fun(t, y)
    h_abs = _initial_step(fun, t, y, t_bound, f, rtol, atol)
    K_ext = np.empty((N_STAGES_EXTENDED, y.shape[0]))
    KT = [K_ext[:s].T for s in range(N_STAGES_EXTENDED)]
    ts, ys, Fs = [t], [y], []
    while t < t_bound:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        step_rejected = False
        while True:
            if h_abs < min_step:
                raise NonConvergence(f"integrator failed: {TOO_SMALL_STEP}")
            t_new = t + h_abs
            if t_new - t_bound > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = np.abs(h)
            y_new, f_new = _rk_step(fun, t, y, f, h, K_ext, KT)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _error_norm(KT[N_STAGES + 1], h, scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm ** _ERROR_EXPONENT)
                if step_rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** _ERROR_EXPONENT)
            step_rejected = True
        if dense_output:
            Fs.append(_interpolant(fun, t, y, y_new, f_new, h, K_ext, KT))
        t, y, f = t_new, y_new, f_new
        ts.append(t)
        ys.append(y)
        if step_check is not None:
            step_check(t, y)
    ts = np.array(ts)
    ys = np.array(ys)
    dense = DenseOutput(ts, ys[:-1], np.array(Fs)) if dense_output else None
    return Solution(ts, ys, dense)
