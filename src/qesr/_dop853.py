"""Dormand-Prince 8(5,3) integration of an autonomous complex ODE system.

A port of SciPy 1.17.1's DOP853 (`solve_ivp(method="DOP853", t_eval=...)`;
Hairer, Norsett & Wanner, "Solving ODEs I", Sec. II.4-II.6), trimmed to the
time-domain route: forward from t = 0, values only at t_eval, no events, no
maximum step.  Tableau, initial step, step controller and the order of the
floating-point operations are SciPy's, so the results are the same bits; each
stage argument y + dot(K, a) * h is formed in one reused buffer (+ and * commute)
and F only on the kept rows.  The coefficients are SciPy's (dop853_coefficients.py,
BSD-3-Clause, (c) 2001-2002 Enthought, Inc. and 2003-2024 SciPy Developers) as
shortest round-trip decimals.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import NumericalGuardError, _warn


def _dense(n_cols: int, *rows: dict) -> np.ndarray:
    """Rows from {column: nonzero value}; complex, as np.dot casts them, and read-only."""
    out = np.zeros((len(rows), n_cols), dtype=complex)
    for i, row in enumerate(rows):
        for j, value in row.items():
            out[i, j] = value
    out.flags.writeable = False
    return out


# Stage s (1..15) takes y + h * sum_j _A[s, j] K_j; stages 13-15 feed only the
# dense output, and row 12 holds the 8th-order weights B.
_A = _dense(
    16,
    {},
    {0: 0.05260015195876773},
    {0: 0.0197250569845379, 1: 0.0591751709536137},
    {0: 0.02958758547680685, 2: 0.08876275643042054},
    {0: 0.2413651341592667, 2: -0.8845494793282861, 3: 0.924834003261792},
    {0: 0.037037037037037035, 3: 0.17082860872947386, 4: 0.12546768756682242},
    {0: 0.037109375, 3: 0.17025221101954405, 4: 0.06021653898045596, 5: -0.017578125},
    {0: 0.03709200011850479, 3: 0.17038392571223998, 4: 0.10726203044637328,
     5: -0.015319437748624402, 6: 0.008273789163814023},
    {0: 0.6241109587160757, 3: -3.3608926294469414, 4: -0.868219346841726, 5: 27.59209969944671,
     6: 20.154067550477894, 7: -43.48988418106996},
    {0: 0.47766253643826434, 3: -2.4881146199716677, 4: -0.590290826836843, 5: 21.230051448181193,
     6: 15.279233632882423, 7: -33.28821096898486, 8: -0.020331201708508627},
    {0: -0.9371424300859873, 3: 5.186372428844064, 4: 1.0914373489967295, 5: -8.149787010746927,
     6: -18.52006565999696, 7: 22.739487099350505, 8: 2.4936055526796523, 9: -3.0467644718982196},
    {0: 2.273310147516538, 3: -10.53449546673725, 4: -2.0008720582248625, 5: -17.9589318631188,
     6: 27.94888452941996, 7: -2.8589982771350235, 8: -8.87285693353063, 9: 12.360567175794303,
     10: 0.6433927460157636},
    {0: 0.054293734116568765, 5: 4.450312892752409, 6: 1.8915178993145003, 7: -5.801203960010585,
     8: 0.3111643669578199, 9: -0.1521609496625161, 10: 0.20136540080403034,
     11: 0.04471061572777259},
    {0: 0.056167502283047954, 6: 0.25350021021662483, 7: -0.2462390374708025,
     8: -0.12419142326381637, 9: 0.15329179827876568, 10: 0.00820105229563469,
     11: 0.007567897660545699, 12: -0.008298},
    {0: 0.03183464816350214, 5: 0.028300909672366776, 6: 0.053541988307438566,
     7: -0.05492374857139099, 10: -0.00010834732869724932, 11: 0.0003825710908356584,
     12: -0.00034046500868740456, 13: 0.1413124436746325},
    {0: -0.42889630158379194, 5: -4.697621415361164, 6: 7.683421196062599, 7: 4.06898981839711,
     8: 0.3567271874552811, 12: -0.0013990241651590145, 13: 2.9475147891527724,
     14: -9.15095847217987},
)
_B = _A[12, :12]
# 3rd- and 5th-order error weights on stages 0-12
_E3, _E5 = _dense(
    13,
    {0: -0.18980075407240762, 5: 4.450312892752409, 6: 1.8915178993145003, 7: -5.801203960010585,
     8: -0.4226823213237919, 9: -0.1521609496625161, 10: 0.20136540080403034,
     11: 0.02265179219836082},
    {0: 0.01312004499419488, 5: -1.2251564463762044, 6: -0.4957589496572502, 7: 1.6643771824549864,
     8: -0.35032884874997366, 9: 0.3341791187130175, 10: 0.08192320648511571,
     11: -0.022355307863886294},
)
# dense output: the 4 highest interpolant coefficients from all 16 stages
_D = _dense(
    16,
    {0: -8.428938276109013, 5: 0.5667149535193777, 6: -3.0689499459498917, 7: 2.38466765651207,
     8: 2.117034582445028, 9: -0.871391583777973, 10: 2.2404374302607883, 11: 0.6315787787694688,
     12: -0.08899033645133331, 13: 18.148505520854727, 14: -9.194632392478356,
     15: -4.436036387594894},
    {0: 10.427508642579134, 5: 242.28349177525817, 6: 165.20045171727028, 7: -374.5467547226902,
     8: -22.113666853125306, 9: 7.733432668472264, 10: -30.674084731089398, 11: -9.332130526430229,
     12: 15.697238121770845, 13: -31.139403219565178, 14: -9.35292435884448,
     15: 35.81684148639408},
    {0: 19.985053242002433, 5: -387.0373087493518, 6: -189.17813819516758, 7: 527.8081592054236,
     8: -11.57390253995963, 9: 6.8812326946963, 10: -1.0006050966910838, 11: 0.7777137798053443,
     12: -2.778205752353508, 13: -60.19669523126412, 14: 84.32040550667716, 15: 11.99229113618279},
    {0: -25.69393346270375, 5: -154.18974869023643, 6: -231.5293791760455, 7: 357.6391179106141,
     8: 93.40532418362432, 9: -37.45832313645163, 10: 104.0996495089623, 11: 29.8402934266605,
     12: -43.53345659001114, 13: 96.32455395918828, 14: -39.17726167561544,
     15: -149.72683625798564},
)

_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10  # the bounds on one step-size change
_EXPONENT = -1 / 8  # the error estimate is of order 7
_MIN_RTOL = 100 * float(np.finfo(float).eps)


def _rms(x: np.ndarray):
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, y, f, t_bound: float, rtol: float, atol: float):
    """Hairer, Norsett & Wanner's starting step, as SciPy chooses it."""
    scale = atol + np.abs(y) * rtol
    d0 = _rms(y / scale)
    d1 = _rms(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_bound)
    d2 = _rms((fun(y + h0 * f) - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, t_bound)


def _error_norm(K: np.ndarray, h: float, scale: np.ndarray):
    err5 = np.dot(K.T, _E5) / scale
    err3 = np.dot(K.T, _E3) / scale
    err5_norm_2 = np.linalg.norm(err5) ** 2
    err3_norm_2 = np.linalg.norm(err3) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))


def dop853(fun: Callable[[np.ndarray], np.ndarray], y0, t_eval, rtol: float, atol: float,
           rows: slice = slice(None)):
    """Solve dy/dt = fun(y), y(0) = y0, and return Y with Y[:, i] = y(t_eval[i])[rows].

    t_eval must be finite, non-negative and non-decreasing; repeated times
    give repeated columns.  rows only limits the dense output: the steps
    are the same, so the rows kept are the same bits.  Raises
    NumericalGuardError when the step size falls below the float spacing of
    t or is NaN, as it becomes once fun returns non-finite values.
    """
    y = np.asarray(y0, dtype=complex)
    out = np.empty((y[rows].size, t_eval.size), dtype=complex)
    t_bound = float(t_eval[-1])
    if t_bound == 0.0:
        out[:] = y[rows, None]
        return out
    if rtol < _MIN_RTOL:
        _warn(f"rtol = {float(rtol)!r} is too small; using {_MIN_RTOL!r}")
        rtol = _MIN_RTOL
    K = np.empty((16, y.size), dtype=complex)
    arg = np.empty_like(y)

    def stage(s: int, y_start: np.ndarray, h: float) -> None:
        """K[s] = fun(y_start + h * sum_j _A[s, j] K[j]), its argument formed in arg."""
        np.dot(K[:s].T, _A[s, :s], out=arg)
        np.multiply(arg, h, out=arg)
        K[s] = fun(np.add(arg, y_start, out=arg))

    f = fun(y)
    h_abs = _initial_step(fun, y, f, t_bound, rtol, atol)
    t, done = 0.0, 0  # done: the number of t_eval entries filled
    while t < t_bound:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:  # one step, shrunk until its error estimate passes
            # a NaN step (fun was not finite at the start) fails here too
            if not h_abs >= min_step:
                raise NumericalGuardError(
                    f"time-domain propagation failed: step size underflow ({h_abs:.3e} s "
                    f"at t = {t:.6e} s, below the float spacing there)"
                )
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            for s in range(1, 12):
                stage(s, y, h)
            y_new = y + h * np.dot(K[:12].T, _B)
            f_new = K[12] = fun(y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _error_norm(K[:13], h, scale)
            if error_norm < 1:
                factor = _MAX_FACTOR
                if error_norm:  # a zero norm would divide by zero in the power
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm**_EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            # max() keeps _MIN_FACTOR when the error norm is NaN
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm**_EXPONENT)
            rejected = True
        t_old, y_old, t, y, f = t, y, t_new, y_new, f_new
        stop = int(np.searchsorted(t_eval, t, side="right"))
        if stop > done:
            # the interpolant on [t_old, t]: three more stages, then F on the kept rows
            for s in range(13, 16):
                stage(s, y_old, h)
            f_old, start = K[0, rows], y_old[rows]
            delta_y = y[rows] - start
            # rows sliced after the whole product: BLAS may sum a slice in another order
            F = [delta_y, h * f_old - delta_y, 2 * delta_y - h * (f[rows] + f_old),
                 *(h * np.dot(_D, K)[:, rows])]
            x = ((t_eval[done:stop] - t_old) / (t - t_old))[:, None]
            Y = np.zeros((x.size, delta_y.size), dtype=complex)
            for i, row in enumerate(reversed(F)):
                Y += row
                Y *= x if i % 2 == 0 else 1 - x
            Y += start
            out[:, done:stop] = Y.T
            done = stop
    return out
