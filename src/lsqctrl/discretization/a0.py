"""The graph-type inner product on admissible increments.

For a triplet direction u = (y, pi, f) the squared norm is

    ||y||^2_{L2(Q_T)} + ||grad y||^2_{L2(Q_T)}
  + int_0^T ||y_t||^2_{H^-1} dt  +  ||f||^2_{L2(q_T)} + ||pi||^2_{L2(Q_T)},

with the H^-1 term realized through one Poisson solve per time interval
applied to the piecewise-constant discrete y_t.  The cheaper
"simplified" metric replaces that term by the ht^2-weighted L2 norm of
y_t; it changes descent paths but not stationary points.

In degrees-of-freedom form the metric is

    hx*hy * ( W (x) (I + L)  +  K (x) L^-1 )        (a0_exact)
    hx*hy * ( W (x) (I + L)  +  ht^2 K (x) I )      (simplified)

which diagonalizes in the same sine/temporal eigenbasis as the
space-time corrector operator, so Riesz solves are exact.
"""

import numpy as np

from .elliptic import (
    _st_solve,
    poisson_solve,
)
from .grid import Triplet
from .stencils import st_h1_seminorm_sq, st_inner

__all__ = ["METRICS", "inner_a0", "a0_velocity_riesz"]

METRICS = ("a0_exact", "simplified")


def _check_metric(metric):
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")


def _dt_slopes(y, grid):
    return np.diff(y, axis=0) / grid.ht


def inner_a0(u1: Triplet, u2: Triplet, metric="a0_exact"):
    """Full A0 inner product of two triplet directions on one grid.

    Oracle of the tests: the descent never forms it, it solves
    ``a0_velocity_riesz`` instead.
    """
    if u1.grid != u2.grid:
        raise ValueError("triplets live on different grids")
    _check_metric(metric)
    grid, y1, y2 = u1.grid, u1.y, u2.y
    val = st_inner(y1, y2, grid)
    # grad pairing through polarization of the edge form
    val += 0.25 * (st_h1_seminorm_sq(y1 + y2, grid) - st_h1_seminorm_sq(y1 - y2, grid))
    d1 = _dt_slopes(y1, grid)
    d2 = _dt_slopes(y2, grid)
    if metric == "a0_exact":
        g1 = poisson_solve(grid, d1)
        val += grid.ht * grid.hx * grid.hy * float(np.sum(g1 * d2))
    else:
        val += grid.ht**3 * grid.hx * grid.hy * float(np.sum(d1 * d2))
    val += st_inner(u1.f, u2.f, grid)
    val += st_inner(u1.pi, u2.pi, grid)
    return val


def _exact_denominator(grid, lam_t, lam_x):
    return grid.hx * grid.hy * (1.0 + lam_x + lam_t / lam_x)


def _simplified_denominator(grid, lam_t, lam_x):
    return grid.hx * grid.hy * (1.0 + lam_x + grid.ht**2 * lam_t)


_DENOMINATORS = {"a0_exact": _exact_denominator, "simplified": _simplified_denominator}


def a0_velocity_riesz(grid, rvec, fixed, metric="a0_exact", out=None):
    """Solve M ybar = rvec for the velocity block of the A0 metric.

    rvec is an assembled dual vector on the unknown time levels (shape
    (m, 2, ny, nx)); the trace constraint 'fixed' selects those levels.
    Returns the representer on the same levels: in out, if given (a
    C-contiguous array shaped like rvec, not rvec itself; the solve also
    uses it as work space), else in a new array.
    """
    _check_metric(metric)
    return _st_solve(grid, rvec, _DENOMINATORS[metric], fixed, out)
