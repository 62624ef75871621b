"""The graph-type inner product on admissible increments.

For a triplet direction u = (y, pi, f) the squared norm is

    ||y||^2_{L2(Q_T)} + ||grad y||^2_{L2(Q_T)}
  + int_0^T ||y_t||^2_{H^-1} dt  +  ||f||^2_{L2(q_T)} + ||pi||^2_{L2(Q_T)},

with the H^-1 term realized through one Poisson solve per time interval
applied to the piecewise-constant discrete y_t.

In degrees-of-freedom form the metric is

    hx*hy * ( W (x) (I + L)  +  K (x) L^-1 ),

which diagonalizes in the same sine/temporal eigenbasis as the
space-time corrector operator, so Riesz solves are exact.
"""

import numpy as np

from .elliptic import (
    _st_solve,
    poisson_solve,
)
from .grid import Triplet
from .stencils import st_h1_pairing, st_inner

__all__ = ["inner_a0", "a0_velocity_riesz"]


def _dt_slopes(y, grid):
    return np.diff(y, axis=0) / grid.ht


def inner_a0(u1: Triplet, u2: Triplet):
    """Full A0 inner product of two triplet directions on one grid.

    Oracle of the tests: the descent never forms it, it solves
    ``a0_velocity_riesz`` instead.
    """
    if u1.grid != u2.grid:
        raise ValueError("triplets live on different grids")
    grid, y1, y2 = u1.grid, u1.y, u2.y
    val = st_inner(y1, y2, grid) + st_h1_pairing(y1, y2, grid)
    g1 = poisson_solve(grid, _dt_slopes(y1, grid))
    val += grid.ht * grid.hx * grid.hy * float(np.sum(g1 * _dt_slopes(y2, grid)))
    val += st_inner(u1.f, u2.f, grid)
    val += st_inner(u1.pi, u2.pi, grid)
    return val


def _exact_denominator(grid, lam_t, lam_x):
    return grid.hx * grid.hy * (1.0 + lam_x + lam_t / lam_x)


def a0_velocity_riesz(grid, rvec, fixed, out=None):
    """Solve M ybar = rvec for the velocity block of the A0 metric.

    rvec is an assembled dual vector on the unknown time levels (shape
    (m, 2, ny, nx)); the trace constraint 'fixed' selects those levels.
    Returns the representer on the same levels: in out, if given (a
    C-contiguous array shaped like rvec, not rvec itself; the solve also
    uses it as work space), else in a new array.
    """
    return _st_solve(grid, rvec, _exact_denominator, fixed, out)
