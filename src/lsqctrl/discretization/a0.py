"""The graph-type inner product on admissible increments.

For a triplet direction u = (y, pi, f) the squared norm is

    ||y||^2_{L2(Q_T)} + ||grad y||^2_{L2(Q_T)}
  + int_0^T ||y_t||^2_{H^-1} dt  +  ||f||^2_{L2(q_T)} + ||pi||^2_{L2(Q_T)}.

In degrees-of-freedom form the metric is

    hx*hy * ( W (x) (I + L)  +  K (x) L^-1 ),

which diagonalizes in the same sine/temporal eigenbasis as the
space-time corrector operator, so Riesz solves are exact.
"""

from .elliptic import _st_solve

__all__ = ["a0_velocity_riesz"]


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
