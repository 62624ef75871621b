"""Exact solvers for the structured-grid elliptic problems.

Everything here exploits the uniform tensor grid: the 5-point Dirichlet
Laplacian diagonalizes in the DST-I sine basis, applied as two products
with cached closed-form orthonormal sine matrices (one per spatial
axis), and the temporal part of the space-time operator (piecewise-linear
time derivative with natural boundary conditions) diagonalizes in a
closed-form cosine/sine basis in time (DCT-I, DST-I or DST-III, by trace
constraint), applied as one matrix product over the time levels.  Each
solve is therefore a fixed sequence of orthogonal matrix products plus a
diagonal multiplication by the cached reciprocals of the per-mode
denominators (the poisson solve of the steady path divides by its
eigenvalues): deterministic, bitwise reproducible at a fixed thread
count, and accurate to machine precision, which keeps the residual
contracts of the callers trivially satisfied.

Operator conventions (hx*hy folded into the dual vectors):

* spatial stiffness L = 5-point (-Laplacian), eigenvalues
  4/h^2 sin^2(pi k / (2(n+1))) per axis;
* temporal stiffness K encodes int v_t w_t for piecewise-linear fields
  (tridiagonal, Neumann ends); W is the trapezoid weight diagonal;
* the space-time operator is  hx*hy * (K (x) I  +  W (x) L).
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import SpaceTimeGrid

__all__ = [
    "sine_eigenvalues",
    "sine_transform",
    "poisson_solve",
    "TimeBasis",
    "time_basis",
    "level_slice",
    "spacetime_solve_weak",
]


@lru_cache(maxsize=64)
def _sine_matrix(n: int):
    """Read-only (n, n) orthonormal DST-I matrix.

    S[j, k] = sqrt(2/(n+1)) sin(pi (j+1)(k+1) / (n+1)), with the phase
    (j+1)(k+1) reduced modulo 2(n+1) in integers, so the trigonometric
    arguments stay in [0, 2 pi).  S is symmetric and S @ S = I.
    """
    k = np.arange(1, n + 1)
    S = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi / (n + 1) * (np.outer(k, k) % (2 * (n + 1))))
    S.flags.writeable = False
    return S


def sine_transform(a, out=None, work=None):
    """Orthonormal DST-I over the two trailing axes (self-inverse).

    out and work, if given, are arrays shaped like a: the product along
    x goes to work, the one along y to out, which is returned.  out may
    be a itself; work must be neither.  Unset, each is a new array.
    """
    ny, nx = np.shape(a)[-2:]
    return np.matmul(_sine_matrix(ny), np.matmul(a, _sine_matrix(nx), out=work), out=out)


@lru_cache(maxsize=64)
def sine_eigenvalues(grid: SpaceTimeGrid):
    """(ny, nx) eigenvalues of the 5-point stiffness L."""
    kx = np.arange(1, grid.nx + 1)
    ky = np.arange(1, grid.ny + 1)
    lx = 4.0 / grid.hx**2 * np.sin(np.pi * kx / (2 * (grid.nx + 1))) ** 2
    ly = 4.0 / grid.hy**2 * np.sin(np.pi * ky / (2 * (grid.ny + 1))) ** 2
    out = ly[:, None] + lx[None, :]
    out.flags.writeable = False
    return out


def poisson_solve(grid, rhs, out=None, work=None):
    """Solve -lap g = rhs with homogeneous Dirichlet walls.

    Works on slices, space-time arrays and vector fields alike (the
    trailing two axes are spatial).  The discrete 5-point system is
    solved exactly, so the residual is at roundoff level.  out, if
    given, receives g, and work, if given, the transforms' products
    along x: arrays shaped like rhs (see sine_transform).  out may be
    rhs itself; work must be neither.
    """
    rhs = np.asarray(rhs, dtype=float)
    if not np.isfinite(rhs).all():
        raise ValueError("poisson_solve: rhs contains non-finite values")
    g = sine_transform(rhs, out=out, work=work)
    g /= sine_eigenvalues(grid)
    return sine_transform(g, out=g, work=work)


def level_slice(grid, fixed):
    """Unknown time levels for the given trace constraint.

    fixed='none'    -> all levels (natural/Neumann ends)
    fixed='initial' -> levels 1..nt (value pinned at t=0)
    fixed='both'    -> levels 1..nt-1 (pinned at t=0 and t=T)
    """
    if fixed == "none":
        return slice(0, grid.nt + 1)
    if fixed == "initial":
        return slice(1, grid.nt + 1)
    if fixed == "both":
        return slice(1, grid.nt)
    raise ValueError(f"unknown trace constraint {fixed!r}")


@dataclass(frozen=True)
class TimeBasis:
    """Generalized eigenbasis of (K_sub, W_sub): Z^T W Z = I, K Z = W Z diag(lam)."""

    levels: slice
    Z: np.ndarray
    lam: np.ndarray

    def to_modes(self, a, out):
        """Mode coefficients Z^T a over the leading (level) axis, written
        to out, a C-contiguous array shaped like a, not a itself, which
        is returned."""
        return _level_product(self.Z.T, a, out)

    def from_modes(self, c, out):
        """The levels a = Z c of mode coefficients c (Z^{-1} = Z^T W, so
        synthesis uses Z itself); out as in to_modes."""
        return _level_product(self.Z, c, out)


def _level_product(M, a, out):
    """M applied over the leading axis of a, into out."""
    rows = a.reshape(len(a), -1)
    if not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    np.matmul(M, rows, out=out.reshape(rows.shape))
    return out


@lru_cache(maxsize=64)
def time_basis(grid: SpaceTimeGrid, fixed: str):
    """Closed-form eigenbasis of the temporal stiffness on the unknown levels.

    With level index j and mode k the unnormalized basis vectors are

    fixed='none'    -> cos(pi k j / nt),          k = 0..nt      (DCT-I)
    fixed='both'    -> sin(pi k j / nt),          k = 1..nt-1    (DST-I)
    fixed='initial' -> sin(pi (2k-1) j / (2 nt)), k = 1..nt      (DST-III)

    i.e. cos/sin(pi p j / d) with frequency p over denominator d, and the
    eigenvalues are 4/ht^2 sin^2(pi p / (2 d)).  The columns are scaled
    to Z^T W Z = I.  The phase p*j is reduced modulo 2d in integers, so
    the trigonometric arguments stay in [0, 2 pi).
    """
    sl = level_slice(grid, fixed)
    nt = grid.nt
    j = np.arange(nt + 1)[sl]
    if fixed == "none":
        p, d, trig = np.arange(nt + 1), nt, np.cos
    elif fixed == "both":
        p, d, trig = np.arange(1, nt), nt, np.sin
    else:
        p, d, trig = 2 * np.arange(1, nt + 1) - 1, 2 * nt, np.sin
    Z = trig(np.pi / d * (np.outer(j, p) % (2 * d)))
    Z /= np.sqrt(grid.time_weights()[sl] @ Z**2)
    lam = 4.0 / grid.ht**2 * np.sin(np.pi * p / (2 * d)) ** 2
    lam.flags.writeable = False
    Z.flags.writeable = False
    return TimeBasis(sl, Z, lam)


@lru_cache(maxsize=64)
def _mode_reciprocals(grid, fixed, rule):
    """Read-only (m, ny, nx) reciprocals of a space-time operator's
    diagonal in the time/sine eigenbasis of the given trace constraint.

    rule(grid, lam_t, lam_x, out) writes the diagonal entries for the
    (m, 1, 1) temporal against the (ny, nx) spatial eigenvalues into out,
    in place, so the build makes no temporary as large as the array
    (the first solve runs while the descent's workspace is live).  A rule
    copies lam_x into out first: a ufunc that broadcasts both of its
    inputs takes two iterator buffers (128 kB), one that broadcasts one
    input takes one.
    """
    lam_t = time_basis(grid, fixed).lam[:, None, None]
    out = np.empty((len(lam_t), grid.ny, grid.nx))
    rule(grid, lam_t, sine_eigenvalues(grid), out)
    np.reciprocal(out, out=out)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=64)
def _solve_plan(grid, fixed, rule, ndim):
    """The time basis of a trace constraint and the operator's per-mode
    reciprocals, viewed as (m, 1, ..., ny, nx) to broadcast over an
    ndim-dimensional field: what one _st_solve looks up, in one lookup."""
    recip = _mode_reciprocals(grid, fixed, rule)
    return time_basis(grid, fixed), recip.reshape(recip.shape[:1] + (1,) * (ndim - 3)
                                                  + recip.shape[1:])


def _st_solve(grid, bvec, rule, fixed, out=None, work=None):
    """Diagonalized solve of a space-time operator on the given levels.

    bvec: dual vector shaped (m_levels, ..., ny, nx).  rule is the
    operator's denominator rule, see _mode_reciprocals.  The modes are
    multiplied by the reciprocals of the denominators.  The transforms
    ping-pong between two arrays shaped like bvec: the modes, in work,
    and out, which holds the solution at the end and is returned.  Each
    is a new array unless given.  The caller owns out and work and lends
    them for the call: they must be C-contiguous, distinct, and neither
    may be bvec, which is only read.  Both are written before they are
    read, so they may hold anything, such as a field the caller has
    spent; after the call work holds nothing the caller needs.  The
    basis and the reciprocals come from one cached lookup
    (``_solve_plan``).  The transforms go through ``TimeBasis.to_modes``
    and ``from_modes``, once each, and the module's ``sine_transform``,
    twice, so that a wrapper set on any of them sees every solve.
    """
    bvec = np.asarray(bvec, dtype=float)
    tb, recip = _solve_plan(grid, fixed, rule, bvec.ndim)
    if out is None:
        out = np.empty(bvec.shape)
    chat = tb.to_modes(bvec, out=np.empty(bvec.shape) if work is None else work)
    sine_transform(chat, out=chat, work=out)
    chat *= recip
    return tb.from_modes(sine_transform(chat, out=chat, work=out), out=out)


def _weak_denominator(grid, lam_t, lam_x, out):
    out[...] = lam_x
    out += lam_t
    out *= grid.hx * grid.hy


def spacetime_solve_weak(grid, bvec, out=None, work=None):
    """Solve the space-time operator in dual form: A v = bvec.

    A = hx*hy*(K (x) I + W (x) L) over all nt+1 levels (weak Neumann in
    time, Dirichlet walls); bvec is an assembled functional vector of
    shape (nt+1, ..., ny, nx).  v goes to out, and the modes to work, if
    given (see _st_solve).
    """
    return _st_solve(grid, bvec, _weak_denominator, "none", out, work)
