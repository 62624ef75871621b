"""Structured space-time grids on a rectangle and field containers.

Conventions used throughout the package:

* the spatial domain is the rectangle (0, Lx) x (0, Ly); homogeneous
  Dirichlet nodes on the boundary are eliminated, so arrays store the
  nx * ny interior nodes only, with x_i = (i+1)*hx and y_j = (j+1)*hy;
* the time axis keeps both endpoints: nt intervals, nt+1 stored levels,
  t_k = k*ht with ht = T_final/nt;
* scalar space-time fields have shape (nt+1, ny, nx), vector fields
  (nt+1, 2, ny, nx) with components ordered (vx, vy); a single time
  slice drops the leading axis;
* the x index is the last axis, the y index the second to last.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpatialGrid",
    "SpaceTimeGrid",
    "SupportMask",
    "Triplet",
]


class _Rectangle:
    """The interior nodes of (0,Lx) x (0,Ly), for the frozen dataclasses
    below, which hold nx, ny, Lx and Ly."""

    @property
    def hx(self):
        return self.Lx / (self.nx + 1)

    @property
    def hy(self):
        return self.Ly / (self.ny + 1)

    @property
    def n_space(self):
        return self.nx * self.ny

    def xs(self):
        """Interior node abscissae, shape (nx,)."""
        return self.hx * np.arange(1, self.nx + 1)

    def ys(self):
        return self.hy * np.arange(1, self.ny + 1)

    def meshgrid(self):
        """X, Y arrays of shape (ny, nx) over the interior nodes."""
        return np.meshgrid(self.xs(), self.ys(), indexing="xy")


@dataclass(frozen=True)
class SpatialGrid(_Rectangle):
    """Interior nodes of (0,Lx) x (0,Ly), Dirichlet boundary eliminated.

    Shares the slice-level conventions of SpaceTimeGrid; used by the
    steady solver where no time axis exists.
    """

    nx: int
    ny: int
    Lx: float = 1.0
    Ly: float = 1.0

    def __post_init__(self):
        if min(self.nx, self.ny) < 2:
            raise ValueError("grid requires nx, ny >= 2")
        if min(self.Lx, self.Ly) <= 0:
            raise ValueError("domain lengths must be positive")


@dataclass(frozen=True)
class SpaceTimeGrid(_Rectangle):
    """Uniform tensor grid on (0,Lx) x (0,Ly) x (0,T_final).

    nx, ny count interior spatial nodes per axis (Dirichlet boundary
    eliminated); nt counts time intervals, so fields carry nt+1 levels
    including t=0 and t=T_final.
    """

    nx: int
    ny: int
    nt: int
    Lx: float = 1.0
    Ly: float = 1.0
    T_final: float = 1.0

    def __post_init__(self):
        if min(self.nx, self.ny, self.nt) < 2:
            raise ValueError("grid requires nx, ny, nt >= 2")
        if min(self.Lx, self.Ly, self.T_final) <= 0:
            raise ValueError("domain lengths and horizon must be positive")
        w = np.full(self.nt + 1, self.ht)
        w[0] *= 0.5
        w[-1] *= 0.5
        w.flags.writeable = False
        object.__setattr__(self, "_time_weights", w)
        object.__setattr__(self, "_hash", hash((self.nx, self.ny, self.nt, self.Lx, self.Ly,
                                                self.T_final)))

    def __hash__(self):
        # hashed once: the solvers' lru-cached operators and bases look the
        # grid up several times per iteration
        return self._hash

    @property
    def ht(self):
        return self.T_final / self.nt

    def ts(self):
        return self.ht * np.arange(self.nt + 1)

    def time_weights(self):
        """Trapezoidal quadrature weights over the nt+1 levels: one
        read-only array per grid, built with it."""
        return self._time_weights

    def scalar_zeros(self):
        return np.zeros((self.nt + 1, self.ny, self.nx))

    def vector_zeros(self):
        return np.zeros((self.nt + 1, 2, self.ny, self.nx))


@dataclass(frozen=True)
class SupportMask:
    """Axis-aligned control support: a spatial rectangle, optionally
    restricted to a time window (compactly supported space-time control).

    Realized as 0/1 node weights; a node belongs to the support when its
    coordinates lie in the closed rectangle (with a small tolerance so
    that fractions like 1/3 behave predictably).
    """

    x0: float
    x1: float
    y0: float
    y1: float
    t0: float | None = None
    t1: float | None = None

    def validate(self, grid: SpaceTimeGrid):
        if not (0.0 <= self.x0 < self.x1 <= grid.Lx and 0.0 <= self.y0 < self.y1 <= grid.Ly):
            raise ValueError("support rectangle must be inside the domain with non-empty interior")
        if (self.t0 is None) != (self.t1 is None):
            raise ValueError("time window needs both t0 and t1")
        if self.t0 is not None and not (0.0 <= self.t0 < self.t1 <= grid.T_final):
            raise ValueError("time window must be inside [0, T]")
        # the support is the rectangle's nodes at the window's levels, so
        # it is empty if either is: the (nt+1)-level indicator is not built
        if not (self.spatial_indicator(grid).any()
                and (self.t0 is None or self._time_indicator(grid).any())):
            raise ValueError("support contains no space-time grid node")

    def spatial_indicator(self, grid: SpaceTimeGrid):
        """(ny, nx) 0/1 array over interior nodes."""
        tol = 1e-12 * max(grid.Lx, grid.Ly)
        X, Y = grid.meshgrid()
        inside = (X >= self.x0 - tol) & (X <= self.x1 + tol)
        inside &= (Y >= self.y0 - tol) & (Y <= self.y1 + tol)
        return inside.astype(float)

    def indicator(self, grid: SpaceTimeGrid):
        """Weights broadcastable onto vector fields: one (1, 1, ny, nx)
        slice without a time window, (nt+1, 1, ny, nx) with one."""
        space = self.spatial_indicator(grid)[None, None]
        if self.t0 is None:
            return space
        return self._time_indicator(grid)[:, None, None, None] * space

    def _time_indicator(self, grid: SpaceTimeGrid):
        """(nt+1,) 0/1 array over the time levels of the window."""
        tol = 1e-12 * grid.T_final
        ts = grid.ts()
        return ((ts >= self.t0 - tol) & (ts <= self.t1 + tol)).astype(float)


def _check_values(grid, values, components):
    arr = np.asarray(values, dtype=float)
    core = (components,) if components else ()
    shape = (grid.nt + 1, *core, grid.ny, grid.nx)
    if arr.shape != shape:
        raise ValueError(f"field shape {arr.shape} does not match grid {shape}")
    if not np.isfinite(arr).all():
        raise ValueError("field contains non-finite values")
    return arr


_PARTS = {"y": 2, "pi": 0, "f": 2}  # the parts of a triplet and their components


class Triplet:
    """A velocity/pressure/control triple on one grid.

    Used both for admissible states (velocity traces pinned to the data)
    and for descent directions (homogeneous traces); which constraints
    apply is decided by the solver that owns the triplet.  Every triplet
    keeps its three parts in one C-contiguous float64 array, ``buffer``,
    laid out as (y, pi, f), so that a pass over the whole triplet is one
    numpy call; ``y``, ``pi`` and ``f`` are views of it.  Assigning a
    part (``t.f = values``) checks the values as the constructor does
    and copies them into that view.
    """

    def __init__(self, grid: SpaceTimeGrid, y, pi, f):
        self._allocate(grid)
        self.y, self.pi, self.f = y, pi, f

    def _allocate(self, grid):
        n = (grid.nt + 1) * grid.ny * grid.nx
        buf = np.empty(5 * n)
        vector, scalar = (grid.nt + 1, 2, grid.ny, grid.nx), (grid.nt + 1, grid.ny, grid.nx)
        # set directly: __setattr__ copies into the parts, which do not exist yet
        self.__dict__.update(grid=grid, buffer=buf, y=buf[:2 * n].reshape(vector),
                             pi=buf[2 * n:3 * n].reshape(scalar), f=buf[3 * n:].reshape(vector))

    def __setattr__(self, name, value):
        if name not in _PARTS:
            return object.__setattr__(self, name, value)
        part = self.__dict__[name]
        if value is not part:  # t.f *= a assigns the view to itself
            part[...] = _check_values(self.grid, value, _PARTS[name])

    @classmethod
    def empty(cls, grid):
        """A triplet in a new buffer whose values are not set.  The
        unsteady solver builds every triplet it owns here."""
        t = cls.__new__(cls)
        t._allocate(grid)
        return t

    @classmethod
    def zeros(cls, grid):
        """The zero triplet."""
        t = cls.empty(grid)
        t.buffer.fill(0.0)
        return t

    def copy(self):
        """The triplet in a new buffer.  Its values are checked first: a
        part may have been written in place since it was assigned."""
        if not np.isfinite(self.buffer).all():
            raise ValueError("field contains non-finite values")
        t = Triplet.empty(self.grid)
        np.copyto(t.buffer, self.buffer)
        return t
