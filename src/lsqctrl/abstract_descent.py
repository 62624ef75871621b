"""Dense steepest-descent engine for quadratic error functionals.

Small-scale embodiment of the abstract convergence mechanism the PDE
solvers rely on: minimize E(u) = 1/2 ||T(u0 + u)||_Y^2 over a closed
subspace H of a finite-dimensional inner-product space X.  Everything
is dense, so the kernel A = Ker T \\cap H, its orthogonal projectors and
the exact minimizer are all computable and serve as oracles for the
matrix-free PDE machinery.

``run_descent`` is the package's one descent loop: stop tests,
per-iterate history, report and observer hook, around a step rule: the
exact steepest step of the dense ``descend`` (the oracle), or the PDE
solvers' ``ExactLineRule``, the exact step on a polynomial line energy.
"""

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "InnerProductSpace",
    "LsqProblem",
    "DescentConfig",
    "DescentReport",
    "DescentDivergence",
    "ExactLineRule",
    "energy",
    "gradient",
    "kernel_projector",
    "oracle_minimizer",
    "descend",
    "random_instance",
    "run_descent",
]

_KERNEL_CUTOFF = 1e-10  # singular values below cutoff*sigma_max span Ker T


class DescentDivergence(RuntimeError):
    """Energy rise beyond roundoff, or a gradient that does not descend."""


@dataclass(frozen=True)
class InnerProductSpace:
    """A finite-dimensional inner-product space given by its Gram matrix."""

    dim: int
    gram: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gram, dtype=float)
        if g.shape != (self.dim, self.dim):
            raise ValueError("gram matrix shape does not match dim")
        if self.dim <= 0:
            raise ValueError("dim must be positive")
        if np.abs(g - g.T).max() > 1e-12 * max(1.0, np.abs(g).max()):
            raise ValueError("gram matrix is not symmetric")
        try:
            np.linalg.cholesky(g)
        except np.linalg.LinAlgError as exc:
            raise ValueError("gram matrix is not positive definite") from exc
        object.__setattr__(self, "gram", g)

    @classmethod
    def euclidean(cls, dim):
        return cls(dim, np.eye(dim))

    def inner(self, u, v):
        return float(np.asarray(u) @ self.gram @ np.asarray(v))

    def norm(self, u):
        return float(np.sqrt(max(self.inner(u, u), 0.0)))


@dataclass
class LsqProblem:
    """E(u) = 1/2 ||T(u0 + u)||_Y^2 minimized over u in span(H_basis)."""

    X: InnerProductSpace
    Y: InnerProductSpace
    T_map: np.ndarray
    H_basis: np.ndarray
    u0: np.ndarray

    # derived dense factors, built once in __post_init__
    _TH: np.ndarray = field(init=False, repr=False)
    _gram_H: np.ndarray = field(init=False, repr=False)
    _Tu0: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.T_map = np.asarray(self.T_map, dtype=float)
        self.H_basis = np.asarray(self.H_basis, dtype=float)
        self.u0 = np.asarray(self.u0, dtype=float)
        if self.T_map.shape != (self.Y.dim, self.X.dim):
            raise ValueError("T_map must be Y.dim x X.dim")
        if self.H_basis.ndim != 2 or self.H_basis.shape[0] != self.X.dim:
            raise ValueError("H_basis must have X.dim rows")
        if self.u0.shape != (self.X.dim,):
            raise ValueError("u0 must be a vector in X")
        if np.linalg.matrix_rank(self.H_basis) < self.H_basis.shape[1]:
            raise ValueError("H_basis is rank deficient")
        self._TH = self.T_map @ self.H_basis
        self._gram_H = self.H_basis.T @ self.X.gram @ self.H_basis
        self._Tu0 = self.T_map @ self.u0

    @property
    def dim_H(self):
        return self.H_basis.shape[1]

    def _check_u(self, u):
        u = np.asarray(u, dtype=float)
        if u.shape != (self.dim_H,):
            raise ValueError(f"expected H-coordinates of length {self.dim_H}, got {u.shape}")
        return u

    def image(self, u):
        """T(u0 + u) for u in H coordinates."""
        return self._Tu0 + self._TH @ self._check_u(u)

    def inner_H(self, a, b):
        return float(np.asarray(a) @ self._gram_H @ np.asarray(b))

    def norm_H(self, a):
        return float(np.sqrt(max(self.inner_H(a, a), 0.0)))


@dataclass
class DescentConfig:
    max_iter: int = 500
    tol_energy: float = 0.0
    tol_grad: float = 0.0

    def __post_init__(self):
        for name in ("max_iter", "tol_energy", "tol_grad"):
            if not (getattr(self, name) >= 0):
                raise ValueError(f"{name} must be nonnegative")


@dataclass
class DescentReport:
    iterates_count: int
    energies: np.ndarray
    grad_norms: np.ndarray
    # the stop: energy_tol | grad_tol | max_iter | kernel_stall | line_search_stall;
    # the CLI maps it to the exit code (cli._exit_code)
    reason: str
    steps: np.ndarray = None
    kernel_ratios: np.ndarray = None
    extras: dict = field(default_factory=dict)


def random_instance(seed, dim_x=None, dim_y=None, rank_deficient=False):
    """Seeded dense instance whose restriction T|H has a tame spectrum.

    Singular values of T on span(H_basis) are kept inside [0.7, 2]
    (plus exact zeros when rank_deficient), so exact-line-search descent
    resolves the minimizer to far below 1e-8 within a few hundred
    steps; wilder spectra exercise only the slow-convergence caveat the
    method makes no promise about.
    """
    rng = np.random.default_rng(seed)
    nx = dim_x or int(rng.integers(3, 13))
    ny = dim_y or int(rng.integers(3, 13))

    def spd(n, cond=2.0):
        Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        return Q @ np.diag(np.linspace(1.0, cond, n)) @ Q.T

    X = InnerProductSpace(nx, spd(nx))
    Y = InnerProductSpace(ny, spd(ny))
    kh = int(rng.integers(2, min(nx, ny) + 1))
    B = np.linalg.qr(rng.standard_normal((nx, nx)))[0]
    H = B[:, :kh]
    sig = np.geomspace(0.7, 2.0, kh)
    if rank_deficient:
        sig[max(1, kh - 2):] = 0.0
    Uy = np.linalg.qr(rng.standard_normal((ny, ny)))[0]
    C = np.zeros((ny, nx))
    C[:, :kh] = Uy[:, :kh] @ np.diag(sig)
    if nx > kh:
        C[:, kh:] = rng.standard_normal((ny, nx - kh)) / np.sqrt(nx - kh)
    return LsqProblem(X, Y, C @ B.T, H, rng.standard_normal(nx))


def energy(p: LsqProblem, u):
    """E(u) = 1/2 <T(u0+u), T(u0+u)>_Y."""
    r = p.image(u)
    return 0.5 * p.Y.inner(r, r)


def gradient(p: LsqProblem, u):
    """Riesz representative of E' in the H-restricted inner product.

    Orthogonal (in H) to Ker T by construction: <g, a>_H = <T a, .>_Y = 0
    for every a with T a = 0.
    """
    rhs = p._TH.T @ (p.Y.gram @ p.image(u))
    try:
        return np.linalg.solve(p._gram_H, rhs)
    except np.linalg.LinAlgError as exc:
        raise ValueError("H-restricted Gram matrix is singular") from exc


def _gram_sqrt(gram):
    w, V = np.linalg.eigh(gram)
    w = np.clip(w, 0.0, None)
    return V @ np.diag(np.sqrt(w)) @ V.T, V @ np.diag(1.0 / np.sqrt(w)) @ V.T


def kernel_projector(p: LsqProblem):
    """H-orthogonal projectors (P_A, P_perp) onto A = Ker T cap H and A-perp.

    Dense SVD with relative cutoff defines the numerical kernel.
    Requires X.dim <= 2000 so the factorizations stay cheap.
    """
    if p.X.dim > 2000:
        raise ValueError("dense kernel projector limited to X.dim <= 2000")
    gy_sqrt, _ = _gram_sqrt(p.Y.gram)
    gh_sqrt, gh_isqrt = _gram_sqrt(p._gram_H)
    # singular structure of T restricted to H, in H-orthonormal coordinates
    M = gy_sqrt @ p._TH @ gh_isqrt
    _, svals, Vt = np.linalg.svd(M)
    smax = svals[0] if svals.size else 0.0
    ker_mask = np.ones(p.dim_H, dtype=bool)
    ker_mask[: svals.size] = svals <= _KERNEL_CUTOFF * max(smax, 1.0e-300)
    N = Vt.T[:, ker_mask]  # orthonormal kernel basis in transformed coords
    P_A = gh_isqrt @ (N @ N.T) @ gh_sqrt
    return P_A, np.eye(p.dim_H) - P_A


def oracle_minimizer(p: LsqProblem):
    """Minimizer of E over u0 + A-perp via pseudoinverse (dense oracle)."""
    gy_sqrt, _ = _gram_sqrt(p.Y.gram)
    gh_sqrt, gh_isqrt = _gram_sqrt(p._gram_H)
    M = gy_sqrt @ p._TH @ gh_isqrt
    rhs = gy_sqrt @ p._Tu0
    d = -np.linalg.pinv(M, rcond=_KERNEL_CUTOFF) @ rhs
    return gh_isqrt @ d


class _ExactSteepestRule:
    """Step rule of the dense ``descend`` for ``run_descent``: the exact
    step along the gradient, with absolute tolerances."""

    diagnostics = ()
    kernel_ratios = True

    def __init__(self, p, u, tol_grad):
        self.p, self.state, self.tol_grad = p, u, tol_grad

    def measure(self, history):
        self.g = gradient(self.p, self.state)
        self.gn = self.p.norm_H(self.g)
        return {"E": energy(self.p, self.state), "grad_norm": self.gn}

    def choose(self, record):
        p, g, gn = self.p, self.g, self.gn
        if gn <= self.tol_grad:
            return "grad_tol"
        Tg = p._TH @ g
        tg2 = p.Y.inner(Tg, Tg)
        record["kernel_ratio"] = np.sqrt(max(tg2, 0.0)) / gn if gn > 0 else 0.0
        if tg2 <= (1e-14 * gn) ** 2:
            # direction numerically inside Ker T: no energy to extract
            return "kernel_stall"
        record["step"] = p.Y.inner(p.image(self.state), Tg) / tg2
        return None

    def advance(self, record):
        self.state -= record["step"] * self.g


def descend(p: LsqProblem, u_init, cfg: DescentConfig, observer=None):
    """Steepest descent u_{k+1} = u_k - eta_k g_k with the exact step.

    The energy is non-increasing to roundoff and, if u_init lies in
    A-perp, so does every iterate.  This is the dense reference, so its
    tolerances are absolute.  ``observer(record, u)`` is called as in
    ``run_descent``.  Returns (u, DescentReport), u the last iterate.
    """
    rule = _ExactSteepestRule(p, p._check_u(u_init).copy(), cfg.tol_grad)
    report = run_descent(rule, cfg.max_iter, tol_energy=cfg.tol_energy, observer=observer)
    # the gradient test comes before the budget, also at the last iterate
    if report.reason == "max_iter" and report.grad_norms[-1] <= cfg.tol_grad:
        report.reason = "grad_tol"
    return rule.state, report


def run_descent(rule, max_iter, tol_energy=0.0, tol_energy_rel=0.0, tol_grad=0.0,
                observer=None):
    """The descent loop, around one step rule.

    The rule holds the method and its problem:

    * ``rule.state`` is the current iterate;
    * ``rule.measure(history)`` evaluates iterate ``len(history)`` and
      returns its record: a dict with ``E``, ``grad_norm`` and the keys
      named in ``rule.diagnostics``; ``history`` holds the records of
      the earlier iterates;
    * ``rule.choose(record)`` picks the step from the iterate, stores it
      as ``record["step"]`` (and ``record["kernel_ratio"]`` if the rule
      has one) and returns None, or returns the reason to stop instead;
    * ``rule.advance(record)`` takes the chosen step;
    * ``rule.kernel_ratios`` says whether the report carries the kernel
      ratios (None if not).

    The loop stops at the first iterate with E <= tol_energy, E <=
    tol_energy_rel * E_0 or grad_norm <= tol_grad * grad_norm_0 (the
    relative tests are off at zero), at a stop reason from the rule, or
    after max_iter steps.  ``observer(record, state)``, if given, is called once per
    iterate: after its step is chosen and before it is taken, or at the
    stop.  The record then also carries ``iter``; ``step`` is absent
    where no step is taken.  The observer must not modify either.

    Returns a DescentReport whose extras hold each diagnostic as an
    array, named by its plural (``div_norm`` -> ``div_norms``).
    """
    history, reason = [], "max_iter"
    for k in range(max_iter + 1):
        record = {"iter": k, **rule.measure(history)}
        history.append(record)
        e, gn = record["E"], record["grad_norm"]
        e0, g0 = history[0]["E"], history[0]["grad_norm"]
        if e <= tol_energy or (tol_energy_rel and e <= tol_energy_rel * e0):
            reason = "energy_tol"
        elif tol_grad and gn <= tol_grad * max(g0, 1e-300):
            reason = "grad_tol"
        elif k == max_iter:
            reason = "max_iter"
        else:
            reason = rule.choose(record)
        if observer is not None:
            observer(record, rule.state)
        if reason:
            break
        rule.advance(record)
    ratios = [r["kernel_ratio"] for r in history if "kernel_ratio" in r]
    return DescentReport(
        iterates_count=len(history),
        energies=np.array([r["E"] for r in history]),
        grad_norms=np.array([r["grad_norm"] for r in history]),
        reason=reason,
        steps=np.array([r["step"] for r in history[:-1]]),
        kernel_ratios=np.array(ratios) if rule.kernel_ratios else None,
        extras={f"{name}s": np.array([r[name] for r in history]) for name in rule.diagnostics},
    )


def _quartic_argmin(coef):
    """The positive root of the cubic E' with the lowest E(eta) = sum_k
    coef[k] eta^k, or None if E' has no positive root.

    A quadratic E's root is taken in closed form.  Otherwise the roots
    are the eigenvalues of the companion matrix that np.roots builds, so
    they are its roots to the bit: leading zeros lower the degree and
    trailing zeros, roots at 0, are dropped.  Candidates are ranked by E
    evaluated as np.polyval does, the first of equal values winning as in
    np.argmin.  Built from Python floats, a cubic costs one 3x3 eigvals
    call, about 30 us on a 2-vCPU VM; np.roots and np.polyval around the
    same call took 65 us.  The real part of a complex root stays a
    candidate: a root close to a double root may come out as a complex
    pair, and none can undercut the real root where E is lowest.
    """
    c0, c1, c2, c3, c4 = map(float, coef)
    if not (c3 or c4):
        eta = -c1 / (2 * c2) if c2 else 0.0
        return eta if eta > 0 else None
    p = [4 * c4, 3 * c3, 2 * c2, c1]
    while not p[0]:
        del p[0]
    while not p[-1]:
        del p[-1]
    n = len(p) - 1
    if not n:
        return None
    companion = [[-a / p[0] for a in p[1:]]]
    companion += [[float(i == j) for j in range(n)] for i in range(n - 1)]
    best = e_best = None
    for eta in np.linalg.eigvals(np.array(companion)).real.tolist():
        if eta > 0:
            e = (((c4 * eta + c3) * eta + c2) * eta + c1) * eta + c0
            if best is None or e < e_best:
                best, e_best = eta, e
    return best


class ExactLineRule:
    """Step rule of the PDE solvers for ``run_descent``: the exact step
    along the metric gradient, or its PR+ combination if cg, on a line
    builder ``line`` that holds the problem and every array of its line:

    * ``reset(state)`` forms the line's fields afresh at the state: the
      corrector v, its right-hand side and q, 2E = <v, rhs> + <q, q>;
      ``refresh(state)``, called every refresh_every iterates, projects
      the state first and forms them;
    * ``energy()`` gives E of the fields and keeps both terms of 2E for
      the diagnostics;
    * ``measure(state)`` gives the Riesz gradient (ordered as the
      state's y, pi and, if unsteady, f), its pairing ``pair(x) = <g,
      x>`` or None, its squared norm and the values of the keys named in
      ``diagnostics``;
    * ``line(state, d)`` gives c1..c4 of E(eta) - E(0) along state - eta
      d and keeps the fields' increments; ``step(state, d, eta)`` moves
      the fields to state - eta d, spending them;
    * ``advance(state, d, eta)`` moves the state to state - eta d.

    The rule writes one array, the direction: it builds it in place in
    its last direction, or takes the gradient's arrays as the direction.
    It drops the gradient unless a later PR+ pairing reads it (it has a
    pairing); the line may write into what the rule no longer holds.

    No argmin, or no drop in E there, ends the run on
    ``line_search_stall``.  Without a pairing, PR+ takes successive
    gradients as orthogonal (Fletcher-Reeves; exact search keeps them so
    on quadratic lines) and keeps no gradient.  A gradient that does not
    descend, or an energy rise beyond roundoff, raises DescentDivergence.
    With tol_kernel not None the records carry the kernel ratio ||T d|| /
    ||d||, and the run ends on ``kernel_stall`` at or below it.
    """

    def __init__(self, line, state, cg, refresh_every=0, tol_kernel=None):
        self.line, self.state, self.cg = line, state, cg
        self.refresh_every, self.tol_kernel = refresh_every, tol_kernel
        self.diagnostics, self.kernel_ratios = line.diagnostics, tol_kernel is not None
        line.reset(state)
        self.e = None  # the energy of the line's fields, once known
        # the last direction, the squared norms of its gradient and itself, that gradient
        self.dir = self.gn_sq_prev = self.pn_sq_prev = self.gprev = None

    def measure(self, history):
        it = len(history)
        if self.refresh_every and it and it % self.refresh_every == 0:
            self.line.refresh(self.state)
            self.e = None
        e = self.line.energy() if self.e is None else self.e
        if not history and not np.isfinite(e):
            raise DescentDivergence(f"non-finite initial energy: {e}")
        if history and not (e <= history[-1]["E"] * (1 + 1e-12)
                            + 1e-14 * max(history[0]["E"], 1e-300)):
            raise DescentDivergence(
                f"energy increased at iteration {it}: {history[-1]['E']} -> {e}")
        self.g, self.pair, self.gn_sq, diagnostics = self.line.measure(self.state)
        return {"E": e, "grad_norm": np.sqrt(self.gn_sq), **diagnostics}

    def _direction(self):
        """The direction, built in place in the last one, and its squared
        norm (exact-search CG keeps <g_k, d_{k-1}> = 0)."""
        g, gn_sq, gprev = self.g, self.gn_sq, self.gprev
        if not self.cg or self.dir is None:
            return g, gn_sq
        beta = max(0.0, (gn_sq - (0.0 if gprev is None else self.pair(gprev)))
                   / self.gn_sq_prev)
        if not beta:
            return g, gn_sq
        for a, b in zip(self.dir, g):
            a *= beta
            a += b
        if gprev is not None and self.pair(self.dir) <= 1e-12 * gn_sq:
            return g, gn_sq
        return self.dir, gn_sq + beta**2 * self.pn_sq_prev

    def choose(self, record):
        d, pn_sq = self._direction()
        # free before the line's solve: the last gradient, and this one
        # unless it is d or a later PR+ pairing reads it
        self.gprev = None
        if d is not self.g and self.pair is None:
            self.g = None
        coef = (0.0, *self.line.line(self.state, d))
        if not all(map(math.isfinite, coef)):
            raise ValueError("exact step: non-finite energy polynomial")
        if self.kernel_ratios:
            td_sq = max(2.0 * coef[2], 0.0)
            ratio = record["kernel_ratio"] = np.sqrt(td_sq / pn_sq) if pn_sq > 0 else 0.0
            if (self.tol_kernel and ratio <= self.tol_kernel) or td_sq <= 1e-28 * self.gn_sq:
                return "kernel_stall"
        if d is self.g and not coef[1] < 0:
            raise DescentDivergence(f"the gradient does not descend: slope {coef[1]}")
        eta = _quartic_argmin(coef)
        if eta is None:
            return "line_search_stall"
        self.line.step(self.state, d, eta)
        self.e = self.line.energy()
        if not self.e < record["E"]:  # the roundoff floor
            self.line.reset(self.state)
            self.e = None
            return "line_search_stall"
        record["step"] = eta
        self.dir, self.gn_sq_prev, self.pn_sq_prev = d, self.gn_sq, pn_sq
        self.gprev = self.g if self.cg and self.pair is not None else None
        self.g = self.pair = None
        return None

    def advance(self, record):
        self.line.advance(self.state, self.dir, record["step"])
        if not self.cg:
            self.dir = None
