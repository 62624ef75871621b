"""Steady solver: convection identities, corrector, gradient, descent."""

import warnings

import numpy as np
import pytest

from lsqctrl import steady_nse
from lsqctrl import stokes_control as sc
from lsqctrl.abstract_descent import ExactLineRule, _quartic_argmin
from lsqctrl.discretization import (
    SpatialGrid,
    Triplet,
    curl,
    div,
    div_part,
    dt_sq_integral,
    h1_pairing,
    h1_seminorm_sq,
    space_inner,
    st_h1_seminorm_sq,
    stencils,
)
from lsqctrl.oracles import (
    default_steady_case,
    energy,
    manufactured_steady,
    newton_nse,
)
from lsqctrl.steady_nse import (
    SteadyConfig,
    SteadyProblem,
    SteadyState,
    convection,
    corrector_steady,
    descend_steady,
    energy_steady,
    gradient_steady,
)
from test_stokes_control import perturbed_state, random_direction, small_problem


def smooth_pair(grid, seed=0):
    """Analytic fields vanishing on the walls (and their sampled values)."""
    X, Y = grid.meshgrid()
    S, T = np.sin(np.pi * X) ** 2, np.sin(np.pi * Y) ** 2
    Sx, Ty = np.pi * np.sin(2 * np.pi * X), np.pi * np.sin(2 * np.pi * Y)
    y = np.stack([S * Ty, -Sx * T])
    z = np.stack([S * T * (1 + X), S * T * (1 - 0.5 * Y)])
    return y, z


def small_data_problem(grid, amp=0.05, nu=1.0):
    _, _, f = manufactured_steady(default_steady_case(), grid, nu)
    return SteadyProblem(grid, nu, amp * f)


class TestProblem:
    def test_nan_viscosity_rejected(self):
        g = SpatialGrid(6, 6)
        with pytest.raises(ValueError):
            SteadyProblem(g, float("nan"), np.zeros((2, 6, 6)))

    def test_corrector_makes_one_poisson_solve(self, monkeypatch):
        p = small_data_problem(SpatialGrid(8, 8))
        calls = []
        solve = steady_nse.poisson_solve
        monkeypatch.setattr(steady_nse, "poisson_solve",
                            lambda *args: calls.append(1) or solve(*args))
        s = SteadyState.zeros(p.grid)
        corrector_steady(p, s)
        corrector_steady(p, s)
        assert len(calls) == 2


class TestConvection:
    def test_zero_second_argument(self):
        g = SpatialGrid(8, 8)
        y, _ = smooth_pair(g)
        assert np.abs(convection(y, np.zeros_like(y), g)).max() == 0.0

    def test_constant_fields_vanish_in_the_interior(self):
        g = SpatialGrid(10, 10)
        y = np.ones((2, g.ny, g.nx))
        z = np.ones((2, g.ny, g.nx))
        out = convection(y, z, g)
        assert np.abs(out[:, 2:-2, 2:-2]).max() == 0.0

    def test_product_rule_identity_refines(self):
        # div(y (x) z) = y div z + (grad y) z at interior nodes
        errs = []
        for n in (16, 32, 64):
            g = SpatialGrid(n, n)
            y, z = smooth_pair(g)
            lhs = convection(y, z, g)
            from lsqctrl.discretization import dx, dy

            rhs = np.stack(
                [y[0] * div(z, g) + dx(y[0], g) * z[0] + dy(y[0], g) * z[1],
                 y[1] * div(z, g) + dx(y[1], g) * z[0] + dy(y[1], g) * z[1]]
            )
            errs.append(np.abs(lhs - rhs).max())
        assert np.log2(errs[0] / errs[1]) >= 1.8
        assert np.log2(errs[1] / errs[2]) >= 1.8

    def test_integration_by_parts_identity(self):
        # int (div(y x z) + div(z x y)) . p = -int (y x z + z x y) : grad p
        g = SpatialGrid(9, 7)
        rng = np.random.default_rng(1)
        y = rng.standard_normal((2, g.ny, g.nx))
        z = rng.standard_normal((2, g.ny, g.nx))
        p = rng.standard_normal((2, g.ny, g.nx))
        lhs = space_inner(convection(y, z, g) + convection(z, y, g), p, g)
        from lsqctrl.discretization import dx, dy

        gp = [[dx(p[0], g), dy(p[0], g)], [dx(p[1], g), dy(p[1], g)]]
        rhs = 0.0
        for i in range(2):
            for j in range(2):
                rhs -= space_inner((y[i] * z[j] + z[i] * y[j]), gp[i][j], g)
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestCorrectorSteady:
    def test_zero_state_zero_forcing(self):
        g = SpatialGrid(8, 8)
        p = SteadyProblem(g, 1.0, np.zeros((2, g.ny, g.nx)))
        v, _ = corrector_steady(p, SteadyState.zeros(g))
        assert not v.any()

    def test_manufactured_h1_convergence(self):
        case = default_steady_case()
        norms = []
        for n in (8, 16, 32):
            g = SpatialGrid(n, n)
            y, piv, f = manufactured_steady(case, g, nu=1.0)
            p = SteadyProblem(g, 1.0, f)
            v, _ = corrector_steady(p, SteadyState(g, y, piv))
            norms.append(np.sqrt(h1_seminorm_sq(v, g) + space_inner(v, v, g)))
        assert norms[0] / norms[1] >= 3.4
        assert norms[1] / norms[2] >= 3.5

    def test_dense_oracle_agreement(self):
        from lsqctrl.oracles import _space_ops

        g = SpatialGrid(6, 6)
        rng = np.random.default_rng(2)
        y = rng.standard_normal((2, g.ny, g.nx))
        piv = rng.standard_normal((g.ny, g.nx))
        piv -= piv.mean()
        f = rng.standard_normal((2, g.ny, g.nx))
        p = SteadyProblem(g, 0.7, f)
        v, _ = corrector_steady(p, SteadyState(g, y, piv))
        L, Dx, Dy, Gx, Gy = _space_ops(g)
        n = g.n_space
        yv = y.reshape(2, n)
        conv = np.stack(
            [Dx @ (yv[0] * yv[0]) + Dy @ (yv[0] * yv[1]),
             Dx @ (yv[1] * yv[0]) + Dy @ (yv[1] * yv[1])]
        )
        res = np.stack(
            [0.7 * (L @ yv[0]) + conv[0] + Gx @ piv.reshape(-1) - f.reshape(2, n)[0],
             0.7 * (L @ yv[1]) + conv[1] + Gy @ piv.reshape(-1) - f.reshape(2, n)[1]]
        )
        v_dense = np.linalg.solve(L, -res.T).T.reshape(2, g.ny, g.nx)
        assert np.abs(v - v_dense).max() <= 1e-10 * max(np.abs(v_dense).max(), 1e-30)


class TestEnergySteady:
    def test_zero_everything(self):
        g = SpatialGrid(6, 6)
        p = SteadyProblem(g, 1.0, np.zeros((2, g.ny, g.nx)))
        assert energy_steady(p, SteadyState.zeros(g)) == 0.0

    def test_manufactured_fourth_order(self):
        case = default_steady_case()
        vals = []
        for n in (8, 16, 32):
            g = SpatialGrid(n, n)
            y, piv, f = manufactured_steady(case, g, nu=1.0)
            vals.append(energy_steady(SteadyProblem(g, 1.0, f), SteadyState(g, y, piv)))
        assert vals[0] / vals[1] >= 10.0
        assert vals[1] / vals[2] >= 10.0

    def test_epsilon_cancellation(self):
        # state with div y = -eps*pi nodewise and v = 0 has zero div term
        g = SpatialGrid(8, 8)
        rng = np.random.default_rng(3)
        psi = rng.standard_normal((g.ny, g.nx))
        y = curl(psi, g)  # exactly divergence free
        eps = 0.3
        s = SteadyState(g, y, np.zeros((g.ny, g.nx)))
        p = SteadyProblem(g, 1.0, np.zeros((2, g.ny, g.nx)), epsilon=eps)
        q = div(s.y, g) + eps * s.pi
        assert np.abs(q).max() <= 1e-12


class TestGradientSteady:
    def test_stationary_zero_state(self):
        g = SpatialGrid(6, 6)
        p = SteadyProblem(g, 1.0, np.zeros((2, g.ny, g.nx)))
        ybar, pibar, _, _ = gradient_steady(p, SteadyState.zeros(g))
        assert np.abs(ybar).max() == 0.0 and np.abs(pibar).max() == 0.0

    def test_fd_ladder(self):
        from lsqctrl.oracles import fd_check

        rng = np.random.default_rng(4)
        g = SpatialGrid(9, 9)
        p = small_data_problem(g, amp=1.0)
        s = SteadyState(g, 0.4 * rng.standard_normal((2, g.ny, g.nx)),
                        rng.standard_normal((g.ny, g.nx)))
        ybar, pibar, _, _ = gradient_steady(p, s)
        dY = rng.standard_normal((2, g.ny, g.nx))
        dPi = rng.standard_normal((g.ny, g.nx))
        dPi -= dPi.mean()
        plus = 0.25 * (h1_seminorm_sq(ybar + dY, g) - h1_seminorm_sq(ybar - dY, g))
        ref = plus + space_inner(pibar, dPi, g)

        def func(x):
            return energy_steady(p, SteadyState(g, x[: dY.size].reshape(dY.shape) + s.y,
                                                x[dY.size:].reshape(dPi.shape) + s.pi))

        x0 = np.zeros(dY.size + dPi.size)
        dvec = np.concatenate([dY.reshape(-1), dPi.reshape(-1)])
        rep = fd_check(func, x0, dvec, [1e-4, 1e-5, 1e-6], reference=ref)
        assert rep.best_rel <= 1e-5

    def test_dense_assembly_agreement(self):
        # the Newton oracle's stationarity residual is built from its own
        # matrices; at a random state it must equal minus the gradient
        from lsqctrl.oracles import _space_ops

        g = SpatialGrid(6, 6)
        rng = np.random.default_rng(5)
        y = 0.3 * rng.standard_normal((2, g.ny, g.nx))
        piv = rng.standard_normal((g.ny, g.nx))
        piv -= piv.mean()
        f = rng.standard_normal((2, g.ny, g.nx))
        p = SteadyProblem(g, 1.0, f)
        s = SteadyState(g, y, piv)
        v, _ = corrector_steady(p, s)
        ybar, pibar, _, _ = gradient_steady(p, s, v)
        L, Dx, Dy, Gx, Gy = _space_ops(g)
        n = g.n_space
        # dense first-variation vector in the y block
        vv = v.reshape(2, n)
        yv = y.reshape(2, n)
        gv = (Dx @ vv[0], Dy @ vv[0], Dx @ vv[1], Dy @ vv[1])
        sv = np.stack(
            [2 * gv[0] * yv[0] + (gv[1] + gv[2]) * yv[1],
             (gv[1] + gv[2]) * yv[0] + 2 * gv[3] * yv[1]]
        )
        q = (Dx @ yv[0] + Dy @ yv[1])
        r = np.stack(
            [-(L @ vv[0]) + sv[0] + Dx.T @ q, -(L @ vv[1]) + sv[1] + Dy.T @ q]
        )
        ybar_dense = np.linalg.solve(L, r.T).T.reshape(2, g.ny, g.nx)
        pny = -(Gx.T @ vv[0] + Gy.T @ vv[1])
        pibar_dense = (pny - pny.mean()).reshape(g.ny, g.nx)
        assert np.abs(ybar - ybar_dense).max() <= 1e-8 * max(np.abs(ybar_dense).max(), 1e-30)
        assert np.abs(pibar - pibar_dense).max() <= 1e-8 * max(np.abs(pibar_dense).max(), 1e-30)


class SteadyKit:
    """The steady solver's side of the line-step tests."""

    def __init__(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            self.p = small_data_problem(SpatialGrid(8, 8), amp=1.0)
        self.line = steady_nse._SteadyLine(self.p)

    def state(self, rng):
        g = self.p.grid
        return SteadyState(g, 0.4 * rng.standard_normal((2, g.ny, g.nx)),
                           rng.standard_normal((g.ny, g.nx)))

    def direction(self, rng):
        g = self.p.grid
        d_y = rng.standard_normal((2, g.ny, g.nx))
        d_pi = rng.standard_normal((g.ny, g.nx))
        return [d_y, d_pi - d_pi.mean()]

    def energy(self, s):
        return energy_steady(self.p, s)

    def corrector(self, s):
        return corrector_steady(self.p, s)

    def norm(self, v):
        return np.sqrt(h1_seminorm_sq(v, self.p.grid))

    @staticmethod
    def along(s, d, eta):
        return SteadyState(s.grid, s.y - eta * d[0], s.pi - eta * d[1])


class StokesKit:
    """The unsteady solver's side of the line-step tests."""

    def __init__(self):
        self.p = small_problem()
        self.line = sc._StokesLine(self.p)

    def state(self, rng):
        return perturbed_state(self.p, rng)

    def direction(self, rng):
        # a direction of the line is one of its storage triplets' buffers:
        # here the one the gradient just measured is not in
        d = random_direction(self.p, rng)
        t = next(t for t in self.line.store if t is not self.line.spent)
        t.y[...], t.pi[...], t.f[...] = d.y, d.pi, d.f
        return [t.buffer]

    def energy(self, s):
        return energy(self.p, s)

    def corrector(self, s):
        corr = sc.corrector(self.p, s)
        return corr.v, corr.rhs

    def norm(self, v):
        return np.sqrt(dt_sq_integral(v, self.p.grid) + st_h1_seminorm_sq(v, self.p.grid))

    @staticmethod
    def along(s, d, eta):
        t = Triplet.empty(s.grid)
        np.subtract(s.buffer, eta * d[0], out=t.buffer)
        return t


KITS = {"steady": SteadyKit, "unsteady": StokesKit}
DIRECTIONS = ("steepest", "cg", "random")
# both builders; the steady cases keep their direction as the test id
LINES = [pytest.param(kind, direction, id=direction if kind == "steady" else f"{kind}-{direction}")
         for kind in KITS for direction in DIRECTIONS]


def random_line(kit, direction, seed=7):
    """An exact-line rule at a random state after it has chosen its step
    along the metric gradient ('steepest'), the CG direction of the third
    iterate ('cg') or a random one ('random').  Returns the rule (its
    state not yet stepped, its direction rule.dir, its line's fields
    stepped), the record with the step and copies of the fields at the
    state."""
    rng = np.random.default_rng(seed)
    rule = ExactLineRule(kit.line, kit.state(rng), cg=direction == "cg")
    steps = 1 if direction == "random" else 3
    for k in range(steps):
        record = rule.measure([])
        fields = [f.copy() for f in kit.line.fields]
        if direction == "random":
            d = kit.direction(rng)
            # pointed downhill: E'(0) = c1 < 0
            sign = -np.sign(kit.line.line(rule.state, d)[0])
            for a in d:
                a *= sign  # in place: an unsteady direction stays in its storage
            rule.g = d
        assert rule.choose(record) is None
        if k < steps - 1:
            rule.advance(record)
    return rule, record, fields


def line_polynomial(rule, record, fields):
    """Coefficients c0..c4 of E along rule.state - eta rule.dir, built by
    the line from the given fields at the state (its own have taken the
    step); the line keeps its own fields."""
    line = rule.line
    stepped, line.fields = line.fields, fields
    try:
        coef = line.line(rule.state, rule.dir)
    finally:
        line.fields = stepped
    return np.array([record["E"], *coef])


class TestExactStep:
    @pytest.fixture
    def problem(self):
        return SteadyKit().p

    @pytest.mark.parametrize("kind, direction", LINES)
    def test_polynomial_matches_energy(self, kind, direction):
        kit = KITS[kind]()
        rule, record, fields = random_line(kit, direction)
        coef = line_polynomial(rule, record, fields)
        eta_star = _quartic_argmin(coef)
        assert eta_star > 0
        for eta in eta_star * np.array([0.0, 0.3, 1.0, 1.7, 3.2]):
            e = kit.energy(kit.along(rule.state, rule.dir, eta))
            assert np.polyval(coef[::-1], eta) == pytest.approx(e, rel=1e-10)

    @pytest.mark.parametrize("kind, direction", LINES)
    def test_carried_corrector_matches_a_fresh_solve(self, kind, direction):
        kit = KITS[kind]()
        rule, record, _ = random_line(kit, direction)
        rule.advance(record)
        v, rhs = rule.line.fields[:2]
        fresh_v, fresh_rhs = kit.corrector(rule.state)
        assert kit.norm(v - fresh_v) <= 1e-12 * kit.norm(fresh_v)
        assert np.linalg.norm(rhs - fresh_rhs) <= 1e-12 * np.linalg.norm(fresh_rhs)

    @pytest.mark.parametrize("kind, direction", LINES)
    def test_step_beats_a_dense_scan(self, kind, direction):
        kit = KITS[kind]()
        rule, record, _ = random_line(kit, direction)
        s, d, eta_star = rule.state, rule.dir, record["step"]
        # eta_star itself is scan point 100, exactly: rounding the grid
        # off eta_star would compare two energies of one point at roundoff
        scan = [kit.energy(kit.along(s, d, eta))
                for eta in eta_star * np.linspace(0.0, 4.0, 401)]
        e_star = kit.energy(kit.along(s, d, eta_star))
        assert e_star <= min(scan)
        assert e_star < scan[0]

    @pytest.mark.parametrize("kind", KITS)
    def test_rule_holds_no_array_but_directions_and_gradients(self, kind):
        # every array of a line is its builder's: beside the direction and
        # the gradients it combines, the CG rule keeps scalars only, at
        # every stage of an iterate
        kit = KITS[kind]()
        rule = ExactLineRule(kit.line, kit.state(np.random.default_rng(7)), cg=True)

        def holds_array(x):
            return isinstance(x, np.ndarray) or (
                isinstance(x, (list, tuple)) and any(map(holds_array, x)))

        def arrays_held():
            return [name for name, x in vars(rule).items()
                    if name not in ("dir", "g", "gprev") and holds_array(x)]

        history = []
        for _ in range(4):
            record = rule.measure(history)
            history.append(record)
            assert arrays_held() == []
            assert rule.choose(record) is None
            assert arrays_held() == []
            rule.advance(record)
            assert arrays_held() == []
        # the rule did combine directions: a kept direction, and on the
        # steady line the gradient for the next PR+ pairing
        assert holds_array(rule.dir)
        assert holds_array(rule.gprev) == (kind == "steady")

    @pytest.mark.parametrize("direction", DIRECTIONS)
    def test_gram_entries_are_the_h1_pairings(self, direction):
        # h1_pairing(a, P(r)) = space_inner(a, r): the Gram product of the
        # line's fields with their right-hand sides holds their pairings
        rule, record, fields = random_line(SteadyKit(), direction)
        line_polynomial(rule, record, fields)
        # the stacked [v, Vd, v2] and [rhs, bd, cdd] of the line at the state
        V, g = rule.line.sols, rule.state.grid
        assert np.array_equal(V[0], fields[0]) and np.array_equal(rule.line.rhss[0], fields[1])
        G = steady_nse._gram(V, rule.line.rhss, g)
        for i in range(3):
            for j in range(3):
                assert G[i, j] == pytest.approx(h1_pairing(V[i], V[j], g), rel=1e-12), (i, j)

    @pytest.mark.parametrize("direction", DIRECTIONS)
    def test_carried_rhs_matches_the_momentum_residual(self, direction):
        kit = SteadyKit()
        rule, record, _ = random_line(kit, direction)
        rule.advance(record)
        carried = rule.line.fields[1]
        fresh = -steady_nse._momentum_residual(kit.p, rule.state)
        assert np.linalg.norm(carried - fresh) <= 1e-12 * np.linalg.norm(fresh)

    @pytest.mark.parametrize("direction", DIRECTIONS)
    def test_advance_moves_the_state_to_the_stepped_point(self, direction):
        # the velocity the step formed for q is the one advance takes
        rule, record, _ = random_line(SteadyKit(), direction)
        s, d, eta = rule.state, rule.dir, record["step"]
        y, pi = s.y - eta * d[0], s.pi - eta * d[1]
        rule.advance(record)
        assert np.array_equal(s.y, y) and np.array_equal(s.pi, pi)

    @pytest.mark.parametrize("cg", [False, True], ids=["steepest", "cg"])
    def test_line_writes_one_workspace_across_a_run(self, cg):
        kit = SteadyKit()
        line = kit.line
        rule = ExactLineRule(line, kit.state(np.random.default_rng(7)), cg=cg)
        workspace = (line.sols, line.rhss, line.flux)
        history = []
        for _ in range(4):
            record = rule.measure(history)
            history.append(record)
            v, rhs = (f.copy() for f in line.fields[:2])
            assert rule.choose(record) is None
            assert all(a is b for a, b in zip((line.sols, line.rhss, line.flux), workspace))
            # this line's stacks and fluxes are in them: row 0 holds the
            # fields it was built from, and the y-fluxes of dd are d d_y
            # (the x-fluxes are spent as the solve's scratch)
            assert np.array_equal(line.sols[0], v) and np.array_equal(line.rhss[0], rhs)
            d_y = rule.dir[0]
            assert np.array_equal(line.flux[1, 1], d_y * d_y[1])
            rule.advance(record)

    @pytest.mark.parametrize("direction", DIRECTIONS)
    def test_fused_convection_matches_the_oracle(self, direction):
        rule, _, _ = random_line(SteadyKit(), direction)
        s, d_y, g = rule.state, rule.dir[0], rule.state.grid
        cdd, flux = np.empty_like(d_y), np.empty((2, 2) + d_y.shape)
        cross = steady_nse._line_convection(s.y, d_y, g, cdd, flux)
        ref_cross = convection(s.y, d_y, g) + convection(d_y, s.y, g)
        ref_cdd = convection(d_y, d_y, g)
        for got, ref in ((cross, ref_cross), (cdd, ref_cdd)):
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_gradient_rhs_carries_the_pairings(self, problem):
        rule, _, (v, rhs, *_) = random_line(SteadyKit(), "random")
        s, g = rule.state, problem.grid
        ybar, _, r, _ = gradient_steady(problem, s, v)
        a = np.random.default_rng(3).standard_normal(ybar.shape)
        assert space_inner(a, r, g) == pytest.approx(h1_pairing(a, ybar, g), rel=1e-12)
        assert space_inner(v, rhs, g) == pytest.approx(h1_seminorm_sq(v, g), rel=1e-12)

    def test_pr_plus_direction_matches_the_edge_form_pairings(self, problem):
        kit = SteadyKit()
        g = problem.grid
        rule = ExactLineRule(kit.line, kit.state(np.random.default_rng(7)), cg=True)
        record = rule.measure([])
        assert rule.choose(record) is None
        rule.advance(record)
        # the quartic line keeps the gradient for the next PR+ pairing
        (py, ppi), pgn_sq = rule.gprev, rule.gn_sq_prev
        d_y, d_pi = (a.copy() for a in rule.dir)
        record = rule.measure([record])
        ybar, pibar = rule.g
        gn_sq = h1_seminorm_sq(ybar, g) + space_inner(pibar, pibar, g)
        assert rule.gn_sq == pytest.approx(gn_sq, rel=1e-12)
        beta = (gn_sq - h1_pairing(ybar, py, g) - space_inner(pibar, ppi, g)) / pgn_sq
        assert beta > 0
        assert rule.choose(record) is None
        for got, ref in zip(rule.dir, (ybar + beta * d_y, pibar + beta * d_pi)):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("restart", [True, False])
    def test_pr_plus_restart_reads_the_h1_pairing(self, problem, restart):
        # The previous direction D = a r + b ybar (r: the gradient's
        # right-hand side, ybar = P(r)) is built so that its H_0^1 and L2
        # pairings with ybar disagree on whether ybar + D descends; the
        # rule must restart to the gradient exactly when the H_0^1 x L^2
        # pairing says it does not.
        kit = SteadyKit()
        g = problem.grid
        rule = ExactLineRule(kit.line, kit.state(np.random.default_rng(7)), cg=True)
        record = rule.measure([])
        (ybar, pibar), gn_sq = rule.g, rule.gn_sq
        v, _, q = kit.line.fields
        r = gradient_steady(problem, rule.state, v, q)[2]  # the gradient's right-hand side
        # a zero previous gradient of norm gn_sq makes beta exactly 1
        rule.gprev = [np.zeros_like(ybar), np.zeros_like(pibar)]
        rule.gn_sq_prev = rule.pn_sq_prev = gn_sq
        l2_sq = space_inner(pibar, pibar, g) + space_inner(ybar, ybar, g)
        pairings = np.array([[h1_pairing(r, ybar, g), h1_pairing(ybar, ybar, g)],
                             [space_inner(r, ybar, g), space_inner(ybar, ybar, g)]])
        # targets for (h1_pairing(D, ybar), space_inner(D, ybar))
        target = [-2.0 * gn_sq, 0.0] if restart else [0.0, -2.0 * l2_sq]
        a, b = np.linalg.solve(pairings, target)
        D = a * r + b * ybar
        rule.dir = [D.copy(), np.zeros_like(pibar)]
        assert h1_pairing(ybar + D, ybar, g) + space_inner(pibar, pibar, g) == (
            pytest.approx(gn_sq if not restart else -gn_sq, rel=1e-8))
        expected = ybar if restart else ybar + D
        rule.choose(record)
        assert np.array_equal(rule.dir[0], expected)
        assert np.array_equal(rule.dir[1], pibar)

    def test_rule_carries_the_trial_corrector(self, problem):
        # the rule steps by the polynomial's minimizer, and the next
        # iterate's record holds the carried energy
        kit = SteadyKit()
        rule = ExactLineRule(kit.line, kit.state(np.random.default_rng(7)), cg=True)
        record = rule.measure([])
        fields = [f.copy() for f in kit.line.fields]
        assert rule.choose(record) is None
        coef = line_polynomial(rule, record, fields)
        assert record["step"] == _quartic_argmin(coef)
        (v, rhs, q), e = kit.line.fields, rule.e
        rule.advance(record)
        trial = rule.state
        fresh = -steady_nse._momentum_residual(problem, trial)
        assert np.linalg.norm(rhs - fresh) <= 1e-12 * np.linalg.norm(fresh)
        # div y and q of the trial are formed once, with div_part's
        # arithmetic (epsilon = 0: q is div y, and the record's div_norm
        # is read off it)
        g = problem.grid
        dv = div(trial.y, g)
        assert problem.epsilon == 0.0 and np.array_equal(q, dv)
        assert np.array_equal(q, div_part(trial.y, trial.pi, g, problem.epsilon))
        following = rule.measure([record])
        assert following["div_norm"] == np.sqrt(space_inner(dv, dv, g))
        assert following["E"] == e == 0.5 * (
            space_inner(v, rhs, g) + space_inner(q, q, g)) < record["E"]

    def test_one_corrector_solve_per_run(self, problem, monkeypatch):
        counts = {"corrector_steady": 0, "poisson_solve": 0}
        for name in counts:
            original = getattr(steady_nse, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(steady_nse, name, counted)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            s, rep = descend_steady(problem, SteadyConfig(max_iter=20, algorithm="cg"))
        assert rep.iterates_count == 21
        assert counts["corrector_steady"] == 1
        # the corrector, the small-data estimate, one gradient per iterate
        # and one batched solve per step
        assert counts["poisson_solve"] == 2 + rep.iterates_count + len(rep.steps)

    def test_run_makes_no_edge_difference_pairing(self, problem, monkeypatch):
        # every H_0^1 pairing of a run is read off a Poisson right-hand side
        counts = {"h1_pairing": 0, "_edge_diffs": 0}
        for name in counts:
            original = getattr(stencils, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(stencils, name, counted)
        for algorithm in ("steepest", "cg"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                _, rep = descend_steady(problem, SteadyConfig(max_iter=20, algorithm=algorithm))
            assert rep.iterates_count == 21
        assert counts == {"h1_pairing": 0, "_edge_diffs": 0}

    def test_non_finite_polynomial_is_a_value_error(self, problem):
        # the Poisson data stay finite; the pairings of the corrector overflow
        kit = SteadyKit()
        rng = np.random.default_rng(7)
        rule = ExactLineRule(kit.line, kit.state(rng), cg=False)
        record = rule.measure([])
        d_y, d_pi = kit.direction(rng)
        rule.g = [1e80 * d_y, d_pi]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="exact step: non-finite energy polynomial"):
                rule.choose(record)

    def test_argmin_picks_the_lower_of_two_minima(self):
        # E = (eta - 1)^2 (eta - 3)^2 - eta/10: minima near 1 and 3, lower near 3
        coef = np.polynomial.polynomial.polyfromroots([1.0, 1.0, 3.0, 3.0])
        coef[1] -= 0.1
        eta = _quartic_argmin(coef)
        assert eta == pytest.approx(3.0, abs=0.05)

    def test_argmin_without_a_positive_root(self):
        assert _quartic_argmin(np.array([1.0, 1.0, 1.0, 0.0, 0.0])) is None


class TestDescendSteady:
    def test_zero_forcing_converges_immediately(self):
        g = SpatialGrid(6, 6)
        p = SteadyProblem(g, 1.0, np.zeros((2, g.ny, g.nx)))
        s, rep = descend_steady(p, SteadyConfig(max_iter=5, tol_energy=0.0))
        assert rep.reason == "energy_tol" and rep.iterates_count == 1
        assert np.abs(s.y).max() == 0.0

    def test_manufactured_recovery_order(self):
        case = default_steady_case()
        errs = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for n in (8, 16):
                g = SpatialGrid(n, n)
                y_ex, pi_ex, f = manufactured_steady(case, g, nu=1.0)
                p = SteadyProblem(g, 1.0, f)
                s, rep = descend_steady(p, SteadyConfig(max_iter=4000, tol_grad=1e-10,
                                                        algorithm="cg"))
                dy = s.y - y_ex
                errs.append(np.sqrt(space_inner(dy, dy, g)))
        assert np.log2(errs[0] / errs[1]) >= 1.5

    def test_newton_oracle_equivalence_small_data(self):
        g = SpatialGrid(10, 10)
        p = small_data_problem(g, amp=0.05)
        s, rep = descend_steady(p, SteadyConfig(max_iter=6000, tol_grad=1e-13,
                                                algorithm="cg"))
        y_n, pi_n = newton_nse(p)
        h1 = np.sqrt(h1_seminorm_sq(s.y - y_n, g))
        l2 = np.sqrt(space_inner(s.pi - pi_n, s.pi - pi_n, g))
        assert h1 + l2 <= 1e-6

    def test_epsilon_run_keeps_pressure_mean_pinned(self):
        g = SpatialGrid(8, 8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            y_ex, pi_ex, f = manufactured_steady(default_steady_case(), g, nu=1.0)
            p = SteadyProblem(g, 1.0, f, epsilon=1e-2)
            s, rep = descend_steady(p, SteadyConfig(max_iter=800, tol_grad=1e-8,
                                                    algorithm="cg"))
        assert rep.energies[-1] < rep.energies[0]
        assert abs(s.pi.mean()) <= 1e-12

    def test_strict_decrease_down_to_the_roundoff_floor(self):
        # no gradient target: each run ends where the exact step stops
        # descending, and every step before that lowers E
        g = SpatialGrid(6, 6)
        for algorithm in ("steepest", "cg"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                p = small_data_problem(g, amp=1.0)
                s, rep = descend_steady(p, SteadyConfig(max_iter=20000, algorithm=algorithm))
            assert rep.reason == "line_search_stall", algorithm
            assert rep.grad_norms[-1] <= 1e-8 * rep.grad_norms[0], algorithm
            assert (np.diff(rep.energies) < 0).all(), algorithm

    def test_noop_observer_leaves_report_bit_identical(self):
        g = SpatialGrid(8, 8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            p = small_data_problem(g, amp=1.0)
            cfg = SteadyConfig(max_iter=60, algorithm="cg")
            s0, rep0 = descend_steady(p, cfg)
            records = []
            s1, rep1 = descend_steady(p, cfg,
                                      observer=lambda rec, s: records.append(dict(rec)))
        assert (rep0.iterates_count, rep0.reason) == (rep1.iterates_count, rep1.reason)
        assert rep0.kernel_ratios is None and rep1.kernel_ratios is None
        for name in ("energies", "grad_norms", "steps"):
            assert np.array_equal(getattr(rep0, name), getattr(rep1, name)), name
        for name in ("residual_norms", "div_norms"):
            assert np.array_equal(rep0.extras[name], rep1.extras[name]), name
        assert np.array_equal(s0.y, s1.y) and np.array_equal(s0.pi, s1.pi)
        assert [r["iter"] for r in records] == list(range(rep1.iterates_count))
        assert np.array_equal([r["step"] for r in records if "step" in r], rep1.steps)

    def test_copy_and_start_keep_the_state_bit_for_bit(self):
        # the pressure mean is removed once, at construction: a copy, and
        # the start of a run from the state, keep the state's bits
        g = SpatialGrid(12, 12)
        rng = np.random.default_rng(19)
        for _ in range(50):
            s = SteadyState(g, rng.standard_normal((2, g.ny, g.nx)),
                            rng.standard_normal((g.ny, g.nx)))
            c = s.copy()
            assert np.array_equal(c.y, s.y) and np.array_equal(c.pi, s.pi)
            assert c.y is not s.y and c.pi is not s.pi
        s0, _ = descend_steady(small_data_problem(g), SteadyConfig(max_iter=0), s_init=s)
        assert np.array_equal(s0.y, s.y) and np.array_equal(s0.pi, s.pi)

    def test_small_data_warning_threshold(self):
        g = SpatialGrid(8, 8)
        _, _, f = manufactured_steady(default_steady_case(), g, nu=1.0)
        with pytest.warns(UserWarning, match="may not be unique"):
            SteadyProblem(g, 1.0, f).check_small_data()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            SteadyProblem(g, 1.0, 0.01 * f).check_small_data()


class TestNewtonOracle:
    def test_zero_forcing_zero_state(self):
        g = SpatialGrid(6, 6)
        p = SteadyProblem(g, 1.0, np.zeros((2, g.ny, g.nx)))
        y, piv = newton_nse(p)
        assert np.abs(y).max() <= 1e-12 and np.abs(piv).max() <= 1e-12

    def test_manufactured_second_order(self):
        case = default_steady_case()
        errs = []
        for n in (8, 16):
            g = SpatialGrid(n, n)
            y_ex, pi_ex, f = manufactured_steady(case, g, nu=1.0)
            y, piv = newton_nse(SteadyProblem(g, 1.0, f))
            dy = y - y_ex
            errs.append(np.sqrt(space_inner(dy, dy, g)))
        assert np.log2(errs[0] / errs[1]) >= 1.5

    def test_stokes_limit_converges_in_one_step(self):
        g = SpatialGrid(8, 8)
        _, _, f = manufactured_steady(default_steady_case(), g, nu=1.0)
        p = SteadyProblem(g, 1.0, f)
        y, piv, info = newton_nse(p, include_convection=False, return_info=True)
        assert info["iterations"] == 1
        assert info["residual"] <= 1e-10 * max(np.linalg.norm(f), 1.0)
