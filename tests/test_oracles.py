"""Ground-truth generators: manufactured cases, dense assembly, FD ladder."""

import numpy as np
import pytest
import sympy as sp

from lsqctrl import abstract_descent as ad
from lsqctrl import stokes_control as sc
from lsqctrl.discretization import (
    SpaceTimeGrid,
    SpatialGrid,
    SupportMask,
    Triplet,
    div,
    level_slice,
    remove_slice_means,
    st_inner,
)
from lsqctrl.oracles import (
    ManufacturedCase,
    Separable,
    _residual_scale,
    default_steady_case,
    default_unsteady_case,
    dense_assemble,
    energy,
    fd_check,
    first_variation,
    manufactured_steady,
    manufactured_stokes,
)


def control_problem(n=4, eps=0.0, mask=None, shape=None):
    g = SpaceTimeGrid(*(shape or (n, n, n)))
    X, Y = g.meshgrid()
    y0 = np.stack([np.sin(np.pi * X) * np.sin(np.pi * Y),
                   0.4 * np.sin(np.pi * X) * np.sin(2 * np.pi * Y)])
    mask = mask or SupportMask(0.0, 0.5, 0.0, 1.0)
    return sc.ControlProblem(g, 1.0, y0, mask, epsilon=eps)


# sympy oracle of the closed forms: the default cases as symbolic expressions
SX, SY, ST = sp.symbols("x y t")
PRESSURE_EXPR = sp.sin(sp.pi * SX) * sp.cos(sp.pi * SY)


def unsteady_exprs(T_final):
    bump = sp.sin(sp.pi * SX) ** 2 * sp.sin(sp.pi * SY) ** 2 * (1 + SX / 2 - 3 * SY / 10)
    return bump * sp.cos(sp.pi * ST / T_final), PRESSURE_EXPR


def steady_exprs():
    return sp.sin(sp.pi * SX) ** 2 * sp.sin(sp.pi * SY) ** 2 * (1 + SX / 2), PRESSURE_EXPR


def field_exprs(psi, pressure, nu, steady):
    """Velocity and forcing of the stream function psi, symbolically."""
    vel = (sp.diff(psi, SY), -sp.diff(psi, SX))
    lap = lambda e: sp.diff(e, SX, 2) + sp.diff(e, SY, 2)
    if steady:
        extra = lambda e: vel[0] * sp.diff(e, SX) + vel[1] * sp.diff(e, SY)
    else:
        extra = lambda e: sp.diff(e, ST)
    f = [extra(e) - nu * lap(e) + sp.diff(pressure, s) for e, s in zip(vel, (SX, SY))]
    return vel, f


def sample_expr(expr, x, y, t=0.0):
    fn = sp.lambdify((SX, SY, ST), expr, modules="numpy")
    shape = np.broadcast_shapes(np.shape(x), np.shape(y), np.shape(t))
    return np.broadcast_to(fn(x, y, t), shape).astype(float)


def assert_close(value, reference, rel=1e-13):
    assert np.abs(value - reference).max() <= rel * np.abs(reference).max()


def scaled(case, a):
    return ManufacturedCase(a * case.psi, a * case.pressure, case.T_final)


class TestManufactured:
    @pytest.mark.parametrize("a", [1, 2])
    def test_unsteady_samples_match_sympy(self, a):
        nu, T_final = 0.7, 0.8
        g = SpaceTimeGrid(9, 7, 5, T_final=T_final)
        trip, _ = manufactured_stokes(scaled(default_unsteady_case(T_final), a), g, nu)
        psi, pressure = (a * e for e in unsteady_exprs(T_final))
        vel, f = field_exprs(psi, pressure, nu, steady=False)
        x, y, t = g.xs(), g.ys()[:, None], g.ts()[:, None, None]
        piv = sample_expr(pressure, x, y, t)
        piv -= piv.mean(axis=(1, 2), keepdims=True)
        assert_close(trip.y, np.stack([sample_expr(e, x, y, t) for e in vel], axis=1))
        assert_close(trip.pi, piv)
        assert_close(trip.f, np.stack([sample_expr(e, x, y, t) for e in f], axis=1))

    @pytest.mark.parametrize("a", [1, 2])
    def test_steady_samples_match_sympy(self, a):
        nu = 0.7
        g = SpatialGrid(9, 7)
        y_vel, piv, f = manufactured_steady(scaled(default_steady_case(), a), g, nu)
        psi, pressure = (a * e for e in steady_exprs())
        vel, f_exprs = field_exprs(psi, pressure, nu, steady=True)
        x, y = g.xs(), g.ys()[:, None]
        pi_ref = sample_expr(pressure, x, y)
        assert_close(y_vel, np.stack([sample_expr(e, x, y) for e in vel]))
        assert_close(piv, pi_ref - pi_ref.mean())
        assert_close(f, np.stack([sample_expr(e, x, y) for e in f_exprs]))

    @pytest.mark.parametrize("steady", [False, True], ids=["unsteady", "steady"])
    @pytest.mark.parametrize("a", [1, 2])
    def test_residual_scale_derivatives_match_sympy(self, steady, a):
        # the residual bound takes the 4th space and 3rd time derivatives
        # of the velocity and the 3rd space derivatives of the pressure
        case = scaled(default_steady_case() if steady else default_unsteady_case(0.8), a)
        psi, pressure = (a * e for e in (steady_exprs() if steady else unsteady_exprs(0.8)))
        rng = np.random.default_rng(3)
        x, y, t = rng.uniform(0, 1, (3, 40))
        probes = [(psi, case.psi, (i, j, k)) for i, j, k in
                  ((4, 1, 0), (0, 5, 0), (0, 1, 3), (5, 0, 0), (1, 4, 0), (1, 0, 3))]
        probes += [(pressure, case.pressure, (3, 0, 0)), (pressure, case.pressure, (0, 3, 0))]
        d_exprs = [sp.diff(expr, SX, i, SY, j, ST, k) for expr, _, (i, j, k) in probes]
        for d_expr, (_, form, order) in zip(d_exprs, probes):
            assert_close(form.diff(*order)(x, y, t), sample_expr(d_expr, x, y, t))
        s = np.linspace(0.04, 0.96, 11)
        mesh = (s[:, None, None], s[:, None], np.linspace(0.0, case.T_final, 7))
        ref = max(np.abs(sample_expr(d_expr, *mesh)).max() for d_expr in d_exprs)
        assert _residual_scale(case, 0.5) == pytest.approx(ref, rel=1e-13)
        assert _residual_scale(case, 3.0) == pytest.approx(3.0 * ref, rel=1e-13)

    def test_velocity_divergence_free_analytically(self):
        psi = default_unsteady_case().psi
        # div (psi_y, -psi_x) = psi_yx - psi_xy: the two closed forms are one
        assert psi.diff(0, 1).diff(1, 0) == psi.diff(1, 0).diff(0, 1)
        x, y, t = np.random.default_rng(4).uniform(0, 1, (3, 50))
        divergence = psi.diff(0, 1).diff(1, 0)(x, y, t) + (-1 * psi.diff(1, 0)).diff(0, 1)(x, y, t)
        assert np.abs(divergence).max() == 0.0

    def test_sampled_divergence_second_order(self):
        case = default_unsteady_case()
        vals = []
        for n in (16, 32):
            g = SpaceTimeGrid(n, n, 2)
            trip, _ = manufactured_stokes(case, g, nu=1.0)
            dv = div(trip.y, g)
            vals.append(np.sqrt(st_inner(dv, dv, g)))
        assert vals[0] / vals[1] >= 3.4

    def test_residual_bound_certifies_sampled_triplet(self):
        case = default_unsteady_case()
        g = SpaceTimeGrid(10, 10, 10)
        trip, bound = manufactured_stokes(case, g, nu=1.0)
        p = sc.ControlProblem(g, 1.0, trip.y[0].copy(), SupportMask(0, 1, 0, 1),
                              mode="direct")
        from lsqctrl.stokes_control import _negated_residual

        r = -_negated_residual(p, trip.y, trip.pi, trip.f)
        w = g.time_weights()[:, None, None, None] * g.hx * g.hy
        assert np.abs(r / w).max() <= bound

    def test_time_independent_case_reduces_to_steady_forcing(self):
        steady = default_steady_case(modulated=False)
        case = ManufacturedCase(steady.psi, steady.pressure)
        assert all(ft == () for _, _, ft in case.psi.diff(dt=1).products)
        g = SpaceTimeGrid(5, 5, 4)
        trip, _ = manufactured_stokes(case, g, nu=1.0)
        for k in range(1, g.nt + 1):
            assert np.array_equal(trip.f[k], trip.f[0])
            assert np.array_equal(trip.y[k], trip.y[0])
        y, _, _ = manufactured_steady(case, SpatialGrid(5, 5), nu=1.0)
        assert np.array_equal(trip.y[0], y)

    def test_zero_stream_function(self):
        case = ManufacturedCase(Separable(), Separable())
        g = SpaceTimeGrid(4, 4, 4)
        trip, _ = manufactured_stokes(case, g, nu=1.0)
        assert np.abs(trip.y).max() == 0 and np.abs(trip.f).max() == 0

    def test_steady_pressure_mean_free(self):
        g = SpatialGrid(9, 9)
        y, piv, f = manufactured_steady(default_steady_case(), g, nu=1.0)
        assert abs(piv.mean()) <= 1e-14


class TestDenseAssembly:
    def test_round_trip_identity(self):
        rng = np.random.default_rng(0)
        p = control_problem()
        asm = dense_assemble(p)
        s = Triplet.zeros(p.grid)
        s.y = rng.standard_normal(s.y.shape)
        s.pi = remove_slice_means(rng.standard_normal(s.pi.shape))
        s.f = p.mask_array() * rng.standard_normal(s.f.shape)
        s2 = asm.unpack(asm.pack(s))
        assert np.abs(s2.y - s.y).max() <= 1e-14
        assert np.abs(s2.pi - s.pi).max() <= 1e-14 * max(1, np.abs(s.pi).max())
        assert np.abs(s2.f - s.f).max() <= 1e-14

    def test_zero_correspondence(self):
        p = control_problem()
        p_zero = sc.ControlProblem(p.grid, 1.0, np.zeros((2, 4, 4)), p.mask)
        asm = dense_assemble(p_zero)
        assert ad.energy(asm.problem, np.zeros(asm.problem.dim_H)) == 0.0
        assert energy(p_zero, Triplet.zeros(p.grid)) == 0.0

    # (2, 3, 2): two x nodes, where grad_pressure takes its 2-node rows
    @pytest.mark.parametrize("eps, shape", [
        pytest.param(0.0, None, id="0.0"),
        pytest.param(0.01, None, id="0.01"),
        pytest.param(0.01, (2, 3, 2), id="0.01-2x3x2"),
    ])
    def test_energy_agreement_random_triplets(self, eps, shape):
        rng = np.random.default_rng(1)
        p = control_problem(eps=eps, shape=shape)
        asm = dense_assemble(p)
        sl = level_slice(p.grid, p.fixed_traces)
        for _ in range(10):
            d = Triplet.zeros(p.grid)
            d.y[sl] = rng.standard_normal(d.y[sl].shape)
            d.pi = remove_slice_means(rng.standard_normal(d.pi.shape))
            d.f = p.mask_array() * rng.standard_normal(d.f.shape)
            s = sc.lift_sA(p)
            s.axpy(1.0, d)
            e_pde = energy(p, s)
            e_dense = ad.energy(asm.problem, asm.pack_H(d))
            assert e_dense == pytest.approx(e_pde, rel=1e-10)

    def test_gradient_agreement(self):
        rng = np.random.default_rng(2)
        p = control_problem()
        asm = dense_assemble(p)
        d = Triplet.zeros(p.grid)
        sl = level_slice(p.grid, p.fixed_traces)
        d.y[sl] = rng.standard_normal(d.y[sl].shape)
        d.pi = remove_slice_means(rng.standard_normal(d.pi.shape))
        d.f = p.mask_array() * rng.standard_normal(d.f.shape)
        s = sc.lift_sA(p)
        s.axpy(1.0, d)
        g_abs = ad.gradient(asm.problem, asm.pack_H(d))
        g_pde = asm.pack_H(sc.gradient_a0(p, s)[0])
        assert np.abs(g_abs - g_pde).max() <= 1e-8 * max(np.abs(g_abs).max(), 1e-30)

    def test_kernel_projector_feeds_stokes_invariance(self):
        rng = np.random.default_rng(3)
        p = control_problem(mask=SupportMask(0, 1, 0, 1))
        asm = dense_assemble(p)
        P_A, _ = ad.kernel_projector(asm.problem)
        u = P_A @ rng.standard_normal(asm.problem.dim_H)
        a = asm.unpack_H(u)
        s = sc.lift_sA(p)
        e0 = energy(p, s)
        e1 = energy(p, s.copy().axpy(1.0, a))
        assert e1 == pytest.approx(e0, rel=1e-8)

    def test_size_guard(self):
        p = control_problem(n=4)
        with pytest.raises(ValueError):
            dense_assemble(p, size_cap=10)

    def test_time_window_mask_rejected(self):
        g = SpaceTimeGrid(4, 4, 4)
        p = sc.ControlProblem(g, 1.0, np.zeros((2, 4, 4)),
                              SupportMask(0, 1, 0, 1, t0=0.2, t1=0.8))
        with pytest.raises(ValueError):
            dense_assemble(p)


class TestFdCheck:
    def test_quadratic_exact_for_reasonable_steps(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((6, 6))
        A = A @ A.T + 6 * np.eye(6)
        b = rng.standard_normal(6)
        func = lambda x: 0.5 * x @ A @ x + b @ x
        x0 = rng.standard_normal(6)
        d = rng.standard_normal(6)
        ref = (A @ x0 + b) @ d
        rep = fd_check(func, x0, d, [1e-2, 1e-4, 1e-6], reference=ref)
        assert (rep.rel_errors <= 1e-8).all()

    def test_quartic_ladder_minimum(self):
        from lsqctrl.discretization import SpatialGrid
        from lsqctrl.steady_nse import SteadyProblem, SteadyState, energy_steady

        rng = np.random.default_rng(5)
        g = SpatialGrid(7, 7)
        _, _, f = manufactured_steady(default_steady_case(), g, nu=1.0)
        p = SteadyProblem(g, 1.0, f)
        s = SteadyState(g, 0.4 * rng.standard_normal((2, g.ny, g.nx)),
                        rng.standard_normal((g.ny, g.nx)))
        from lsqctrl.steady_nse import gradient_steady
        from lsqctrl.discretization import h1_seminorm_sq, space_inner

        ybar, pibar, _, _ = gradient_steady(p, s)
        dY = rng.standard_normal((2, g.ny, g.nx))
        dPi = rng.standard_normal((g.ny, g.nx))
        dPi -= dPi.mean()
        ref = 0.25 * (h1_seminorm_sq(ybar + dY, g) - h1_seminorm_sq(ybar - dY, g))
        ref += space_inner(pibar, dPi, g)

        def func(x):
            return energy_steady(p, SteadyState(
                g, s.y + x[: dY.size].reshape(dY.shape),
                s.pi + x[dY.size:].reshape(dPi.shape)))

        rep = fd_check(func, np.zeros(dY.size + dPi.size),
                       np.concatenate([dY.reshape(-1), dPi.reshape(-1)]),
                       [1e-3, 1e-4, 1e-5, 1e-6], reference=ref)
        assert rep.best_rel <= 1e-5

    def test_zero_direction(self):
        func = lambda x: float(x @ x)
        rep = fd_check(func, np.ones(3), np.zeros(3), [1e-4], reference=0.0)
        assert rep.estimates[0] == 0.0

    def test_triplet_points_supported(self):
        p = control_problem()
        s = sc.lift_sA(p)
        d = Triplet.zeros(p.grid)
        sl = level_slice(p.grid, p.fixed_traces)
        rng = np.random.default_rng(6)
        d.y[sl] = rng.standard_normal(d.y[sl].shape)
        ref = first_variation(p, s, d)
        rep = fd_check(lambda t: energy(p, t), s, d, [1e-5], reference=ref)
        assert rep.best_rel <= 1e-8

    def test_consecutive_agreement_without_reference(self):
        func = lambda x: float(np.sin(x[0]))
        rep = fd_check(func, np.array([0.3]), np.array([1.0]),
                       [1e-2, 1e-3, 1e-4])
        assert rep.best_rel <= 1e-4
