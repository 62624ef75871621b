"""Ground-truth generators: manufactured cases, dense assembly, FD ladder."""

import numpy as np
import pytest
import sympy as sp

from lsqctrl import abstract_descent as ad
from lsqctrl import stokes_control as sc
from lsqctrl.discretization import (
    SpaceTimeGrid,
    SupportMask,
    Triplet,
    div,
    level_slice,
    remove_slice_means,
    st_inner,
)
from lsqctrl.oracles import (
    ManufacturedCase,
    default_steady_case,
    default_unsteady_case,
    dense_assemble,
    fd_check,
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


class TestManufactured:
    def test_velocity_divergence_free_analytically(self):
        case = default_unsteady_case()
        y1, y2 = case.velocity_exprs()
        x, y = sp.symbols("x y")
        divergence = sp.simplify(sp.diff(y1, x) + sp.diff(y2, y))
        assert divergence == 0

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
        from lsqctrl.stokes_control import _residual_vector

        r = _residual_vector(p, trip.y, trip.pi, trip.f)
        w = g.time_weights()[:, None, None, None] * g.hx * g.hy
        assert np.abs(r / w).max() <= bound

    def test_time_independent_case_reduces_to_steady_forcing(self):
        x, y, t = sp.symbols("x y t")
        psi = sp.sin(sp.pi * x) ** 2 * sp.sin(sp.pi * y) ** 2
        case = ManufacturedCase(psi, sp.sin(sp.pi * x) * sp.cos(sp.pi * y))
        f1, f2 = case.forcing_exprs_unsteady(nu=1.0)
        assert sp.simplify(sp.diff(f1, t)) == 0
        g = SpaceTimeGrid(5, 5, 4)
        trip, _ = manufactured_stokes(case, g, nu=1.0)
        for k in range(1, g.nt + 1):
            assert np.array_equal(trip.f[k], trip.f[0])
            assert np.array_equal(trip.y[k], trip.y[0])

    def test_zero_stream_function(self):
        case = ManufacturedCase(sp.Integer(0), sp.Integer(0))
        g = SpaceTimeGrid(4, 4, 4)
        trip, _ = manufactured_stokes(case, g, nu=1.0)
        assert np.abs(trip.y).max() == 0 and np.abs(trip.f).max() == 0

    def test_steady_pressure_mean_free(self):
        g = __import__("lsqctrl.discretization", fromlist=["SpatialGrid"]).SpatialGrid(9, 9)
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
        assert sc.energy(p_zero, Triplet.zeros(p.grid)) == 0.0

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
            e_pde = sc.energy(p, s)
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
        g_pde = asm.pack_H(sc.gradient_a0(p, s))
        assert np.abs(g_abs - g_pde).max() <= 1e-8 * max(np.abs(g_abs).max(), 1e-30)

    def test_kernel_projector_feeds_stokes_invariance(self):
        rng = np.random.default_rng(3)
        p = control_problem(mask=SupportMask(0, 1, 0, 1))
        asm = dense_assemble(p)
        P_A, _ = ad.kernel_projector(asm.problem)
        u = P_A @ rng.standard_normal(asm.problem.dim_H)
        a = asm.unpack_H(u)
        s = sc.lift_sA(p)
        e0 = sc.energy(p, s)
        e1 = sc.energy(p, s.copy().axpy(1.0, a))
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

        ybar, pibar, _ = gradient_steady(p, s)
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
        ref = sc.first_variation(p, s, d)
        rep = fd_check(lambda t: sc.energy(p, t), s, d, [1e-5], reference=ref)
        assert rep.best_rel <= 1e-8

    def test_consecutive_agreement_without_reference(self):
        func = lambda x: float(np.sin(x[0]))
        rep = fd_check(func, np.array([0.3]), np.array([1.0]),
                       [1e-2, 1e-3, 1e-4])
        assert rep.best_rel <= 1e-4
