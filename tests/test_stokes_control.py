"""Unsteady solver: corrector, energy, gradients, descent."""

import collections
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lsqctrl import abstract_descent as ad
from lsqctrl import stokes_control as sc
from lsqctrl.abstract_descent import ExactLineRule
from lsqctrl.discretization import (
    SpaceTimeGrid,
    SupportMask,
    Triplet,
    a0_velocity_riesz,
    curl,
    div,
    dt_sq_integral,
    dx,
    dy,
    grad_pressure,
    grad_pressure_transpose,
    laplace,
    level_slice,
    remove_slice_means,
    slice_means,
    st_h1_seminorm_sq,
    st_inner,
)
from lsqctrl.oracles import (
    apply_T,
    default_unsteady_case,
    energy,
    first_variation,
    inner_a0,
    manufactured_stokes,
)

FIXTURES = Path(__file__).parent / "fixtures"


def bump_y0(grid, amp=1.0):
    X, Y = grid.meshgrid()
    S = np.sin(np.pi * X) ** 2
    T = np.sin(np.pi * Y) ** 2
    Sx = np.pi * np.sin(2 * np.pi * X)
    Ty = np.pi * np.sin(2 * np.pi * Y)
    M = 1.0 + 0.5 * X - 0.3 * Y
    return amp * np.stack([S * Ty * M - 0.3 * S * T, -(Sx * T * M + 0.5 * S * T)])


def small_problem(mode="null_control", epsilon=0.0, n=6, mask=None):
    g = SpaceTimeGrid(n, n, n)
    mask = mask or SupportMask(0.0, 1.0 / 3.0, 0.0, 1.0)
    return sc.ControlProblem(g, nu=1.0, y0=bump_y0(g), mask=mask, mode=mode,
                             epsilon=epsilon)


def random_direction(p, rng, with_control=None):
    g = p.grid
    d = Triplet.zeros(g)
    sl = level_slice(g, p.fixed_traces)
    d.y[sl] = rng.standard_normal(d.y[sl].shape)
    d.pi = remove_slice_means(rng.standard_normal(d.pi.shape))
    if with_control is None:
        with_control = p.mode == "null_control"
    if with_control:
        d.f = p.mask_array() * rng.standard_normal(d.f.shape)
    return d


def assert_same_report(a, b):
    """Two descent reports agree bit for bit."""
    assert (a.iterates_count, a.reason) == (b.iterates_count, b.reason)
    for name in ("energies", "grad_norms", "steps", "kernel_ratios"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    for name in ("div_norms", "yT_norms", "f_norms"):
        assert np.array_equal(a.extras[name], b.extras[name]), name
    assert np.array_equal(a.extras["corrector"].v, b.extras["corrector"].v)
    assert a.extras["corrector"].weak_residual_norm == b.extras["corrector"].weak_residual_norm


def triplet_at(grid, buffer):
    """The triplet whose buffer holds these values."""
    t = Triplet.empty(grid)
    np.copyto(t.buffer, buffer)
    return t


def perturbed_state(p, rng, scale=0.3):
    s = sc.lift_sA(p)
    s.buffer += scale * random_direction(p, rng).buffer
    return s


class TestProblemValidation:
    def test_bad_viscosity(self):
        g = SpaceTimeGrid(4, 4, 4)
        with pytest.raises(ValueError):
            sc.ControlProblem(g, nu=0.0, y0=np.zeros((2, 4, 4)),
                              mask=SupportMask(0, 1, 0, 1))

    def test_bad_y0_shape(self):
        g = SpaceTimeGrid(4, 4, 4)
        with pytest.raises(ValueError):
            sc.ControlProblem(g, nu=1.0, y0=np.zeros((2, 5, 4)),
                              mask=SupportMask(0, 1, 0, 1))

    def test_bad_mode(self):
        g = SpaceTimeGrid(4, 4, 4)
        with pytest.raises(ValueError):
            sc.ControlProblem(g, nu=1.0, y0=np.zeros((2, 4, 4)),
                              mask=SupportMask(0, 1, 0, 1), mode="wat")

    def test_nan_viscosity_rejected(self):
        g = SpaceTimeGrid(4, 4, 4)
        with pytest.raises(ValueError):
            sc.ControlProblem(g, nu=float("nan"), y0=np.zeros((2, 4, 4)),
                              mask=SupportMask(0, 1, 0, 1))

    @pytest.mark.parametrize("algorithm", ["steepest", "cg"])
    def test_nan_energy_raises_divergence(self, algorithm):
        p = small_problem()
        p.nu = float("nan")
        cfg = sc.SolveConfig(max_iter=5, algorithm=algorithm, tol_kernel=1e-3)
        with pytest.raises(sc.DescentDivergence):
            sc.descend(p, cfg)


class TestLift:
    def test_zero_y0(self):
        p = small_problem()
        p2 = sc.ControlProblem(p.grid, 1.0, np.zeros((2, 6, 6)), p.mask)
        s = sc.lift_sA(p2)
        assert np.abs(s.y).max() == 0 and np.abs(s.pi).max() == 0 and np.abs(s.f).max() == 0

    def test_null_mode_traces(self):
        p = small_problem()
        s = sc.lift_sA(p)
        assert np.array_equal(s.y[0], p.y0)
        assert np.abs(s.y[-1]).max() == 0.0

    def test_direct_mode_constant_in_time(self):
        p = small_problem(mode="direct")
        s = sc.lift_sA(p)
        for k in range(p.grid.nt + 1):
            assert np.array_equal(s.y[k], p.y0)


class TestCorrector:
    def test_zero_state(self):
        p = small_problem()
        corr = sc.corrector(p, Triplet.zeros(p.grid))
        assert np.abs(corr.v).max() == 0.0
        assert corr.weak_residual_norm == 0.0

    def test_energy_read_off_rhs(self):
        # v = A^-1 rhs, so v . rhs is the corrector's energy norm squared:
        # the descent reads E off it instead of edge differences
        p = small_problem()
        s = perturbed_state(p, np.random.default_rng(4))
        corr = sc.corrector(p, s)
        edge = dt_sq_integral(corr.v, p.grid) + st_h1_seminorm_sq(corr.v, p.grid)
        assert float(np.vdot(corr.v, corr.rhs)) == pytest.approx(edge, rel=1e-12)
        assert corr.weak_residual_norm**2 == pytest.approx(edge, rel=1e-12)

    def test_manufactured_h1_convergence(self):
        case = default_unsteady_case()
        norms = []
        for n in (8, 16, 32):
            g = SpaceTimeGrid(n, n, n)
            trip, _ = manufactured_stokes(case, g, nu=1.0)
            p = sc.ControlProblem(g, 1.0, trip.y[0].copy(), SupportMask(0, 1, 0, 1),
                                  mode="direct")
            corr = sc.corrector(p, trip)
            norms.append(np.sqrt(
                dt_sq_integral(corr.v, g) + st_h1_seminorm_sq(corr.v, g)
                + st_inner(corr.v, corr.v, g)
            ))
        assert norms[0] / norms[1] >= 3.4
        assert norms[1] / norms[2] >= 3.5

    def test_dense_solve_agreement(self):
        from lsqctrl.oracles import dense_assemble

        g = SpaceTimeGrid(4, 4, 4)
        p = sc.ControlProblem(g, 1.0, bump_y0(g), SupportMask(0.0, 0.5, 0.0, 1.0))
        s = sc.lift_sA(p)
        corr = sc.corrector(p, s)
        asm = dense_assemble(p)
        u = np.zeros(asm.problem.dim_H)
        img = asm.problem.image(u)  # (v1, v2, q) coordinates
        nyc = (g.nt + 1) * g.n_space
        v_dense = np.stack(
            [img[:nyc].reshape(g.nt + 1, g.ny, g.nx),
             img[nyc : 2 * nyc].reshape(g.nt + 1, g.ny, g.nx)], axis=1
        )
        scale = max(np.abs(v_dense).max(), 1e-30)
        assert np.abs(corr.v - v_dense).max() <= 1e-10 * scale


class TestTimePairing:
    @pytest.mark.parametrize("nt", [2, 3, 5, 16])
    def test_matrix_matches_the_oracle(self, nt):
        from lsqctrl.oracles import _time_ops

        g = SpaceTimeGrid(3, 5, nt, Lx=0.7)
        B = sc._dt_matrix(g)
        assert B is sc._dt_matrix(g)
        assert not B.flags.writeable
        assert np.array_equal(B, g.hx * g.hy * _time_ops(g)[1])

    @pytest.mark.parametrize("nt", [2, 3, 5, 16])
    def test_adjoint_is_the_exact_transpose(self, nt):
        g = SpaceTimeGrid(3, 5, nt, Lx=0.7)
        y, v = np.random.default_rng(nt).standard_normal((2, g.nt + 1, 2, g.ny, g.nx))
        out = np.empty_like(y)
        lhs = float(np.vdot(sc._dt_weak_vector(y, g, out), v))
        rhs = float(np.vdot(y, np.tensordot(sc._dt_matrix(g).T, v, axes=1)))
        assert abs(lhs - rhs) <= 1e-14 * max(abs(lhs), 1.0)
        # a field constant in time has no time derivative, exactly
        assert not sc._dt_weak_vector(np.ones_like(y), g, out).any()

    @pytest.mark.parametrize("nt", [2, 3, 5, 16])
    def test_gradient_time_matrix_is_the_stiffness_minus_the_adjoint(self, nt):
        g = SpaceTimeGrid(3, 5, nt, Lx=0.7, T_final=1.3)
        M = sc._gradient_time_matrix(g, 0.37)
        assert M is sc._gradient_time_matrix(g, 0.37)
        assert not M.flags.writeable
        # K = (1/ht) tridiag(-1, 2, -1) with end diagonal 1/ht
        K = (2.0 * np.eye(nt + 1) - np.eye(nt + 1, k=1) - np.eye(nt + 1, k=-1)) / g.ht
        K[0, 0] = K[-1, -1] = 1.0 / g.ht
        assert np.array_equal(M, 0.37 * g.hx * g.hy * K - sc._dt_matrix(g).T)


ASSEMBLY_CASES = {
    "null": dict(),
    "eps": dict(epsilon=0.01),
    "direct": dict(mode="direct"),
    "window": dict(mask=SupportMask(0.0, 0.5, 0.25, 1.0, t0=0.3, t1=0.7)),
}


def written_out_residual(p, y, pi, f, include_control=True):
    """B y - nu hx hy W L y + hx hy W G pi - hx hy W mask f, each term
    formed unscaled and weighted afterwards (B from the oracle)."""
    from lsqctrl.oracles import _time_ops

    g = p.grid
    aw = g.hx * g.hy * g.time_weights()[:, None, None, None]
    B = g.hx * g.hy * _time_ops(g)[1]
    r = np.einsum("kl,l...->k...", B, y) - p.nu * aw * laplace(y, g) + aw * grad_pressure(pi, g)
    return r - aw * p.mask_array() * f if include_control else r


class TestWeightFoldedAssembly:
    @staticmethod
    def close(a, b):
        return np.abs(a - b).max() <= 1e-13 * np.abs(b).max()

    @pytest.mark.parametrize("case", ASSEMBLY_CASES)
    def test_residual_matches_the_written_out_formula(self, case):
        p = small_problem(n=7, **ASSEMBLY_CASES[case])
        s = perturbed_state(p, np.random.default_rng(5))
        s.f = np.random.default_rng(6).standard_normal(s.f.shape)
        for include_control in (True, False):
            assert self.close(-sc._negated_residual(p, s.y, s.pi, s.f, include_control),
                              written_out_residual(p, s.y, s.pi, s.f, include_control))

    @pytest.mark.parametrize("case", ASSEMBLY_CASES)
    def test_gradient_matches_the_written_out_adjoint(self, case):
        # pi-bar = -G^T v + eps q without slice means, f-bar = mask v
        # (0 in direct mode), and the velocity the Riesz solve of
        # nu hx hy W L v - B^T v - hx hy W grad q on the unknown levels
        from lsqctrl.oracles import _time_ops

        p = small_problem(n=7, **ASSEMBLY_CASES[case])
        grid = p.grid
        s = perturbed_state(p, np.random.default_rng(7))
        g, gn_sq = sc.gradient_a0(p, s)
        v = sc.corrector(p, s).v
        q = div(s.y, grid) + p.epsilon * s.pi
        aw = grid.hx * grid.hy * grid.time_weights()[:, None, None, None]
        pibar = remove_slice_means(-grad_pressure_transpose(v, grid) + p.epsilon * q)
        fbar = p.mask_array() * v if p.mode == "null_control" else 0 * v
        B = grid.hx * grid.hy * _time_ops(grid)[1]
        rvec = (p.nu * aw * laplace(v, grid) - np.einsum("lk,l...->k...", B, v)
                - aw * np.stack([dx(q, grid), dy(q, grid)], axis=1))
        sl = level_slice(grid, p.fixed_traces)
        ybar = np.zeros_like(v)
        ybar[sl] = a0_velocity_riesz(grid, rvec[sl], p.fixed_traces)
        assert self.close(g.pi, pibar) and self.close(g.y, ybar)
        assert np.array_equal(g.f, fbar) if p.mode == "direct" else self.close(g.f, fbar)
        norm_sq = np.vdot(rvec[sl], ybar[sl]) + st_inner(pibar, pibar, grid) \
            + st_inner(fbar, fbar, grid)
        assert gn_sq == pytest.approx(norm_sq, rel=1e-13, abs=0)

    def test_per_slice_constant_pressure_has_zero_residual(self):
        # G2 stays the integer stencil, so the weights do not spoil its kernel
        p = small_problem(n=7, mode="direct")
        pi = np.arange(p.grid.nt + 1)[:, None, None] - 2.5 + np.zeros((p.grid.ny, p.grid.nx))
        zero = np.zeros((p.grid.nt + 1, 2, p.grid.ny, p.grid.nx))
        assert not sc._negated_residual(p, zero, pi, zero).any()


class TestGradientReadOff:
    @pytest.mark.parametrize("epsilon", [0.0, 0.01])
    @pytest.mark.parametrize("mode", ["null_control", "direct"])
    @pytest.mark.parametrize("algorithm", ["cg", "steepest"])
    def test_carried_gradient_matches_the_laplacian_form(self, monkeypatch, algorithm, mode,
                                                         epsilon):
        # gradient_a0 reads nu hx hy W L v off A v = rhs.  At iterate 49, the
        # last before the refresh, the carried (v, rhs) have taken 49 steps
        # since they were solved afresh; the gradient from them must still be
        # the one of the Laplacian form nu hx hy W L v - B^T v - hx hy W grad q
        p = small_problem(mode, epsilon, n=8)
        grid, sl = p.grid, level_slice(p.grid, p.fixed_traces)
        original, errors = sc.gradient_a0, []

        def checked(p, s, corr=None, q=None, out=None, work=None):
            g, gn_sq = original(p, s, corr, q, out, work)
            if len(errors) == 49 or not errors:
                v = corr.v
                aw = grid.hx * grid.hy * grid.time_weights()[:, None, None, None]
                rvec = (p.nu * aw * laplace(v, grid)
                        - np.tensordot(sc._dt_matrix(grid).T, v, axes=1)
                        - aw * np.stack([dx(q, grid), dy(q, grid)], axis=1))
                ref = g.copy()  # pi and f read no Laplacian: ref keeps g's
                ref.y[sl] = a0_velocity_riesz(grid, rvec[sl], p.fixed_traces)
                diff = g.copy()
                diff.buffer -= ref.buffer
                errors.append(np.sqrt(inner_a0(diff, diff) / inner_a0(ref, ref)))
            else:
                errors.append(None)
            return g, gn_sq

        monkeypatch.setattr(sc, "gradient_a0", checked)
        _, rep = sc.descend(p, sc.SolveConfig(max_iter=49, algorithm=algorithm))
        assert rep.iterates_count == 50 and rep.reason == "max_iter"
        assert errors[0] <= 1e-12  # just solved
        assert errors[49] <= 1e-10


class TestEnergy:
    def test_zero_data(self):
        g = SpaceTimeGrid(5, 5, 5)
        p = sc.ControlProblem(g, 1.0, np.zeros((2, 5, 5)), SupportMask(0, 1, 0, 1))
        assert energy(p, Triplet.zeros(g)) == 0.0

    def test_manufactured_fourth_order(self):
        case = default_unsteady_case()
        vals = []
        for n in (8, 16, 32):
            g = SpaceTimeGrid(n, n, n)
            trip, _ = manufactured_stokes(case, g, nu=1.0)
            p = sc.ControlProblem(g, 1.0, trip.y[0].copy(), SupportMask(0, 1, 0, 1),
                                  mode="direct")
            vals.append(energy(p, trip))
        assert vals[0] / vals[1] >= 10.0
        assert vals[1] / vals[2] >= 10.0

    def test_kernel_invariance(self):
        # a = (curl psi, 0, F) with F cancelling the momentum pairing
        # exactly lies in the kernel of the residual map (omega = Omega)
        rng = np.random.default_rng(0)
        g = SpaceTimeGrid(5, 5, 4)
        p = sc.ControlProblem(g, 1.0, bump_y0(g, 0.5)[:, : g.ny, : g.nx],
                              SupportMask(0, 1, 0, 1))
        s = perturbed_state(p, rng)
        e0 = energy(p, s)
        sl = level_slice(g, p.fixed_traces)
        psi = np.zeros((g.nt + 1, g.ny, g.nx))
        psi[sl] = rng.standard_normal(psi[sl].shape)
        a = Triplet.zeros(g)
        a.y = curl(psi, g)
        from lsqctrl.stokes_control import _negated_residual

        area_w = g.hx * g.hy * g.time_weights()[:, None, None, None]
        a.f = -_negated_residual(p, a.y, a.pi, np.zeros_like(a.f),
                                 include_control=False) / area_w
        assert np.abs(div(a.y, g)).max() <= 1e-12
        e1 = energy(p, triplet_at(g, s.buffer + a.buffer))
        assert e1 == pytest.approx(e0, rel=1e-12)

    def test_two_evaluations_agree(self):
        # quadrature form versus the assembled-operator pairing v.b
        rng = np.random.default_rng(1)
        p = small_problem(epsilon=0.01)
        s = perturbed_state(p, rng)
        from lsqctrl.stokes_control import _negated_residual

        corr = sc.corrector(p, s)
        e_quad = energy(p, s, corr)
        q = div(s.y, p.grid) + p.epsilon * s.pi
        e_op = 0.5 * (float(np.sum(corr.v * _negated_residual(p, s.y, s.pi, s.f)))
                      + st_inner(q, q, p.grid))
        assert e_op == pytest.approx(e_quad, rel=1e-12)


class TestFirstVariation:
    def test_zero_direction(self):
        p = small_problem()
        s = sc.lift_sA(p)
        assert first_variation(p, s, Triplet.zeros(p.grid)) == 0.0

    @pytest.mark.parametrize("mode,epsilon", [("null_control", 0.0),
                                              ("null_control", 0.01),
                                              ("direct", 0.0)])
    def test_matches_central_differences(self, mode, epsilon):
        rng = np.random.default_rng(7)
        p = small_problem(mode=mode, epsilon=epsilon)
        s = perturbed_state(p, rng)
        d = random_direction(p, rng)
        fv = first_variation(p, s, d)
        eps = 1e-5
        ep = energy(p, triplet_at(p.grid, s.buffer + eps * d.buffer))
        em = energy(p, triplet_at(p.grid, s.buffer - eps * d.buffer))
        fd = (ep - em) / (2 * eps)
        assert fd == pytest.approx(fv, rel=1e-8)

    def test_stationarity_at_converged_minimizer(self):
        rng = np.random.default_rng(8)
        p = small_problem(mode="direct", n=5)
        s0 = sc.lift_sA(p)
        s, rep = sc.descend(p, sc.SolveConfig(max_iter=4000, tol_grad=1e-10,
                                              algorithm="cg"), s_init=s0)
        g0 = rep.grad_norms[0]
        for _ in range(5):
            d = random_direction(p, rng)
            nd = np.sqrt(inner_a0(d, d))
            assert abs(first_variation(p, s, d)) <= 1e-8 * g0 * nd

    def test_inhomogeneous_direction_rejected(self):
        p = small_problem()
        d = Triplet.zeros(p.grid)
        d.y[0, 0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            first_variation(p, sc.lift_sA(p), d)


class TestGradient:
    def test_zero_state_zero_gradient(self):
        g = SpaceTimeGrid(5, 5, 5)
        p = sc.ControlProblem(g, 1.0, np.zeros((2, 5, 5)), SupportMask(0, 1, 0, 1))
        gdir, gn = sc.gradient_a0(p, Triplet.zeros(g))
        assert gn == 0.0
        assert np.abs(gdir.y).max() == 0 and np.abs(gdir.pi).max() == 0

    def test_riesz_property(self):
        rng = np.random.default_rng(9)
        p = small_problem(epsilon=0.01)
        s = perturbed_state(p, rng)
        corr = sc.corrector(p, s)
        gdir, _ = sc.gradient_a0(p, s, corr)
        for _ in range(20):
            d = random_direction(p, rng)
            lhs = inner_a0(gdir, d)
            rhs = first_variation(p, s, d, corr)
            assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-12)

    def test_gradient_is_an_ascent_direction(self):
        # <E'(s), gradient> is its squared metric norm, so positive
        rng = np.random.default_rng(10)
        p = small_problem()
        s = perturbed_state(p, rng)
        gdir, gn_sq = sc.gradient_a0(p, s)
        fv = first_variation(p, s, gdir)
        assert fv > 0
        assert fv == pytest.approx(gn_sq, rel=1e-10)

    def test_dense_gram_agreement(self):
        from lsqctrl.oracles import dense_assemble

        rng = np.random.default_rng(11)
        g = SpaceTimeGrid(4, 4, 4)
        p = sc.ControlProblem(g, 1.0, bump_y0(g)[:, : g.ny, : g.nx],
                              SupportMask(0.0, 0.5, 0.0, 1.0))
        asm = dense_assemble(p)
        d = random_direction(p, rng)
        s = sc.lift_sA(p)
        s.buffer += d.buffer
        g_pde = asm.pack_H(sc.gradient_a0(p, s)[0])
        g_abs = ad.gradient(asm.problem, asm.pack_H(d))
        scale = max(np.abs(g_abs).max(), 1e-30)
        assert np.abs(g_pde - g_abs).max() <= 1e-8 * scale

    def test_gradient_mean_free_and_supported(self):
        rng = np.random.default_rng(12)
        p = small_problem(epsilon=0.01)
        s = perturbed_state(p, rng)
        gdir, _ = sc.gradient_a0(p, s)
        assert np.abs(slice_means(gdir.pi)).max() <= 1e-12
        assert np.abs(gdir.f * (1 - p.mask_array())).max() == 0.0


class TestApplyT:
    def test_zero(self):
        p = small_problem()
        corr, q = apply_T(p, Triplet.zeros(p.grid))
        assert np.abs(corr.v).max() == 0 and np.abs(q).max() == 0

    def test_linearity(self):
        rng = np.random.default_rng(13)
        p = small_problem()
        d1 = random_direction(p, rng)
        d2 = random_direction(p, rng)
        comb = d1.copy()
        comb.y = 2.0 * d1.y - 0.5 * d2.y
        comb.pi = 2.0 * d1.pi - 0.5 * d2.pi
        comb.f = 2.0 * d1.f - 0.5 * d2.f
        ca, qa = apply_T(p, comb)
        c1, q1 = apply_T(p, d1)
        c2, q2 = apply_T(p, d2)
        scale = max(np.abs(ca.v).max(), 1e-30)
        assert np.abs(ca.v - (2 * c1.v - 0.5 * c2.v)).max() <= 1e-10 * scale
        assert np.abs(qa - (2 * q1 - 0.5 * q2)).max() <= 1e-10 * max(np.abs(qa).max(), 1e-30)

    def test_polarization_identity(self):
        rng = np.random.default_rng(14)
        p = small_problem(epsilon=0.01)
        s = perturbed_state(p, rng)
        d = random_direction(p, rng)
        corr_d, q_d = apply_T(p, d)
        td_sq = corr_d.weak_residual_norm**2 + st_inner(q_d, q_d, p.grid)
        e_s = energy(p, s)
        e_sd = energy(p, triplet_at(p.grid, s.buffer + d.buffer))
        fv = first_variation(p, s, d)
        assert td_sq == pytest.approx(2 * (e_sd - e_s - fv), rel=1e-9)


class TestDescend:
    def test_zero_data_terminates_immediately(self):
        g = SpaceTimeGrid(5, 5, 5)
        p = sc.ControlProblem(g, 1.0, np.zeros((2, 5, 5)), SupportMask(0, 1, 0, 1))
        s, rep = sc.descend(p, sc.SolveConfig(max_iter=10, tol_energy=0.0))
        assert rep.reason == "energy_tol"
        assert rep.iterates_count == 1 and rep.energies[0] == 0.0

    def test_direct_manufactured_recovery_order(self):
        case = default_unsteady_case()
        errs = []
        for n in (8, 16):
            g = SpaceTimeGrid(n, n, n)
            trip, _ = manufactured_stokes(case, g, nu=1.0)
            p = sc.ControlProblem(g, 1.0, trip.y[0].copy(), SupportMask(0, 1, 0, 1),
                                  mode="direct")
            s0 = sc.lift_sA(p)
            s0.f = trip.f.copy()
            s, rep = sc.descend(p, sc.SolveConfig(max_iter=1500, tol_grad=1e-9,
                                                  algorithm="cg"), s_init=s0)
            dy = s.y - trip.y
            errs.append(np.sqrt(st_inner(dy, dy, g)))
        assert np.log2(errs[0] / errs[1]) >= 1.5

    def test_null_control_calibrated_run(self):
        calib = json.loads((FIXTURES / "null_control_calibration.json").read_text())
        run = calib["runs"]["12"]
        floors = calib["asserted_floors"]
        g = SpaceTimeGrid(12, 12, 12)
        p = sc.ControlProblem(g, 1.0, bump_y0(g), SupportMask(0.0, 1 / 3, 0.0, 1.0))
        s, rep = sc.descend(p, sc.SolveConfig(max_iter=run["max_iter"],
                                              refresh_every=50, algorithm="cg"))
        E = rep.energies
        assert (np.diff(E) <= 1e-12 * E[:-1] + 1e-15 * E[0]).all()
        assert E[-1] <= floors["E_ratio"] * E[0]
        assert np.array_equal(s.y[0], p.y0)
        assert np.abs(s.y[-1]).max() == 0.0
        r0 = sc.corrector(p, sc.lift_sA(p)).weak_residual_norm
        assert r0 / rep.extras["corrector"].weak_residual_norm >= floors["resid_drop"]
        dn = rep.extras["div_norms"]
        assert dn[0] / dn[-1] >= floors["div_drop_12"]

    def test_traces_and_support_every_iterate(self):
        p = small_problem()
        s = None
        for _ in range(12):
            s, rep = sc.descend(p, sc.SolveConfig(max_iter=1), s_init=s)
            assert np.array_equal(s.y[0], p.y0)
            assert np.abs(s.y[-1]).max() == 0.0
            assert np.abs(s.f * (1 - p.mask_array())).max() == 0.0
            assert np.abs(slice_means(s.pi)).max() <= 1e-12

    def test_monotone_energy_both_algorithms(self):
        for algo in ("steepest", "cg"):
            p = small_problem()
            s, rep = sc.descend(p, sc.SolveConfig(max_iter=150, algorithm=algo))
            E = rep.energies
            assert (np.diff(E) <= 1e-12 * E[:-1] + 1e-15 * E[0]).all(), algo

    def test_kernel_ratio_stopping(self):
        # conjugate directions dig into the near-kernel subspace, where
        # the ratio ||T g|| / ||g|| collapses and the run must stop
        p = small_problem()
        s, rep = sc.descend(p, sc.SolveConfig(max_iter=2000, tol_kernel=0.05,
                                              algorithm="cg"))
        assert rep.reason == "kernel_stall"
        assert rep.kernel_ratios[-1] <= 0.05

    @pytest.mark.parametrize("epsilon", [0.0, 0.01])
    @pytest.mark.parametrize("refresh_every", [0, 50])
    def test_carried_values_match_fresh(self, epsilon, refresh_every):
        # E and div y are carried along the steps (E off the corrector's
        # right-hand side, div y + eps pi updated with the direction's):
        # at every iterate they agree with values computed afresh
        p = small_problem(epsilon=epsilon)
        cfg = sc.SolveConfig(max_iter=80, refresh_every=refresh_every, algorithm="cg")
        seen = []

        def check(rec, s):
            dv = div(s.y, p.grid)
            assert rec["E"] == pytest.approx(energy(p, s), rel=1e-10), rec["iter"]
            assert rec["div_norm"] == pytest.approx(np.sqrt(st_inner(dv, dv, p.grid)),
                                                    rel=1e-10), rec["iter"]
            seen.append(rec["iter"])

        _, rep = sc.descend(p, cfg, observer=check)
        assert rep.iterates_count == 81
        assert seen == list(range(81))

    def test_noop_observer_leaves_report_bit_identical(self):
        # CG directions and a pressure-mean refresh at iterate 10: the
        # state an observer must not disturb
        p = small_problem()
        cfg = sc.SolveConfig(max_iter=30, refresh_every=10, algorithm="cg")
        s0, rep0 = sc.descend(p, cfg)
        records = []
        s1, rep1 = sc.descend(p, cfg, observer=lambda rec, s: records.append(dict(rec)))
        assert_same_report(rep0, rep1)
        for name in ("y", "pi", "f"):
            assert np.array_equal(getattr(s0, name), getattr(s1, name))
        assert [r["iter"] for r in records] == list(range(rep1.iterates_count))
        assert np.array_equal([r["E"] for r in records], rep1.energies)
        assert np.array_equal([r["step"] for r in records if "step" in r], rep1.steps)
        assert np.array_equal([r["div_norm"] for r in records], rep1.extras["div_norms"])

    def test_observer_sees_each_iterate_before_its_step(self):
        p = small_problem()
        cfg = sc.SolveConfig(max_iter=12, algorithm="cg")
        seen = {}
        sc.descend(p, cfg, observer=lambda rec, s: seen.setdefault(rec["iter"], s.copy()))
        for k in (0, 5, 12):
            s_k, _ = sc.descend(p, sc.SolveConfig(max_iter=k, algorithm="cg"))
            for name in ("y", "pi", "f"):
                assert np.array_equal(getattr(seen[k], name), getattr(s_k, name))

    def test_time_windowed_mask(self):
        g = SpaceTimeGrid(6, 6, 8)
        mask = SupportMask(0.0, 0.5, 0.0, 1.0, t0=0.25, t1=0.75)
        p = sc.ControlProblem(g, 1.0, bump_y0(g), mask)
        s, rep = sc.descend(p, sc.SolveConfig(max_iter=40))
        ind = p.mask_array()
        assert np.abs(s.f * (1 - ind)).max() == 0.0
        on = (g.ts() >= 0.25 - 1e-12) & (g.ts() <= 0.75 + 1e-12)
        assert np.abs(s.f[~on]).max() == 0.0
        assert np.abs(s.f[on]).max() > 0.0


class TestRecycledFields:
    """The descent runs in the workspace its line allocates once: each
    gradient is written into the fields its last line has spent."""

    @pytest.mark.parametrize("mode, epsilon", [("null_control", 0.0), ("null_control", 0.01),
                                               ("direct", 0.0)])
    def test_poisoned_out_arrays_leave_the_run_bit_identical(self, monkeypatch, mode, epsilon):
        # NaN in the whole workspace as the line allocates it (each
        # triplet's buffer whole), in W before each use, in the triplet each
        # gradient is written into, in every storage triplet but the
        # direction before each line, and in the spent one before each
        # advance, which forms the step's product there: the fixed-trace
        # levels, the frozen control of direct mode and the pressure means
        # must all be overwritten, and nothing read that a call before
        # wrote, or the run would differ from an unpoisoned one
        g = SpaceTimeGrid(8, 8, 8)
        s0 = None
        if mode == "direct":
            trip, _ = manufactured_stokes(default_unsteady_case(), g, nu=1.0)
            p = sc.ControlProblem(g, 1.0, trip.y[0].copy(), SupportMask(0, 1, 0, 1),
                                  mode=mode)
            s0 = sc.lift_sA(p)
            s0.f = trip.f.copy()
        else:
            p = sc.ControlProblem(g, 1.0, bump_y0(g), SupportMask(0.0, 1 / 3, 0.0, 1.0),
                                  epsilon=epsilon)
        line_cls, calls = sc._StokesLine, collections.Counter()

        def poison(*arrays):
            for a in arrays:
                a.fill(np.nan)

        def init(line, p):
            original["__init__"](line, p)
            poison(line.W, line.carried, *(t.buffer for t in line.store))

        def measure(line, s):
            calls["measure"] += 1
            poison(line.W, line.spent.buffer)
            return original["measure"](line, s)

        def refresh(line, s):
            calls["refresh"] += 1
            poison(line.W)
            return original["refresh"](line, s)

        def line_(line, s, d):
            calls["line"] += 1
            poison(line.W, *(t.buffer for t in line.store if t.buffer is not d[0]))
            return original["line"](line, s, d)

        def advance(line, s, d, eta):
            calls["advance"] += 1
            poison(line.W, line.spent.buffer)
            return original["advance"](line, s, d, eta)

        original = {name: getattr(line_cls, name) for name in ("__init__", "measure",
                                                               "refresh", "line", "advance")}
        for algorithm in ("cg", "steepest"):
            cfg = sc.SolveConfig(max_iter=40, refresh_every=10, algorithm=algorithm)
            s_ref, rep_ref = sc.descend(p, cfg, s_init=s0)
            with monkeypatch.context() as m:
                for name, method in (("__init__", init), ("measure", measure),
                                     ("refresh", refresh), ("line", line_),
                                     ("advance", advance)):
                    m.setattr(line_cls, name, method)
                calls.clear()
                s, rep = sc.descend(p, cfg, s_init=s0)
            assert calls == {"measure": 41, "refresh": 4, "line": 40, "advance": 40}, algorithm
            assert_same_report(rep_ref, rep)
            for name in ("y", "pi", "f"):
                assert np.array_equal(getattr(s_ref, name), getattr(s, name)), (algorithm, name)

    @pytest.mark.parametrize("mode, epsilon", [("null_control", 0.0), ("null_control", 0.01),
                                               ("direct", 0.0)])
    def test_descent_peak_memory(self, mode, epsilon):
        # tracemalloc peak of a short CG descent at 24^3, in vector fields
        # ((nt+1, 2, ny, nx) float64, 230 kB here): 14.29 while each gradient
        # took new arrays and the line's were freed, 12.23 with the line's
        # spent fields reused and the Riesz solve writing into the gradient
        # (12.27 in direct mode), 12.15 (12.23) with the weights folded into
        # the operators, 11.59 with the run's workspace allocated once: the
        # state, the carried fields, two storage triplets and the scratch W
        # (11 fields), with the support kept as one slice.  A field-sized
        # buffer kept on top fails the bound, and so does a per-component
        # temporary kept alive while the next one is formed.
        g = SpaceTimeGrid(24, 24, 24)
        p = sc.ControlProblem(g, 1.0, bump_y0(g), SupportMask(0.0, 1 / 3, 0.0, 1.0), mode=mode,
                              epsilon=epsilon)
        cfg = sc.SolveConfig(max_iter=4, algorithm="cg")
        sc.descend(p, cfg)  # the cached operators and bases are built here, not measured
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            _, rep = sc.descend(p, cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert rep.iterates_count == 5
        assert peak <= 11.84 * g.vector_zeros().nbytes

    @pytest.mark.parametrize("mode, epsilon", [("null_control", 0.0), ("null_control", 0.01),
                                               ("direct", 0.0)])
    @pytest.mark.parametrize("algorithm", ["cg", "steepest"])
    def test_no_field_sized_temporary_after_the_first_iterate(self, mode, epsilon, algorithm):
        # The tracemalloc peak between consecutive iterates, over the memory
        # held at the first of them, with the pressure refreshed every third
        # iterate.  numpy's ufunc buffers are held small for the measurement:
        # at their default 8192 elements, the two that a strided in-place
        # operation such as grad_pressure's scaling takes are 128 kB on any
        # grid, more than one 24^3 scalar field (115 kB).
        g = SpaceTimeGrid(24, 24, 24)
        p = sc.ControlProblem(g, 1.0, bump_y0(g), SupportMask(0.0, 1 / 3, 0.0, 1.0), mode=mode,
                              epsilon=epsilon)
        cfg = sc.SolveConfig(max_iter=8, refresh_every=3, algorithm=algorithm)
        sc.descend(p, cfg)  # the cached operators and bases are built here, not measured
        rises, held = [], []

        def observe(record, s):
            rises.append(tracemalloc.get_traced_memory()[1] - held[-1])
            tracemalloc.reset_peak()
            held.append(tracemalloc.get_traced_memory()[0])

        bufsize = np.setbufsize(1024)
        tracemalloc.start()
        try:
            held.append(tracemalloc.get_traced_memory()[0])
            _, rep = sc.descend(p, cfg, observer=observe)
        finally:
            tracemalloc.stop()
            np.setbufsize(bufsize)
        assert rep.iterates_count == 9
        vector, scalar = g.vector_zeros().nbytes, g.scalar_zeros().nbytes
        # the first interval allocates the workspace: 11 vector fields
        assert rises[0] >= 11 * vector
        assert max(rises[1:]) < scalar


class TestOneBufferPerTriplet:
    """The state, the carried fields and the two storage triplets are each
    one C-contiguous array, with their parts as views of it, so that a
    pass over a triplet is one numpy call."""

    @staticmethod
    def assert_one_buffer(buffer, parts):
        assert buffer.ndim == 1 and buffer.flags.c_contiguous and buffer.dtype == np.float64
        assert sum(a.size for a in parts) == buffer.size
        offset = 0
        for a in parts:  # in this order, each one block of the buffer
            assert a.flags.c_contiguous and np.shares_memory(a, buffer)
            assert np.shares_memory(a, buffer[offset:offset + a.size])
            assert not np.shares_memory(a, buffer[offset + a.size:])
            offset += a.size

    @pytest.mark.parametrize("algorithm", ["cg", "steepest"])
    def test_state_and_line_buffers(self, algorithm):
        p = small_problem()
        s = sc.lift_sA(p)
        self.assert_one_buffer(s.buffer, (s.y, s.pi, s.f))
        c = s.copy()
        self.assert_one_buffer(c.buffer, (c.y, c.pi, c.f))
        assert not np.shares_memory(c.buffer, s.buffer)
        line = sc._StokesLine(p)
        rule = ExactLineRule(line, s, cg=algorithm == "cg")
        history = []
        for _ in range(4):
            record = rule.measure(history)
            history.append(record)
            assert rule.choose(record) is None
            # the direction is a storage triplet's buffer, and the spent
            # triplet the other one
            (d,) = rule.dir
            assert d is not line.spent.buffer and any(d is t.buffer for t in line.store)
            rule.advance(record)
            assert rule.state is s
            self.assert_one_buffer(s.buffer, (s.y, s.pi, s.f))
            # the fields laid out as the increments (Vd, qd, bd)
            v, rhs, q = line.fields
            self.assert_one_buffer(line.carried, (v, q, rhs))
            for t in line.store:
                self.assert_one_buffer(t.buffer, (t.y, t.pi, t.f))
        buffers = [s.buffer, line.carried, line.W, *(t.buffer for t in line.store)]
        assert not any(np.shares_memory(a, b) for i, a in enumerate(buffers)
                       for b in buffers[i + 1:])


class TestSolveCalls:
    def test_two_space_time_solves_per_iterate_through_the_hooks(self, monkeypatch):
        # The benchmark's tracer wraps TimeBasis.to_modes/from_modes on the
        # class and cuts its timed solves at calls of the module attribute
        # elliptic.sine_transform: at control16's size every iterate makes
        # two solves (the Riesz gradient, and the line's corrector or, at
        # the start, the state's), each one to_modes, one from_modes and
        # two sine_transform calls, all seen there
        from lsqctrl.discretization import elliptic

        calls = collections.Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(elliptic, "sine_transform",
                            counted("sine_transform", elliptic.sine_transform))
        for name in ("to_modes", "from_modes"):
            monkeypatch.setattr(elliptic.TimeBasis, name,
                                counted(name, getattr(elliptic.TimeBasis, name)))
        g = SpaceTimeGrid(16, 16, 16)
        p = sc.ControlProblem(g, 1.0, bump_y0(g), SupportMask(0.0, 1 / 3, 0.0, 1.0))
        _, rep = sc.descend(p, sc.SolveConfig(max_iter=20, refresh_every=0, algorithm="cg"))
        n = rep.iterates_count
        assert n == 21 and rep.reason == "max_iter"
        assert calls == {"to_modes": 2 * n, "from_modes": 2 * n, "sine_transform": 4 * n}


class TestQuadraticLine:
    def test_exact_search_keeps_successive_gradients_orthogonal(self):
        # On the quadratic E exact-search CG keeps <g_k, g_{k-1}>_A0 = 0,
        # so the rule's PR+ beta is Fletcher-Reeves without forming that
        # pairing, and it holds no previous gradient to form it from.
        p = small_problem()
        rule = ExactLineRule(sc._StokesLine(p), sc.lift_sA(p), cg=True)
        history, prev = [], None
        for _ in range(30):
            record = rule.measure(history)
            history.append(record)
            # the gradient is one buffer, laid out as a triplet's
            (buffer,) = rule.g
            g = triplet_at(p.grid, buffer)
            gn_sq = rule.gn_sq
            assert inner_a0(g, g) == pytest.approx(gn_sq, rel=1e-10)
            if prev is not None:
                assert abs(inner_a0(g, prev)) <= 1e-10 * gn_sq
            assert rule.choose(record) is None
            assert rule.gprev is None
            rule.advance(record)
            prev = g


class DenseLine:
    """``ExactLineRule``'s line builder on a dense ``LsqProblem``: the field
    r = T(u0 + u), the gradient of ``abstract_descent.gradient`` and, along
    u - eta d, E(u - eta d) - E(u) = -eta <r, T d>_Y + eta^2 ||T d||_Y^2 / 2.
    It gives no pairing, as the unsteady line does not."""

    diagnostics = ()

    def __init__(self, p):
        self.p = p

    def reset(self, u):
        self.r = self.p.image(u)

    refresh = reset  # H coordinates hold no slice means to remove

    def energy(self):
        return 0.5 * self.p.Y.inner(self.r, self.r)

    def measure(self, u):
        g = ad.gradient(self.p, u)
        return [g], None, self.p.inner_H(g, g), {}

    def line(self, u, d):
        self.Td = self.p.T_map @ (self.p.H_basis @ d[0])
        return -self.p.Y.inner(self.r, self.Td), 0.5 * self.p.Y.inner(self.Td, self.Td), 0.0, 0.0

    def step(self, u, d, eta):
        self.r = self.r - eta * self.Td

    def advance(self, u, d, eta):
        u -= eta * d[0]


class TestDenseLineOracle:
    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("epsilon", [0.0, 0.01])
    @pytest.mark.parametrize("algorithm", ["cg", "steepest"])
    def test_unsteady_descent_matches_the_dense_line(self, n, epsilon, algorithm):
        # the shared rule on the dense assembly, from the lift (u = 0), and
        # the matrix-free descent: E and step agree per iterate (measured
        # up to 2.1e-14 on E and 3.0e-13 on step over the first 15 steps)
        from lsqctrl.oracles import dense_assemble

        p = small_problem(epsilon=epsilon, n=n)
        dense = dense_assemble(p).problem
        cfg = sc.SolveConfig(max_iter=15, algorithm=algorithm)
        rule = ExactLineRule(DenseLine(dense), np.zeros(dense.dim_H), algorithm == "cg",
                             cfg.refresh_every, cfg.tol_kernel)
        ref = ad.run_descent(rule, cfg.max_iter)
        _, rep = sc.descend(p, cfg)
        assert rep.iterates_count == ref.iterates_count == 16
        assert (np.abs(rep.energies - ref.energies) <= 1e-11 * rep.energies).all()
        assert (np.abs(rep.steps - ref.steps) <= 1e-11 * rep.steps).all()


class TestDiagnostics:
    """The norms the descent records at each iterate, and its corrector's residual."""

    def test_lift_diagnostics(self):
        p = small_problem()
        s, rep = sc.descend(p, sc.SolveConfig(max_iter=0))
        assert np.array_equal(s.y[0], p.y0)
        assert rep.extras["yT_norms"][0] == 0.0
        assert rep.extras["f_norms"][0] == 0.0

    def test_zero_triplet(self):
        g = SpaceTimeGrid(5, 5, 4)
        p = sc.ControlProblem(g, 1.0, np.zeros((2, 5, 5)), SupportMask(0, 1, 0, 1))
        _, rep = sc.descend(p, sc.SolveConfig(max_iter=0), s_init=Triplet.zeros(g))
        for key in ("div_norms", "yT_norms", "f_norms"):
            assert rep.extras[key][0] == 0.0
        assert rep.extras["corrector"].weak_residual_norm == 0.0

    def test_manufactured_residual_second_order(self):
        case = default_unsteady_case()
        vals = []
        for n in (8, 16):
            g = SpaceTimeGrid(n, n, n)
            trip, _ = manufactured_stokes(case, g, nu=1.0)
            p = sc.ControlProblem(g, 1.0, trip.y[0].copy(), SupportMask(0, 1, 0, 1),
                                  mode="direct")
            vals.append(sc.corrector(p, trip).weak_residual_norm)
        assert vals[0] / vals[1] >= 3.4


class TestDivergenceGuard:
    def test_flipped_sign_raises(self, monkeypatch):
        p = small_problem()
        original = sc.gradient_a0

        def negated(*args, **kwargs):
            g, gn_sq = original(*args, **kwargs)
            for a in (g.y, g.pi, g.f):
                np.negative(a, out=a)
            return g, gn_sq

        monkeypatch.setattr(sc, "gradient_a0", negated)
        with pytest.raises(sc.DescentDivergence):
            sc.descend(p, sc.SolveConfig(max_iter=10))
