"""Unsteady solver: corrector, energy, gradients, descent."""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lsqctrl import stokes_control as sc
from lsqctrl.abstract_descent import ExactLineRule
from lsqctrl.discretization import (
    SpaceTimeGrid,
    SupportMask,
    Triplet,
    curl,
    div,
    dt_sq_integral,
    inner_a0,
    level_slice,
    remove_slice_means,
    slice_means,
    st_h1_seminorm_sq,
    st_inner,
)
from lsqctrl.oracles import default_unsteady_case, manufactured_stokes

FIXTURES = Path(__file__).parent / "fixtures"


def bump_y0(grid, amp=1.0):
    X, Y = grid.meshgrid()
    S = np.sin(np.pi * X) ** 2
    T = np.sin(np.pi * Y) ** 2
    Sx = np.pi * np.sin(2 * np.pi * X)
    Ty = np.pi * np.sin(2 * np.pi * Y)
    M = 1.0 + 0.5 * X - 0.3 * Y
    return amp * np.stack([S * Ty * M - 0.3 * S * T, -(Sx * T * M + 0.5 * S * T)])


def small_problem(mode="null_control", epsilon=0.0, n=6, mask=None, metric="a0_exact"):
    g = SpaceTimeGrid(n, n, n)
    mask = mask or SupportMask(0.0, 1.0 / 3.0, 0.0, 1.0)
    return sc.ControlProblem(g, nu=1.0, y0=bump_y0(g), mask=mask, mode=mode,
                             epsilon=epsilon, metric=metric)


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
    assert (a.iterates_count, a.reason, a.converged) == (b.iterates_count, b.reason, b.converged)
    for name in ("energies", "grad_norms", "steps", "kernel_ratios"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    for name in ("div_norms", "yT_norms", "f_norms"):
        assert np.array_equal(a.extras[name], b.extras[name]), name
    assert np.array_equal(a.extras["corrector"].v, b.extras["corrector"].v)
    assert a.extras["corrector"].weak_residual_norm == b.extras["corrector"].weak_residual_norm


def perturbed_state(p, rng, scale=0.3):
    s = sc.lift_sA(p)
    s.axpy(scale, random_direction(p, rng))
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
        lhs = float(np.vdot(sc._dt_weak_vector(y, g), v))
        rhs = float(np.vdot(y, sc._dt_adjoint_vector(v, g)))
        assert abs(lhs - rhs) <= 1e-14 * max(abs(lhs), 1.0)
        # a field constant in time has no time derivative, exactly
        assert not sc._dt_weak_vector(np.ones_like(y), g).any()


class TestEnergy:
    def test_zero_data(self):
        g = SpaceTimeGrid(5, 5, 5)
        p = sc.ControlProblem(g, 1.0, np.zeros((2, 5, 5)), SupportMask(0, 1, 0, 1))
        assert sc.energy(p, Triplet.zeros(g)) == 0.0

    def test_manufactured_fourth_order(self):
        case = default_unsteady_case()
        vals = []
        for n in (8, 16, 32):
            g = SpaceTimeGrid(n, n, n)
            trip, _ = manufactured_stokes(case, g, nu=1.0)
            p = sc.ControlProblem(g, 1.0, trip.y[0].copy(), SupportMask(0, 1, 0, 1),
                                  mode="direct")
            vals.append(sc.energy(p, trip))
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
        e0 = sc.energy(p, s)
        sl = level_slice(g, p.fixed_traces)
        psi = np.zeros((g.nt + 1, g.ny, g.nx))
        psi[sl] = rng.standard_normal(psi[sl].shape)
        a = Triplet.zeros(g)
        a.y = curl(psi, g)
        from lsqctrl.stokes_control import _residual_vector

        area_w = g.hx * g.hy * g.time_weights()[:, None, None, None]
        a.f = _residual_vector(p, a.y, a.pi, np.zeros_like(a.f),
                               include_control=False) / area_w
        assert np.abs(div(a.y, g)).max() <= 1e-12
        e1 = sc.energy(p, s.copy().axpy(1.0, a))
        assert e1 == pytest.approx(e0, rel=1e-12)

    def test_two_evaluations_agree(self):
        # quadrature form versus the assembled-operator pairing v.b
        rng = np.random.default_rng(1)
        p = small_problem(epsilon=0.01)
        s = perturbed_state(p, rng)
        from lsqctrl.stokes_control import _residual_vector

        corr = sc.corrector(p, s)
        e_quad = sc.energy(p, s, corr)
        q = div(s.y, p.grid) + p.epsilon * s.pi
        e_op = 0.5 * (float(np.sum(corr.v * -_residual_vector(p, s.y, s.pi, s.f)))
                      + st_inner(q, q, p.grid))
        assert e_op == pytest.approx(e_quad, rel=1e-12)


class TestFirstVariation:
    def test_zero_direction(self):
        p = small_problem()
        s = sc.lift_sA(p)
        assert sc.first_variation(p, s, Triplet.zeros(p.grid)) == 0.0

    @pytest.mark.parametrize("mode,epsilon", [("null_control", 0.0),
                                              ("null_control", 0.01),
                                              ("direct", 0.0)])
    def test_matches_central_differences(self, mode, epsilon):
        rng = np.random.default_rng(7)
        p = small_problem(mode=mode, epsilon=epsilon)
        s = perturbed_state(p, rng)
        d = random_direction(p, rng)
        fv = sc.first_variation(p, s, d)
        eps = 1e-5
        ep = sc.energy(p, s.copy().axpy(eps, d))
        em = sc.energy(p, s.copy().axpy(-eps, d))
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
            nd = np.sqrt(inner_a0(d, d, metric=p.metric))
            assert abs(sc.first_variation(p, s, d)) <= 1e-8 * g0 * nd

    def test_inhomogeneous_direction_rejected(self):
        p = small_problem()
        d = Triplet.zeros(p.grid)
        d.y[0, 0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            sc.first_variation(p, sc.lift_sA(p), d)


class TestGradient:
    def test_zero_state_zero_gradient(self):
        g = SpaceTimeGrid(5, 5, 5)
        p = sc.ControlProblem(g, 1.0, np.zeros((2, 5, 5)), SupportMask(0, 1, 0, 1))
        gdir, gn = sc.gradient_a0(p, Triplet.zeros(g), return_norm=True)
        assert gn == 0.0
        assert np.abs(gdir.y).max() == 0 and np.abs(gdir.pi).max() == 0

    @pytest.mark.parametrize("metric", ["a0_exact", "simplified"])
    def test_riesz_property(self, metric):
        rng = np.random.default_rng(9)
        p = small_problem(metric=metric, epsilon=0.01)
        s = perturbed_state(p, rng)
        corr = sc.corrector(p, s)
        gdir = sc.gradient_a0(p, s, corr)
        for _ in range(20):
            d = random_direction(p, rng)
            lhs = inner_a0(gdir, d, metric=metric)
            rhs = sc.first_variation(p, s, d, corr)
            assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-12)

    def test_gradient_sign_fixture(self):
        # the recorded global sign: <E'(s), gradient> must be positive
        sigma = json.loads((FIXTURES / "gradient_sign.json").read_text())["sigma"]
        assert sc.SIGMA == sigma
        rng = np.random.default_rng(10)
        p = small_problem()
        s = perturbed_state(p, rng)
        gdir, gn_sq = sc.gradient_a0(p, s, return_norm=True)
        fv = sc.first_variation(p, s, gdir)
        assert fv > 0
        assert fv == pytest.approx(gn_sq, rel=1e-10)

    def test_dense_gram_agreement(self):
        from lsqctrl import abstract_descent as ad
        from lsqctrl.oracles import dense_assemble

        rng = np.random.default_rng(11)
        g = SpaceTimeGrid(4, 4, 4)
        p = sc.ControlProblem(g, 1.0, bump_y0(g)[:, : g.ny, : g.nx],
                              SupportMask(0.0, 0.5, 0.0, 1.0))
        asm = dense_assemble(p)
        d = random_direction(p, rng)
        s = sc.lift_sA(p)
        s.axpy(1.0, d)
        g_pde = asm.pack_H(sc.gradient_a0(p, s))
        g_abs = ad.gradient(asm.problem, asm.pack_H(d))
        scale = max(np.abs(g_abs).max(), 1e-30)
        assert np.abs(g_pde - g_abs).max() <= 1e-8 * scale

    def test_gradient_mean_free_and_supported(self):
        rng = np.random.default_rng(12)
        p = small_problem(epsilon=0.01)
        s = perturbed_state(p, rng)
        gdir = sc.gradient_a0(p, s)
        assert np.abs(slice_means(gdir.pi)).max() <= 1e-12
        assert np.abs(gdir.f * (1 - p.mask_array())).max() == 0.0


class TestApplyT:
    def test_zero(self):
        p = small_problem()
        corr, q = sc.apply_T(p, Triplet.zeros(p.grid))
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
        ca, qa = sc.apply_T(p, comb)
        c1, q1 = sc.apply_T(p, d1)
        c2, q2 = sc.apply_T(p, d2)
        scale = max(np.abs(ca.v).max(), 1e-30)
        assert np.abs(ca.v - (2 * c1.v - 0.5 * c2.v)).max() <= 1e-10 * scale
        assert np.abs(qa - (2 * q1 - 0.5 * q2)).max() <= 1e-10 * max(np.abs(qa).max(), 1e-30)

    def test_polarization_identity(self):
        rng = np.random.default_rng(14)
        p = small_problem(epsilon=0.01)
        s = perturbed_state(p, rng)
        d = random_direction(p, rng)
        corr_d, q_d = sc.apply_T(p, d)
        td_sq = corr_d.weak_residual_norm**2 + st_inner(q_d, q_d, p.grid)
        e_s = sc.energy(p, s)
        e_sd = sc.energy(p, s.copy().axpy(1.0, d))
        fv = sc.first_variation(p, s, d)
        assert td_sq == pytest.approx(2 * (e_sd - e_s - fv), rel=1e-9)


class TestDescend:
    def test_zero_data_terminates_immediately(self):
        g = SpaceTimeGrid(5, 5, 5)
        p = sc.ControlProblem(g, 1.0, np.zeros((2, 5, 5)), SupportMask(0, 1, 0, 1))
        s, rep = sc.descend(p, sc.SolveConfig(max_iter=10, tol_energy=0.0))
        assert rep.converged and rep.reason == "energy_tol"
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
        assert rep.converged and rep.reason == "kernel_stall"
        assert rep.kernel_ratios[-1] <= 0.05

    def test_metric_independence_of_stationarity(self):
        p_exact = small_problem(mode="direct", n=5)
        s, rep = sc.descend(p_exact, sc.SolveConfig(max_iter=4000, tol_grad=1e-8,
                                                    algorithm="cg"))
        p_simpl = small_problem(mode="direct", n=5, metric="simplified")
        _, gn_simpl = sc.gradient_a0(p_simpl, s, return_norm=True)
        _, rep0 = sc.descend(p_simpl, sc.SolveConfig(max_iter=0))
        assert np.sqrt(gn_simpl) <= 1e-6 * rep0.grad_norms[0]

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
            assert rec["E"] == pytest.approx(sc.energy(p, s), rel=1e-10), rec["iter"]
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
    """Each gradient is written into the fields its last line has spent."""

    @pytest.mark.parametrize("mode, epsilon", [("null_control", 0.0), ("null_control", 0.01),
                                               ("direct", 0.0)])
    def test_poisoned_out_arrays_leave_the_run_bit_identical(self, monkeypatch, mode,
                                                              epsilon):
        # NaN in every element handed to gradient_a0: the fixed-trace levels,
        # the frozen control of direct mode and the pressure means must all
        # be overwritten, or the run would differ from an unpoisoned one
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
        cfg = sc.SolveConfig(max_iter=40, refresh_every=10, algorithm="cg")
        s_ref, rep_ref = sc.descend(p, cfg, s_init=s0)
        original, poisoned = sc.gradient_a0, []

        def poisoning(*args, out=None, **kwargs):
            if out is not None:
                for a in out:
                    a.fill(np.nan)
                poisoned.append(out)
            return original(*args, out=out, **kwargs)

        monkeypatch.setattr(sc, "gradient_a0", poisoning)
        s, rep = sc.descend(p, cfg, s_init=s0)
        assert len(poisoned) == rep.iterates_count - 1 == 40  # every gradient but the first
        assert_same_report(rep_ref, rep)
        for name in ("y", "pi", "f"):
            assert np.array_equal(getattr(s_ref, name), getattr(s, name)), name

    def test_descent_peak_memory(self):
        # tracemalloc peak of a short CG descent at 24^3, in vector fields
        # ((nt+1, 2, ny, nx) float64, 230 kB here): 14.29 while each gradient
        # took new arrays and the line's were freed, 12.23 with the line's
        # spent fields reused and the Riesz solve writing into the gradient.
        # A field-sized buffer kept on top fails the bound.
        g = SpaceTimeGrid(24, 24, 24)
        p = sc.ControlProblem(g, 1.0, bump_y0(g), SupportMask(0.0, 1 / 3, 0.0, 1.0))
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
        assert peak <= 12.5 * g.vector_zeros().nbytes


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
            g = Triplet(p.grid, *(a.copy() for a in rule.g))
            gn_sq = rule.gn_sq
            assert inner_a0(g, g, p.metric) == pytest.approx(gn_sq, rel=1e-10)
            if prev is not None:
                assert abs(inner_a0(g, prev, p.metric)) <= 1e-10 * gn_sq
            assert rule.choose(record) is None
            assert rule.gprev is None
            rule.advance(record)
            prev = g


class TestDiagnostics:
    def test_lift_diagnostics(self):
        p = small_problem()
        d = sc.diagnostics(p, sc.lift_sA(p))
        assert d["traceT_norm"] == 0.0
        assert d["trace0_error"] == 0.0
        assert d["f_norm"] == 0.0

    def test_zero_triplet(self):
        g = SpaceTimeGrid(5, 5, 4)
        p = sc.ControlProblem(g, 1.0, np.zeros((2, 5, 5)), SupportMask(0, 1, 0, 1))
        d = sc.diagnostics(p, Triplet.zeros(g))
        for key in ("div_norm", "trace0_error", "traceT_norm", "weak_residual", "f_norm"):
            assert d[key] == 0.0

    def test_manufactured_residual_second_order(self):
        case = default_unsteady_case()
        vals = []
        for n in (8, 16):
            g = SpaceTimeGrid(n, n, n)
            trip, _ = manufactured_stokes(case, g, nu=1.0)
            p = sc.ControlProblem(g, 1.0, trip.y[0].copy(), SupportMask(0, 1, 0, 1),
                                  mode="direct")
            vals.append(sc.diagnostics(p, trip)["weak_residual"])
        assert vals[0] / vals[1] >= 3.4


class TestDivergenceGuard:
    def test_flipped_sign_raises(self, monkeypatch):
        p = small_problem()
        monkeypatch.setattr(sc, "SIGMA", -1.0)
        with pytest.raises(sc.DescentDivergence):
            sc.descend(p, sc.SolveConfig(max_iter=10))
