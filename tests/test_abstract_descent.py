"""Dense engine: oracles first, then descent against them."""

import numpy as np
import pytest

from lsqctrl.abstract_descent import (
    random_instance,
    DescentConfig,
    InnerProductSpace,
    LsqProblem,
    descend,
    energy,
    gradient,
    kernel_projector,
    oracle_minimizer,
)
from lsqctrl.steady_nse import SteadyConfig
from lsqctrl.stokes_control import SolveConfig


def random_problem(seed, dim_x=None, dim_y=None, rank_deficient=False):
    return random_instance(seed, dim_x, dim_y, rank_deficient)


def random_spd(rng, n, cond=2.0):
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return Q @ np.diag(np.linspace(1.0, cond, n)) @ Q.T


class TestEnergy:
    def test_identity_map_direct_value(self):
        X = InnerProductSpace.euclidean(2)
        p = LsqProblem(X, X, np.eye(2), np.eye(2), np.zeros(2))
        assert energy(p, np.array([3.0, 4.0])) == pytest.approx(12.5, abs=0)

    def test_exact_annihilation(self):
        rng = np.random.default_rng(3)
        X = InnerProductSpace.euclidean(4)
        u0 = rng.standard_normal(4)
        p = LsqProblem(X, X, np.eye(4), np.eye(4), u0)
        assert energy(p, -u0) == 0.0

    @pytest.mark.parametrize("seed", [42])
    def test_against_independent_dense_evaluation(self, seed):
        p = random_problem(seed, dim_x=7, dim_y=5)
        rng = np.random.default_rng(seed + 1)
        for _ in range(10):
            u = rng.standard_normal(p.dim_H)
            r = p.T_map @ (p.u0 + p.H_basis @ u)
            expected = 0.5 * r @ p.Y.gram @ r
            assert energy(p, u) == pytest.approx(expected, rel=1e-13)

    def test_dimension_mismatch_fatal(self):
        p = random_problem(0, dim_x=5, dim_y=5)
        with pytest.raises(ValueError):
            energy(p, np.zeros(p.dim_H + 1))


class TestGradient:
    def test_identity_gradient_is_u(self):
        X = InnerProductSpace.euclidean(3)
        p = LsqProblem(X, X, np.eye(3), np.eye(3), np.zeros(3))
        u = np.array([1.0, -2.0, 0.5])
        assert np.allclose(gradient(p, u), u, atol=1e-14)

    def test_zero_at_global_minimum(self):
        rng = np.random.default_rng(5)
        X = InnerProductSpace.euclidean(4)
        u0 = rng.standard_normal(4)
        p = LsqProblem(X, X, np.eye(4), np.eye(4), u0)
        assert np.abs(gradient(p, -u0)).max() < 1e-14

    @pytest.mark.parametrize("seed", range(8))
    def test_directional_derivative_matches_fd(self, seed):
        p = random_problem(seed)
        rng = np.random.default_rng(seed + 100)
        u = rng.standard_normal(p.dim_H)
        d = rng.standard_normal(p.dim_H)
        g = gradient(p, u)
        eps = 1e-6
        fd = (energy(p, u + eps * d) - energy(p, u - eps * d)) / (2 * eps)
        ref = p.inner_H(g, d)
        assert fd == pytest.approx(ref, rel=1e-8, abs=1e-12)

    @pytest.mark.parametrize("seed", range(100))
    def test_gradient_orthogonal_to_kernel(self, seed):
        p = random_problem(seed, rank_deficient=bool(seed % 2))
        P_A, _ = kernel_projector(p)
        rng = np.random.default_rng(seed + 7)
        u = rng.standard_normal(p.dim_H)
        g = gradient(p, u)
        a = P_A @ rng.standard_normal(p.dim_H)
        na, ng = p.norm_H(a), p.norm_H(g)
        if na > 0 and ng > 0:
            assert abs(p.inner_H(g, a)) <= 1e-10 * na * ng


class TestKernelProjector:
    def test_injective_gives_zero_projector(self):
        p = random_problem(11, dim_x=5, dim_y=9)
        P_A, P_perp = kernel_projector(p)
        assert np.abs(P_A).max() < 1e-9
        assert np.allclose(P_perp, np.eye(p.dim_H), atol=1e-9)

    def test_zero_map_gives_identity(self):
        X = InnerProductSpace.euclidean(4)
        Y = InnerProductSpace.euclidean(3)
        p = LsqProblem(X, Y, np.zeros((3, 4)), np.eye(4), np.zeros(4))
        P_A, _ = kernel_projector(p)
        assert np.allclose(P_A, np.eye(4), atol=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_partition_idempotence_and_nullspace(self, seed):
        p = random_problem(seed, rank_deficient=True)
        P_A, P_perp = kernel_projector(p)
        assert np.abs(P_A + P_perp - np.eye(p.dim_H)).max() < 1e-12
        assert np.abs(P_A @ P_A - P_A).max() < 1e-10
        TH = p.T_map @ p.H_basis
        scale = max(np.linalg.norm(TH, 2), 1.0)
        for col in P_A.T:
            assert np.linalg.norm(TH @ col) <= 1e-10 * scale * max(np.linalg.norm(col), 1e-30)


class TestOracleMinimizer:
    def test_identity_case(self):
        rng = np.random.default_rng(2)
        X = InnerProductSpace.euclidean(5)
        u0 = rng.standard_normal(5)
        p = LsqProblem(X, X, np.eye(5), np.eye(5), u0)
        assert np.allclose(oracle_minimizer(p), -u0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(15))
    def test_zero_energy_when_attainable(self, seed):
        # T u0 lies in range(T|H) by construction: u0 in span(H)
        rng = np.random.default_rng(seed)
        nx = 7
        X = InnerProductSpace(nx, random_spd(rng, nx))
        Y = InnerProductSpace(4, random_spd(rng, 4))
        T = rng.standard_normal((4, nx))
        H = np.linalg.qr(rng.standard_normal((nx, 5)))[0]
        u0 = H @ rng.standard_normal(5)
        p = LsqProblem(X, Y, T, H, u0)
        ubar = oracle_minimizer(p)
        assert energy(p, ubar) < 1e-20 * max(1.0, energy(p, np.zeros(5)))

    @pytest.mark.parametrize("seed", range(25))
    def test_stationarity_and_membership(self, seed):
        p = random_problem(seed, rank_deficient=bool(seed % 3 == 0))
        ubar = oracle_minimizer(p)
        g = gradient(p, ubar)
        assert p.norm_H(g) <= 1e-10 * max(1.0, p.norm_H(ubar))
        P_A, _ = kernel_projector(p)
        assert p.norm_H(P_A @ ubar) <= 1e-9 * max(1.0, p.norm_H(ubar))


class TestDescend:
    def test_start_at_minimizer_stops_immediately(self):
        p = random_problem(9)
        ubar = oracle_minimizer(p)
        _, rep = descend(p, ubar, DescentConfig(max_iter=50, tol_grad=1e-9))
        assert rep.converged and rep.iterates_count == 1

    def test_identity_map_single_step(self):
        rng = np.random.default_rng(4)
        X = InnerProductSpace.euclidean(6)
        u0 = rng.standard_normal(6)
        p = LsqProblem(X, X, np.eye(6), np.eye(6), u0)
        u, rep = descend(p, np.zeros(6), DescentConfig(max_iter=5, tol_energy=1e-28))
        assert rep.converged and rep.iterates_count <= 2
        assert np.allclose(u, -u0, atol=1e-13)

    @pytest.mark.parametrize("seed", range(30))
    def test_limit_matches_oracle(self, seed):
        p = random_problem(seed, rank_deficient=bool(seed % 2))
        ubar = oracle_minimizer(p)
        u, rep = descend(p, np.zeros(p.dim_H), DescentConfig(max_iter=500, tol_grad=1e-13))
        scale = max(1.0, p.norm_H(ubar))
        assert p.norm_H(u - ubar) <= 1e-8 * scale

    @pytest.mark.parametrize("seed", range(20))
    def test_monotone_energy_and_distance(self, seed):
        p = random_problem(seed, rank_deficient=True)
        ubar = oracle_minimizer(p)
        cfg = DescentConfig(max_iter=120, tol_grad=1e-14)
        u = np.zeros(p.dim_H)
        dist_prev = p.norm_H(u - ubar)
        e_prev = energy(p, u)
        for _ in range(60):
            g = gradient(p, u)
            Tg = p.T_map @ p.H_basis @ g
            tg2 = p.Y.inner(Tg, Tg)
            if tg2 <= 1e-28:
                break
            eta = p.Y.inner(p.image(u), Tg) / tg2
            u = u - eta * g
            e = energy(p, u)
            dist = p.norm_H(u - ubar)
            assert e <= e_prev * (1 + 1e-12) + 1e-15
            assert dist <= dist_prev * (1 + 1e-10) + 1e-12
            e_prev, dist = e, dist
            dist_prev = dist
        _, rep = descend(p, np.zeros(p.dim_H), cfg)
        diffs = np.diff(rep.energies)
        assert (diffs <= 1e-12 * np.abs(rep.energies[:-1]) + 1e-15).all()

    @pytest.mark.parametrize("seed", range(10))
    def test_trajectory_stays_in_a_perp(self, seed):
        p = random_problem(seed, rank_deficient=True)
        P_A, _ = kernel_projector(p)
        u = np.zeros(p.dim_H)  # 0 lies in A-perp
        for _ in range(25):
            g = gradient(p, u)
            Tg = p.T_map @ p.H_basis @ g
            tg2 = p.Y.inner(Tg, Tg)
            if tg2 <= 1e-28:
                break
            u = u - (p.Y.inner(p.image(u), Tg) / tg2) * g
            assert p.norm_H(P_A @ u) <= 1e-9 * max(1.0, p.norm_H(u))

    def test_kernel_invariance_of_energy(self):
        p = random_problem(21, rank_deficient=True)
        P_A, _ = kernel_projector(p)
        rng = np.random.default_rng(33)
        u = rng.standard_normal(p.dim_H)
        a = P_A @ rng.standard_normal(p.dim_H)
        e0, e1 = energy(p, u), energy(p, u + a)
        assert e1 == pytest.approx(e0, rel=1e-9)

    def test_strict_convexity_on_a_perp(self):
        p = random_problem(17, rank_deficient=True)
        _, P_perp = kernel_projector(p)
        # Hessian of E in H coordinates restricted to A-perp
        TH = p.T_map @ p.H_basis
        Hess = TH.T @ p.Y.gram @ TH
        B = np.linalg.qr(P_perp @ np.random.default_rng(0).standard_normal(
            (p.dim_H, p.dim_H)))[0][:, : np.linalg.matrix_rank(P_perp)]
        w = np.linalg.eigvalsh(B.T @ Hess @ B)
        assert w.min() > 0

    def test_noop_observer_leaves_report_bit_identical(self):
        p = random_problem(3)
        cfg = DescentConfig(max_iter=40, tol_grad=1e-12)
        u0, rep0 = descend(p, np.zeros(p.dim_H), cfg)
        records = []
        u1, rep1 = descend(p, np.zeros(p.dim_H), cfg,
                           observer=lambda rec, u: records.append((dict(rec), u.copy())))
        assert (rep0.iterates_count, rep0.reason) == (rep1.iterates_count, rep1.reason)
        for name in ("energies", "grad_norms", "steps", "kernel_ratios"):
            assert np.array_equal(getattr(rep0, name), getattr(rep1, name)), name
        assert np.array_equal(u0, u1)
        assert [r["iter"] for r, _ in records] == list(range(rep1.iterates_count))
        assert np.array_equal([r["E"] for r, _ in records], rep1.energies)
        # the observer sees iterate k before its step is taken
        assert np.array_equal(records[0][1], np.zeros(p.dim_H))
        assert np.array_equal(records[-1][1], u1)

    def test_max_iter_reported_not_fatal(self):
        p = random_problem(8)
        _, rep = descend(p, np.zeros(p.dim_H), DescentConfig(max_iter=1))
        assert not rep.converged and rep.reason == "max_iter"


NAN = float("nan")


@pytest.mark.parametrize("make", [
    lambda: DescentConfig(tol_grad=NAN),
    lambda: DescentConfig(tol_energy=NAN),
    lambda: DescentConfig(max_iter=NAN),
    lambda: SolveConfig(tol_grad=NAN),
    lambda: SolveConfig(tol_energy_rel=NAN),
    lambda: SolveConfig(max_iter=NAN),
    lambda: SolveConfig(refresh_every=-3),
    lambda: SteadyConfig(max_iter=-1),
    lambda: SteadyConfig(tol_grad=NAN),
    lambda: SteadyConfig(tol_energy=NAN),
    lambda: SteadyConfig(tol_energy_rel=NAN),
    lambda: SteadyConfig(tol_energy_rel=-0.5),
], ids=["descent-tol_grad", "descent-tol_energy", "descent-max_iter",
        "solve-tol_grad", "solve-tol_energy_rel", "solve-max_iter", "solve-refresh_every",
        "steady-max_iter", "steady-tol_grad",
        "steady-tol_energy", "steady-tol_energy_rel-nan", "steady-tol_energy_rel"])
def test_config_rejects_negative_and_nan_fields(make):
    with pytest.raises(ValueError):
        make()
