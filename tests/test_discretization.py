"""Grid calculus, quadrature and the exact elliptic solves."""

import math
import tracemalloc

import numpy as np
import pytest

from lsqctrl import oracles
from lsqctrl.discretization import (
    SpaceTimeGrid,
    SupportMask,
    Triplet,
    a0_velocity_riesz,
    curl,
    div,
    grad,
    grad_pressure,
    grad_pressure_transpose,
    h1_pairing,
    h1_seminorm_sq,
    laplace,
    level_slice,
    poisson_solve,
    remove_slice_means,
    sine_eigenvalues,
    sine_transform,
    space_inner,
    spacetime_solve_weak,
    st_h1_pairing,
    st_h1_seminorm_sq,
    st_inner,
    time_basis,
)
from lsqctrl.discretization import stencils
from lsqctrl.discretization.elliptic import _sine_matrix, mode_denominators


def stream_bump(grid):
    """Non-separable stream function whose curl vanishes on the walls.

    psi = sin^2(pi x) sin^2(pi y) (1 + x/2 - 3y/10); the modulation
    breaks the tensor-product symmetry that would otherwise make the
    sampled curl exactly divergence free on the discrete grid.
    """
    X, Y = grid.meshgrid()
    S = np.sin(np.pi * X) ** 2
    T = np.sin(np.pi * Y) ** 2
    Sx = np.pi * np.sin(2 * np.pi * X)
    Ty = np.pi * np.sin(2 * np.pi * Y)
    M = 1.0 + 0.5 * X - 0.3 * Y
    psi = S * T * M
    dpsi_dx = Sx * T * M + 0.5 * S * T
    dpsi_dy = S * Ty * M - 0.3 * S * T
    return psi, np.stack([dpsi_dy, -dpsi_dx])


class TestGridAndMask:
    def test_spacings(self):
        g = SpaceTimeGrid(4, 9, 5, Lx=2.0, Ly=1.0, T_final=3.0)
        assert g.hx == pytest.approx(2.0 / 5)
        assert g.hy == pytest.approx(0.1)
        assert g.ht == pytest.approx(0.6)
        assert g.ts()[0] == 0.0 and g.ts()[-1] == pytest.approx(3.0)

    def test_time_weights_cached_read_only(self):
        g = SpaceTimeGrid(3, 3, 4, T_final=2.0)
        w = g.time_weights()
        assert w is g.time_weights()
        assert np.array_equal(w, [0.25, 0.5, 0.5, 0.5, 0.25])
        with pytest.raises(ValueError):
            w[0] = 1.0

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            SpaceTimeGrid(1, 4, 4)
        with pytest.raises(ValueError):
            SpaceTimeGrid(4, 4, 4, Lx=-1.0)

    def test_mask_indicator_strip(self):
        g = SpaceTimeGrid(8, 8, 4)
        m = SupportMask(0.0, 1.0 / 3.0, 0.0, 1.0)
        m.validate(g)
        ind = m.spatial_indicator(g)
        xs = g.xs()
        assert (ind[:, xs <= 1.0 / 3.0 + 1e-12] == 1).all()
        assert (ind[:, xs > 1.0 / 3.0 + 1e-12] == 0).all()

    def test_mask_time_window(self):
        g = SpaceTimeGrid(4, 4, 10)
        m = SupportMask(0.0, 1.0, 0.0, 1.0, t0=0.2, t1=0.5)
        ind = m.indicator(g)
        on = (g.ts() >= 0.2 - 1e-12) & (g.ts() <= 0.5 + 1e-12)
        assert (ind[on] == 1).all() and (ind[~on] == 0).all()

    def test_mask_outside_domain_rejected(self):
        g = SpaceTimeGrid(4, 4, 4)
        with pytest.raises(ValueError):
            SupportMask(0.0, 1.5, 0.0, 1.0).validate(g)


class TestStencils:
    def test_constant_field_interior(self):
        g = SpaceTimeGrid(10, 10, 2)
        c = np.ones((g.ny, g.nx))
        gc = grad(c, g)
        assert np.abs(gc[:, 1:-1, 1:-1]).max() == 0.0
        lap = div(grad(c, g), g)
        assert np.abs(lap[2:-2, 2:-2]).max() == 0.0

    def test_div_of_sampled_curl_second_order(self):
        errs = []
        for n in (16, 32, 64):
            g = SpaceTimeGrid(n, n, 2)
            _, y = stream_bump(g)
            errs.append(np.abs(div(y, g)).max())
        assert errs[0] / errs[1] >= 3.5
        assert errs[1] / errs[2] >= 3.5

    def test_discrete_curl_exactly_divergence_free(self):
        g = SpaceTimeGrid(9, 6, 2)
        rng = np.random.default_rng(1)
        psi = rng.standard_normal((g.ny, g.nx))
        assert np.abs(div(curl(psi, g), g)).max() <= 1e-13

    def test_integration_by_parts_exact(self):
        g = SpaceTimeGrid(8, 5, 2)
        rng = np.random.default_rng(2)
        s = rng.standard_normal((g.ny, g.nx))
        v = rng.standard_normal((2, g.ny, g.nx))
        val = space_inner(div(v, g), s, g) + space_inner(v, grad(s, g), g)
        assert abs(val) <= 1e-12

    def test_grid_mismatch_rejected(self):
        g1 = SpaceTimeGrid(4, 4, 2)
        s = Triplet.zeros(g1)
        with pytest.raises(ValueError):
            Triplet(g1, s.y, np.zeros((5, 5)), s.f)

    def test_zeros_is_zero_and_other_data_is_checked(self):
        g = SpaceTimeGrid(4, 3, 2)
        z = Triplet.zeros(g)
        assert z.grid is g and z.y.shape == (3, 2, 3, 4) and z.pi.shape == (3, 3, 4)
        assert not (z.y.any() or z.pi.any() or z.f.any())
        bad_y = z.y.copy()
        bad_y[1, 0, 2, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            Triplet(g, bad_y, z.pi, z.f)
        with pytest.raises(ValueError, match="non-finite"):
            Triplet(g, z.y, z.pi, np.full_like(z.f, np.inf))
        with pytest.raises(ValueError, match="shape"):
            Triplet(g, z.y[:, :1], z.pi, z.f)
        with pytest.raises(ValueError, match="shape"):  # one slice is no space-time field
            Triplet(g, z.y[0], z.pi[0], z.f[0])

    def test_h1_pairings_match_padded_diff_formulas(self):
        # the edge differences are built without a padded copy, and a
        # field paired with itself is differenced once: same bits as the
        # np.diff(..., prepend=0, append=0) formulas
        g = SpaceTimeGrid(7, 5, 4)
        a, b = np.random.default_rng(4).standard_normal((2, g.nt + 1, 2, g.ny, g.nx))

        def edges(x):
            return (np.diff(x, axis=-1, prepend=0.0, append=0.0) / g.hx,
                    np.diff(x, axis=-2, prepend=0.0, append=0.0) / g.hy)

        def st_pair(x, z):
            (xx, xy), (zx, zy) = edges(x), edges(z)
            per_level = (xx * zx).reshape(g.nt + 1, -1).sum(axis=1)
            per_level += (xy * zy).reshape(g.nt + 1, -1).sum(axis=1)
            return g.hx * g.hy * float(per_level @ g.time_weights())

        def pair(x, z):
            (xx, xy), (zx, zy) = edges(x), edges(z)
            return g.hx * g.hy * float(np.sum(xx * zx) + np.sum(xy * zy))

        assert st_h1_pairing(a, b, g) == st_pair(a, b)
        assert st_h1_seminorm_sq(a, g) == st_pair(a, a)
        assert h1_pairing(a[1], b[1], g) == pair(a[1], b[1])
        ex, ey = edges(a[1])
        assert h1_seminorm_sq(a[1], g) == g.hx * g.hy * float(np.sum(ex**2) + np.sum(ey**2))

    def test_symmetry_commutation(self):
        g = SpaceTimeGrid(9, 9, 2)
        rng = np.random.default_rng(3)
        s = rng.standard_normal((g.ny, g.nx))
        flip = lambda a: a[..., :, ::-1]
        assert np.allclose(laplace(flip(s), g), flip(laplace(s, g)), atol=1e-13)
        assert np.allclose(poisson_solve(g, flip(s)), flip(poisson_solve(g, s)), atol=1e-12)

    def test_pressure_gradient_one_sided(self):
        g = SpaceTimeGrid(12, 12, 2)
        assert np.abs(grad_pressure(np.ones((g.ny, g.nx)), g)).max() == 0.0
        errs = []
        for n in (12, 24, 48):
            gg = SpaceTimeGrid(n, n, 2)
            X, Y = gg.meshgrid()
            p = np.sin(np.pi * X) * np.cos(np.pi * Y)
            gp = grad_pressure(p, gg)
            ex = np.stack(
                [np.pi * np.cos(np.pi * X) * np.cos(np.pi * Y),
                 -np.pi * np.sin(np.pi * X) * np.sin(np.pi * Y)]
            )
            errs.append(np.abs(gp - ex).max())
        assert errs[0] / errs[1] >= 3.0 and errs[1] / errs[2] >= 3.0

    @pytest.mark.parametrize("n", [2, 3, 5, 17])
    def test_operator_matrices_match_the_oracle(self, n):
        # production 1-D operators against the oracle's independently
        # built matrices, on an axis whose spacing differs from the other
        h = 0.7 / (n + 1)
        ops = stencils._operators(n, h)
        assert ops is stencils._operators(n, h)
        assert np.array_equal(ops.D, oracles._dx1d_centered(n, h))
        assert np.array_equal(ops.L, -oracles._lap1d(n, h))
        assert np.array_equal(ops.G2 / (2.0 * h), oracles._dx1d_onesided(n, h))
        assert np.array_equal(ops.DT, ops.D.T) and np.array_equal(ops.G2T, ops.G2.T)
        for M in ops:
            assert M.flags.c_contiguous and not M.flags.writeable
            with pytest.raises(ValueError):
                M[0, 0] = 1.0
        # the product with the integer stencil, divided by 2h afterwards
        g = SpaceTimeGrid(n, 4, 2, Lx=0.7)
        s = np.random.default_rng(n).standard_normal((g.nt + 1, g.ny, g.nx))
        assert np.allclose(grad_pressure(s, g)[:, 0], s @ oracles._dx1d_onesided(n, h).T,
                           rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n", [2, 5, 12])
    def test_pressure_gradient_kernel_exact_at_any_spacing(self, n):
        # the rounded entries -3/(2h), 4/(2h), -1/(2h) leave up to 1e-14
        # on this constant at these spacings; the integer stencil leaves 0
        g = SpaceTimeGrid(n, n + 1, 2, Lx=0.7, Ly=1.3)
        assert np.abs(grad_pressure(np.full((g.nt + 1, g.ny, g.nx), 2.5), g)).max() == 0.0

    def test_pressure_gradient_transpose_exact(self):
        g = SpaceTimeGrid(6, 11, 2)
        rng = np.random.default_rng(4)
        s = rng.standard_normal((g.ny, g.nx))
        v = rng.standard_normal((2, g.ny, g.nx))
        lhs = space_inner(grad_pressure(s, g), v, g)
        rhs = space_inner(s, grad_pressure_transpose(v, g), g)
        assert lhs == pytest.approx(rhs, rel=1e-13)


class TestQuadrature:
    @pytest.mark.parametrize("components", [(), (2,)], ids=["scalar", "vector"])
    @pytest.mark.parametrize("nt", [2, 3, 16])
    def test_st_inner_matches_the_per_level_sum(self, nt, components):
        # Sum_j w_j hx hy Sum a_j b_j level by level, summed exactly, against
        # the three dot products; nt = 2 has one interior level.  Positive
        # fields, so that no cancellation hides the comparison.
        g = SpaceTimeGrid(5, 4, nt, Lx=0.7, T_final=1.3)
        a, b = np.random.default_rng(nt).uniform(0.5, 1.5, (2, nt + 1, *components, g.ny, g.nx))
        for x, y in ((a, b), (a, a)):
            ref = math.fsum(w * g.hx * g.hy * math.fsum((xj * yj).ravel())
                            for w, xj, yj in zip(g.time_weights(), x, y))
            assert st_inner(x, y, g) == pytest.approx(ref, rel=1e-14, abs=0)

    def test_st_inner_makes_no_field_temporary(self):
        # the product a * b would be one field (230 kB here); the dot
        # products allocate less than one time level of it
        g = SpaceTimeGrid(24, 24, 24)
        a, b = np.random.default_rng(0).standard_normal((2, g.nt + 1, 2, g.ny, g.nx))
        st_inner(a, b, g)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            st_inner(a, b, g)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < a[0].nbytes

    @pytest.mark.parametrize("components", [(), (2,)], ids=["slice", "vector-slice"])
    def test_space_inner_matches_the_product_sum(self, components):
        # the dot against the product-then-sum it replaced; positive
        # fields, so that no cancellation hides the comparison
        g = SpaceTimeGrid(7, 5, 2, Lx=0.7)
        a, b = np.random.default_rng(len(components)).uniform(
            0.5, 1.5, (2, *components, g.ny, g.nx))
        for x, y in ((a, b), (a, a)):
            ref = g.hx * g.hy * float((x * y).sum())
            assert space_inner(x, y, g) == pytest.approx(ref, rel=1e-14, abs=0)

    def test_space_inner_makes_no_field_temporary(self):
        g = SpaceTimeGrid(32, 32, 2)
        a, b = np.random.default_rng(0).standard_normal((2, 2, g.ny, g.nx))
        space_inner(a, b, g)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            space_inner(a, b, g)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < a[0].nbytes

    def test_space_inner_rejects_inputs_of_different_sizes(self):
        # a dot does not broadcast: a vector slice against one of its
        # components is an error, not a pairing
        g = SpaceTimeGrid(4, 4, 2)
        v = np.ones((2, g.ny, g.nx))
        with pytest.raises(ValueError):
            space_inner(v, v[0], g)


class TestPoisson:
    def test_zero_rhs(self):
        g = SpaceTimeGrid(6, 6, 2)
        assert np.abs(poisson_solve(g, np.zeros((g.ny, g.nx)))).max() == 0.0

    def test_analytic_solution_second_order(self):
        errs = []
        for n in (8, 16, 32):
            g = SpaceTimeGrid(n, n, 2)
            X, Y = g.meshgrid()
            rhs = 2 * np.pi**2 * np.sin(np.pi * X) * np.sin(np.pi * Y)
            sol = poisson_solve(g, rhs)
            errs.append(np.abs(sol - np.sin(np.pi * X) * np.sin(np.pi * Y)).max())
        assert errs[0] / errs[1] >= 3.5 and errs[1] / errs[2] >= 3.5

    def test_discrete_residual_machine_precision(self):
        g = SpaceTimeGrid(13, 9, 2)
        rng = np.random.default_rng(5)
        rhs = rng.standard_normal((g.ny, g.nx))
        sol = poisson_solve(g, rhs)
        res = -laplace(sol, g) - rhs
        assert np.abs(res).max() <= 1e-10 * np.abs(rhs).max()

    def test_symmetric_rhs_symmetric_solution(self):
        g = SpaceTimeGrid(11, 7, 2)
        rng = np.random.default_rng(6)
        half = rng.standard_normal((g.ny, (g.nx + 1) // 2))
        rhs = np.concatenate([half, half[:, ::-1][:, g.nx % 2 :]], axis=1)
        sol = poisson_solve(g, rhs)
        assert np.abs(sol - sol[:, ::-1]).max() <= 1e-12 * np.abs(sol).max()

    def test_linearity(self):
        g = SpaceTimeGrid(6, 8, 2)
        rng = np.random.default_rng(7)
        r1 = rng.standard_normal((g.ny, g.nx))
        r2 = rng.standard_normal((g.ny, g.nx))
        lhs = poisson_solve(g, 2.0 * r1 - 3.0 * r2)
        rhs = 2.0 * poisson_solve(g, r1) - 3.0 * poisson_solve(g, r2)
        assert np.abs(lhs - rhs).max() <= 1e-10 * np.abs(rhs).max()


def pocketfft_dst(a):
    """Reference orthonormal DST-I over the two trailing axes."""
    from scipy.fft import dstn

    return dstn(a, type=1, norm="ortho", axes=(-2, -1))


class TestSineTransform:
    # both sides are O(sqrt(n)) roundoff; 1e-14 relative leaves a 10x margin
    # over the worst case measured for n <= 64
    TOL = 1e-14

    def assert_matches_dst(self, a):
        ref = pocketfft_dst(a)
        got = sine_transform(a)
        assert got.shape == a.shape
        assert np.abs(got - ref).max() <= self.TOL * np.abs(ref).max()

    def test_matches_pocketfft_for_every_size(self):
        rng = np.random.default_rng(21)
        for n in range(1, 65):
            self.assert_matches_dst(rng.standard_normal((2, n, n)))

    @pytest.mark.parametrize("batch", [(), (2,), (5, 2), (3, 1, 2)],
                             ids=["scalar", "vector", "spacetime", "nested"])
    @pytest.mark.parametrize("ny, nx", [(5, 9), (9, 5), (1, 4), (16, 15)])
    def test_rectangular_and_batched(self, batch, ny, nx):
        a = np.random.default_rng(22).standard_normal((*batch, ny, nx))
        self.assert_matches_dst(a)
        assert np.abs(sine_transform(sine_transform(a)) - a).max() <= self.TOL

    def test_non_contiguous_input(self):
        base = np.random.default_rng(23).standard_normal((4, 2, 14, 22))
        for a in (base[::2, :, ::2, 1::2], base.swapaxes(-1, -2), base[..., 3:, :-4]):
            assert not a.flags.c_contiguous
            self.assert_matches_dst(a)

    @pytest.mark.parametrize("n", [1, 2, 7, 16, 33, 64])
    def test_matrix_symmetric_involution_cached_read_only(self, n):
        S = _sine_matrix(n)
        assert S.shape == (n, n)
        assert np.array_equal(S, S.T)
        assert np.abs(S @ S - np.eye(n)).max() <= 1e-14
        assert not S.flags.writeable
        assert _sine_matrix(n) is S


class TestSpacetimeSolve:
    def test_zero_rhs(self):
        g = SpaceTimeGrid(4, 4, 4)
        v = spacetime_solve_weak(g, g.vector_zeros())
        assert np.abs(v).max() == 0.0

    def test_analytic_solution_second_order(self):
        errs = []
        for n in (8, 16, 32):
            g = SpaceTimeGrid(n, n, n)
            X, Y = g.meshgrid()
            t = g.ts()[:, None, None]
            mode = np.sin(np.pi * X) * np.sin(np.pi * Y) * np.cos(np.pi * t / g.T_final)
            rhs = ((np.pi / g.T_final) ** 2 + 2 * np.pi**2) * mode
            # -v_tt - lap v = rhs, tested with the trapezoid weights
            w = g.time_weights()[:, None, None]
            v = spacetime_solve_weak(g, g.hx * g.hy * np.stack([w * rhs, 0 * rhs], axis=1))
            errs.append(np.abs(v[:, 0] - mode).max())
        assert errs[0] / errs[1] >= 3.3 and errs[1] / errs[2] >= 3.3

    def test_time_constant_rhs_reduces_to_poisson(self):
        g = SpaceTimeGrid(7, 7, 5)
        rng = np.random.default_rng(8)
        r = rng.standard_normal((2, g.ny, g.nx))
        w = g.time_weights()[:, None, None, None]
        v = spacetime_solve_weak(g, g.hx * g.hy * w * r)
        slice_sol = poisson_solve(g, r)
        for k in range(g.nt + 1):
            assert np.abs(v[k] - slice_sol).max() <= 1e-10 * np.abs(slice_sol).max()

    def test_weak_form_residual(self):
        g = SpaceTimeGrid(5, 6, 4)
        rng = np.random.default_rng(9)
        bvec = rng.standard_normal((g.nt + 1, 2, g.ny, g.nx))
        v = spacetime_solve_weak(g, bvec)
        A1 = oracles._weak_operator(g)  # one velocity component, levels outermost
        for c in range(2):
            Av = A1 @ v[:, c].reshape(-1)
            b = bvec[:, c].reshape(-1)
            assert np.linalg.norm(Av - b) <= 1e-10 * np.linalg.norm(b)

    def test_linearity(self):
        g = SpaceTimeGrid(4, 5, 3)
        rng = np.random.default_rng(10)
        r1 = rng.standard_normal((g.nt + 1, 2, g.ny, g.nx))
        r2 = rng.standard_normal((g.nt + 1, 2, g.ny, g.nx))
        lhs = spacetime_solve_weak(g, 1.5 * r1 + 0.5 * r2)
        rhs = 1.5 * spacetime_solve_weak(g, r1) + 0.5 * spacetime_solve_weak(g, r2)
        assert np.abs(lhs - rhs).max() <= 1e-10 * np.abs(rhs).max()


CONSTRAINTS = ["none", "initial", "both"]


class TestTimeBasis:
    @pytest.mark.parametrize("fixed", CONSTRAINTS)
    @pytest.mark.parametrize("nt", [2, 3, 8, 16])
    def test_closed_form_matches_generalized_eigh(self, fixed, nt):
        import scipy.linalg as sla

        g = SpaceTimeGrid(4, 4, nt, T_final=0.7)
        tb = time_basis(g, fixed)
        sl = level_slice(g, fixed)
        K = oracles._time_ops(g)[0][sl, sl]
        W = np.diag(g.time_weights()[sl])
        lam_ref = sla.eigh(K, W, eigvals_only=True)
        assert np.abs(tb.lam - lam_ref).max() <= 1e-13 * lam_ref.max()
        Z = tb.Z
        assert np.abs(Z.T @ W @ Z - np.eye(len(lam_ref))).max() <= 1e-13
        KZ = K @ Z
        assert np.abs(KZ - W @ Z * tb.lam).max() <= 1e-13 * np.abs(KZ).max()
        assert not Z.flags.writeable and not tb.lam.flags.writeable

    @pytest.mark.parametrize("fixed", CONSTRAINTS)
    @pytest.mark.parametrize("components", [(2,), ()], ids=["vector", "scalar"])
    def test_transforms_match_einsum(self, fixed, components):
        g = SpaceTimeGrid(5, 4, 6, T_final=1.3)
        tb = time_basis(g, fixed)
        m = len(tb.lam)
        a = np.random.default_rng(16).standard_normal((m, *components, g.ny, g.nx))
        for got, ref in (
            (tb.to_modes(a, np.empty_like(a)), np.einsum("km,k...->m...", tb.Z, a)),
            (tb.from_modes(a, np.empty_like(a)), np.einsum("km,m...->k...", tb.Z, a)),
        ):
            assert got.shape == a.shape
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_cached_denominators_match_per_mode_stack(self):
        from lsqctrl.discretization import a0, elliptic

        g = SpaceTimeGrid(5, 4, 6, Lx=1.3, T_final=0.7)
        area = g.hx * g.hy
        # the per-mode rules as written before the denominators were cached
        cases = [
            (elliptic._weak_denominator, ["none"], lambda lm, lamx: area * (lm + lamx)),
            (a0._exact_denominator, ["initial", "both"],
             lambda lm, lamx: area * (1.0 + lamx + lm / lamx)),
        ]
        lamx = sine_eigenvalues(g)
        for rule, constraints, old in cases:
            for fixed in constraints:
                ref = np.stack([old(lm, lamx) for lm in time_basis(g, fixed).lam])
                got = mode_denominators(g, fixed, rule)
                assert np.array_equal(got, ref)
                assert not got.flags.writeable
                assert mode_denominators(g, fixed, rule) is got


class TestA0Metric:
    def test_zero_directions(self):
        g = SpaceTimeGrid(4, 4, 4)
        z = Triplet.zeros(g)
        assert oracles.inner_a0(z, z) == 0.0

    def test_velocity_free_triplet_reduces_to_plain_quadrature(self):
        g = SpaceTimeGrid(4, 4, 4)
        rng = np.random.default_rng(12)
        u = Triplet.zeros(g)
        u.pi = rng.standard_normal(u.pi.shape)
        u.f = rng.standard_normal(u.f.shape)
        expected = st_inner(u.f, u.f, g) + st_inner(u.pi, u.pi, g)
        assert oracles.inner_a0(u, u) == pytest.approx(expected, rel=1e-13)

    def test_dense_gram_agreement(self):
        g = SpaceTimeGrid(4, 4, 4)
        M = oracles.dense_a0_gram(g)
        rng = np.random.default_rng(13)
        for _ in range(5):
            u1 = Triplet.zeros(g)
            u2 = Triplet.zeros(g)
            u1.y = rng.standard_normal(u1.y.shape)
            u2.y = rng.standard_normal(u2.y.shape)
            val = oracles.inner_a0(u1, u2)
            ref = sum(
                u1.y[:, c].reshape(-1) @ M @ u2.y[:, c].reshape(-1) for c in range(2)
            )
            assert val == pytest.approx(ref, rel=1e-10)

    def test_positive_definite_on_random_directions(self):
        g = SpaceTimeGrid(4, 4, 4)
        rng = np.random.default_rng(14)
        for _ in range(10):
            u = Triplet.zeros(g)
            u.y = rng.standard_normal(u.y.shape)
            u.pi = remove_slice_means(rng.standard_normal(u.pi.shape))
            u.f = rng.standard_normal(u.f.shape)
            assert oracles.inner_a0(u, u) > 0.0

    @pytest.mark.parametrize("fixed", ["both", "initial"])
    def test_velocity_riesz_solves_dense_system(self, fixed):
        g = SpaceTimeGrid(4, 4, 4)
        M = oracles.dense_a0_gram(g)
        sl = level_slice(g, fixed)
        N = g.n_space
        idx = np.concatenate(
            [np.arange(k * N, (k + 1) * N) for k in range(*sl.indices(g.nt + 1))]
        )
        Msub = M[np.ix_(idx, idx)]
        rng = np.random.default_rng(15)
        m = len(range(*sl.indices(g.nt + 1)))
        rvec = rng.standard_normal((m, 2, g.ny, g.nx))
        ybar = a0_velocity_riesz(g, rvec, fixed)
        for c in range(2):
            ref = np.linalg.solve(Msub, rvec[:, c].reshape(-1))
            assert np.abs(ybar[:, c].reshape(-1) - ref).max() <= 1e-10 * max(
                1.0, np.abs(ref).max()
            )

    def test_different_grids_rejected(self):
        u1 = Triplet.zeros(SpaceTimeGrid(4, 4, 4))
        u2 = Triplet.zeros(SpaceTimeGrid(5, 4, 4))
        with pytest.raises(ValueError):
            oracles.inner_a0(u1, u2)
