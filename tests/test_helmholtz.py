import numpy as np
import pytest

from anelastic_lab import helmholtz
from anelastic_lab.grids import Grid, lp_norm
from anelastic_lab.helmholtz import (
    CartesianWeightedLaplacian,
    RadialWeightedLaplacian,
    SolverError,
    StaggeredVector,
    project,
    project_radial_faces,
    centers_to_faces,
    solve_weighted_poisson,
)
from anelastic_lab.hydrostatics import PotentialSpec, build_profile


def zero_field(n: int) -> StaggeredVector:
    """The zero face field of the n**3 cartesian grid (MAC layout)."""
    return StaggeredVector(
        np.zeros((n + 1, n, n)), np.zeros((n, n + 1, n)), np.zeros((n, n, n + 1))
    )


def stream_function_field(lap: CartesianWeightedLaplacian, rng) -> StaggeredVector:
    """Face field with div(rho0 v) = 0 exactly (discrete curl over rho0).

    With psi on the (x, y) corner lattice, rho0 fx = d_y psi and
    rho0 fy = -d_x psi make the mixed differences cancel identically.
    """
    n = lap.grid.n
    x = np.linspace(-1.0, 1.0, n + 1)
    xx, yy = np.meshgrid(x, x, indexing="ij")
    psi_corner = np.exp(-4.0 * (xx**2 + yy**2)) + 0.1 * rng.standard_normal((n + 1, n + 1))
    psi = np.repeat(psi_corner[:, :, None], n, axis=2)
    v = zero_field(n)
    v.fx[:, :, :] = np.diff(psi, axis=1) / lap.h / lap.rho_faces[0]
    v.fy[:, :, :] = -np.diff(psi, axis=0) / lap.h / lap.rho_faces[1]
    return v


def dense(lap: RadialWeightedLaplacian) -> np.ndarray:
    """div(rho0 grad .) as an (n, n) matrix from the conductances; the dense reference."""
    n = lap.grid.n
    mat = np.zeros((n, n))
    c, w = lap.cond, lap.weights
    idx = np.arange(n)
    mat[idx, idx] = -(c[:-1] + c[1:]) / w
    mat[idx[:-1], idx[:-1] + 1] = c[1:-1] / w[:-1]
    mat[idx[1:], idx[1:] - 1] = c[1:-1] / w[1:]
    return mat


class TestWeightedPoisson:
    def test_zero_rhs(self, cart_profile, cart_grid):
        op = CartesianWeightedLaplacian(cart_grid, cart_profile.rho0)
        phi = solve_weighted_poisson(op, np.zeros(cart_grid.field_shape))
        assert np.all(phi == 0.0)

    def test_manufactured_constant_coefficient(self, flat_profile, radial_grid):
        mat = dense(RadialWeightedLaplacian(radial_grid, flat_profile.face_rho0))
        phi_star = np.exp(-radial_grid.centers**2)
        phi = np.linalg.solve(mat, mat @ phi_star)
        assert lp_norm(phi - phi_star, 2.0, radial_grid) < 1.0e-6

    def test_manufactured_variable_coefficient(self, radial_profile, radial_grid):
        mat = dense(RadialWeightedLaplacian(radial_grid, radial_profile.face_rho0))
        phi_star = np.exp(-radial_grid.centers**2)
        phi = np.linalg.solve(mat, mat @ phi_star)
        assert lp_norm(phi - phi_star, 2.0, radial_grid) < 1.0e-6

    def test_operator_consistency_second_order(self, params):
        # analytic rhs: the solve error is the discretization error, order 2
        errors = []
        for n in (128, 256):
            g = Grid("radial", n, 16.0, 12.0)
            prof = build_profile(PotentialSpec(c_f=0.0), params, g)
            r = g.centers
            rhs = (4.0 * r * r - 6.0) * np.exp(-(r**2))
            phi = np.linalg.solve(dense(RadialWeightedLaplacian(g, prof.face_rho0)), rhs)
            errors.append(lp_norm(phi - np.exp(-(r**2)), 2.0, g))
        assert 3.0 < errors[0] / errors[1] < 5.0

    def test_nonconvergence_raises(self, cart_profile, cart_grid, rng, monkeypatch):
        # Jacobi-CG on the cartesian grid needs far more than 3 iterations
        monkeypatch.setattr(helmholtz, "MAX_ITERATIONS", 3)
        op = CartesianWeightedLaplacian(cart_grid, cart_profile.rho0)
        with pytest.raises(SolverError) as err:
            solve_weighted_poisson(op, rng.standard_normal(cart_grid.field_shape))
        assert err.value.residual > 0.0
        assert err.value.iterations == 3

    def test_zero_iterations_raises(self, cart_profile, cart_grid, rng, monkeypatch):
        monkeypatch.setattr(helmholtz, "MAX_ITERATIONS", 0)
        op = CartesianWeightedLaplacian(cart_grid, cart_profile.rho0)
        with pytest.raises(SolverError) as err:
            solve_weighted_poisson(op, rng.standard_normal(cart_grid.field_shape))
        assert err.value.residual == 1.0
        assert err.value.iterations == 0

    def test_nan_residual_is_not_converged(self, radial_profile, radial_grid):
        v = np.zeros(radial_grid.n)
        v[radial_grid.n // 2] = np.nan
        with pytest.raises(SolverError):
            project(v, radial_profile)
        with pytest.raises(SolverError), np.errstate(over="ignore"):
            project(np.full(radial_grid.n, 1.0e308), radial_profile)


class TestRadialClosedForm:
    @pytest.mark.parametrize("n", [64, 512])
    def test_matches_dense_weighted_solve(self, n, params, rng):
        # the inward sum is the weighted Poisson potential, whatever rho0 is
        grid = Grid("radial", n, 16.0, 12.0)
        prof = build_profile(PotentialSpec(), params, grid)
        assert np.ptp(prof.face_rho0) > 0.5  # a non-flat coefficient
        v_faces = centers_to_faces(rng.standard_normal(n), grid)
        rhs = np.diff(grid.face_areas * prof.face_rho0 * v_faces) / grid.weights
        expect = np.linalg.solve(dense(RadialWeightedLaplacian(grid, prof.face_rho0)), rhs)
        _, phi = project_radial_faces(v_faces, prof)
        assert np.linalg.norm(phi - expect) <= 1.0e-12 * np.linalg.norm(expect)


class TestRadialProjection:
    def test_gradient_data_annihilated(self, radial_profile, radial_grid):
        psi = np.exp(-radial_grid.centers**2)
        v = np.gradient(psi, radial_grid.h)
        h_part, phi = project(v, radial_profile)
        assert lp_norm(h_part, 2.0, radial_grid) < 1.0e-8 * max(lp_norm(v, 2.0, radial_grid), 1.0)

    def test_any_field_annihilated(self, radial_profile, radial_grid, rng):
        # the radial geometry admits no nontrivial weighted-solenoidal field
        v = rng.standard_normal(radial_grid.n)
        h_part, _ = project(v, radial_profile)
        assert lp_norm(h_part, 2.0, radial_grid) < 1.0e-8 * lp_norm(v, 2.0, radial_grid)

    def test_divergence_reduction(self, radial_profile, radial_grid, rng):
        v_faces = centers_to_faces(rng.standard_normal(radial_grid.n), radial_grid)
        h_faces, _ = project_radial_faces(v_faces, radial_profile)
        flux = radial_grid.face_areas * radial_profile.face_rho0
        div_before = np.diff(flux * v_faces) / radial_grid.weights
        div_after = np.diff(flux * h_faces) / radial_grid.weights
        assert np.linalg.norm(div_after) < 1.0e-8 * np.linalg.norm(div_before)


class TestCartesianProjection:
    def helpers(self, cart_grid, cart_profile):
        return CartesianWeightedLaplacian(cart_grid, cart_profile.rho0)

    def random_field(self, n, rng):
        return StaggeredVector(
            rng.standard_normal((n + 1, n, n)),
            rng.standard_normal((n, n + 1, n)),
            rng.standard_normal((n, n, n + 1)),
        )

    def test_idempotence_and_orthogonality(self, cart_grid, cart_profile, rng):
        lap = self.helpers(cart_grid, cart_profile)
        v = self.random_field(cart_grid.n, rng)
        h1, _ = project(v, cart_profile)
        h2, _ = project(h1, cart_profile)
        assert h2.axpy(-1.0, h1).max_abs() < 1.0e-8 * max(h1.max_abs(), 1.0e-30)
        for _ in range(5):
            psi = rng.standard_normal(cart_grid.field_shape)
            gpsi = lap.gradient(psi)
            num = abs(lap.face_inner(lap.rho_times(h1), gpsi))
            den = np.sqrt(
                lap.face_inner(lap.rho_times(h1), lap.rho_times(h1))
                * lap.face_inner(gpsi, gpsi)
            )
            assert num < 1.0e-8 * den

    def test_solenoidal_fixed_point(self, cart_grid, cart_profile, rng):
        lap = self.helpers(cart_grid, cart_profile)
        v = stream_function_field(lap, rng)
        div = lap.divergence(lap.rho_times(v))
        assert np.max(np.abs(div)) < 1.0e-12 * max(v.max_abs(), 1.0)
        h_part, _ = project(v, cart_profile)
        assert h_part.axpy(-1.0, v).max_abs() < 1.0e-8 * v.max_abs()

    def test_linearity(self, cart_grid, cart_profile, rng):
        v = self.random_field(cart_grid.n, rng)
        w = self.random_field(cart_grid.n, rng)
        a, b = 1.7, -0.4
        zero = zero_field(cart_grid.n)
        combo, _ = project(zero.axpy(a, v).axpy(b, w), cart_profile)
        hv, _ = project(v, cart_profile)
        hw, _ = project(w, cart_profile)
        expect = zero.axpy(a, hv).axpy(b, hw)
        assert combo.axpy(-1.0, expect).max_abs() < 1.0e-7 * max(combo.max_abs(), 1.0)

    def test_constant_coefficient_profile(self, cart_grid, params, rng):
        from anelastic_lab.hydrostatics import constant_profile

        prof = constant_profile(params, cart_grid)
        v = self.random_field(cart_grid.n, rng)
        h1, _ = project(v, prof)
        h2, _ = project(h1, prof)
        assert h2.axpy(-1.0, h1).max_abs() < 1.0e-8 * max(h1.max_abs(), 1.0e-30)
