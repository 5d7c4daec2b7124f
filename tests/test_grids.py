import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anelastic_lab.grids import (
    DomainError,
    EssResCutoff,
    FieldAlignmentError,
    Grid,
    along,
    harmonic_faces,
    integrate,
    lp_norm,
    mean_cells,
    mean_faces,
    radial_divergence,
    radial_gradient,
    smoothstep,
    upwind_faces,
)


def midpoint_oracle(func, r_max, n):
    """Independent 3D radial quadrature at its own resolution."""
    h = r_max / n
    r = (np.arange(n) + 0.5) * h
    return float(np.sum(func(r) * 4.0 * np.pi * r * r * h))


class TestIntegrate:
    def test_ball_volume(self):
        g = Grid("radial", 256, 1.0, 0.75)
        vol = integrate(np.ones(g.n), g)
        assert abs(vol - 4.0 * np.pi / 3.0) < 4.0 * np.pi / 3.0 * g.h**2

    def test_zero_field(self, radial_grid):
        assert integrate(np.zeros(radial_grid.n), radial_grid) == 0.0

    def test_gaussian_against_refined_oracle(self):
        g = Grid("radial", 512, 8.0, 6.0)
        val = integrate(np.exp(-g.centers**2), g)
        ref = midpoint_oracle(lambda r: np.exp(-(r**2)), 8.0, 5120)
        assert abs(val - ref) / ref < 1.0e-4

    def test_alignment_error(self, radial_grid):
        with pytest.raises(FieldAlignmentError):
            integrate(np.ones(radial_grid.n + 3), radial_grid)

    def test_second_order_refinement(self):
        # quadrature error of a smooth field shrinks at order >= 1.9
        errors = []
        ref = midpoint_oracle(lambda r: np.cos(r) ** 2, 4.0, 40960)
        for n in (64, 128, 256):
            g = Grid("radial", n, 4.0, 3.0)
            errors.append(abs(integrate(np.cos(g.centers) ** 2, g) - ref))
        r1 = np.log2(errors[0] / errors[1])
        r2 = np.log2(errors[1] / errors[2])
        assert r1 >= 1.9 and r2 >= 1.9

    @settings(max_examples=25, deadline=None)
    @given(
        a=st.floats(-5, 5),
        b=st.floats(-5, 5),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_linearity(self, a, b, seed):
        g = Grid("radial", 32, 2.0, 1.5)
        rng = np.random.default_rng(seed)
        f = rng.standard_normal(g.n)
        h = rng.standard_normal(g.n)
        lhs = integrate(a * f + b * h, g)
        rhs = a * integrate(f, g) + b * integrate(h, g)
        assert abs(lhs - rhs) <= 1.0e-10 * (1.0 + abs(lhs) + abs(rhs))


class TestLpNorm:
    def test_constant_field(self, radial_grid):
        c = 3.0
        for p in (1.0, 2.0, 3.5):
            expected = c * radial_grid.weights.sum() ** (1.0 / p)
            assert abs(lp_norm(np.full(radial_grid.n, c), p, radial_grid) - expected) < 1.0e-10 * expected

    def test_max_norm_spike(self, radial_grid):
        f = np.zeros(radial_grid.n)
        f[17] = 5.0
        assert lp_norm(f, np.inf, radial_grid) == 5.0

    def test_gaussian_l2_against_oracle(self):
        g = Grid("radial", 512, 8.0, 6.0)
        val = lp_norm(np.exp(-g.centers**2), 2.0, g)
        ref = np.sqrt(midpoint_oracle(lambda r: np.exp(-2.0 * r**2), 8.0, 5120))
        assert abs(val - ref) / ref < 1.0e-4

    def test_p_below_one_rejected(self, radial_grid):
        with pytest.raises(DomainError):
            lp_norm(np.ones(radial_grid.n), 0.5, radial_grid)


class TestStackedFields:
    """A leading sample axis gives bit for bit the row-by-row values."""

    @pytest.mark.parametrize("m, n", [(3, 64), (17, 512), (206, 96)])
    def test_radial_helpers_match_rows(self, m, n):
        g = Grid("radial", n, 16.0, 12.0)
        rng = np.random.default_rng(m * n)
        f = rng.standard_normal((m, n)) * np.exp(4.0 * rng.standard_normal((m, n)))
        rows = list(f)
        assert np.array_equal(integrate(f, g), [integrate(r, g) for r in rows])
        for p in (1.0, 2.0, 5.0 / 3.0, np.inf):
            assert np.array_equal(lp_norm(f, p, g), [lp_norm(r, p, g) for r in rows])
        for parity in ("even", "odd"):
            stacked = radial_gradient(f, g, parity=parity)
            assert np.array_equal(stacked, [radial_gradient(r, g, parity=parity) for r in rows])
        assert np.array_equal(radial_divergence(f, g), [radial_divergence(r, g) for r in rows])

    def test_cartesian_integrate_and_norm_match_rows(self, cart_grid, rng):
        f = rng.standard_normal((4,) + cart_grid.field_shape)
        assert np.array_equal(integrate(f, cart_grid), [integrate(r, cart_grid) for r in f])
        assert np.array_equal(lp_norm(f, 2.0, cart_grid), [lp_norm(r, 2.0, cart_grid) for r in f])

    def test_misaligned_trailing_axis_rejected(self, radial_grid):
        bad = np.ones((5, radial_grid.n + 1))
        for call in (
            lambda: integrate(bad, radial_grid),
            lambda: lp_norm(bad, 2.0, radial_grid),
            lambda: radial_gradient(bad, radial_grid),
            lambda: radial_divergence(bad, radial_grid),
        ):
            with pytest.raises(FieldAlignmentError):
                call()
        with pytest.raises(FieldAlignmentError):
            integrate(np.ones((radial_grid.n, 5)), radial_grid)


class TestEssResSplit:
    def cutoff(self):
        return EssResCutoff(y_lo=0.5, y_hi=3.0, width=0.05)

    def test_chi_plateau_and_support(self):
        cut = self.cutoff()
        y = np.array([0.44, 0.45, 0.5, 1.0, 3.0, 3.05, 3.06])
        chi = cut.chi(y)
        assert chi[0] == 0.0 and chi[1] == 0.0
        assert chi[2] == 1.0 and chi[3] == 1.0 and chi[4] == 1.0
        assert chi[6] == 0.0
        assert np.all((chi >= 0.0) & (chi <= 1.0))

    def test_essential_regime(self):
        chi = self.cutoff().chi(np.linspace(0.5, 3.0, 50))
        assert np.all(chi == 1.0)

    def test_residual_regime(self):
        y = np.concatenate([np.linspace(0.0, 0.45, 25), np.linspace(3.05, 9.0, 25)])
        chi = self.cutoff().chi(y)
        assert np.all(chi == 0.0)

    @staticmethod
    def two_shoulder_chi(cut, y):
        """Reference: both smoothsteps everywhere, their minimum off the plateau."""
        up = smoothstep((y - (cut.y_lo - cut.width)) / cut.width)
        down = smoothstep(((cut.y_hi + cut.width) - y) / cut.width)
        return np.where((y >= cut.y_lo) & (y <= cut.y_hi), 1.0, np.minimum(up, down))

    @pytest.mark.parametrize(
        "cut", [EssResCutoff(0.5, 3.0, 0.05), EssResCutoff(0.3123, 2.71, 0.0291)]
    )
    def test_one_shoulder_matches_two_shoulder_formula(self, cut):
        dense = np.linspace(0.0, 5.0, 200_001)
        assert np.array_equal(cut.chi(dense), self.two_shoulder_chi(cut, dense))
        steps = np.arange(-2000, 2001)
        for corner in (cut.y_lo - cut.width, cut.y_lo, cut.y_hi, cut.y_hi + cut.width):
            # every float within 2,000 ulps of the breakpoint
            y = (np.float64(corner).view(np.int64) + steps).view(np.float64)
            chi = cut.chi(y)
            assert np.array_equal(chi, self.two_shoulder_chi(cut, y))
            assert np.all((chi >= 0.0) & (chi <= 1.0))

    def test_from_profile_thresholds(self, radial_profile):
        cut = radial_profile.cutoff
        assert cut.y_lo == 0.5 * radial_profile.rho_min
        assert cut.y_hi == 2.0 * radial_profile.rho_max


class TestGridBasics:
    def test_radial_cell_width(self):
        g = Grid("radial", 128, 16.0, 12.0)
        assert g.h == 16.0 / 128

    def test_weights_positive(self, radial_grid, cart_grid):
        assert np.all(radial_grid.weights > 0.0)
        assert np.all(cart_grid.weights > 0.0)

    def test_smoothstep_clamps(self):
        assert smoothstep(-1.0) == 0.0
        assert smoothstep(2.0) == 1.0
        assert 0.0 < smoothstep(0.5) < 1.0


class TestRadialOperators:
    def test_gradient_of_even_quadratic(self):
        g = Grid("radial", 256, 4.0, 3.0)
        f = g.centers**2
        df = radial_gradient(f, g, parity="even")
        assert np.max(np.abs(df[:-1] - 2.0 * g.centers[:-1])) < 1.0e-10

    def test_divergence_of_linear_field(self):
        g = Grid("radial", 256, 4.0, 3.0)
        v = g.centers.copy()
        d = radial_divergence(v, g)
        assert np.max(np.abs(d[:-1] - 3.0)) < 1.0e-9


def pairs(f):
    return zip(f[:-1], f[1:])


# each face transfer's definition on one line of cells f (faces v), element by element
FACE_KERNELS = {
    "harmonic_faces": (
        harmonic_faces,
        ("cells",),
        lambda f: [f[0], *(2.0 * a * b / (a + b) for a, b in pairs(f)), f[-1]],
    ),
    "mean_faces": (
        mean_faces,
        ("cells",),
        lambda f: [f[0], *(0.5 * (a + b) for a, b in pairs(f)), f[-1]],
    ),
    "upwind_faces": (
        upwind_faces,
        ("cells", "faces"),
        lambda f, v: [f[0], *(a if s > 0.0 else b for (a, b), s in zip(pairs(f), v[1:-1])), f[-1]],
    ),
    "mean_cells": (mean_cells, ("faces",), lambda v: [0.5 * (a + b) for a, b in pairs(v)]),
}


def line_by_line(one_d, axis, *fields):
    """Apply a 1-D definition to every line of the fields along axis."""
    lines = [np.moveaxis(f, axis, -1) for f in fields]
    lead = lines[0].shape[:-1]
    out = np.array([one_d(*(line[idx] for line in lines)) for idx in np.ndindex(lead)])
    return np.moveaxis(out.reshape(*lead, -1), -1, axis)


def kernel_fields(axis, rng):
    """A positive cell field of distinct extents and a signed face field along axis."""
    shape = [5, 6, 7]
    cells = rng.uniform(0.5, 2.0, shape)
    shape[axis] += 1
    faces = rng.standard_normal(shape)
    faces[faces < -1.0] = 0.0  # zero velocity takes the upper cell
    return {"cells": cells, "faces": faces}


class TestFaceKernels:
    @pytest.mark.parametrize("axis", [0, 1, 2, -1, -2])
    @pytest.mark.parametrize("name", sorted(FACE_KERNELS))
    def test_kernel_is_its_1d_definition_along_each_axis(self, name, axis, rng):
        kernel, takes, one_d = FACE_KERNELS[name]
        fields = [kernel_fields(axis, rng)[kind] for kind in takes]
        got = kernel(*fields, axis)
        assert np.array_equal(got, line_by_line(one_d, axis, *fields))

    @pytest.mark.parametrize("axis", [0, 1, 2, -1, -2])
    def test_mean_faces_is_the_whole_array_mean(self, axis, rng):
        # its one temporary, scaled in place, keeps every bit of 0.5 * (f[lower] + f[upper])
        f = rng.standard_normal((16, 3, 65)) * np.exp(4.0 * rng.standard_normal((16, 3, 65)))
        lower, upper, inner, first, last = along(axis, f.ndim)
        got = mean_faces(f, axis)
        assert np.array_equal(got[inner], 0.5 * (f[lower] + f[upper]))
        assert np.array_equal(got[first], f[first]) and np.array_equal(got[last], f[last])

    @pytest.mark.parametrize("axis", [0, 1, 2, -1])
    def test_upwind_takes_the_cell_the_face_velocity_comes_from(self, axis, rng):
        cells = kernel_fields(axis, rng)["cells"]
        vel = np.ones(mean_faces(cells, axis).shape)
        lines = np.moveaxis(cells, axis, -1)
        forward = np.moveaxis(upwind_faces(cells, vel, axis), axis, -1)
        backward = np.moveaxis(upwind_faces(cells, -vel, axis), axis, -1)
        assert np.array_equal(forward[..., 1:-1], lines[..., :-1])
        assert np.array_equal(backward[..., 1:-1], lines[..., 1:])
