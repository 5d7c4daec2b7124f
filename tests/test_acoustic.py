import ctypes
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anelastic_lab import acoustic, cli, configio
from anelastic_lab import lapack
from anelastic_lab.acoustic import (
    _BLOCK_CELLS,
    _bands,
    _count_at_most,
    _eigen,
    AcousticState,
    FrequencyWindow,
    admissible_pair,
    assemble_operator,
    crossing_time,
    dispersive_smallness,
    functional_calculus,
    measure_local_decay,
    measure_strichartz,
    regularize_data,
    spatial_cutoff,
    operator_spectrum,
    spectral_solution,
    _windowed_modes,
)
from anelastic_lab.grids import DomainError, Grid, lp_norm
from anelastic_lab.helmholtz import RadialWeightedLaplacian
from anelastic_lab.hydrostatics import PotentialSpec, build_profile, constant_profile
from anelastic_lab.primitive import GaussianBump
from test_helmholtz import dense

PPP = configio.DEFAULTS["acoustic.points_per_period"]


def default_strichartz_case(n):
    """The strichartz command's operator, window, unit datum and T* at grid.n = n."""
    prof, win, op, h = cli._acoustic_setup(configio.load_config(None, [f"grid.n={n}"]))
    return op, win, h, crossing_time(prof)


def wave_modulus(c, vecs):
    """|c @ vecs.T|, the windowed wave's modulus, from the real products measure_strichartz
    takes: within 4e-16 of the complex product's modulus, relative to its row's largest cell."""
    wave = np.hypot(c.real @ vecs.T, c.imag @ vecs.T)
    gap = np.abs(wave - np.abs(c @ vecs.T)).max(axis=-1)
    assert np.all(gap <= 4.0e-16 * wave.max(axis=-1)), (gap / wave.max(axis=-1)).max()
    return wave


@pytest.fixture(scope="module")
def flat_operator(params):
    grid = Grid("radial", 512, 10.0, 7.5)
    return assemble_operator(constant_profile(params, grid))


class TestOperator:
    def test_constant_coefficient_eigenvalues(self, flat_operator, params):
        R = flat_operator.grid.r_max
        for n_mode in range(1, 6):
            exact = params.gamma * (n_mode * np.pi / R) ** 2
            rel = abs(flat_operator.evals[n_mode - 1] - exact) / exact
            assert rel < 5.0e-3

    def test_self_adjointness(self, operator, rng):
        u = rng.standard_normal(operator.grid.n)
        v = rng.standard_normal(operator.grid.n)
        defect = abs(operator.inner(operator.apply(u), v) - operator.inner(u, operator.apply(v)))
        assert defect <= 1.0e-10 * operator.norm(u) * operator.norm(v)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_positive_definite(self, operator, seed):
        u = np.random.default_rng(seed).standard_normal(operator.grid.n)
        if np.all(u == 0.0):
            return
        assert operator.inner(u, u) > 0.0

    def test_nonnegative_spectrum(self, operator):
        assert operator.evals[0] >= -1.0e-8 * operator.evals[-1]
        assert operator.evals[0] > 0.0  # Dirichlet wall keeps a gap

    def test_rayleigh_quotient_nonnegative(self, operator):
        v = np.ones(operator.grid.n)
        v[-operator.grid.n // 8 :] = 0.0
        assert operator.inner(operator.apply(v), v) >= 0.0

    def test_eigenvector_orthonormality(self, operator):
        gram = operator.evecs.T @ (operator.masses[:, None] * operator.evecs)
        assert np.max(np.abs(gram - np.eye(operator.grid.n))) < 1.0e-8


class TestFunctionalCalculus:
    def test_identity(self, operator, rng):
        h = rng.standard_normal(operator.grid.n)
        out = functional_calculus(operator, lambda z: np.ones_like(z), h)
        assert lp_norm(out - h, 2.0, operator.grid) < 1.0e-8 * lp_norm(h, 2.0, operator.grid)

    def test_zero(self, operator, rng):
        h = rng.standard_normal(operator.grid.n)
        assert np.max(np.abs(functional_calculus(operator, np.zeros_like, h))) == 0.0

    def test_single_mode_projection(self, operator, rng):
        h = rng.standard_normal(operator.grid.n)
        k = 3
        w3 = operator.omegas[k]
        gap = min(operator.omegas[k] - operator.omegas[k - 1], operator.omegas[k + 1] - w3)
        window = lambda z: 1.0 * (np.abs(z - w3) < 0.5 * gap)  # noqa: E731
        out = functional_calculus(operator, window, h)
        direct = operator.inner(h, operator.evecs[:, k]) * operator.evecs[:, k]
        assert np.max(np.abs(out - direct)) < 1.0e-10 * np.max(np.abs(direct))

    def test_window_shape(self):
        win = FrequencyWindow(0.25)
        assert win(np.array([0.25]))[0] == pytest.approx(1.0)
        assert win(np.array([4.0]))[0] == pytest.approx(1.0)
        assert win(np.array([0.124]))[0] == 0.0
        assert win(np.array([8.1]))[0] == 0.0
        assert win(np.array([-1.0]))[0] == win(np.array([1.0]))[0]

    def test_window_near_idempotence(self, operator, rng):
        # applying a 0/1-like window twice differs from once only on the
        # shoulders, bounded by max |G - G^2| = 1/4
        win = FrequencyWindow(0.25)
        h = rng.standard_normal(operator.grid.n)
        once = functional_calculus(operator, win, h)
        twice = functional_calculus(operator, win, once)
        defect = operator.norm(twice - once)
        assert defect <= 0.25 * operator.norm(h) + 1.0e-12


class TestRegularization:
    def test_plateau_fixed_point(self, operator):
        # delta small enough that the spatial cutoff is one on the whole
        # grid; data built from plateau modes must come back unchanged
        delta = 0.05
        assert 1.0 / delta >= operator.grid.r_max
        omegas = operator.omegas
        sel = (omegas > 0.1) & (omegas < 10.0)
        coeffs = np.zeros(operator.grid.n)
        coeffs[sel] = np.linspace(1.0, 0.1, int(np.count_nonzero(sel)))
        sigma = operator.reconstruct(coeffs)
        rho1 = operator.prof.rho0 / operator.prof.dp * sigma
        s0, _ = regularize_data(operator, rho1, np.zeros_like(rho1), delta)
        assert lp_norm(s0 - rho1, 2.0, operator.grid) < 1.0e-8 * lp_norm(rho1, 2.0, operator.grid)

    def test_delta_sequence_converges(self, operator):
        grid = operator.grid
        rho1 = GaussianBump(1.0, 1.2).field(grid)
        errors = []
        for delta in (0.5, 0.25, 0.125):
            s0, _ = regularize_data(operator, rho1, np.zeros_like(rho1), delta)
            errors.append(lp_norm(s0 - rho1, 2.0, grid))
        assert errors[0] > errors[1] > errors[2]

    def test_zero_data(self, operator):
        z = np.zeros(operator.grid.n)
        s0, phi0 = regularize_data(operator, z, z, 0.25)
        assert np.max(np.abs(s0)) == 0.0 and np.max(np.abs(phi0)) == 0.0

    def test_spatial_cutoff_shape(self, operator):
        psi = spatial_cutoff(0.25, operator.grid)
        r = operator.grid.radii
        assert np.all(psi[r < 4.0] == 1.0)
        assert np.all(psi[r > 8.0] == 0.0)


class TestEvolution:
    def test_single_mode_period(self, operator):
        eps = 0.2
        k = 0
        lam = operator.evals[k]
        sigma0 = operator.evecs[:, k]
        s0 = operator.prof.inner_weight * sigma0
        sol = spectral_solution(operator, AcousticState(s=s0, phi=np.zeros_like(s0)), eps)
        period = 2.0 * np.pi * eps / np.sqrt(lam)
        probe = np.argmax(np.abs(s0))
        for cycles in (1, 3):
            v0 = sol.s(0.0)[probe]
            v1 = sol.s(cycles * period)[probe]
            assert abs(v1 - v0) < 1.0e-3 * abs(v0)
        # a quarter period away the coefficient passes through zero
        assert abs(sol.sigma_coeffs(0.25 * period)[k]) < 1.0e-10

    def test_zero_data(self, operator):
        z = np.zeros(operator.grid.n)
        sol = spectral_solution(operator, AcousticState(s=z, phi=z), 0.2)
        st = sol.state(np.linspace(0.0, 1.0, 5))
        assert st.s.shape == (5, operator.grid.n)
        assert np.max(np.abs(st.s)) == 0.0

    def test_energy_conservation_spectral(self, operator):
        grid = operator.grid
        init = AcousticState(
            s=GaussianBump(1.0, 1.0).field(grid), phi=0.3 * GaussianBump(1.0, 2.0).field(grid)
        )
        horizon = 10.0 * crossing_time(operator.prof)
        energies = spectral_solution(operator, init, 0.2).energy(np.linspace(0.0, horizon, 41))
        drift = np.max(np.abs(energies - energies[0]))
        assert drift <= 1.0e-6 * energies[0]

    def test_front_speed_constant_background(self, flat_operator, params):
        # d'Alembert oracle: peak of r * s moves at sqrt(gamma)
        grid = flat_operator.grid
        init = AcousticState(s=GaussianBump(1.0, 0.4).field(grid), phi=np.zeros(grid.n))
        sol = spectral_solution(flat_operator, init, 1.0)
        r = grid.centers

        def front(t):
            y = r * np.abs(sol.s(t))
            mask = r > 1.0
            idx = np.argmax(y[mask])
            return r[mask][idx]

        t1, t2 = 2.0, 6.0
        speed = (front(t2) - front(t1)) / (t2 - t1)
        target = np.sqrt(params.gamma)
        assert abs(speed - target) / target < 0.02

    def test_rescaling_exactness(self, operator, rng):
        init = AcousticState(
            s=rng.standard_normal(operator.grid.n), phi=rng.standard_normal(operator.grid.n)
        )
        sol_eps = spectral_solution(operator, init, 0.2)
        sol_one = spectral_solution(operator, init, 1.0)
        t = 0.7
        assert np.array_equal(sol_eps.phi(t), sol_one.phi(t / 0.2))
        assert np.array_equal(sol_eps.s(t), sol_one.s(t / 0.2))


class TestMeasurements:
    def window_and_datum(self, operator):
        win = FrequencyWindow(0.3)
        h = functional_calculus(operator, win, GaussianBump(1.0, 0.75).field(operator.grid))
        return win, h / operator.norm(h)

    def test_annihilated_data(self, operator):
        win = FrequencyWindow(0.3)
        high = lambda z: 1.0 * (z > 2.5 / 0.3)  # noqa: E731
        h = functional_calculus(operator, high, GaussianBump(1.0, 0.3).field(operator.grid))
        m = measure_local_decay(operator, win, 2.5, h, 5.0, PPP)
        assert m.value < 1.0e-10

    def test_saturation(self, operator):
        win, h = self.window_and_datum(operator)
        t_star = crossing_time(operator.prof)
        m1 = measure_local_decay(operator, win, 2.5, h, t_star, PPP)
        m2 = measure_local_decay(operator, win, 2.5, h, 2.0 * t_star, PPP)
        assert m2.value / m1.value <= 1.05

    def test_quadratic_homogeneity(self, operator):
        win, h = self.window_and_datum(operator)
        m1 = measure_local_decay(operator, win, 2.5, h, 3.0, PPP)
        m2 = measure_local_decay(operator, win, 2.5, 2.0 * h, 3.0, PPP)
        assert m2.value == pytest.approx(4.0 * m1.value, rel=1.0e-12)

    def test_admissibility(self):
        assert admissible_pair(4.0, 12.0)
        assert not admissible_pair(4.0, 10.0)

    def test_strichartz_rejects_inadmissible(self, operator):
        win, h = self.window_and_datum(operator)
        with pytest.raises(DomainError):
            measure_strichartz(operator, win, h, 4.0, 10.0, 1.0, PPP)

    def test_strichartz_zero_data(self, operator):
        win = FrequencyWindow(0.3)
        m = measure_strichartz(operator, win, np.zeros(operator.grid.n), 4.0, 12.0, 1.0, PPP)
        assert m.value == 0.0

    def test_constant_stability(self, operator):
        win = FrequencyWindow(0.3)
        t_star = crossing_time(operator.prof)
        ratios = []
        for width, center in ((0.6, 0.0), (1.2, 0.0), (0.9, 1.5)):
            h = functional_calculus(
                operator, win, GaussianBump(1.0, width, center).field(operator.grid)
            )
            h = h / operator.norm(h)
            ratios.append(measure_strichartz(operator, win, h, 4.0, 12.0, t_star, PPP).ratio)
        assert max(ratios) / min(ratios) <= 10.0

    def test_strichartz_p_inf_is_the_largest_lq_norm(self, operator):
        win, h = self.window_and_datum(operator)
        m = measure_strichartz(operator, win, h, np.inf, 6.0, crossing_time(operator.prof), PPP)
        assert m.value == m.series.max()

    def test_strichartz_q_inf_is_the_largest_cell_of_each_row(self, operator):
        win, h = self.window_and_datum(operator)
        t_star = crossing_time(operator.prof)
        m = measure_strichartz(operator, win, h, 2.0, np.inf, t_star, PPP)
        _, c, vecs = _windowed_modes(operator, win, h, t_star, PPP)
        assert np.array_equal(m.series, wave_modulus(c, vecs).max(axis=-1))

    @pytest.mark.parametrize("n", [32, 2048])
    def test_strichartz_blocks_keep_every_bit(self, n):
        op, win, h, t_star = default_strichartz_case(n)
        m = measure_strichartz(op, win, h, 4.0, 12.0, t_star, PPP)
        rows = _BLOCK_CELLS // n
        # n = 2048: 282 times in blocks of 8, the last one ragged; n = 32: one block
        assert (m.times.size % rows != 0) if n == 2048 else (m.times.size <= rows)
        _, c, vecs = _windowed_modes(op, win, h, t_star, PPP)
        ref = np.sum(wave_modulus(c, vecs) ** 12.0 * op.grid.weights, axis=-1) ** (1.0 / 12.0)
        assert np.array_equal(m.series, ref)

    def test_strichartz_working_set_does_not_grow_with_time(self):
        op, win, h, t_star = default_strichartz_case(2048)
        peaks = []
        for T in (t_star, 2.0 * t_star):
            tracemalloc.start()
            try:
                measure_strichartz(op, win, h, 4.0, 12.0, T, PPP)
                peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
            finally:
                tracemalloc.stop()
        # one (n_t, n) complex wave at n = 2048 is 8.8 MiB over [0, T*], 17.6 MiB over [0, 2T*]
        assert abs(peaks[1] - peaks[0]) < 0.5 and max(peaks) < 6.0, peaks

    def test_decay_working_set_does_not_grow_with_time(self):
        op, win, h, t_star = default_strichartz_case(2048)
        peaks = []
        for T in (t_star, 2.0 * t_star):
            tracemalloc.start()
            try:
                measure_local_decay(op, win, 2.0, h, T, PPP)
                peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
            finally:
                tracemalloc.stop()
        # one (n_t, n) complex wave at n = 2048 is 8.8 MiB over [0, T*], 17.6 MiB over [0, 2T*];
        # the decay keeps (n_t, k) coefficients, k = 30 modes
        assert abs(peaks[1] - peaks[0]) < 0.5 and max(peaks) < 2.0, peaks

    @pytest.mark.parametrize(
        "sets",
        [["grid.n=512"], ["grid.n=2048"], ["grid.n=128", "acoustic.delta=0.05"],
         ["acoustic.delta=0.7"]],
    )
    def test_window_modes_are_a_view_that_keeps_every_bit(self, sets, monkeypatch):
        # the series of the decay and strichartz commands, against the boolean-mask copy
        # of the modes; the coefficients are the same elements either way.  The window
        # keeps every computed mode but at delta = 0.7, where it drops the lowest one
        cfg = configio.load_config(None, sets)
        prof, win, op, h = cli._acoustic_setup(cfg)
        t_star = crossing_time(prof)
        assert np.shares_memory(_windowed_modes(op, win, h, t_star, PPP)[2], op.evecs)

        def series():
            decay = measure_local_decay(op, win, cfg["acoustic.ball_radius"], h, 2.0 * t_star, PPP)
            p, q = cfg["acoustic.p"], cfg["acoustic.q"]
            return decay.series, measure_strichartz(op, win, h, p, q, t_star, PPP).series

        viewed, real = series(), acoustic._windowed_modes

        def masked(op, window, *args):
            times, c, vecs = real(op, window, *args)
            copy = op.evecs[:, window(op.omegas) > 1.0e-13]
            assert np.array_equal(copy, vecs)
            return times, c, copy

        monkeypatch.setattr(acoustic, "_windowed_modes", masked)
        for view, mask in zip(viewed, series()):
            assert np.array_equal(view, mask)

    def test_dispersive_smallness_monotone(self, operator):
        win = FrequencyWindow(0.3)
        h = functional_calculus(operator, win, GaussianBump(1.0, 0.6).field(operator.grid))
        h = h / operator.norm(h)
        vals = [dispersive_smallness(operator, win, h, 1.5, 0.9, eps, PPP) for eps in (0.4, 0.2, 0.1)]
        assert vals[0] > vals[1] > vals[2]


def dense_oracle(prof):
    """A and the eigenpairs of the symmetrized B = S A S^-1, from the dense Laplacian."""
    grid = prof.grid
    lap = RadialWeightedLaplacian(grid, prof.face_rho0)
    a_mat = (prof.dp / prof.rho0)[:, None] * -dense(lap)
    s = np.sqrt(grid.weights * prof.inner_weight)
    b = (s[:, None] * a_mat) / s[None, :]
    evals, vecs = np.linalg.eigh(0.5 * (b + b.T))
    return a_mat, evals, vecs / s[:, None]


class TestWindowOperator:
    """The banded operator with the modes below lam_max, against dense oracles."""

    @pytest.fixture(scope="class", params=[(64, 16.0), (512, 64.0)], ids=["n64", "n512"])
    def case(self, request, params):
        n, lam_max = request.param
        prof = build_profile(PotentialSpec(), params, Grid("radial", n, 16.0, 12.0))
        return assemble_operator(prof, lam_max=lam_max), lam_max, dense_oracle(prof)

    def test_modes_match_dense_eigh(self, case):
        op, lam_max, (_, evals, evecs) = case
        k = op.evals.size
        assert 0 < k < op.grid.n  # a window, not the full basis
        assert k == np.count_nonzero(evals < lam_max)
        assert np.max(np.abs(op.evals - evals[:k])) <= 1.0e-12 * evals[-1]
        signs = np.sign(np.sum(op.evecs * evecs[:, :k] * op.masses[:, None], axis=0))
        assert np.max(np.abs(op.evecs * signs - evecs[:, :k])) <= 1.0e-11

    def test_weighted_orthonormality(self, case):
        op = case[0]
        gram = op.evecs.T @ (op.masses[:, None] * op.evecs)
        assert np.max(np.abs(gram - np.eye(op.evals.size))) <= 1.0e-12

    def test_apply_matches_dense(self, case, rng):
        op, _, (a_mat, _, _) = case
        h = rng.standard_normal(op.grid.n)
        ref = a_mat @ h
        assert np.max(np.abs(op.apply(h) - ref)) <= 1.0e-12 * np.max(np.abs(ref))

    def test_window_loses_nothing(self, case, rng):
        # G(sqrt(A)) vanishes above 2/delta, so the modes below lam_max carry it whole
        op, lam_max, _ = case
        full = assemble_operator(op.prof)
        window = FrequencyWindow(2.0 / np.sqrt(lam_max))
        assert window.lam_max == pytest.approx(lam_max)
        h = rng.standard_normal(op.grid.n)
        ref = functional_calculus(full, window, h)
        out = functional_calculus(op, window, h)
        assert op.norm(out - ref) <= 1.0e-10 * op.norm(ref)

    def test_spectrum_matches_dense(self, case):
        op, _, (_, evals, _) = case
        spectrum = operator_spectrum(op.prof)
        assert np.max(np.abs(spectrum - evals)) <= 1.0e-12 * evals[-1]


def dense_buffer_eigen(d, e, lam_max):
    """_eigen's dstevr call on the window (-|B|, lam_max] with an (n, n) eigenvector buffer."""
    n, int_, real = d.size, ctypes.c_int64, ctypes.c_double
    norm_b = np.max(np.abs(d)) + 2.0 * np.max(np.abs(e))
    z, w, m, info = np.empty((n, n), order="F"), np.empty(n), int_(), int_()
    lapack.DSTEVR(
        b"V", b"V", int_(n), d.copy(), np.append(e, 0.0), real(-norm_b), real(lam_max),
        int_(0), int_(0), real(0.0), m, w, z, int_(n), np.empty(2 * n, dtype=np.int64),
        np.empty(20 * n), int_(20 * n), np.empty(10 * n, dtype=np.int64), int_(10 * n), info, 1, 1,
    )
    assert info.value == 0
    return w[: m.value], z[:, : m.value]


def default_bands(n):
    return _bands(cli._profile_setup(configio.load_config(None, [f"grid.n={n}"]))[2])


class TestEigenBuffer:
    """_eigen sizes dstevr's eigenvector output by a Sturm count of the window's modes,
    never below the m dstevr returns, and keeps every bit of an (n, n) buffer's modes."""

    @staticmethod
    def assert_same_modes(d, e, lam_max):
        evals, vecs = _eigen(d, e, lam_max)
        ref_evals, ref_vecs = dense_buffer_eigen(d, e, lam_max)
        assert vecs.base.shape[1] >= evals.size  # dstevr wrote its m columns into the buffer
        assert np.array_equal(evals, ref_evals) and np.array_equal(vecs, ref_vecs)
        return evals.size

    @pytest.mark.parametrize("delta", [0.25, 0.1, 0.05])
    @pytest.mark.parametrize("n", [128, 512, 2048])
    def test_every_bit_of_a_dense_buffer(self, n, delta):
        d, e = default_bands(n)
        k = self.assert_same_modes(d, e, FrequencyWindow(delta).lam_max)
        if (n, delta) == (128, 0.05):
            assert k == n  # every mode lies in the window

    @pytest.mark.parametrize("n, delta", [(512, 0.25), (2048, 0.1)])
    def test_lam_max_on_an_eigenvalue(self, n, delta):
        d, e = default_bands(n)
        top = dense_buffer_eigen(d, e, FrequencyWindow(delta).lam_max)[0][-1]
        # dstevr's m and dlarrc's count differ within a few ulps of an eigenvalue: at
        # n = 512, dstevr counts the top one at lam_max = top, dlarrc only 12 ulps above.
        # Test at top and where dlarrc's count steps past it.
        lo, hi = top * (1.0 - 1.0e-9), top * (1.0 + 1.0e-9)
        above = _count_at_most(d, e, hi)
        assert _count_at_most(d, e, lo) < above
        while np.nextafter(lo, np.inf) < hi:
            mid = lo + 0.5 * (hi - lo)
            lo, hi = (mid, hi) if _count_at_most(d, e, mid) < above else (lo, mid)
        for x in (top, hi):
            for lam_max in (np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)):
                self.assert_same_modes(d, e, lam_max)

    def test_window_buffer_is_not_n_by_n(self):
        prof = cli._profile_setup(configio.load_config(None, ["grid.n=2048"]))[2]
        tracemalloc.start()
        try:
            op = assemble_operator(prof, lam_max=64.0)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        # an (n, n) buffer is 32 MiB; the window keeps 30 modes, 0.47 MiB of vectors
        assert op.evals.size == 30 and peak < 4.0, peak


class TestLapackBinding:
    """LAPACK comes from the OpenBLAS numpy has already loaded, never from scipy."""

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/maps")
    def test_one_openblas_and_no_scipy(self, tmp_path):
        script = (
            "import sys\n"
            "from anelastic_lab import cli\n"
            f"assert cli.main(['decay', '--set', 'grid.n=128', '--output', {str(tmp_path)!r}]) == 0\n"
            "assert 'scipy' not in sys.modules\n"
            "with open('/proc/self/maps') as fh:\n"
            "    libs = {line.split()[-1] for line in fh if 'libscipy_openblas64_' in line}\n"
            "assert len(libs) == 1, libs\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    def test_blas_runs_on_the_calling_thread(self):
        # the caller imports numpy first and asks for two threads, as perfbench's worker does
        script = (
            "import ctypes\n"
            "import numpy\n"
            "import anelastic_lab.cli\n"
            "from anelastic_lab import lapack\n"
            "get = lapack._LIB.scipy_openblas_get_num_threads64_\n"
            "get.restype = ctypes.c_int\n"
            "assert get() == 1, get()\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), OPENBLAS_NUM_THREADS="2")
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    def test_decay_does_not_depend_on_openblas_num_threads(self, tmp_path):
        """A guard, not a regression test: decay's output was already the same
        on one and two threads before the library pinned its thread count."""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        runs = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            done = subprocess.run(
                [sys.executable, "-m", "anelastic_lab.cli", "decay", "--set", "grid.n=256",
                 "--output", str(out)],
                env={**env, "OPENBLAS_NUM_THREADS": threads}, capture_output=True, text=True,
            )
            assert done.returncode == 0, done.stderr
            runs.append((done.stdout, (out / "decay.csv").read_bytes()))
        assert runs[0] == runs[1]

    def test_missing_library_names_the_search_path(self, tmp_path, monkeypatch):
        monkeypatch.setattr(lapack, "_LIB_DIRS", (str(tmp_path / "numpy.libs"), str(tmp_path)))
        with pytest.raises(ImportError, match="numpy>=2") as err:
            lapack._find_library()
        assert str(tmp_path / "numpy.libs") in str(err.value)
