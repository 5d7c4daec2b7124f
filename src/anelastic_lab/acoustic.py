"""Acoustic system on the static profile and its spectral machinery.

The generator A: v -> -(p'(rho0)/rho0) div(rho0 grad v) is nonnegative and
self-adjoint in the scalar product with density rho0/p'(rho0).  With m the
vector of weighted cell masses and S = diag(sqrt(m)), the flux-form
discretization makes B = S A S^-1 symmetric tridiagonal; the operator keeps
B's two bands, so applying A is an exact O(n) product.

Only the modes a measurement can see are computed.  The frequency window
G(sqrt(A)) vanishes above sqrt(lambda) = 2/delta, so decay, Strichartz,
data regularization and the audit ansatz assemble the operator with
lam_max = (2/delta)^2.  One LAPACK driver, dstevr, works on B's two bands
for every caller: the modes in (-|B|, lam_max] by bisection and inverse
iteration, the full basis (lam_max = inf) by MRRR (Dhillon & Parlett,
Linear Algebra Appl. 387:1, 2004) and the eigenvalue-only spectrum by
dsterf, with no dense (n, n) matrix and no ceiling on n.  A window's k
modes go into an (n, k) buffer, k from LAPACK's O(n) Sturm count dlarrc
just above lam_max, so no (n, n) output array is allocated either.  The
columns of the (n, k) basis are orthonormal in the weighted product.
dstevr and dlarrc come from the OpenBLAS that numpy itself has loaded
(see lapack).

The wave pair (s, Phi) evolves by

    eps d/dt s + div(rho0 grad Phi) = 0,
    eps d/dt Phi + (p'(rho0)/rho0) s = 0,

so with sigma = (p'(rho0)/rho0) s both Phi and sigma satisfy the A-wave
equation and the propagator is exact mode by mode.  Evolution runs on a
Dirichlet-truncated ball; measurements quote results only up to the
domain-crossing time to keep boundary reflections out of the numbers.

Time arrays in, stacked fields out: given n_t times, the wave solution
returns (n_t, n) fields, one matrix product per field.  The measurements
build the windowed modes' (n_t, k) coefficient table in place.  The decay
measurement is a quadratic form in those coefficients.  The Strichartz
measurement forms the wave in blocks of time rows of at most _BLOCK_CELLS
= 2**14 cells (0.25 MB, 8 rows at n = 2048) and reduces each block to its
rows' L^q norms, so its working set does not grow with the number of
times.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import lapack
from .grids import DomainError, Grid, lp_norm, radial_gradient, smoothstep
from .hydrostatics import StaticProfile

ADMISSIBILITY_TOL = 1.0e-12
# Cells of the windowed wave per Strichartz block: their real and imaginary parts are 0.25 MB,
# 8 time rows at n = 2048, whatever the length of the time mesh.
_BLOCK_CELLS = 2**14


class EigensolverError(RuntimeError):
    """LAPACK reported a failed symmetric eigensolve."""


@dataclass
class AcousticOperator:
    """Banded acoustic generator on a radial grid and its lowest k modes."""

    grid: Grid
    prof: StaticProfile
    d: np.ndarray  # diagonal of B = S A S^-1
    e: np.ndarray  # off-diagonal of B
    masses: np.ndarray
    evals: np.ndarray  # (k,) ascending
    evecs: np.ndarray  # (n, k), columns orthonormal in the weighted product

    @cached_property
    def omegas(self) -> np.ndarray:
        return np.sqrt(np.clip(self.evals, 0.0, None))

    def coeffs(self, h: np.ndarray) -> np.ndarray:
        self.grid.check_aligned(h)
        return self.evecs.T @ (self.masses * h)

    def reconstruct(self, c: np.ndarray) -> np.ndarray:
        """Fields of coefficient vectors: c is (k,) or stacked (n_t, k)."""
        return c @ self.evecs.T

    def apply(self, h: np.ndarray) -> np.ndarray:
        """A h = S^-1 B S h, exact on the whole space (needs no basis)."""
        self.grid.check_aligned(h)
        s = np.sqrt(self.masses)
        return _band_product(self.d, self.e, s * h) / s

    def inner(self, u: np.ndarray, v: np.ndarray) -> float:
        return float(np.sum(u * v * self.masses))

    def norm(self, u: np.ndarray) -> float:
        return float(np.sqrt(max(self.inner(u, u), 0.0)))


def _bands(prof: StaticProfile) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal d and off-diagonal e of B = S A S^-1, S = diag(sqrt(masses))."""
    if not prof.grid.radial:
        raise DomainError("the acoustic operator is assembled in radial mode")
    c, w = prof.laplacian.cond, prof.laplacian.weights
    coef = prof.dp / prof.rho0
    s = np.sqrt(w * prof.inner_weight)
    d = coef * (c[:-1] + c[1:]) / w
    # B's upper and lower off-diagonals from A_{i,i+1} and A_{i+1,i}; they
    # agree to round-off, and their mean makes B exactly symmetric
    upper = s[:-1] * (coef[:-1] * -(c[1:-1] / w[:-1])) / s[1:]
    lower = s[1:] * (coef[1:] * -(c[1:-1] / w[1:])) / s[:-1]
    return d, 0.5 * (upper + lower)


def _band_product(d: np.ndarray, e: np.ndarray, x: np.ndarray) -> np.ndarray:
    """B x for B = tridiag(e, d, e)."""
    out = d * x
    out[:-1] += e * x[1:]
    out[1:] += e * x[:-1]
    return out


def _count_at_most(d, e, x) -> int:
    """The Sturm count of the eigenvalues of B = tridiag(e, d, e) at or below x (dlarrc)."""
    eigcnt, lcnt, rcnt, info = (ctypes.c_int64() for _ in range(4))
    real = ctypes.c_double
    lapack.DLARRC(b"T", ctypes.c_int64(d.size), real(x), real(x), d, e, real(0.0),
                  eigcnt, lcnt, rcnt, info, 1)
    return rcnt.value


def _eigen(d, e, lam_max=np.inf, vectors=True):
    """Eigenpairs of B = tridiag(e, d, e) with lambda <= lam_max, ascending.

    One LAPACK dstevr call: lam_max = inf takes the whole spectrum, a
    finite lam_max the interval (-|B|, lam_max].  Returns the eigenvalues
    (m,) and B's orthonormal eigenvectors as columns (n, m), or None
    without vectors.  A finite window's eigenvectors go into an (n, k)
    buffer, k a Sturm count of the eigenvalues up to just above lam_max,
    not into an (n, n) one.
    """
    n = k = d.size
    if lam_max == np.inf:
        span, vl, vu = b"A", 0.0, 0.0
    else:
        norm_b = np.max(np.abs(d)) + 2.0 * np.max(np.abs(e), initial=0.0)
        span, vl, vu = b"V", -norm_b, lam_max
        if vectors:
            # dstevr's m is a sum of dstebz's Sturm counts at or below lam_max.  A
            # floating-point Sturm count is the exact count of a tridiagonal matrix
            # near B (Demmel, Dhillon & Ren, SIAM J. Sci. Comput. 16:1455, 1995):
            # dstebz's recurrence, with its splitting of off-diagonals below
            # ulp sqrt|d_i d_i+1|, moves the eigenvalues by at most 6 u |B| and
            # dlarrc's by at most 3 u |B| (u = eps/2, |B| <= norm_b), plus absolute
            # terms below 1e-150.  So the count at lam_max + 16 eps norm_b + 1e-150
            # is >= m; the few columns it may add are never written.
            slack = 16.0 * np.finfo(float).eps * norm_b + 1.0e-150
            k = max(1, _count_at_most(d, e, lam_max + slack))
    z = np.empty((n, k) if vectors else (1, 1), order="F")
    w = np.empty(n)
    m, info = ctypes.c_int64(), ctypes.c_int64()
    int_, real = ctypes.c_int64, ctypes.c_double
    # dstevr overwrites D and E, and takes E with a spare last entry
    lapack.DSTEVR(
        b"V" if vectors else b"N", span, int_(n), d.copy(), np.append(e, 0.0),
        real(vl), real(vu), int_(0), int_(0), real(0.0), m, w, z, int_(z.shape[0]),
        np.empty(2 * n, dtype=np.int64), np.empty(20 * n), int_(20 * n),
        np.empty(10 * n, dtype=np.int64), int_(10 * n), info, 1, 1,
    )
    if info.value != 0:
        raise EigensolverError(f"LAPACK dstevr failed with info = {info.value}")
    return w[: m.value], z[:, : m.value] if vectors else None


def assemble_operator(prof: StaticProfile, lam_max: float = np.inf) -> AcousticOperator:
    """Assemble the banded acoustic operator with its modes of lambda <= lam_max.

    The window of parameter delta needs lam_max = (2/delta)^2 (see
    FrequencyWindow.lam_max); lam_max = inf keeps the full basis.
    """
    d, e = _bands(prof)
    masses = prof.grid.weights * prof.inner_weight
    evals, vecs = _eigen(d, e, lam_max)
    vecs /= np.sqrt(masses)[:, None]  # B's eigenvectors to A's, in place
    return AcousticOperator(prof.grid, prof, d, e, masses, evals, vecs)


def operator_spectrum(prof: StaticProfile) -> np.ndarray:
    """Every eigenvalue of the acoustic operator, ascending, without eigenvectors."""
    return _eigen(*_bands(prof), vectors=False)[0]


@dataclass(frozen=True)
class FrequencyWindow:
    """Even spectral window in z = sqrt(lambda).

    Equals one on [delta, 1/delta], vanishes outside [delta/2, 2/delta],
    with quintic smoothstep shoulders.
    """

    delta: float

    def value(self, z: np.ndarray) -> np.ndarray:
        z = np.abs(np.asarray(z, dtype=float))
        d = self.delta
        rise = smoothstep((z - 0.5 * d) / (0.5 * d))
        fall = smoothstep((2.0 / d - z) / (1.0 / d))
        return rise * fall

    __call__ = value

    @property
    def lam_max(self) -> float:
        """Top of the support in lambda = z^2: the modes the window can see."""
        return (2.0 / self.delta) ** 2


def functional_calculus(op: AcousticOperator, window, h: np.ndarray) -> np.ndarray:
    """Apply G(sqrt(A)) to h through the eigenbasis.

    window may be a FrequencyWindow or any callable of sqrt(lambda).
    """
    return op.reconstruct(window(op.omegas) * op.coeffs(h))


def spatial_cutoff(delta: float, grid: Grid) -> np.ndarray:
    """psi_delta: one inside |x| < 1/delta, zero beyond 2/delta."""
    return smoothstep((2.0 / delta - grid.radii) / (1.0 / delta))


def regularize_data(
    op: AcousticOperator,
    rho1: np.ndarray,
    phi0: np.ndarray,
    delta: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Spatially cut off and frequency-localize acoustic initial data.

    Returns (s0_delta, phi0_delta); the density perturbation is conjugated
    by rho0/p'(rho0) around the localization so that the windowed object is
    the wave variable sigma.
    """
    grid, prof = op.grid, op.prof
    grid.check_aligned(rho1, phi0)
    window = FrequencyWindow(delta)
    psi = spatial_cutoff(delta, grid)
    sigma_in = (prof.dp / prof.rho0) * rho1
    s0 = prof.inner_weight * functional_calculus(op, window, psi * sigma_in)
    phi0_d = functional_calculus(op, window, psi * phi0)
    return s0, phi0_d


@dataclass
class AcousticState:
    """Density perturbation s and velocity potential Phi at t (stacked if t is an array)."""

    s: np.ndarray
    phi: np.ndarray
    t: float | np.ndarray = 0.0


@dataclass
class SpectralWaveSolution:
    """Closed-form evolution of the acoustic pair in the eigenbasis.

    Methods take a time or an array of n_t times (fields then stack as (n_t, n)).
    """

    op: AcousticOperator
    eps: float
    phi_coeffs0: np.ndarray
    sigma_coeffs0: np.ndarray

    _STATIC_CUT = 1.0e-12

    def _clock(self, t) -> np.ndarray:
        """t / eps with a trailing mode axis, so times broadcast against modes."""
        return np.asarray(t, dtype=float)[..., None] / self.eps

    def _phase(self, t) -> tuple[np.ndarray, np.ndarray]:
        th = self.op.omegas * self._clock(t)
        return np.cos(th), np.sin(th)

    def phi_coeffs(self, t) -> np.ndarray:
        cos, sin = self._phase(t)
        w = self.op.omegas
        out = self.phi_coeffs0 * cos
        small = w < self._STATIC_CUT
        ws = np.where(small, 1.0, w)
        out -= self.sigma_coeffs0 * np.where(small, self._clock(t), sin / ws)
        return out

    def sigma_coeffs(self, t) -> np.ndarray:
        cos, sin = self._phase(t)
        return self.sigma_coeffs0 * cos + self.op.omegas * self.phi_coeffs0 * sin

    def phi(self, t) -> np.ndarray:
        return self.op.reconstruct(self.phi_coeffs(t))

    def sigma(self, t) -> np.ndarray:
        return self.op.reconstruct(self.sigma_coeffs(t))

    def s(self, t) -> np.ndarray:
        return self.op.prof.inner_weight * self.sigma(t)

    def grad_phi(self, t) -> np.ndarray:
        return radial_gradient(self.phi(t), self.op.grid, parity="even")

    def dt_grad_phi(self, t) -> np.ndarray:
        """Analytic d/dt grad Phi = -(1/eps) grad sigma."""
        return -radial_gradient(self.sigma(t), self.op.grid, parity="even") / self.eps

    def div_rho_grad_phi(self, t) -> np.ndarray:
        """div(rho0 grad Phi) = -(rho0/p'(rho0)) A Phi, spectrally exact."""
        a_phi = self.op.reconstruct(self.op.evals * self.phi_coeffs(t))
        return -self.op.prof.inner_weight * a_phi

    def energy(self, t) -> float | np.ndarray:
        """E_ac = 1/2 (sum lambda c_phi^2 + sum c_sigma^2), the exact discrete energy."""
        phi_c, sigma_c = self.phi_coeffs(t), self.sigma_coeffs(t)
        lam = np.clip(self.op.evals, 0.0, None)
        e = 0.5 * (np.sum(lam * phi_c * phi_c, axis=-1) + np.sum(sigma_c * sigma_c, axis=-1))
        return float(e) if e.ndim == 0 else e

    def state(self, t) -> AcousticState:
        return AcousticState(s=self.s(t), phi=self.phi(t), t=t)


def spectral_solution(
    op: AcousticOperator, init: AcousticState, eps: float
) -> SpectralWaveSolution:
    sigma0 = (op.prof.dp / op.prof.rho0) * init.s
    return SpectralWaveSolution(
        op=op,
        eps=eps,
        phi_coeffs0=op.coeffs(init.phi),
        sigma_coeffs0=op.coeffs(sigma0),
    )


def crossing_time(prof: StaticProfile) -> float:
    """Sponge-crossing time R_sp / sqrt(gamma rho_bar**(gamma-1))."""
    c_far = np.sqrt(prof.gamma * prof.rho_bar ** (prof.gamma - 1.0))
    return prof.grid.r_sponge / float(c_far)


def time_mesh(T: float, omega_max: float, points_per_period: int) -> np.ndarray:
    """Uniform mesh of [0, T] with points_per_period points per period of omega_max (at least 9)."""
    if omega_max <= 0.0:
        return np.linspace(0.0, T, 9)
    dt = (2.0 * np.pi / omega_max) / points_per_period
    n = max(int(np.ceil(T / dt)) + 1, 9)
    return np.linspace(0.0, T, n)


def _windowed_modes(op, window, h, T, points_per_period, clock=1.0):
    """Modes of G(sqrt(A)) exp(i sqrt(A) t / clock) h on the time mesh of [0, T].

    Returns (times, coeffs, vecs): coeffs is the (n_t, k_active) complex
    array of the wave's coefficients on the modes the window keeps, vecs
    those (n, k_active) modes, a view of op.evecs; the wave is coeffs @ vecs.T.
    The window rises, stays flat and falls over the ascending omegas, so the
    modes it keeps are one contiguous range.
    """
    g = window(op.omegas)  # G(sqrt(lambda)) per mode
    kept = np.flatnonzero(g > 1.0e-13)
    active = slice(kept[0], kept[-1] + 1) if kept.size else slice(0, 0)
    omegas = op.omegas[active]
    times = time_mesh(T, float(omegas.max(initial=0.0)) / clock, points_per_period)
    # one (n_t, k) table, built in place with the operations of
    # g c * exp(1j omega t / clock): the complex product's real part is +0 and
    # the complex quotient multiplies by 1 / clock
    coeffs = np.zeros((times.size, omegas.size), dtype=complex)
    np.multiply(omegas, times[:, None], out=coeffs.imag)
    coeffs.imag *= 1.0 / clock
    np.exp(coeffs, out=coeffs)
    np.multiply(g[active] * op.coeffs(h)[active], coeffs, out=coeffs)
    return times, coeffs, op.evecs[:, active]


@dataclass
class DecayMeasurement:
    value: float
    times: np.ndarray
    series: np.ndarray


def measure_local_decay(
    op: AcousticOperator,
    window,
    ball_radius: float,
    h: np.ndarray,
    T: float,
    points_per_period: int,
) -> DecayMeasurement:
    """Time integral of the squared localized norm of the windowed wave.

    Computes int_0^T || chi_ball G(sqrt(A)) exp(i sqrt(A) t) h ||_{L^2}^2 dt
    on the unscaled clock.  Saturation of the value in T is the truncated
    stand-in for global-in-time local energy decay.  The squared norm at
    time t is c(t)^H G c(t), with G the Gram matrix of the windowed modes
    on the ball, so the wave itself is never formed.
    """
    times, c, vecs = _windowed_modes(op, window, h, T, points_per_period)
    mask = op.grid.ball_mask(ball_radius)
    if not mask.any():  # NaN too
        raise DomainError(f"acoustic.ball_radius = {ball_radius:g} holds no cell: "
                          f"the first cell centre is r = {op.grid.centers[0]:g}")
    ball = vecs[mask]
    gram = ball.T @ (op.grid.weights[mask][:, None] * ball)
    c_gram = c @ gram
    c_gram *= np.conjugate(c, out=c)  # c is not used again
    series = np.sum(c_gram, axis=-1).real
    value = float(np.trapezoid(series, times))
    return DecayMeasurement(value=value, times=times, series=series)


@dataclass
class StrichartzMeasurement:
    value: float
    data_l2: float
    ratio: float
    times: np.ndarray
    series: np.ndarray


def admissible_pair(p: float, q: float) -> bool:
    return abs(1.0 / p + 3.0 / q - 0.5) <= ADMISSIBILITY_TOL


def measure_strichartz(
    op: AcousticOperator,
    window,
    h: np.ndarray,
    p: float,
    q: float,
    T: float,
    points_per_period: int,
) -> StrichartzMeasurement:
    """Space-time L^p_t L^q_x norm of the windowed wave up to time T.

    The pair must satisfy the 3D wave admissibility 1/p + 3/q = 1/2; the
    spatial norm uses the radial 3D measure.  At the endpoint q = inf
    (with p = 2) the series is the largest |wave| over the cells at each
    time; at p = inf (with q = 6) the value is the largest entry of the
    series.  The value is reported next to the L^2 size of the data so
    their ratio estimates the constant of the frequency-localized estimate.
    """
    if not admissible_pair(p, q):
        raise DomainError(
            f"(p, q) = ({p}, {q}) violates 1/p + 3/q = 1/2; "
            f"defect {1.0 / p + 3.0 / q - 0.5:.3e}"
        )
    times, c, vecs = _windowed_modes(op, window, h, T, points_per_period)
    basis, rows = vecs.T, max(1, _BLOCK_CELLS // op.grid.n)
    series = np.empty(times.size)
    for i in range(0, times.size, rows):
        b = c[i : i + rows]  # real products: complex @ real would cast the basis per call
        wave = np.hypot(b.real @ basis, b.imag @ basis)
        if q == np.inf:
            series[i : i + rows] = wave.max(axis=-1)
        else:
            series[i : i + rows] = np.sum(wave**q * op.grid.weights, axis=-1)
    if q != np.inf:
        series **= 1.0 / q
    if p == np.inf:
        value = float(series.max())
    else:
        value = float(np.trapezoid(series**p, times) ** (1.0 / p))
    data_l2 = lp_norm(h, 2.0, op.grid)
    ratio = value / data_l2 if data_l2 > 0.0 else 0.0
    return StrichartzMeasurement(
        value=value, data_l2=data_l2, ratio=ratio, times=times, series=series
    )


def dispersive_smallness(
    op: AcousticOperator,
    window,
    h: np.ndarray,
    ball_radius: float,
    T: float,
    eps: float,
    points_per_period: int,
) -> float:
    """Time-averaged sup norm over a ball of the eps-rescaled windowed wave.

    (1/T) int_0^T || G(sqrt(A)) exp(i sqrt(A) t / eps) h ||_{L^inf(ball)} dt;
    the faster clock moves the wave out of the ball earlier, so the average
    shrinks with eps once the transit fits inside the horizon.
    """
    times, c, vecs = _windowed_modes(op, window, h, T, points_per_period, clock=eps)
    series = np.max(np.abs(c @ vecs[op.grid.ball_mask(ball_radius)].T), axis=-1)
    return float(np.trapezoid(series, times) / T)
