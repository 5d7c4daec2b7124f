"""Weighted Helmholtz decomposition v = H[v] + grad(Phi).

The potential solves div(rho0 grad Phi) = div(rho0 v) with decay at the
outer boundary (homogeneous Dirichlet there) and regularity at the
origin.  Everything is discretized in flux form with rho0 at faces by
harmonic means, which keeps the weighted Laplacian symmetric positive
definite in the quadrature inner product.

In radial mode the flux rho0 * area * H[v] vanishes at r = 0, hence on
every face: grad(Phi) = v face by face, rho0 drops out, and Phi is the
inward integral of v (O(n), no solve).  The cartesian mode stores vector
fields on a staggered (face) layout, which makes the discrete divergence
exactly the negative adjoint of the discrete gradient; its potential is
the one linear solve, solve_weighted_poisson: Jacobi-preconditioned
conjugate gradients to DEFAULT_TOL, fixed ahead of every physics
tolerance, capped at MAX_ITERATIONS.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grids import DomainError, Grid, along, harmonic_faces, mean_cells, mean_faces

DEFAULT_TOL = 1.0e-10
MAX_ITERATIONS = 50_000  # CG iteration cap of every solve


class SolverError(RuntimeError):
    """No finite potential: the cartesian CG stalled, or the radial sum met a NaN or overflowed."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


@dataclass
class StaggeredVector:
    """Cartesian vector field on cell faces (MAC layout)."""

    fx: np.ndarray
    fy: np.ndarray
    fz: np.ndarray

    def axpy(self, a: float, other: "StaggeredVector") -> "StaggeredVector":
        return StaggeredVector(
            self.fx + a * other.fx, self.fy + a * other.fy, self.fz + a * other.fz
        )

    def max_abs(self) -> float:
        return max(
            float(np.max(np.abs(self.fx))),
            float(np.max(np.abs(self.fy))),
            float(np.max(np.abs(self.fz))),
        )


class RadialWeightedLaplacian:
    """Flux-form div(rho0 grad .) on a radial grid, Dirichlet at r_max.

    Face 0 sits at r = 0 and carries no flux (zero area); the outer face
    enforces Phi(r_max) = 0 through a half-cell gradient.  The acoustic
    operator reads the conductances cond and the cell weights; the
    projection reads only gradient_faces.
    """

    def __init__(self, grid: Grid, rho0_faces: np.ndarray):
        if not grid.radial:
            raise DomainError("RadialWeightedLaplacian needs a radial grid")
        self.grid = grid
        h = grid.h
        cond = grid.face_areas * rho0_faces / h
        cond[0] = 0.0
        cond[-1] *= 2.0  # half-cell Dirichlet closure at the outer face
        self.cond = cond
        self.weights = grid.weights

    def gradient_faces(self, phi: np.ndarray) -> np.ndarray:
        """Discrete grad(Phi) on faces, with the Dirichlet outer closure."""
        h = self.grid.h
        out = np.empty(self.grid.n + 1)
        out[0] = 0.0
        out[1:-1] = (phi[1:] - phi[:-1]) / h
        out[-1] = -2.0 * phi[-1] / h
        return out


def _scale_boundary(f: np.ndarray, axis: int, factor: float) -> np.ndarray:
    """Multiply the first and last layer of the face field f along axis by factor, in place."""
    first, last = along(axis, f.ndim)[3:]
    f[first] *= factor
    f[last] *= factor
    return f


class CartesianWeightedLaplacian:
    """Flux-form div(rho0 grad .) on the cartesian box, Dirichlet outside.

    Boundary faces sit half a cell from the outermost centers and from the
    Dirichlet value 0 beyond them: their conductance doubles, their face
    measure halves, and the face density stays the plain cell value.
    """

    def __init__(self, grid: Grid, rho0: np.ndarray):
        if grid.radial:
            raise DomainError("CartesianWeightedLaplacian needs a cartesian grid")
        grid.check_aligned(rho0)
        self.grid = grid
        self.rho0 = rho0
        self.h = grid.h
        self.rho_faces = tuple(harmonic_faces(rho0, axis) for axis in range(3))
        self.cond = tuple(
            _scale_boundary(rho / self.h**2, axis, 2.0) for axis, rho in enumerate(self.rho_faces)
        )

    def apply(self, phi: np.ndarray) -> np.ndarray:
        self.grid.check_aligned(phi)
        out = np.zeros_like(phi)
        for axis, c in enumerate(self.cond):
            flux = c * np.diff(phi, axis=axis, prepend=0.0, append=0.0)
            out += np.diff(flux, axis=axis)
        return out

    @cached_property
    def diagonal(self) -> np.ndarray:
        out = np.zeros(self.grid.field_shape)
        for axis, c in enumerate(self.cond):
            lower, upper = along(axis, c.ndim)[:2]
            out -= c[lower] + c[upper]
        return out

    def precondition(self, rhs: np.ndarray) -> np.ndarray:
        """Jacobi approximation of the solve -apply(z) = rhs."""
        return rhs / -self.diagonal

    def gradient(self, phi: np.ndarray) -> StaggeredVector:
        """Discrete grad(Phi) on faces, with the Dirichlet closure at the boundary faces."""
        return StaggeredVector(
            *(
                _scale_boundary(np.diff(phi, axis=axis, prepend=0.0, append=0.0), axis, 2.0)
                / self.h
                for axis in range(3)
            )
        )

    def rho_times(self, v: StaggeredVector) -> StaggeredVector:
        return StaggeredVector(
            self.rho_faces[0] * v.fx,
            self.rho_faces[1] * v.fy,
            self.rho_faces[2] * v.fz,
        )

    def divergence(self, v: StaggeredVector) -> np.ndarray:
        """Compact divergence of a face field (values outside the box are 0), per leading index."""
        out = np.diff(v.fx, axis=-3) / self.h
        out += np.diff(v.fy, axis=-2) / self.h
        out += np.diff(v.fz, axis=-1) / self.h
        return out

    @cached_property
    def face_weights(self) -> tuple[np.ndarray, ...]:
        """Face measure of each axis making the divergence the negative gradient adjoint."""
        return tuple(
            _scale_boundary(np.full(c.shape, self.h**3), axis, 0.5)
            for axis, c in enumerate(self.cond)
        )

    def face_inner(self, a: StaggeredVector, b: StaggeredVector) -> float | np.ndarray:
        """Face scalar product, one value per leading index of stacked components."""
        total = 0.0
        for pa, pb, w in zip((a.fx, a.fy, a.fz), (b.fx, b.fy, b.fz), self.face_weights):
            total += np.sum(pa * pb * w, axis=(-3, -2, -1))
        return float(total) if np.ndim(total) == 0 else total


def _cg(apply_a, rhs, dot, precondition, tol, maxiter):
    """Preconditioned CG for SPD apply_a; returns (x, relative residual, iters)."""
    rhs_norm = np.sqrt(dot(rhs, rhs))
    x = np.zeros_like(rhs)
    if rhs_norm == 0.0:
        return x, 0.0, 0
    if not np.isfinite(rhs_norm):
        return x, rhs_norm, 0  # no iteration reduces a non-finite residual
    res = 1.0  # relative residual of x = 0
    r = rhs.copy()
    z = precondition(r)
    p = z.copy()
    rz = dot(r, z)
    for it in range(1, maxiter + 1):
        ap = apply_a(p)
        alpha = rz / dot(p, ap)
        x += alpha * p
        r -= alpha * ap
        res = np.sqrt(dot(r, r)) / rhs_norm
        if res <= tol:
            return x, res, it
        z = precondition(r)
        rz_new = dot(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, res, maxiter


def solve_weighted_poisson(op, rhs: np.ndarray) -> np.ndarray:
    """Solve the cartesian op.apply(phi) = rhs (op negative definite) by CG on -op."""
    w = op.grid.weights

    def dot(a, b):
        return float(np.sum(a * b * w))

    phi, res, it = _cg(
        lambda v: -op.apply(v), -rhs, dot, op.precondition, DEFAULT_TOL, MAX_ITERATIONS
    )
    if not res <= DEFAULT_TOL:  # a NaN residual is never converged
        raise SolverError(
            f"weighted Poisson solve stalled at relative residual {res:.3e} "
            f"after {it} iterations",
            residual=res,
            iterations=it,
        )
    return phi


def centers_to_faces(v: np.ndarray, grid: Grid) -> np.ndarray:
    """Interpolate a cell-centered radial vector component to faces.

    The face at r = 0 vanishes by odd symmetry; the outer face averages
    against a zero far-field ghost.
    """
    grid.check_aligned(v)
    out = mean_faces(v)
    out[0] = 0.0
    out[-1] *= 0.5  # the mean with the zero ghost
    return out


def project_radial_faces(v_faces: np.ndarray, prof) -> tuple[np.ndarray, np.ndarray]:
    """Weighted projection of a radial face field; returns (H[v], Phi).

    grad(Phi) = v on every face, so Phi is v summed inward from Phi = 0 at
    r_max, over half a cell at the outer face:
    Phi_i = -h (v_n / 2 + sum_{j=i+1}^{n-1} v_j).  H[v] is zero up to
    round-off.  Phi[0] sums every face, so it alone shows an overflow or
    a NaN.
    """
    op = prof.laplacian
    steps = -op.grid.h * v_faces[1:]
    steps[-1] *= 0.5
    phi = np.cumsum(steps[::-1])[::-1]
    if not np.isfinite(phi[0]):
        raise SolverError(
            f"radial Helmholtz potential is not finite (Phi(0) = {phi[0]:g})",
            residual=float("nan"),
            iterations=0,
        )
    return v_faces - op.gradient_faces(phi), phi


def project(v, prof):
    """Weighted Helmholtz projection on prof.grid; returns (H[v], Phi).

    Radial mode takes and returns cell-centered radial components;
    cartesian mode takes and returns StaggeredVector fields.
    """
    grid = prof.grid
    if grid.radial:
        grid.check_aligned(v)
        h_faces, phi = project_radial_faces(centers_to_faces(v, grid), prof)
        return mean_cells(h_faces), phi
    op = prof.laplacian
    rhs = op.divergence(op.rho_times(v))
    phi = solve_weighted_poisson(op, rhs)
    grad = op.gradient(phi)
    return v.axpy(-1.0, grad), phi
