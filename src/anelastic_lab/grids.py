"""Grids, quadrature, norms, face transfers and the essential/residual cutoff.

Two geometry modes are supported.  The radial mode stores fields as
functions of r = |x| on cells of width h = r_max / n with 3D spherical
quadrature weights 4*pi*r_i**2*h; vector fields carry the radial component
only.  The cartesian mode is a low resolution box [-r_max, r_max]**3 that
admits a nontrivial solenoidal velocity, stored on the staggered faces.

The four face transfers (harmonic_faces, mean_faces, upwind_faces and
mean_cells) serve both geometries: each acts along one axis, by default
the last, so a radial row is the 1-D case and a cartesian field takes
axis = 0, 1 or 2.

The quadrature, norm and radial difference helpers accept stacked input:
an array whose trailing axes are the field shape, such as the (n_samples, n)
samples of a run.  They reduce or difference over the field axes only and
return one value (or one field) per leading index, bit for bit what the
row-by-row calls return.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np


class FieldAlignmentError(ValueError):
    """A field array does not match the grid it is used with."""


class DomainError(ValueError):
    """An argument lies outside the admissible domain of an operation."""


def smoothstep(x: np.ndarray | float) -> np.ndarray | float:
    """Quintic smoothstep: 0 for x <= 0, 1 for x >= 1, C^2 in between."""
    t = np.clip(x, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


GEOMETRIES = ("radial", "cartesian")


@dataclass(frozen=True)
class Grid:
    """Uniform grid in radial-3D or cartesian-3D mode.

    In radial mode the n cells cover (0, r_max) with centers (i + 1/2) h,
    h = r_max / n.  In cartesian mode the n**3 cells cover the box of
    half-width r_max, so h = 2 r_max / n per axis.  r_sponge marks where
    the absorbing sponge of the evolution codes starts.  `configio` checks
    the fields' ranges when it loads the configuration.
    """

    geometry: str
    n: int
    r_max: float
    r_sponge: float

    @property
    def radial(self) -> bool:
        return self.geometry == "radial"

    @cached_property
    def h(self) -> float:
        if self.radial:
            return self.r_max / self.n
        return 2.0 * self.r_max / self.n

    @cached_property
    def field_shape(self) -> tuple[int, ...]:
        return (self.n,) if self.radial else (self.n, self.n, self.n)

    @cached_property
    def centers(self) -> np.ndarray:
        """Cell-center coordinates along one axis (radial: along r)."""
        if self.radial:
            return (np.arange(self.n) + 0.5) * self.h
        return -self.r_max + (np.arange(self.n) + 0.5) * self.h

    @cached_property
    def radii(self) -> np.ndarray:
        """|x| at every cell center, shaped like a field."""
        if self.radial:
            return self.centers
        x = self.centers
        xx, yy, zz = np.meshgrid(x, x, x, indexing="ij")
        return np.sqrt(xx * xx + yy * yy + zz * zz)

    @cached_property
    def faces(self) -> np.ndarray:
        """Radial face positions i*h, i = 0..n (radial mode only)."""
        if not self.radial:
            raise DomainError("faces are a radial-mode concept")
        return np.arange(self.n + 1) * self.h

    @cached_property
    def face_areas(self) -> np.ndarray:
        if not self.radial:
            raise DomainError("face_areas are a radial-mode concept")
        return 4.0 * np.pi * self.faces**2

    @cached_property
    def shell_volumes(self) -> np.ndarray:
        """Exact volumes (4 pi / 3)(r_out^3 - r_in^3) of the radial cells."""
        return (4.0 * np.pi / 3.0) * np.diff(self.faces**3)

    @cached_property
    def weights(self) -> np.ndarray:
        """Quadrature weight of every cell (the discrete volume element)."""
        if self.radial:
            return 4.0 * np.pi * self.centers**2 * self.h
        w = np.empty(self.field_shape)
        w.fill(self.h**3)
        return w

    @cached_property
    def field_axes(self) -> tuple[int, ...]:
        """The trailing axes that hold a field (leading axes index samples)."""
        return tuple(range(-len(self.field_shape), 0))

    def check_aligned(self, *fields: np.ndarray) -> None:
        """Every trailing shape must be the field shape; leading axes are free."""
        k = len(self.field_shape)
        for f in fields:
            if np.shape(f)[-k:] != self.field_shape:
                raise FieldAlignmentError(
                    f"field of shape {np.shape(f)} on grid of shape {self.field_shape}"
                )

    def ball_mask(self, radius: float) -> np.ndarray:
        return self.radii <= radius

    @property
    def default_compact_radius(self) -> float:
        """Radius of the default compact set K, kept away from the sponge."""
        return 0.5 * self.r_sponge


def integrate(f: np.ndarray, grid: Grid) -> float | np.ndarray:
    """Quadrature of a scalar field (or of each stacked field) over the truncated domain."""
    grid.check_aligned(f)
    total = (f * grid.weights).sum(axis=grid.field_axes)
    return float(total) if total.ndim == 0 else total


def lp_norm(f: np.ndarray, p: float, grid: Grid) -> float | np.ndarray:
    """L^p norm with the 3D volume measure.

    p = np.inf gives the max norm over the cells.  The final 1/p root is
    taken value by value: numpy's array power is not bit-identical to its
    scalar power, and stacked norms must equal the norms of their rows.
    """
    grid.check_aligned(f)
    if p != np.inf and p < 1.0:
        raise DomainError(f"lp_norm needs p >= 1 or p = inf, got {p}")
    a = np.abs(np.asarray(f, dtype=float))
    axes = grid.field_axes
    if p == np.inf:
        top = np.max(a, axis=axes, initial=0.0)
        return float(top) if top.ndim == 0 else top
    a **= p  # in place: stacked input makes every temporary n_samples fields large
    a *= grid.weights
    sums = np.sum(a, axis=axes)
    if sums.ndim == 0:
        return float(sums ** (1.0 / p))
    return np.array([s ** (1.0 / p) for s in sums.flat]).reshape(sums.shape)


@dataclass(frozen=True)
class EssResCutoff:
    """C^1 cutoff chi(Y): one on [y_lo, y_hi], zero outside the widened band.

    width sets the smoothstep transition on both sides; a profile's band
    is StaticProfile.cutoff.
    """

    y_lo: float
    y_hi: float
    width: float

    def __post_init__(self) -> None:
        if not 0.0 < self.y_lo < self.y_hi:
            raise DomainError("require 0 < y_lo < y_hi")
        if not 0.0 < self.width < self.y_lo:
            raise DomainError("transition width must lie in (0, y_lo)")

    def chi(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        # off the plateau only the nearer shoulder is below one, so one
        # smoothstep is evaluated; the quintic overshoots 1 by an ulp just
        # below y_lo, hence the clamp
        x = np.where(y <= self.y_hi, y - (self.y_lo - self.width), (self.y_hi + self.width) - y)
        x /= self.width
        chi = np.minimum(smoothstep(x), 1.0, out=x)
        # exactly one on the plateau regardless of rounding in the shoulders
        chi[(y >= self.y_lo) & (y <= self.y_hi)] = 1.0
        return chi

    __call__ = chi


@lru_cache(maxsize=None)
def along(axis: int, ndim: int) -> tuple[tuple, tuple, tuple, tuple, tuple]:
    """Index tuples (lower, upper, inner, first, last) along axis of an ndim array.

    lower and upper drop the last and the first entry, inner both; first
    and last pick the boundary layers.  A negative axis counts from the
    end, so axis = -1 indexes a radial row and any stack of rows.  The
    tuples name the axis by its position, without an Ellipsis, which
    numpy indexes faster.
    """
    lead = (slice(None),) * (axis % ndim)
    return tuple(
        (*lead, sl) for sl in (slice(None, -1), slice(1, None), slice(1, -1), 0, -1)
    )


def _faces_of(f: np.ndarray, axis: int, first: tuple, last: tuple) -> np.ndarray:
    """A face field of the cell field f, one entry longer along axis.

    Its boundary faces copy the boundary cells; the inner faces are left
    for the caller to fill.
    """
    shape = list(f.shape)
    shape[axis] += 1
    out = np.empty(shape)
    out[first], out[last] = f[first], f[last]
    return out


def harmonic_faces(f: np.ndarray, axis: int = -1) -> np.ndarray:
    """Face values of a positive cell field by harmonic means; boundary faces copy cells."""
    lower, upper, inner, first, last = along(axis, f.ndim)
    a, b = f[lower], f[upper]
    out = _faces_of(f, axis, first, last)
    out[inner] = 2.0 * a * b / (a + b)
    return out


def mean_faces(f: np.ndarray, axis: int = -1) -> np.ndarray:
    """Face values of a cell field by arithmetic means; boundary faces copy cells."""
    lower, upper, inner, first, last = along(axis, f.ndim)
    out = _faces_of(f, axis, first, last)
    t = f[lower] + f[upper]  # one temporary: 0.5 s is s 0.5, so the bits are those of 0.5 (a + b)
    t *= 0.5
    out[inner] = t
    return out


def upwind_faces(f: np.ndarray, vel: np.ndarray, axis: int = -1) -> np.ndarray:
    """Face values of a cell field taken from the cell upstream of the face velocity.

    A positive face velocity takes the lower cell, any other the upper
    one; boundary faces copy cells.
    """
    lower, upper, inner, first, last = along(axis, f.ndim)
    out = _faces_of(f, axis, first, last)
    out[inner] = np.where(vel[inner] > 0.0, f[lower], f[upper])
    return out


def mean_cells(v: np.ndarray, axis: int = -1) -> np.ndarray:
    """Cell values of a face field by arithmetic means of each cell's two faces."""
    lower, upper = along(axis, v.ndim)[:2]
    return 0.5 * (v[lower] + v[upper])


def radial_gradient(f: np.ndarray, grid: Grid, parity: str = "even") -> np.ndarray:
    """Centered d/dr of a radial cell field.

    The ghost below r = 0 mirrors the first cell (even fields) or negates
    it (odd fields); the outer cell uses a one-sided difference.
    """
    if not grid.radial:
        raise DomainError("radial_gradient needs a radial grid")
    grid.check_aligned(f)
    sign, two_h = (1.0 if parity == "even" else -1.0), 2.0 * grid.h
    out = np.empty_like(f)
    np.divide(f[..., 2:] - f[..., :-2], two_h, out=out[..., 1:-1])
    out[..., 0] = (f[..., 1] - sign * f[..., 0]) / two_h
    out[..., -1] = (f[..., -1] - f[..., -2]) / grid.h
    return out


def radial_strain(u: np.ndarray, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """(du/dr, u/r), the distinct entries of grad(u e_r) = diag(du/dr, u/r, u/r) for an odd
    u (the ghost below r = 0 negates the first cell), as two fresh arrays."""
    return radial_gradient(u, grid, parity="odd"), u / grid.centers


def radial_divergence(v: np.ndarray, grid: Grid) -> np.ndarray:
    """(1/r^2) d/dr (r^2 v) of a radial (odd) vector component.

    Flux form over the exact shell volumes: wide stencils lose consistency
    near the origin where 1/r^2 amplifies their truncation error, while
    face fluxes over (4 pi / 3)(r_out^3 - r_in^3) reproduce linear fields
    exactly at every cell.
    """
    if not grid.radial:
        raise DomainError("radial_divergence needs a radial grid")
    grid.check_aligned(v)
    v_f = mean_faces(v)
    v_f[..., 0] = 0.0  # odd symmetry at the origin
    v_f[..., -1] = 1.5 * v[..., -1] - 0.5 * v[..., -2]
    v_f *= grid.face_areas  # the face fluxes; in place, as the input may be a stack of rows
    d = np.subtract(v_f[..., 1:], v_f[..., :-1])
    return np.divide(d, grid.shell_volumes, out=d)
