"""Sine-basis spectral discretization on an interval with Dirichlet walls.

The state space is span{e_1, ..., e_k} with e_i(x) = sqrt(2/L) sin(i pi x / L)
and Laplacian eigenvalues lambda_i = (i pi / L)^2.  Nonlinear operators are
evaluated pseudospectrally on an m-point collocation grid with m >= 2k for
anti-aliasing.  Coefficient vectors are plain float arrays; their Euclidean
norm is the L2(0, L) norm of the field (Parseval).

A transform maps the rows of its last axis, a (P, k) batch of coefficient
vectors or one (k,) vector to (P, m) or (m,) grid values and back.  On grids
of at most 1024 points it multiplies them in zero-padded ROW_BLOCK-row blocks,
so a row has the same bits alone and at any place in any batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# dense transform matrices are faster than FFT dispatch for small grids
_MATMUL_LIMIT = 1024
# rows per transform product; a product of another row count rounds differently
ROW_BLOCK = 16


class SpectralOverflowError(ArithmeticError):
    """Non-finite coefficients given to a spectral probe."""


def _simpson_weights(m: int, dx: float) -> np.ndarray:
    """Composite Simpson weights of the m interior points of the uniform grid
    0, dx, ..., (m + 1) dx, whose two endpoint values vanish.

    An odd count m + 1 of intervals closes with Cartwright's correction on the
    last interval, dx * (-1, 8, 5) / 12 on its last three points, as
    scipy.integrate.simpson does.
    """
    n = m + 2 if m % 2 else m + 1          # points covered by plain Simpson
    w = np.zeros(m + 2)
    w[0:n - 1:2] += dx / 3.0
    w[1:n - 1:2] += 4.0 * dx / 3.0
    w[2:n:2] += dx / 3.0
    if n < m + 2:
        w[-3:] += dx * np.array([-1.0, 8.0, 5.0]) / 12.0
    return w[1:-1]


def _blocked_product(rows: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """rows @ mat, R rows along the last axis (a vector is one), as stacked
    ROW_BLOCK-row products, the short last block padded with zero rows."""
    x = rows.reshape(-1, rows.shape[-1])
    r = len(x)
    if r % ROW_BLOCK:
        x = np.concatenate([x, np.zeros((-r % ROW_BLOCK, x.shape[1]))])
    out = (x.reshape(-1, ROW_BLOCK, x.shape[1]) @ mat).reshape(len(x), -1)[:r]
    return out.reshape(rows.shape[:-1] + (-1,))


class SpectralSpace:
    """Geometry, transforms, and quadrature for one sine-basis discretization."""

    def __init__(self, length: float = 1.0, n_modes: int = 16, quad_points: int | None = None):
        if length <= 0:
            raise ValueError("domain length must be positive")
        if n_modes < 1:
            raise ValueError("need at least one mode")
        m = 2 * n_modes if quad_points is None else int(quad_points)
        if m < 2 * n_modes:
            raise ValueError(f"quad_points {m} below anti-aliasing floor 2k = {2 * n_modes}")
        self.L = float(length)
        self.k = int(n_modes)
        self.m = m
        self.x = np.arange(1, m + 1) * self.L / (m + 1)
        self.eigenvalues = (np.arange(1, self.k + 1) * math.pi / self.L) ** 2
        self._dx = self.L / (m + 1)
        self._basis_scale = math.sqrt(2.0 / self.L)
        self._simpson_w = _simpson_weights(m, self._dx)
        if m <= _MATMUL_LIMIT:
            j = np.arange(1, m + 1)
            i = np.arange(1, m + 1)
            s = np.sin(math.pi * np.outer(i, j) / (m + 1))
            self._to_values_mat = (self._basis_scale * s).T[:, : self.k].copy()
            self._to_coeffs_mat = (self._dx * self._basis_scale) * s[: self.k, :].copy()
        else:
            self._to_values_mat = None
            self._to_coeffs_mat = None

    # -- transforms ----------------------------------------------------------
    def to_values(self, coeffs: np.ndarray) -> np.ndarray:
        """Field values on the interior collocation grid."""
        coeffs = np.asarray(coeffs, dtype=float)
        if self._to_values_mat is not None:
            return _blocked_product(coeffs, self._to_values_mat.T)
        from scipy import fft as sp_fft  # loaded by the first transform that needs it
        padded = np.zeros(coeffs.shape[:-1] + (self.m,))
        padded[..., :self.k] = coeffs * (self._basis_scale / 2.0)
        return sp_fft.dst(padded, type=1, axis=-1)

    def to_coeffs(self, values: np.ndarray) -> np.ndarray:
        """The k sine coefficients of grid values."""
        values = np.asarray(values, dtype=float)
        if self._to_coeffs_mat is not None:
            return _blocked_product(values, self._to_coeffs_mat.T)
        if values.shape[-1] != self.m:
            raise ValueError(f"grid values of length {values.shape[-1]}: "
                             f"the grid has m = {self.m} points")
        from scipy import fft as sp_fft
        full = sp_fft.dst(values, type=1, axis=-1) * (self._dx * self._basis_scale / 2.0)
        return full[..., :self.k]

    # -- quadrature and norms --------------------------------------------------
    def quad(self, grid_values: np.ndarray) -> float:
        """int_0^L f dx by the trapezoid rule (endpoints vanish)."""
        return float(np.sum(grid_values) * self._dx)

    def simpson(self, grid_values: np.ndarray) -> float:
        """Composite Simpson over [0, L] including the zero endpoints."""
        return float(np.asarray(grid_values, dtype=float) @ self._simpson_w)

    def lq_norm(self, values: np.ndarray, q: float) -> float:
        return self.simpson(np.abs(values) ** q) ** (1.0 / q)

    def h1_seminorm(self, coeffs: np.ndarray) -> float:
        return math.sqrt(float(np.sum(self.eigenvalues[: len(coeffs)] * coeffs**2)))

    def hm1_norm(self, coeffs: np.ndarray) -> float:
        """Dual-space norm realized spectrally: sqrt(sum c_i^2 / lambda_i)."""
        return math.sqrt(float(np.sum(coeffs**2 / self.eigenvalues[: len(coeffs)])))

    def basis_vector(self, i: int) -> np.ndarray:
        e = np.zeros(self.k)
        e[i - 1] = 1.0
        return e


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PdeOperator:
    """Drift operator A acting on spectral fields (or scalars).

    kinds:
      * ``porous_media``: A(u) = Laplace(|u|^{q-2} u + u)
      * ``reaction_diffusion``: A(u) = Laplace(u) - u |u|^{q-2}
      * ``pure_laplacian``: A(u) = Laplace(u)
      * ``scalar_linear``: A(u) = -a u on scalar states, the one kind with a rate a
    """

    KINDS = ("porous_media", "reaction_diffusion", "pure_laplacian", "scalar_linear")
    kind: str
    q: float = 0.0
    a: float = 1.0

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if self.kind in ("porous_media", "reaction_diffusion") and not self.q > 2:
            raise ValueError("nonlinearity exponent q must exceed 2")
        if self.a != 1.0 and not self.is_scalar:
            raise ValueError(f"a = {self.a}: operator {self.kind!r} has no rate a")

    @property
    def is_scalar(self) -> bool:
        return self.kind == "scalar_linear"

    # -- stepping interface --------------------------------------------------
    def stiff_diagonal(self, space: SpectralSpace | None) -> np.ndarray:
        """Nonnegative rates treated implicitly by the semi-implicit scheme."""
        if self.is_scalar:
            return np.array([self.a])
        return space.eigenvalues.copy()

    def nonlinear_from_values(self, space: SpectralSpace, values: np.ndarray) -> np.ndarray:
        """Explicitly treated part of a field operator's A(u) as coefficients,
        from grid values (leading axes are rows)."""
        if self.kind == "pure_laplacian":
            return np.zeros(space.k)
        w = space.to_coeffs(self._power(values))
        # porous media: Laplace(|u|^{q-2} u); reaction-diffusion: -u|u|^{q-2}
        return -space.eigenvalues * w if self.kind == "porous_media" else -w

    def apply(self, space: SpectralSpace | None, coeffs: np.ndarray) -> np.ndarray:
        """Full A(u) as coefficients in the retained modes."""
        if self.is_scalar:
            return -self.a * np.asarray(coeffs, dtype=float)
        values = space.to_values(coeffs)
        return self.nonlinear_from_values(space, values) - space.eigenvalues * coeffs

    # -- probes ----------------------------------------------------------------
    def _power(self, values):
        """|u|^{q-2} u at each grid value."""
        return np.abs(values) ** (self.q - 2.0) * values

    def _psi(self, values):
        return self._power(values) + values

    def pairing(self, space: SpectralSpace | None, u: np.ndarray, v: np.ndarray) -> float:
        """Duality pairing <A(u), v> in the operator's native triple.

        Porous media uses the dual-space pairing <Laplace(w), v> = -int w v;
        the other kinds pair in L2.
        """
        if self.is_scalar:
            return float(-self.a * u[0] * v[0])
        uv, vv = space.to_values(u), space.to_values(v)
        if self.kind == "porous_media":
            return -space.quad(self._psi(uv) * vv)
        pair = -float(np.sum(space.eigenvalues * u * v))
        if self.kind == "reaction_diffusion":
            pair -= space.quad(self._power(uv) * vv)
        return pair

    def monotonicity_gap(self, space: SpectralSpace | None,
                         u: np.ndarray, v: np.ndarray) -> float:
        """2 <A(u) - A(v), u - v>; nonpositive for the monotone kinds."""
        if self.is_scalar:
            return float(-2.0 * self.a * (u[0] - v[0]) ** 2)
        uv, vv = space.to_values(u), space.to_values(v)
        if self.kind == "porous_media":
            return -2.0 * space.quad((self._psi(uv) - self._psi(vv)) * (uv - vv))
        gap = -2.0 * float(np.sum(space.eigenvalues * (u - v) ** 2))
        if self.kind == "reaction_diffusion":
            gap -= 2.0 * space.quad((self._power(uv) - self._power(vv)) * (uv - vv))
        return gap

    def b_norm(self, space: SpectralSpace | None, coeffs: np.ndarray) -> float:
        """Norm of the coercivity space: L^q for porous media, the H1
        seminorm for reaction-diffusion, spectral otherwise."""
        if self.is_scalar:
            return abs(float(coeffs[0]))
        if self.kind == "porous_media":
            return space.lq_norm(space.to_values(coeffs), self.q)
        return space.h1_seminorm(coeffs)

    @property
    def growth_exponent(self) -> float:
        """p in the coercivity/growth inequalities."""
        if self.kind == "porous_media":
            return self.q
        return 2.0

    def dual_norm(self, space: SpectralSpace | None, coeffs: np.ndarray) -> float:
        """||A(u)||_{B*} realized per kind (L^{q'} for porous media, spectral
        dual norm otherwise)."""
        if self.is_scalar:
            return self.a * abs(float(coeffs[0]))
        if self.kind == "porous_media":
            qp = self.q / (self.q - 1.0)
            return space.lq_norm(self._psi(space.to_values(coeffs)), qp)
        return space.hm1_norm(self.apply(space, coeffs))


def coercivity_probe(op: PdeOperator, space: SpectralSpace | None,
                     coeffs: np.ndarray) -> tuple[float, float]:
    """(pairing <A(u), u>, ||u||_B^p) for the coercivity inequality check;
    ``space`` is None for scalar states."""
    coeffs = np.asarray(coeffs, dtype=float)
    if not np.all(np.isfinite(coeffs)):
        raise SpectralOverflowError("non-finite coefficients in coercivity probe")
    pairing = op.pairing(space, coeffs, coeffs)
    bnorm = op.b_norm(space, coeffs) ** op.growth_exponent
    return pairing, bnorm
