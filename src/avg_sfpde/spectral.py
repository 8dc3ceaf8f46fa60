"""Sine-basis spectral discretization on an interval with Dirichlet walls.

The state space is span{e_1, ..., e_k} with e_i(x) = sqrt(2/L) sin(i pi x / L)
and Laplacian eigenvalues lambda_i = (i pi / L)^2.  Nonlinear operators are
evaluated pseudospectrally on an m-point collocation grid with m >= 2k for
anti-aliasing.  Coefficient vectors are plain float arrays; their Euclidean
norm is the L2(0, L) norm of the field (Parseval).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import fft as sp_fft
from scipy import integrate

# dense transform matrices are faster than FFT dispatch for small grids
_MATMUL_LIMIT = 1024


class SpectralOverflowError(ArithmeticError):
    """Non-finite values encountered on the collocation grid."""


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
    # Leading axes are rows: a (P, k) batch of coefficient vectors maps to
    # (P, m) grid values in one matrix product, and back.

    def to_values(self, coeffs: np.ndarray) -> np.ndarray:
        """Field values on the interior collocation grid."""
        coeffs = np.asarray(coeffs, dtype=float)
        if self._to_values_mat is not None and coeffs.shape[-1] == self.k:
            return coeffs @ self._to_values_mat.T
        padded = np.zeros(coeffs.shape[:-1] + (self.m,))
        padded[..., : coeffs.shape[-1]] = coeffs * (self._basis_scale / 2.0)
        return sp_fft.dst(padded, type=1, axis=-1)

    def to_coeffs(self, values: np.ndarray, n_modes: int | None = None) -> np.ndarray:
        """First n_modes sine coefficients of grid values (default: k)."""
        n = self.k if n_modes is None else int(n_modes)
        values = np.asarray(values, dtype=float)
        if self._to_coeffs_mat is not None and n <= self.k:
            return values @ self._to_coeffs_mat[:n].T
        full = sp_fft.dst(values, type=1, axis=-1) * (self._dx * self._basis_scale / 2.0)
        return full[..., :n]

    # -- quadrature and norms --------------------------------------------------
    def quad(self, grid_values: np.ndarray) -> float:
        """int_0^L f dx by the trapezoid rule (endpoints vanish)."""
        return float(np.sum(grid_values) * self._dx)

    def simpson(self, grid_values: np.ndarray) -> float:
        """Composite Simpson over [0, L] including the zero endpoints."""
        y = np.concatenate([[0.0], np.asarray(grid_values, dtype=float), [0.0]])
        x = np.concatenate([[0.0], self.x, [self.L]])
        return float(integrate.simpson(y, x=x))

    def l2_norm(self, coeffs: np.ndarray) -> float:
        return float(np.linalg.norm(coeffs))

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

    def constant_one_coeffs(self) -> np.ndarray:
        """Galerkin projection of the constant function 1."""
        return self.to_coeffs(np.ones(self.m))


@dataclass
class SpectralField:
    """A field on (0, L) held as coefficients in the sine eigenbasis."""

    space: SpectralSpace
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (self.space.k,):
            raise ValueError(
                f"expected {self.space.k} coefficients, got shape {self.coeffs.shape}"
            )

    def values(self) -> np.ndarray:
        return self.space.to_values(self.coeffs)

    def norm(self) -> float:
        return self.space.l2_norm(self.coeffs)


def project(field, k: int, space: SpectralSpace | None = None) -> SpectralField:
    """Retain modes 1..k of a field, a grid-value array, or a callable.

    Idempotent and self-adjoint in L2.  Callables are sampled on the
    collocation grid; grid arrays must match the space's grid.
    """
    if k < 1:
        raise ValueError("mode count k must be >= 1")
    if isinstance(field, SpectralField):
        space = field.space
        if k > space.k:
            raise ValueError(f"k = {k} exceeds space capacity {space.k}")
        out = field.coeffs.copy()
        out[k:] = 0.0
        return SpectralField(space, out)
    if space is None:
        raise ValueError("projection of raw values needs a space")
    if k > space.k:
        raise ValueError(f"k = {k} exceeds space capacity {space.k}")
    values = field(space.x) if callable(field) else np.asarray(field, dtype=float)
    coeffs = np.zeros(space.k)
    coeffs[:k] = space.to_coeffs(values, n_modes=k)
    return SpectralField(space, coeffs)


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PdeOperator:
    """Drift operator A acting on spectral fields (or scalars).

    kinds:
      * ``porous_media``: A(u) = Laplace(|u|^{q-2} u + u); with
        ``literal_power`` set, the nonlinearity is |u|^{q-2} + u instead
        (kept for comparison, not used by any preset)
      * ``reaction_diffusion``: A(u) = Laplace(u) - u |u|^{q-2}
      * ``pure_laplacian``: A(u) = Laplace(u)
      * ``scalar_linear``: A(u) = -a u on scalar states
    """

    kind: str
    q: float = 0.0
    a: float = 1.0
    literal_power: bool = False

    def __post_init__(self):
        if self.kind in ("porous_media", "reaction_diffusion") and self.q <= 2:
            raise ValueError("nonlinearity exponent q must exceed 2")
        if self.kind not in ("porous_media", "reaction_diffusion",
                             "pure_laplacian", "scalar_linear"):
            raise ValueError(f"unknown operator kind {self.kind!r}")

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
        """Explicitly treated part of A(u) as coefficients, from grid values
        (leading axes are rows)."""
        if self.kind == "pure_laplacian" or self.is_scalar:
            return np.zeros(1 if self.is_scalar else space.k)
        if not np.all(np.isfinite(values)):
            raise SpectralOverflowError("non-finite grid values in operator input")
        if self.kind == "porous_media":
            w = np.abs(values) ** (self.q - 2.0) if self.literal_power \
                else np.abs(values) ** (self.q - 2.0) * values
            return -space.eigenvalues * space.to_coeffs(w)
        # reaction_diffusion: -u|u|^{q-2}
        w = values * np.abs(values) ** (self.q - 2.0)
        return -space.to_coeffs(w)

    def apply(self, space: SpectralSpace | None, coeffs: np.ndarray) -> np.ndarray:
        """Full A(u) as coefficients in the retained modes."""
        if self.is_scalar:
            return -self.a * np.asarray(coeffs, dtype=float)
        values = space.to_values(coeffs)
        return self.nonlinear_from_values(space, values) - space.eigenvalues * coeffs

    # -- probes ----------------------------------------------------------------
    def _psi(self, values):
        if self.literal_power:
            return np.abs(values) ** (self.q - 2.0) + values
        return np.abs(values) ** (self.q - 2.0) * values + values

    def pairing(self, space: SpectralSpace | None, u: np.ndarray, v: np.ndarray) -> float:
        """Duality pairing <A(u), v> in the operator's native triple.

        Porous media uses the dual-space pairing <Laplace(w), v> = -int w v;
        the other kinds pair in L2.
        """
        if self.is_scalar:
            return float(-self.a * u[0] * v[0])
        uv = space.to_values(u)
        vv = space.to_values(v)
        if self.kind == "porous_media":
            return -space.quad(self._psi(uv) * vv)
        if self.kind == "reaction_diffusion":
            lin = -float(np.sum(space.eigenvalues * u * v))
            return lin - space.quad(uv * np.abs(uv) ** (self.q - 2.0) * vv)
        return -float(np.sum(space.eigenvalues * u * v))

    def monotonicity_gap(self, space: SpectralSpace | None,
                         u: np.ndarray, v: np.ndarray) -> float:
        """2 <A(u) - A(v), u - v>; nonpositive for the monotone kinds."""
        if self.is_scalar:
            return float(-2.0 * self.a * (u[0] - v[0]) ** 2)
        uv = space.to_values(u)
        vv = space.to_values(v)
        dv = uv - vv
        if self.kind == "porous_media":
            return -2.0 * space.quad((self._psi(uv) - self._psi(vv)) * dv)
        if self.kind == "reaction_diffusion":
            lin = -2.0 * float(np.sum(space.eigenvalues * (u - v) ** 2))
            nl = -2.0 * space.quad(
                (uv * np.abs(uv) ** (self.q - 2.0) - vv * np.abs(vv) ** (self.q - 2.0)) * dv)
            return lin + nl
        return -2.0 * float(np.sum(space.eigenvalues * (u - v) ** 2))

    def b_norm(self, space: SpectralSpace | None, coeffs: np.ndarray) -> float:
        """Norm of the coercivity space: L^q for porous media, the H1
        seminorm for reaction-diffusion, spectral otherwise."""
        if self.is_scalar:
            return abs(float(coeffs[0]))
        if self.kind == "porous_media":
            return space.lq_norm(space.to_values(coeffs), self.q)
        if self.kind == "reaction_diffusion":
            return space.h1_seminorm(coeffs)
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


def coercivity_probe(op: PdeOperator, u: SpectralField) -> tuple[float, float]:
    """(pairing <A(u), u>, ||u||_B^p) for the coercivity inequality check."""
    coeffs = u.coeffs if isinstance(u, SpectralField) else np.asarray(u, float)
    space = u.space if isinstance(u, SpectralField) else None
    if not np.all(np.isfinite(coeffs)):
        raise SpectralOverflowError("non-finite coefficients in coercivity probe")
    pairing = op.pairing(space, coeffs, coeffs)
    bnorm = op.b_norm(space, coeffs) ** op.growth_exponent
    return pairing, bnorm


def apply_operator(op: PdeOperator, u: SpectralField) -> SpectralField:
    """A(u) represented in the retained modes."""
    return SpectralField(u.space, op.apply(u.space, u.coeffs))
