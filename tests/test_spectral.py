"""Spectral module: transforms, operators, probes."""

import math

import numpy as np
import pytest
from scipy import integrate

from avg_sfpde.spectral import (
    ROW_BLOCK,
    PdeOperator,
    SpectralOverflowError,
    SpectralSpace,
    coercivity_probe,
)


def simpson_coefficient_oracle(f, i, L=1.0, m=4096):
    """Composite Simpson of int_0^L f(x) e_i(x) dx on a dense grid."""
    x = np.linspace(0.0, L, m + 1)
    e = math.sqrt(2.0 / L) * np.sin(i * math.pi * x / L)
    return integrate.simpson(f(x) * e, x=x)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [32, 256, 1025, 4096])
def test_transform_round_trip(m):
    k = 8
    space = SpectralSpace(1.0, k, quad_points=m)
    rng = np.random.default_rng(0)
    coeffs = rng.standard_normal(k)
    back = space.to_coeffs(space.to_values(coeffs))
    np.testing.assert_allclose(back, coeffs, rtol=1e-10, atol=1e-12)


def test_matrix_and_fft_paths_agree():
    k = 8
    sm = SpectralSpace(2.0, k, quad_points=256)
    rng = np.random.default_rng(1)
    coeffs = rng.standard_normal(k)
    vals_mat = sm.to_values(coeffs)
    # force the fft path by zeroing the cached matrices
    sm2 = SpectralSpace(2.0, k, quad_points=256)
    sm2._to_values_mat = None
    sm2._to_coeffs_mat = None
    vals_fft = sm2.to_values(coeffs)
    np.testing.assert_allclose(vals_mat, vals_fft, atol=1e-12)
    np.testing.assert_allclose(sm.to_coeffs(vals_mat), sm2.to_coeffs(vals_fft), atol=1e-12)


def _by_blocks(batch, mat):
    """batch @ mat as separate 2-D products of 16 rows, the short last block
    zero-padded, cut back to the batch's rows."""
    rows = len(batch)
    padded = np.zeros((ROW_BLOCK * -(-rows // ROW_BLOCK), batch.shape[1]))
    padded[:rows] = batch
    return np.concatenate([padded[i:i + ROW_BLOCK] @ mat
                           for i in range(0, len(padded), ROW_BLOCK)])[:rows]


@pytest.mark.parametrize("k", [8, 16, 32])
@pytest.mark.parametrize("rows", [1, 5, 16, 17, 40, 64, 256])
def test_wide_batch_transforms_equal_16_row_products(k, rows):
    # a batch of any width has the bits of its 16-row blocks transformed one
    # at a time, a partial last block those of its zero-padded product, so a
    # path's state never depends on the batch width
    space = SpectralSpace(1.0, k)
    rng = np.random.default_rng(k + rows)
    coeffs = rng.standard_normal((rows, k))
    values = rng.standard_normal((rows, space.m))
    np.testing.assert_array_equal(space.to_values(coeffs),
                                  _by_blocks(coeffs, space._to_values_mat.T))
    np.testing.assert_array_equal(space.to_coeffs(values),
                                  _by_blocks(values, space._to_coeffs_mat.T))


def _blas_version():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        return "unknown"


@pytest.mark.parametrize("k", [8, 16, 32, 513, 600])
def test_a_row_of_a_16_row_product_ignores_its_place_and_its_block_mates(k):
    # the batch layout rests on this property of the BLAS products (grids of
    # up to 1024 points) and of scipy's DST (k = 513 and 600): a row's bits
    # in a 16-row transform do not change when the block is permuted, nor
    # when its other rows are refilled (with zeros, as padding does, or with
    # new draws), nor when the row is transformed alone, as a vector or a
    # one-row batch, or inside a 17-row batch.  A BLAS or scipy that breaks
    # it fails here, not as digest mismatches.
    space = SpectralSpace(1.0, k)
    assert (space._to_values_mat is None) == (k > 512)
    rng = np.random.default_rng(100 + k)
    misses = []
    for transform, width in ((space.to_values, k), (space.to_coeffs, space.m)):
        for trial in range(40):
            block = rng.standard_normal((ROW_BLOCK, width))
            base = transform(block)
            perm = rng.permutation(ROW_BLOCK)
            if not np.array_equal(transform(block[perm]), base[perm]):
                misses.append(f"{transform.__name__}, trial {trial}: permuted")
            keep = rng.random(ROW_BLOCK) < 0.5
            refilled = np.zeros_like(block) if trial % 2 else rng.standard_normal(block.shape)
            refilled[keep] = block[keep]
            if not np.array_equal(transform(refilled)[keep], base[keep]):
                misses.append(f"{transform.__name__}, trial {trial}: refilled")
            r = trial % ROW_BLOCK
            if not (np.array_equal(transform(block[r]), base[r])
                    and np.array_equal(transform(block[r:r + 1]), base[r:r + 1])):
                misses.append(f"{transform.__name__}, trial {trial}: alone")
            extra = rng.standard_normal((1, width))
            wide = transform(np.concatenate([block, extra]))
            if not (np.array_equal(wide[:ROW_BLOCK], base)
                    and np.array_equal(wide[ROW_BLOCK], transform(extra[0]))):
                misses.append(f"{transform.__name__}, trial {trial}: in 17 rows")
    assert not misses, "\n".join(misses + [f"numpy {np.__version__}, BLAS {_blas_version()}"])


@pytest.mark.parametrize("m", [64, 2048])
def test_a_vector_of_the_wrong_length_is_an_error_on_both_branches(m):
    # dense products (m <= 1024) and the DST (m > 1024) both refuse a
    # coefficient vector that is not k long, rather than padding it
    space = SpectralSpace(1.0, 8, quad_points=m)
    for wrong in (np.ones(5), np.ones(9), np.ones((3, 5))):
        with pytest.raises(ValueError):
            space.to_values(wrong)


@pytest.mark.parametrize("m", [64, 2048])
def test_grid_values_of_the_wrong_length_are_an_error_on_both_branches(m):
    # the DST (m > 1024) once transformed any length and returned k
    # coefficients of another grid; both branches name the grid's m
    space = SpectralSpace(1.0, 8, quad_points=m)
    for wrong in (np.ones(100), np.ones(m - 1), np.ones((3, m + 1))):
        with pytest.raises(ValueError, match=str(m)):
            space.to_coeffs(wrong)
    assert space.to_coeffs(np.ones(m)).shape == (8,)


def test_parseval_identity_against_grid_quadrature():
    space = SpectralSpace(1.0, 12, quad_points=64)
    rng = np.random.default_rng(2)
    coeffs = rng.standard_normal(12)
    values = space.to_values(coeffs)
    l2_grid = math.sqrt(space.quad(values**2))
    assert l2_grid == pytest.approx(np.linalg.norm(coeffs), rel=1e-8)


@pytest.mark.parametrize("k,m", [(4, 8), (4, 9), (8, 16), (8, 17), (16, 32),
                                 (16, 33), (32, 64), (32, 65), (1, 2)])
def test_simpson_matches_scipy_oracle(k, m):
    # m even leaves an odd count m + 1 of intervals: the last one takes
    # scipy's Cartwright correction
    space = SpectralSpace(1.7, k, quad_points=m)
    rng = np.random.default_rng(m)
    x = np.concatenate([[0.0], space.x, [space.L]])
    for _ in range(20):
        y = np.abs(space.to_values(rng.standard_normal(k))) ** 3
        oracle = integrate.simpson(np.concatenate([[0.0], y, [0.0]]), x=x)
        assert space.simpson(y) == pytest.approx(oracle, rel=1e-14)


def test_project_parabola_matches_simpson_oracle():
    # x(1-x) on L=1: oracle by dense composite Simpson quadrature; m=4096
    # takes the DST branch of to_coeffs
    space = SpectralSpace(1.0, 4, quad_points=4096)
    out = space.to_coeffs(space.x * (1.0 - space.x))
    for i in range(1, 5):
        oracle = simpson_coefficient_oracle(lambda x: x * (1.0 - x), i)
        assert out[i - 1] == pytest.approx(oracle, abs=1e-10)
        # cross-check of the oracle itself: closed form 4*sqrt(2)/(i pi)^3, odd i
        closed = 4.0 * math.sqrt(2.0) / (i * math.pi) ** 3 if i % 2 == 1 else 0.0
        assert oracle == pytest.approx(closed, abs=1e-12)


def test_anti_aliasing_floor_enforced():
    with pytest.raises(ValueError):
        SpectralSpace(1.0, 16, quad_points=31)


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def test_pure_laplacian_eigenfunction_fidelity():
    space = SpectralSpace(1.0, 8)
    op = PdeOperator("pure_laplacian")
    for i in (1, 3, 8):
        c = 0.7
        out = op.apply(space, c * space.basis_vector(i))
        expected = -space.eigenvalues[i - 1] * c * space.basis_vector(i)
        np.testing.assert_allclose(out, expected, atol=1e-12)


def test_reaction_diffusion_fixes_zero():
    space = SpectralSpace(1.0, 8)
    op = PdeOperator("reaction_diffusion", q=3.0)
    out = op.apply(space, np.zeros(8))
    np.testing.assert_allclose(out, 0.0, atol=0)


def test_porous_media_against_dense_grid_oracle():
    # coarse evaluations vs m=4096 oracle on 0.5*e_1; the squared mode has a
    # slowly decaying sine expansion, so m=64 sits at ~8e-6 and m=128 reaches 1e-6
    op = PdeOperator("porous_media", q=3.0)
    fine = SpectralSpace(1.0, 8, quad_points=4096)
    coeffs = 0.5 * fine.basis_vector(1)
    out_fine = op.apply(fine, coeffs)
    for m, tol in ((64, 2e-5), (128, 1e-6), (256, 1e-7)):
        coarse = SpectralSpace(1.0, 8, quad_points=m)
        out_coarse = op.apply(coarse, coeffs)
        err = np.linalg.norm(out_coarse - out_fine) / np.linalg.norm(out_fine)
        assert err < tol


def test_operator_rejects_q_not_above_two():
    with pytest.raises(ValueError):
        PdeOperator("porous_media", q=2.0)


def test_aliasing_guard_doubling_m():
    op = PdeOperator("porous_media", q=3.0)
    s1 = SpectralSpace(1.0, 8, quad_points=64)
    s2 = SpectralSpace(1.0, 8, quad_points=128)
    rng = np.random.default_rng(4)
    coeffs = 0.3 * rng.standard_normal(8) / (1.0 + np.arange(8)) ** 2
    a1 = op.apply(s1, coeffs)
    a2 = op.apply(s2, coeffs)
    assert np.linalg.norm(a1 - a2) / np.linalg.norm(a2) < 1e-6


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------

def test_coercivity_probe_zero_field():
    space = SpectralSpace(1.0, 6)
    op = PdeOperator("porous_media", q=3.0)
    pairing, bnorm = coercivity_probe(op, space, np.zeros(6))
    assert pairing == 0.0
    assert bnorm == 0.0


def test_coercivity_probe_laplacian_eigenfunction():
    space = SpectralSpace(1.0, 6, quad_points=256)
    op = PdeOperator("pure_laplacian")
    pairing, _ = coercivity_probe(op, space, space.basis_vector(1))
    assert pairing == pytest.approx(-space.eigenvalues[0], rel=1e-12)


def test_coercivity_probe_rejects_non_finite_coefficients():
    space = SpectralSpace(1.0, 4)
    with pytest.raises(SpectralOverflowError):
        coercivity_probe(PdeOperator("porous_media", q=3.0), space,
                         np.array([np.inf, 0.0, 0.0, 0.0]))
    with pytest.raises(SpectralOverflowError):
        coercivity_probe(PdeOperator("scalar_linear", a=1.0), None, np.array([np.nan]))


def test_porous_media_coercivity_inequality():
    # <A(u), u> = -||u||_q^q - ||u||_2^2 <= -1*||u||_q^q + 0*||u||^2 + 0
    space = SpectralSpace(1.0, 8, quad_points=128)
    op = PdeOperator("porous_media", q=3.0)
    u = 2.0 * space.basis_vector(1)
    pairing, bnorm_p = coercivity_probe(op, space, u)
    assert pairing <= -1.0 * bnorm_p + 0.0 * np.linalg.norm(u) ** 2 + 1e-10
    # oracle: quadrature of -(|u|^{q-2}u + u) u on a dense grid
    fine = SpectralSpace(1.0, 8, quad_points=4096)
    v = fine.to_values(u)
    x = np.concatenate([[0.0], fine.x, [fine.L]])
    oracle = -integrate.simpson(np.concatenate([[0.0], (np.abs(v) * v + v) * v, [0.0]]), x=x)
    assert pairing == pytest.approx(oracle, rel=1e-6)


@pytest.mark.parametrize("kind,q", [("porous_media", 3.0), ("reaction_diffusion", 3.0)])
def test_monotonicity_probe_nonpositive_on_random_pairs(kind, q):
    space = SpectralSpace(1.0, 8, quad_points=64)
    op = PdeOperator(kind, q=q)
    rng = np.random.default_rng(5)
    for _ in range(1000):
        u = rng.standard_normal(8)
        v = rng.standard_normal(8)
        gap = op.monotonicity_gap(space, u, v)
        tol = 1e-8 * (np.linalg.norm(u) + np.linalg.norm(v)) ** 2
        assert gap <= tol


def test_scalar_linear_operator():
    op = PdeOperator("scalar_linear", a=2.0)
    out = op.apply(None, np.array([3.0]))
    assert out[0] == pytest.approx(-6.0)
    assert op.stiff_diagonal(None)[0] == 2.0
