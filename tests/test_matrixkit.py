"""char_coeffs against brute-force minors, plus the PSD / targeted-SVD helpers."""

import numpy as np
import pytest

from urstates.errors import InvalidInputError
from urstates.matrixkit import (
    char_coeffs,
    principal_minor_sum,
    psd_min_eig,
    targeted_eigenvector,
)


def test_char_coeffs_diagonal():
    c = char_coeffs(np.diag([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(c, [1.0, 6.0, 11.0, 6.0], rtol=1e-14)


def test_char_coeffs_endpoints():
    rng = np.random.default_rng(7)
    M = rng.standard_normal((5, 5))
    c = char_coeffs(M)
    assert c[0] == 1.0
    np.testing.assert_allclose(c[1], np.trace(M), rtol=1e-12)
    np.testing.assert_allclose(c[5], np.linalg.det(M), rtol=1e-10)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_char_coeffs_vs_minor_sums_real(n):
    rng = np.random.default_rng(100 + n)
    M = rng.standard_normal((n, n))
    c = char_coeffs(M)
    for r in range(n + 1):
        np.testing.assert_allclose(c[r], principal_minor_sum(M, r),
                                   rtol=1e-10, atol=1e-12)


def test_char_coeffs_vs_minor_sums_complex():
    rng = np.random.default_rng(11)
    M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    c = char_coeffs(M)
    for r in range(5):
        np.testing.assert_allclose(c[r], principal_minor_sum(M, r),
                                   rtol=1e-10, atol=1e-12)


def test_char_coeffs_matches_numpy_poly():
    # np.poly carries det(lam I - M) by descending powers with leading 1;
    # the package convention differs from it by alternating signs
    rng = np.random.default_rng(3)
    M = rng.standard_normal((4, 4))
    c = char_coeffs(M)
    p = np.poly(M)
    np.testing.assert_allclose(c, [(-1.0) ** r * p[r] for r in range(5)],
                               rtol=1e-10, atol=1e-12)


def test_square_input_is_enforced():
    with pytest.raises(InvalidInputError):
        char_coeffs(np.zeros((2, 3)))
    with pytest.raises(InvalidInputError):
        char_coeffs(np.zeros((0, 0)))
    with pytest.raises(InvalidInputError):
        char_coeffs(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(InvalidInputError):
        char_coeffs(np.zeros((3, 2, 3)))
    # only char_coeffs and psd_min_eig take stacks
    with pytest.raises(InvalidInputError):
        principal_minor_sum(np.zeros((2, 3, 3)), 1)
    with pytest.raises(InvalidInputError):
        targeted_eigenvector(np.zeros((2, 3, 3)), 0.0)


def test_minor_sum_argument_checks():
    M = np.eye(3)
    assert principal_minor_sum(M, 0) == 1.0
    with pytest.raises(InvalidInputError):
        principal_minor_sum(M, -1)
    with pytest.raises(InvalidInputError):
        principal_minor_sum(M, 4)
    with pytest.raises(InvalidInputError):
        principal_minor_sum(M, 1.5)


def test_psd_min_eig_known_values():
    assert psd_min_eig(np.eye(4)) == pytest.approx(1.0)
    assert psd_min_eig(np.array([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx(1.0)
    herm = np.array([[1.0, 1j], [-1j, 1.0]])
    assert psd_min_eig(herm) == pytest.approx(0.0, abs=1e-12)


def test_psd_min_eig_rejects_non_hermitian():
    with pytest.raises(InvalidInputError):
        psd_min_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def _hermitian_stack(rng, shape, n):
    A = rng.standard_normal(shape + (n, n)) + 1j * rng.standard_normal(shape + (n, n))
    return A + np.swapaxes(A, -2, -1).conj()


@pytest.mark.parametrize("shape", [(1,), (5,), (2, 3)])
def test_stacks_equal_the_per_matrix_results(shape):
    rng = np.random.default_rng(17)
    H = _hermitian_stack(rng, shape, 3)
    lam = psd_min_eig(H)
    coeffs = char_coeffs(H)
    assert lam.shape == shape and coeffs.shape == shape + (4,)
    for idx in np.ndindex(*shape):
        assert lam[idx] == psd_min_eig(H[idx])
        np.testing.assert_array_equal(coeffs[idx], char_coeffs(H[idx]))
    real = H.real
    np.testing.assert_array_equal(char_coeffs(real)[(0,) * len(shape)],
                                  char_coeffs(real[(0,) * len(shape)]))


@pytest.mark.parametrize("k", [0, 3])
def test_a_stack_is_refused_for_one_bad_matrix(k):
    rng = np.random.default_rng(19)
    H = _hermitian_stack(rng, (4,), 3)
    skewed = H.copy()
    # within 1e-12 of the largest entry of one matrix is still Hermitian...
    skewed[k, 0, 1] += 1e-13 * np.abs(H[k]).max()
    psd_min_eig(skewed)
    # ...but past it that one matrix sinks the whole stack
    skewed[k, 0, 1] += 1e-9 * np.abs(H[k]).max()
    with pytest.raises(InvalidInputError, match="not Hermitian"):
        psd_min_eig(skewed)
    for bad in (np.nan, np.inf):
        broken = H.copy()
        broken[k, 2, 2] = bad
        with pytest.raises(InvalidInputError, match="non-finite"):
            psd_min_eig(broken)
        with pytest.raises(InvalidInputError, match="non-finite"):
            char_coeffs(broken)


def test_hermiticity_tolerance_is_relative_to_each_matrix():
    # a deviation that is small next to a large matrix elsewhere in the
    # stack still counts against the small matrix it sits in
    small = np.array([[1.0, 1e-9], [0.0, 1.0]])
    large = 1e6 * np.eye(2)
    with pytest.raises(InvalidInputError, match="not Hermitian"):
        psd_min_eig(np.stack([large, small]))


def test_targeted_eigenvector_on_normal_matrix():
    vec, res = targeted_eigenvector(np.diag([1.0, 4.0, 9.0]), 4.0)
    assert res < 1e-12
    np.testing.assert_allclose(np.abs(vec), [0.0, 1.0, 0.0], atol=1e-12)


def test_targeted_eigenvector_on_nonnormal_matrix():
    # strongly nonnormal upper triangular: dense eig is pseudospectrum
    # limited, but the singular vector at the exact eigenvalue stays clean
    n = 40
    M = np.diag(np.arange(n, dtype=float)) + 0.5 * np.triu(np.ones((n, n)), 1)
    vec, res = targeted_eigenvector(M, 7.0)
    assert res < 1e-10
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
    assert np.linalg.norm(M @ vec - 7.0 * vec) < 1e-9
