"""char_coeffs and its closed forms against brute-force minors, plus the
PSD helper."""

import numpy as np
import pytest

from urstates.errors import InvalidInputError
from urstates.matrixkit import (
    _hermitian_min_eig_2x2,
    _small_char_coeffs,
    char_coeffs,
    principal_minor_sum,
    psd_min_eig,
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


def test_minor_sum_argument_checks():
    M = np.eye(3)
    assert principal_minor_sum(M, 0) == 1.0
    with pytest.raises(InvalidInputError):
        principal_minor_sum(M, -1)
    with pytest.raises(InvalidInputError):
        principal_minor_sum(M, 4)
    with pytest.raises(InvalidInputError):
        principal_minor_sum(M, 1.5)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", ["symmetric", "antisymmetric"])
def test_small_char_coeffs_match_both_general_routes(n, kind):
    # the shapes of sigma and C; C_r is compared on the scale of its
    # natural size max|m|^r, since C_n of an antisymmetric 3x3 is 0
    rng = np.random.default_rng(41 + n)
    for _ in range(50):
        A = rng.standard_normal((n, n))
        M = A + A.T if kind == "symmetric" else A - A.T
        c = _small_char_coeffs(M.tolist())
        fl = char_coeffs(M)
        scale = max(1.0, np.abs(M).max())
        for r in range(n + 1):
            ref = principal_minor_sum(M, r)
            tol = 1e-13 * max(abs(ref), scale ** r)
            assert abs(c[r] - ref) <= tol
            assert abs(c[r] - fl[r]) <= tol


def test_small_char_coeffs_refusals():
    with pytest.raises(InvalidInputError, match="non-finite"):
        _small_char_coeffs([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(InvalidInputError, match="non-finite"):
        _small_char_coeffs([[1.0, 0.0, 0.0], [0.0, np.inf, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(InvalidInputError, match="n <= 3"):
        _small_char_coeffs(np.eye(4).tolist())


def test_min_eig_2x2_matches_eigvalsh():
    rng = np.random.default_rng(43)
    for _ in range(200):
        A = rng.standard_normal((2, 2)) * 10.0 ** rng.uniform(-3, 3, (2, 2))
        S, C = A + A.T, rng.standard_normal() * np.array([[0.0, 1.0], [-1.0, 0.0]])
        for H, args in ((S, (S.tolist(),)), (S + 1j * C, (S.tolist(), C.tolist()))):
            ref = np.linalg.eigvalsh(H)[0]
            assert abs(_hermitian_min_eig_2x2(*args) - ref) <= 1e-14 * np.abs(H).max()


def test_min_eig_2x2_of_a_singular_robertson_matrix():
    # a canonical squeezed state saturates Robertson: R = sigma + iC is singular
    from urstates.moments import moment_report, observable_set
    from urstates.states import canonical_ss

    rep = moment_report(observable_set("canonical", N=128), canonical_ss(0.4, 1.25, 0.75, N=128))
    R = rep.robertson
    ref = np.linalg.eigvalsh(R)[0]
    lam = _hermitian_min_eig_2x2(rep.sigma.tolist(), rep.commut.tolist())
    assert abs(lam - ref) <= 1e-14 * np.abs(R).max()
    assert abs(lam) < 1e-12 and rep.robertson_min_eig == lam


@pytest.mark.parametrize("re, im", [
    ([[1.0, 0.5 + 2e-12], [0.5, 1.0]], None),             # sigma not symmetric
    ([[1.0, 0.5], [0.5, 1.0]], [[0.0, 0.5], [0.5, 0.0]]),  # C not antisymmetric
    ([[1.0, 0.5], [0.5, 1.0]], [[2e-12, 0.5], [-0.5, 0.0]]),  # C with a diagonal
    ([[1.0, 0.5], [0.5, np.nan]], None),
    ([[1.0, 0.5], [0.5, 1.0]], [[0.0, np.inf], [-np.inf, 0.0]]),
])
def test_min_eig_2x2_refuses_what_psd_min_eig_refuses(re, im):
    H = np.zeros((2, 2), dtype=complex)
    H.real, H.imag = re, im if im is not None else 0.0
    with pytest.raises(InvalidInputError):
        psd_min_eig(H)
    with pytest.raises(InvalidInputError):
        _hermitian_min_eig_2x2(re, im)


def test_min_eig_2x2_hermiticity_tolerance_is_relative():
    # 1e-12 of max(1, max-norm), as in psd_min_eig: 0.5 of it passes, 2 of it fails
    for big in (1.0, 1e6):
        for factor, ok in ((0.5, True), (2.0, False)):
            re = [[big, 0.1], [0.1 + factor * 1e-12 * big, 1.0]]
            im = [[0.0, 0.3], [-0.3, 0.0]]
            H = np.array(re) + 1j * np.array(im)
            if ok:
                assert _hermitian_min_eig_2x2(re, im) == pytest.approx(psd_min_eig(H), abs=1e-9)
            else:
                with pytest.raises(InvalidInputError, match="not Hermitian"):
                    _hermitian_min_eig_2x2(re, im)
                with pytest.raises(InvalidInputError, match="not Hermitian"):
                    psd_min_eig(H)


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

