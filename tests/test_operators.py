import numpy as np
import pytest
from numpy.testing import assert_allclose

from darkdimers.operators import (
    IDENTITY_2,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    dicke_state,
    embed_single_site,
    excitation_counts,
    expectation,
    ground_state,
    product_state,
    pure_to_density,
)

from matrix_checks import (basis_state, is_hermitian, is_unitary, is_valid_density_matrix,
                           smallest_eigenvalue)

PAULI_Z_MATRIX = np.diag([1.0, -1.0]).astype(complex)  # literal diag(1,-1)


def test_embed_single_atom():
    assert_allclose(embed_single_site(SIGMA_MINUS, 1, 1), SIGMA_MINUS)


def test_embed_diagonal_bit_convention():
    assert_allclose(embed_single_site(PAULI_Z_MATRIX, 2, 2), np.diag([1, -1, 1, -1]))


def test_embed_lowers_middle_atom():
    # |g e g> has the middle bit set: index 0b010 = 2
    psi = basis_state(3, 0b010)
    out = embed_single_site(SIGMA_MINUS, 2, 3) @ psi
    assert_allclose(out, basis_state(3, 0))


@pytest.mark.parametrize("site", [0, 4, -1])
def test_embed_site_out_of_range(site):
    with pytest.raises(ValueError):
        embed_single_site(SIGMA_MINUS, site, 3)


def test_embed_wrong_shape():
    with pytest.raises(ValueError):
        embed_single_site(np.eye(4), 1, 3)


def test_embedded_operators_on_distinct_sites_commute_exactly():
    a = embed_single_site(SIGMA_MINUS, 1, 3)
    b = embed_single_site(SIGMA_PLUS, 3, 3)
    assert np.max(np.abs(a @ b - b @ a)) == 0.0


def test_expectation_ground_sigma_z():
    g = np.array([1.0, 0.0], dtype=complex)
    assert expectation(g, SIGMA_Z) == pytest.approx(-1.0)


def test_expectation_maximally_mixed_traceless():
    rho = np.eye(4) / 4.0
    obs = np.kron(SIGMA_Z, IDENTITY_2)
    assert abs(expectation(rho, obs)) <= 1e-14


def test_expectation_sigma_x_eigenstate():
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    assert expectation(plus, SIGMA_X) == pytest.approx(1.0)


def test_expectation_dimension_mismatch():
    with pytest.raises(ValueError):
        expectation(np.array([1.0, 0.0]), np.eye(4))
    with pytest.raises(ValueError):
        expectation(np.eye(2, dtype=complex) / 2, np.eye(4))


def test_pauli_algebra():
    # sigma_pm = (sigma_x -/+ i sigma_y)/2 in the g-first ordering
    assert_allclose((SIGMA_X - 1j * SIGMA_Y) / 2, SIGMA_PLUS)
    assert_allclose((SIGMA_X + 1j * SIGMA_Y) / 2, SIGMA_MINUS)
    assert_allclose(SIGMA_PLUS @ SIGMA_MINUS - SIGMA_MINUS @ SIGMA_PLUS, SIGMA_Z)


def test_hermitian_unitary_predicates():
    assert is_hermitian(SIGMA_X) and is_hermitian(SIGMA_Y) and is_hermitian(SIGMA_Z)
    assert not is_hermitian(SIGMA_MINUS)
    assert is_unitary(SIGMA_X)
    assert not is_unitary(SIGMA_MINUS)


def test_density_matrix_predicate():
    rho = pure_to_density(ground_state(2))
    assert is_valid_density_matrix(rho)
    assert not is_valid_density_matrix(2 * rho)          # trace 2
    assert not is_valid_density_matrix(rho + 1j * np.eye(4) * 1e-6)
    bad = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    assert not is_valid_density_matrix(bad)              # negative eigenvalue


def test_smallest_eigenvalue():
    assert smallest_eigenvalue(np.diag([3.0, -2.0, 1.0])) == pytest.approx(-2.0)


def test_product_state_and_excitation_counts():
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    psi = product_state([plus, plus])
    assert_allclose(np.abs(psi) ** 2, np.full(4, 0.25))
    assert list(excitation_counts(2)) == [0, 1, 1, 2]


@pytest.mark.parametrize("n_at", range(1, 9))
def test_product_state_of_normalized_sites_is_normalized(n_at):
    # product_state does not renormalize, so the norm is the sites' own
    rng = np.random.default_rng(n_at)
    sites = rng.normal(size=(n_at, 2)) + 1j * rng.normal(size=(n_at, 2))
    plus = np.array([1.0, np.exp(1j * np.pi / 4)]) / np.sqrt(2.0)
    for states in ([s / np.linalg.norm(s) for s in sites], [plus] * n_at):
        assert abs(np.linalg.norm(product_state(states)) - 1.0) <= 1e-15


def test_dicke_state_symmetric():
    psi = dicke_state(3, 1)
    expected = np.zeros(8)
    expected[[0b001, 0b010, 0b100]] = 1 / np.sqrt(3)
    assert_allclose(psi, expected)
    with pytest.raises(ValueError):
        dicke_state(3, 4)
