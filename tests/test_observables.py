import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from darkdimers import build_model, make_bath, make_geometry
from darkdimers.darkstates import PairSpec, dimer_chain, pair_state
from darkdimers.experiments import series_columns
from darkdimers.observables import (
    dark_condition,
    excitation_populations,
    fidelity,
    pair_correlations,
    polarization_moments,
    purity,
    state_row,
)
from darkdimers.operators import expectation, ground_state, pure_to_density, site_lowering
from matrix_checks import basis_state


def pair_variance(mu, nu, sign):
    """|mu + sign*nu|^2 / (2(|mu|^2+|nu|^2)), the per-pair variance."""
    return abs(mu + sign * nu) ** 2 / (2.0 * (abs(mu) ** 2 + abs(nu) ** 2))


class TestPolarizationMoments:
    def test_all_ground_four_atoms(self):
        mom = polarization_moments(ground_state(4))
        assert mom.mean_z == pytest.approx(-2.0, abs=1e-12)
        assert mom.mean_x == pytest.approx(0.0, abs=1e-12)
        # uncorrelated transverse fluctuations: N/4
        assert mom.var_x == pytest.approx(1.0, abs=1e-12)
        assert mom.var_y == pytest.approx(1.0, abs=1e-12)

    def test_pair_state_moments(self, geo2_dark, bath088):
        psi = pair_state(geo2_dark, bath088, PairSpec(1, 2, "squeezed"))
        mom = polarization_moments(psi)
        mu, nu = bath088.mu, bath088.nu
        assert mom.mean_z == pytest.approx(-1.0 / (2 * 0.88 + 1.0), abs=1e-12)
        assert mom.mean_z == pytest.approx(-0.3623188405797, abs=1e-10)
        assert mom.var_x == pytest.approx(pair_variance(mu, nu, +1), abs=1e-12)
        assert mom.var_y == pytest.approx(pair_variance(mu, nu, -1), abs=1e-12)
        assert mom.var_x == pytest.approx(0.0339728941, abs=1e-6)
        assert mom.var_y == pytest.approx(0.9660271059, abs=1e-6)

    def test_minimal_uncertainty_product(self, bath088):
        # var_x var_y = (mean_z / 2)^2 on pair dark states, both signs
        for k0zc in (0.0, math.pi / 2):
            geo = make_geometry(2, math.pi / 4, k0zc)
            psi = pair_state(geo, bath088, PairSpec(1, 2, "squeezed"))
            mom = polarization_moments(psi)
            assert mom.var_x * mom.var_y == pytest.approx(
                (mom.mean_z / 2.0) ** 2, abs=1e-10
            )

    def test_chain_variance_adds_per_pair(self, bath088):
        geo = make_geometry(6, math.pi / 4, 0.0)
        psi = dimer_chain(geo, bath088)
        mom = polarization_moments(psi)
        mu, nu = bath088.mu, bath088.nu
        signs = np.exp(1j * (geo.k0z[0::2] + geo.k0z[1::2])).real.round()
        expected_x = sum(pair_variance(mu, nu, s) for s in signs)
        expected_y = sum(pair_variance(mu, nu, -s) for s in signs)
        assert mom.var_x == pytest.approx(expected_x, abs=1e-12)
        assert mom.var_y == pytest.approx(expected_y, abs=1e-12)

    def test_variances_nonnegative(self, bath088):
        rng = np.random.default_rng(1)
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi /= np.linalg.norm(psi)
        mom = polarization_moments(psi)
        for v in (mom.var_x, mom.var_y, mom.var_z):
            assert v >= -1e-10


class TestPurity:
    def test_pure_projector(self):
        assert purity(pure_to_density(ground_state(3))) == pytest.approx(1.0)

    def test_maximally_mixed(self):
        assert purity(np.eye(16) / 16.0) == pytest.approx(1.0 / 16.0, abs=1e-12)

    def test_state_vector_input(self, geo2_dark, bath088):
        psi = pair_state(geo2_dark, bath088, PairSpec(1, 2, "squeezed"))
        assert purity(psi) == pytest.approx(1.0, abs=1e-12)


class TestStateRow:
    def test_series_columns_and_values(self, bath088):
        psi = dimer_chain(make_geometry(4, math.pi / 4, math.pi / 4), bath088)
        rho = 0.5 * (pure_to_density(psi) + pure_to_density(ground_state(4)))
        row = state_row(rho)
        assert list(row) == series_columns(4)[1:]
        mom = polarization_moments(rho)
        assert row["purity"] == purity(rho)
        assert [row[k] for k in ("mean_x", "mean_y", "mean_z", "var_x", "var_y")] == \
            [mom.mean_x, mom.mean_y, mom.mean_z, mom.var_x, mom.var_y]
        assert [row[f"p{k}"] for k in range(5)] == list(excitation_populations(rho))


class TestPairCorrelations:
    def test_product_ground_state(self):
        c = pair_correlations(ground_state(3))
        assert_allclose(np.diag(c), 0.25)
        off = c - np.diag(np.diag(c))
        assert np.max(np.abs(off)) <= 1e-14

    def test_pair_state_golden(self, geo2_dark, bath088):
        psi = pair_state(geo2_dark, bath088, PairSpec(1, 2, "squeezed"))
        c = pair_correlations(psi)
        mu, nu = bath088.mu.real, bath088.nu.real
        expected = mu * nu / (2.0 * (mu**2 + nu**2))
        assert c[0, 1] == pytest.approx(expected, abs=1e-12)
        assert c[0, 1] == pytest.approx(-0.2330135960, abs=1e-6)

    def test_symmetric_and_bounded(self, bath088):
        geo = make_geometry(4, math.pi / 4, math.pi / 4)
        c = pair_correlations(dimer_chain(geo, bath088))
        assert_allclose(c, c.T)
        assert np.max(np.abs(c)) <= 0.25 + 1e-12

    @pytest.mark.parametrize("n_at", range(2, 7))
    def test_equals_the_complex_product_definition(self, n_at):
        # the real 0/1 sigma_x stack gives the complex stack's products exactly
        rng = np.random.default_rng(n_at)
        a = rng.normal(size=(2**n_at, 2**n_at)) + 1j * rng.normal(size=(2**n_at, 2**n_at))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        lower = site_lowering(n_at)
        sx = lower + lower.transpose(0, 2, 1)
        expected = np.full((n_at, n_at), 0.25)
        for n, m in itertools.combinations(range(n_at), 2):
            expected[n, m] = expected[m, n] = 0.25 * expectation(rho, sx[n] @ sx[m]).real
        assert np.array_equal(pair_correlations(rho), expected)


class TestExcitationPopulations:
    def test_ground(self):
        assert_allclose(excitation_populations(ground_state(3)), [1, 0, 0, 0])

    def test_pair_state(self, geo2_dark, bath088):
        psi = pair_state(geo2_dark, bath088, PairSpec(1, 2, "squeezed"))
        pops = excitation_populations(psi)
        assert_allclose(pops, [1.88 / 2.76, 0.0, 0.88 / 2.76], atol=1e-12)
        assert pops[0] == pytest.approx(0.6811594, abs=1e-6)

    def test_sum_and_phase_invariance(self, bath088):
        rng = np.random.default_rng(9)
        psi = rng.normal(size=16) + 1j * rng.normal(size=16)
        psi /= np.linalg.norm(psi)
        pops = excitation_populations(psi)
        assert pops.sum() == pytest.approx(1.0, abs=1e-10)
        assert_allclose(excitation_populations(np.exp(0.7j) * psi), pops, atol=1e-14)


class TestDarkCondition:
    def test_dark_pair_geometry(self, geo2_dark, bath088):
        assert dark_condition(build_model(geo2_dark, bath088)) <= 1e-12

    def test_single_atom_always_positive(self, bath088):
        for k0zc in (0.0, 0.4, math.pi / 2):
            geo = make_geometry(1, 1.0, k0zc)
            assert dark_condition(build_model(geo, bath088)) > 1e-3

    def test_uncorrelated_quadrature_point(self, bath088):
        # cos k0(z1+z2) = 0 with sin k0a != 0: no dark state
        geo = make_geometry(2, math.pi / 4, math.pi / 4)
        assert dark_condition(build_model(geo, bath088)) > 1e-3

    @pytest.mark.parametrize("n_ph", [5e-324, 1e-300, 1e-100, 1e-10, 1e-3])
    @pytest.mark.parametrize("k0a", [0.0, math.pi / 4])
    def test_dark_pair_at_tiny_n_ph(self, n_ph, k0a):
        # the normalization of Jx, Jy grows as N_ph^(-1/4); the condition
        # must not scale the rounding error up with it
        model = build_model(make_geometry(2, k0a, 0.0), make_bath(n_ph))
        assert abs(dark_condition(model)) <= 1e-10

    def test_reads_the_model_and_is_in_units_of_gamma(self, bath088):
        # the model's own squeezed jumps, weighted by |4 mu nu|, not rate/gamma
        geo = make_geometry(2, 0.9, 0.3)
        model = build_model(geo, bath088, 0.7)
        value = dark_condition(model)
        assert "squeezed_jumps" in vars(model)
        assert value > 1e-3 and value == dark_condition(build_model(geo, bath088))

    @pytest.mark.parametrize("bath", [make_bath(0.0), make_bath(0.88, m_abs=0.2),
                                      make_bath(1e-12, m_abs=0.0)])
    def test_no_squeezed_jumps_raises(self, geo2_dark, bath):
        with pytest.raises(ValueError, match="the dark condition needs squeezed jumps"):
            dark_condition(build_model(geo2_dark, bath))


class TestFidelity:
    def test_identical_pure(self, geo2_dark, bath088):
        psi = pair_state(geo2_dark, bath088, PairSpec(1, 2, "squeezed"))
        assert fidelity(psi, psi) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_basis_states(self):
        assert fidelity(basis_state(2, 0), basis_state(2, 3)) == 0.0

    def test_ground_vs_maximally_mixed(self):
        assert fidelity(ground_state(2), np.eye(4) / 4.0) == pytest.approx(0.25)
        assert fidelity(np.eye(4) / 4.0, ground_state(2)) == pytest.approx(0.25)

    def test_mixed_mixed_rejected(self):
        with pytest.raises(ValueError, match="pure"):
            fidelity(np.eye(4) / 4.0, np.eye(4) / 4.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(ground_state(2), ground_state(3))
        with pytest.raises(ValueError, match="mismatch"):
            fidelity(np.eye(4) / 4.0, ground_state(3))

    def test_range(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            a = rng.normal(size=8) + 1j * rng.normal(size=8)
            b = rng.normal(size=8) + 1j * rng.normal(size=8)
            a /= np.linalg.norm(a)
            b /= np.linalg.norm(b)
            f = fidelity(a, b)
            assert 0.0 <= f <= 1.0 + 1e-10
