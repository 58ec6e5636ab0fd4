import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from darkdimers import (
    build_model,
    field_two_point,
    hamiltonian_scatt,
    jump_quadrature,
    jump_travelling,
    make_bath,
    make_geometry,
    squeezed_jumps,
    standing_ops,
)
from darkdimers.darkstates import PairSpec, pair_state
from darkdimers.observables import _collective_spin
from darkdimers.operators import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    embed_single_site,
    site_lowering,
)

from matrix_checks import is_hermitian

# Frozen by direct arithmetic from |mu|^2 = N+1, |nu|^2 = N,
# nu mu* = -M, eta = ln(|mu|/|nu|)/2 at N_ph = 0.88, phi = 0.
MU_088 = 1.3711309200802089
NU_088 = -0.9380831519646859
M_088 = 1.286234815265082
ETA_088 = 0.18977628708793579


class TestBath:
    def test_minimal_golden_values(self, bath088):
        assert bath088.m_abs == pytest.approx(M_088, abs=1e-12)
        assert abs(bath088.mu) ** 2 == pytest.approx(1.88, abs=1e-12)
        assert abs(bath088.nu) ** 2 == pytest.approx(0.88, abs=1e-12)
        assert bath088.mu == pytest.approx(MU_088, abs=1e-12)
        assert bath088.nu == pytest.approx(NU_088, abs=1e-12)
        assert bath088.eta == pytest.approx(ETA_088, abs=1e-12)

    def test_nu_mu_star_equals_minus_m(self, bath088):
        assert bath088.nu * bath088.mu.conjugate() == pytest.approx(
            -bath088.m_ph, abs=1e-12
        )

    def test_hyperbolic_identity(self, bath088):
        assert abs(bath088.mu) ** 2 - abs(bath088.nu) ** 2 == pytest.approx(
            1.0, abs=1e-12
        )

    def test_vacuum_limit(self):
        bath = make_bath(0.0)
        assert bath.mu == pytest.approx(1.0)
        assert bath.nu == pytest.approx(0.0)

    def test_eta_undefined_at_vacuum(self):
        with pytest.raises(ValueError, match="eta"):
            make_bath(0.0).eta

    def test_mu_nu_undefined_off_minimal(self):
        bath = make_bath(0.88, m_abs=0.5)
        with pytest.raises(ValueError, match="minimal"):
            bath.mu

    def test_uncertainty_bound_enforced(self):
        with pytest.raises(ValueError, match="uncertainty"):
            make_bath(0.88, m_abs=1.5)

    def test_negative_n_ph(self):
        with pytest.raises(ValueError):
            make_bath(-0.1)

    @pytest.mark.parametrize("n_ph", [1.4e154, 1e300, math.inf, math.nan])
    def test_n_ph_whose_bound_is_not_finite(self, n_ph):
        # N(N+1) overflows above about 1.34e154
        assert math.isfinite(make_bath(1.3e154).m_abs)
        with pytest.raises(ValueError, match=r"\|M\| = sqrt\(N\(N\+1\)\) is not finite"):
            make_bath(n_ph)

    @pytest.mark.parametrize("n_ph", [0.1, 0.88, 2.5, 10.0])
    def test_mu_nu_product_is_m(self, n_ph):
        bath = make_bath(n_ph)
        assert abs(bath.mu * bath.nu) == pytest.approx(bath.m_abs, abs=1e-12)

    def test_general_phi(self):
        bath = make_bath(0.88, phi=0.7)
        assert bath.m_ph == pytest.approx(M_088 * np.exp(0.7j), abs=1e-12)
        assert bath.nu * bath.mu.conjugate() == pytest.approx(-bath.m_ph, abs=1e-12)

    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
    def test_non_finite_phi(self, phi):
        with pytest.raises(ValueError, match=f"phi must be finite, got {phi}"):
            make_bath(0.88, phi=phi)


class TestGeometry:
    def test_four_atoms(self):
        geo = make_geometry(4, math.pi / 4, 0.0)
        assert_allclose(geo.k0z, np.array([-3, -1, 1, 3]) * math.pi / 8)

    def test_two_atoms(self):
        geo = make_geometry(2, math.pi, 0.0)
        assert_allclose(geo.k0z, [-math.pi / 2, math.pi / 2])

    def test_six_atom_pair_centers(self):
        # Nearest-neighbor pair sums land on -pi, 0, +pi: the centers sit
        # where cos k0(z_a + z_b) = -/+1.
        geo = make_geometry(6, math.pi / 4, 0.0)
        sums = geo.k0z[0::2] + geo.k0z[1::2]
        assert_allclose(sums, [-math.pi, 0.0, math.pi], atol=1e-12)

    def test_strictly_increasing(self):
        geo = make_geometry(5, 0.3, 1.0)
        assert np.all(np.diff(geo.k0z) > 0)

    def test_invalid_atom_count(self):
        with pytest.raises(ValueError):
            make_geometry(0, 1.0, 0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_k0a(self, value):
        with pytest.raises(ValueError, match=f"finite, got k0a = {value},"):
            make_geometry(2, value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_k0zc(self, value):
        with pytest.raises(ValueError, match=f"finite, got k0a = 1.0, k0zc = {value}"):
            make_geometry(2, 1.0, value)


class TestHamiltonian:
    def test_vanishes_at_k0a_pi(self):
        geo = make_geometry(2, math.pi, 0.0)
        assert np.max(np.abs(hamiltonian_scatt(geo))) <= 1e-15

    def test_two_atom_coupling(self):
        geo = make_geometry(2, math.pi / 4, 0.0)
        h = hamiltonian_scatt(geo, gamma=1.0)
        # |ge> = index 1, |eg> = index 2
        assert h[2, 1] == pytest.approx(0.5 * math.sin(math.pi / 4), abs=1e-15)
        assert is_hermitian(h)

    def test_three_atom_couplings(self):
        geo = make_geometry(3, math.pi / 2, 0.0)
        h = hamiltonian_scatt(geo)
        # atom 1-3 distance pi: sin = 0; |egg> = 4, |gge> = 1
        assert h[4, 1] == pytest.approx(0.0, abs=1e-15)
        # atom 1-2 distance pi/2: sin = 1; |geg> = 2
        assert h[4, 2] == pytest.approx(0.5, abs=1e-15)

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            hamiltonian_scatt(make_geometry(2, 1.0), gamma=0.0)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf])
    def test_non_finite_gamma(self, gamma):
        # a NaN H would fill every entry and cross the parity blocks in assembly
        with pytest.raises(ValueError, match=f"gamma must be finite and > 0, got {gamma}"):
            build_model(make_geometry(2, 1.0), make_bath(0.88), gamma)


class TestJumpOperators:
    def test_single_atom_is_sigma_minus(self):
        geo = make_geometry(1, math.pi / 4, 0.0)
        for s in (+1, -1):
            assert_allclose(jump_travelling(geo, s), SIGMA_MINUS)

    def test_two_atom_phases(self, geo2_dark):
        j = jump_travelling(geo2_dark, +1)
        expected = np.exp(1j * math.pi / 8) * np.kron(SIGMA_MINUS, np.eye(2)) + np.exp(
            -1j * math.pi / 8
        ) * np.kron(np.eye(2), SIGMA_MINUS)
        assert_allclose(j, expected, atol=1e-15)

    def test_invalid_direction(self):
        with pytest.raises(ValueError):
            jump_travelling(make_geometry(2, 1.0), 2)

    @pytest.mark.parametrize("n_at,k0a,k0zc", [(1, 0.0, 0.0), (2, math.pi / 4, 0.0),
                                               (3, 0.9, 0.4), (4, math.pi, 0.7)])
    def test_travelling_standing_identity(self, n_at, k0a, k0zc):
        # J_s = S_-^(R) - i s S_-^(I) entrywise
        geo = make_geometry(n_at, k0a, k0zc)
        ops = standing_ops(geo)
        for s in (+1, -1):
            j = jump_travelling(geo, s)
            assert np.max(np.abs(j - (ops.s_minus_r - 1j * s * ops.s_minus_i))) <= 1e-14

    def test_quadrature_theta_zero_hermitian(self, geo2_dark):
        j = jump_travelling(geo2_dark, +1)
        jq = jump_quadrature(geo2_dark, +1, 0.0)
        assert_allclose(jq, j + j.conj().T, atol=1e-15)
        assert is_hermitian(jq)

    def test_quadrature_theta_pi(self, geo2_dark):
        j = jump_travelling(geo2_dark, +1)
        assert_allclose(jump_quadrature(geo2_dark, +1, math.pi), 1j * (j - j.conj().T),
                        atol=1e-15)

    def test_quadrature_single_atom_sigma_x(self):
        geo = make_geometry(1, 1.0, 0.0)
        assert_allclose(jump_quadrature(geo, +1, 0.0), SIGMA_X, atol=1e-15)


class TestStandingOps:
    def test_single_atom_at_origin(self):
        geo = make_geometry(1, 1.0, 0.0)
        ops = standing_ops(geo)
        assert_allclose(ops.s_plus_r, SIGMA_PLUS)
        assert np.max(np.abs(ops.s_plus_i)) == 0.0

    def test_two_atoms_at_half_pi(self):
        geo = make_geometry(2, math.pi, 0.0)
        ops = standing_ops(geo)
        assert np.max(np.abs(ops.s_plus_r)) <= 1e-15
        expected = -np.kron(SIGMA_PLUS, np.eye(2)) + np.kron(np.eye(2), SIGMA_PLUS)
        assert_allclose(ops.s_plus_i, expected, atol=1e-15)

    def test_adjoint_relation(self, geo2_dark):
        ops = standing_ops(geo2_dark)
        assert np.max(np.abs(ops.s_minus_r - ops.s_plus_r.conj().T)) == 0.0
        assert np.max(np.abs(ops.s_minus_i - ops.s_plus_i.conj().T)) == 0.0

    def test_coefficients(self, geo2_dark):
        ops = standing_ops(geo2_dark)
        s = math.sin(math.pi / 8)
        expected = -s * np.kron(SIGMA_PLUS, np.eye(2)) + s * np.kron(np.eye(2), SIGMA_PLUS)
        assert_allclose(ops.s_plus_i, expected, atol=1e-15)


class TestSqueezedJumps:
    def test_annihilate_pair_state(self, geo2_dark, bath088):
        jx, jy = squeezed_jumps(geo2_dark, bath088)
        psi = pair_state(geo2_dark, bath088, PairSpec(1, 2, "squeezed"))
        assert np.linalg.norm(jx @ psi) <= 1e-12
        assert np.linalg.norm(jy @ psi) <= 1e-12

    def test_not_hermitian(self, geo2_dark, bath088):
        jx, jy = squeezed_jumps(geo2_dark, bath088)
        assert not is_hermitian(jy)
        assert np.max(np.abs(jy - jy.conj().T)) > 0.1

    def test_single_atom_form(self, bath088):
        geo = make_geometry(1, 1.0, 0.0)
        jx, jy = squeezed_jumps(geo, bath088)
        assert np.max(np.abs(jx)) == 0.0
        norm = math.sqrt(abs(4 * bath088.mu * bath088.nu))
        assert_allclose(jy, (bath088.mu * SIGMA_MINUS - bath088.nu * SIGMA_PLUS) / norm,
                        atol=1e-15)

    def test_vacuum_rejected(self, geo2_dark):
        with pytest.raises(ValueError, match="n_ph = 0"):
            squeezed_jumps(geo2_dark, make_bath(0.0))

    def test_non_minimal_rejected(self, geo2_dark):
        with pytest.raises(ValueError):
            squeezed_jumps(geo2_dark, make_bath(0.88, m_abs=0.2))


class TestFieldTwoPoint:
    def test_golden_value(self, bath088):
        # |M|/2 + (N + 1/2)/2 at coincident points, theta = phi = 0
        assert field_two_point(0.0, 0.0, 0.0, bath088) == pytest.approx(
            0.5 * M_088 + 0.5 * 1.38, abs=1e-12
        )

    def test_quadrature_angle_kills_oscillation(self, bath088):
        base = 0.5 * (0.88 + 0.5)
        for z in (0.0, 0.3, 1.1):
            assert field_two_point(z, z, math.pi / 2, bath088) == pytest.approx(
                base, abs=1e-12
            )

    def test_maximally_squeezed_point(self, bath088):
        val = field_two_point(math.pi / 2, math.pi / 2, 0.0, bath088)
        assert val == pytest.approx(0.5 * 1.38 - 0.5 * M_088, abs=1e-12)


class TestBuildModel:
    def test_channel_coefficients(self, geo2_dark, bath088):
        # per direction s = +, -: J_s, J_s^dag, J_{-phi,s}, J_{pi-phi,s}
        model = build_model(geo2_dark, bath088, gamma=1.0)
        per_direction = [0.5 * 1.88, 0.5 * 0.88, 0.25 * M_088, -0.25 * M_088]
        assert [rate for rate, _ in model.travelling_jumps] == pytest.approx(2 * per_direction)
        assert [rate for rate, _ in model.squeezed_jumps] == pytest.approx([4.0 * M_088] * 2)

    def test_hamiltonian_hermitian(self, geo2_dark, bath088):
        model = build_model(geo2_dark, bath088)
        assert is_hermitian(model.hamiltonian)

    def test_no_squeezed_form_for_thermal_bath(self, geo2_dark):
        model = build_model(geo2_dark, make_bath(0.5, m_abs=0.0))
        assert model.squeezed_jumps is None


def _site_sum(coefficients, op2, n_at):
    """sum_n coefficients[n] op2^(n), embedded site by site."""
    out = np.zeros((2**n_at, 2**n_at), dtype=complex)
    for n, c in enumerate(coefficients):
        out += c * embed_single_site(op2, n + 1, n_at)
    return out


def _same(a, b):
    return a.dtype == b.dtype and np.array_equal(a, b)


@settings(max_examples=40, deadline=None)
@given(n_at=st.integers(1, 6), k0a=st.floats(0.0, 2.0 * math.pi),
       k0zc=st.floats(0.0, 2.0 * math.pi), n_ph=st.floats(0.0, 2.0, exclude_min=True),
       phi=st.floats(0.0, 2.0 * math.pi))
def test_collective_operators_equal_site_by_site_sums(n_at, k0a, k0zc, n_ph, phi):
    geo, bath = make_geometry(n_at, k0a, k0zc), make_bath(n_ph, phi)
    model = build_model(geo, bath)
    z = geo.k0z
    h = np.zeros((2**n_at, 2**n_at), dtype=complex)
    for n in range(n_at):
        for m in range(n_at):
            if n != m:
                h += 0.5 * math.sin(abs(z[n] - z[m])) * (
                    embed_single_site(SIGMA_PLUS, n + 1, n_at)
                    @ embed_single_site(SIGMA_MINUS, m + 1, n_at))
    assert _same(model.hamiltonian, h)
    # per direction s = +, -: J_s, J_s^dag, J_{-phi,s}, J_{pi-phi,s}
    channels = [op for _, op in model.travelling_jumps]
    assert len(channels) == 8
    for i, s in enumerate((1, -1)):
        j = _site_sum([cmath.exp(-1j * s * zn) for zn in z], SIGMA_MINUS, n_at)
        expected = [j, j.conj().T] + [
            cmath.exp(1j * theta / 2) * j + cmath.exp(-1j * theta / 2) * j.conj().T
            for theta in (-phi, math.pi - phi)]
        for got, op in zip(channels[4 * i:4 * i + 4], expected):
            assert _same(got, op)
    sp_r = _site_sum(np.cos(z), SIGMA_PLUS, n_at)
    sp_i = _site_sum(np.sin(z), SIGMA_PLUS, n_at)
    for got, want in zip(standing_ops(geo),
                         (sp_r, sp_r.conj().T, sp_i, sp_i.conj().T)):
        assert _same(got, want)
    norm = math.sqrt(abs(4 * bath.mu * bath.nu))
    (_, jx), (_, jy) = model.squeezed_jumps
    assert _same(jx, (bath.mu * sp_i.conj().T + bath.nu * sp_i) / norm)
    assert _same(jy, (bath.mu * sp_r.conj().T - bath.nu * sp_r) / norm)
    for label, sigma in (("x", SIGMA_X), ("y", SIGMA_Y), ("z", SIGMA_Z)):
        s_j, s_j2 = _collective_spin(n_at)[label]
        assert _same(s_j, _site_sum([0.5] * n_at, sigma, n_at))
        assert _same(s_j2, s_j @ s_j)


def test_site_stack_is_cached_and_read_only():
    stack = site_lowering(3)
    assert stack is site_lowering(3)
    assert stack.shape == (3, 8, 8) and not stack.flags.writeable
    with pytest.raises(ValueError):
        stack[0, 0, 1] = 2.0
    for n in range(3):
        assert _same(stack[n], embed_single_site(SIGMA_MINUS, n + 1, 3))
