import cmath
import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from darkdimers import (
    ArrayGeometry,
    BathParams,
    ModelOperators,
    build_model,
    lindblad_rhs,
    make_bath,
    make_geometry,
)
from darkdimers import model as model_module
from darkdimers.darkstates import (
    PairSpec,
    dark_state,
    dimer_chain,
    pair_state,
    predicted_populations,
)
from darkdimers.observables import _collective_spin, dark_condition, fidelity
from darkdimers.operators import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    embed_single_site,
    product_state,
    pure_to_density,
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

    @pytest.mark.parametrize("bath", [make_bath(0.0), make_bath(1e-12, m_abs=0.0)])
    def test_nu_zero_has_no_eta_and_no_collective_form(self, bath):
        # the vacuum is minimal with nu = 0 and has the melted state alone; the tiny
        # uncorrelated bath once passed the minimal test too (its eta raised a bare
        # ZeroDivisionError), and off the bound it has no dark state at all
        with pytest.raises(ValueError, match="eta needs a squeezed bath"):
            bath.eta
        melted = make_geometry(4, 2 * math.pi, 0.0)
        if bath.n_ph > 0.0:
            assert not bath.is_minimal
            with pytest.raises(ValueError, match="defined only for minimal-uncertainty baths"):
                dark_state(melted, bath)
            return
        assert bath.is_minimal and bath.nu == 0.0
        label, psi, collective = dark_state(melted, bath)
        assert (label, collective) == ("melted_dark(l=2)", None)
        assert np.linalg.norm(psi) == pytest.approx(1.0)

    def test_mu_nu_undefined_off_minimal(self):
        bath = make_bath(0.88, m_abs=0.5)
        with pytest.raises(ValueError, match="minimal"):
            bath.mu

    def test_uncertainty_bound_enforced(self):
        with pytest.raises(ValueError, match="uncertainty"):
            make_bath(0.88, m_abs=1.5)

    @pytest.mark.parametrize("n_ph, m_abs", [(1e-12, 3e-5), (0.0, 1e-15)])
    def test_bath_params_refuses_a_bath_above_the_bound(self, n_ph, m_abs):
        # |M|^2 = 900 N(N+1) once counted as squeezed under an absolute 1e-9
        # floor, and its squeezed generator differed from the general one
        with pytest.raises(ValueError, match="violates the uncertainty bound"):
            BathParams(n_ph, m_abs)

    def test_a_subnormal_m_is_no_squeezed_bath(self):
        # its nu would be subnormal, and its squeezed generator was nan
        bath = BathParams(1e-12, 5e-324)
        assert not bath.is_minimal
        model = build_model(make_geometry(2, math.pi / 4), bath)
        assert model.squeezed_jumps is None
        plus = np.array([1.0, cmath.exp(1j * math.pi / 4)]) / math.sqrt(2.0)
        rho = pure_to_density(product_state([plus] * 2))
        rhs = lindblad_rhs(rho, model)
        assert np.all(np.isfinite(rhs))
        assert np.array_equal(rhs, lindblad_rhs(rho, model, "general"))

    @pytest.mark.parametrize("n_at, k0a", [(4, 2 * math.pi), (6, math.pi / 4),
                                           (8, 2 * math.pi)])
    def test_the_smallest_squeezed_nu_needs_no_rescaling(self, n_at, k0a):
        # every squeezed bath has |nu| = sqrt(N) >= sqrt(5e-324), so the dark
        # condition forms J^dag J with no overflow (pytest errors on the warning)
        bath = make_bath(5e-324)
        assert bath.is_squeezed and abs(bath.nu) >= 2.2e-162
        value = dark_condition(build_model(make_geometry(n_at, k0a), bath))
        assert math.isfinite(value) and abs(value) <= 1e-10

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


def _answers(read) -> bool:
    """Whether read() returns; a ValueError is its refusal."""
    try:
        read()
    except ValueError:
        return False
    return True


@st.composite
def _bath_inputs(draw):
    """(n_ph, |M|, phi): |M| from [0, bound], the bound itself or 1e-15."""
    n_ph = draw(st.sampled_from([0.0, 1e-300, 1e-12]) | st.floats(0.0, 3.0))
    bound = math.sqrt(n_ph * (n_ph + 1.0))
    m_abs = draw(st.floats(0.0, bound) | st.sampled_from([bound, 1e-15]))
    return n_ph, m_abs, draw(st.floats(allow_nan=False, allow_infinity=False))


def _within_the_bound(n_ph, m_abs, two_sided):
    """|M|^2 <= N(N+1) (1 + rtol), or | |M|^2 - N(N+1) | <= rtol N(N+1) when
    two-sided, in exact arithmetic."""
    bound_sq = Fraction(n_ph) * (Fraction(n_ph) + 1)
    excess = Fraction(m_abs) ** 2 - bound_sq
    rtol = Fraction(model_module._MINIMAL_RTOL)
    return (abs(excess) if two_sided else excess) <= rtol * bound_sq


@settings(max_examples=80, deadline=None)
@given(inputs=_bath_inputs())
@example(inputs=(1e-12, 3e-5, 0.0))  # once squeezed, at |M|^2 = 900 N(N+1)
@example(inputs=(1e-12, 5e-324, 0.0))  # once squeezed, with a subnormal nu
@example(inputs=(5e-324, math.sqrt(5e-324), 0.0))  # the smallest squeezed bath
@example(inputs=(5e-324, 1.9e-162, 0.0))  # |M|^2 rounds to N(N+1) in floats
def test_the_bound_is_one_relative_rule(inputs):
    # BathParams admits a bath exactly when |M|^2 <= N(N+1)(1 + rtol), and
    # is_minimal holds exactly when |M|^2 is within rtol N(N+1)
    n_ph, m_abs, phi = inputs
    admitted = _answers(lambda: BathParams(n_ph, m_abs, phi))
    assert admitted == _within_the_bound(n_ph, m_abs, two_sided=False)
    if admitted:
        assert (BathParams(n_ph, m_abs, phi).is_minimal
                == _within_the_bound(n_ph, m_abs, two_sided=True))


@settings(max_examples=80, deadline=None)
@given(inputs=_bath_inputs())
@example(inputs=(0.0, 1e-15, 0.0))  # make_bath once built it, with eta 17.27
@example(inputs=(0.88, 0.0, 0.0))  # thermal: the squeezed law once answered
@example(inputs=(0.88, 0.5, 0.0))  # the dimer law once answered, dimer_chain not
def test_every_squeezed_form_follows_is_squeezed(inputs):
    # one rule, BathParams.is_squeezed: the squeezed jumps, eta, the collective
    # closed form, the squeezed law and the dark condition answer exactly for a
    # squeezed bath, and then with finite values; the dimer law and the dimer
    # chain answer exactly for a minimal one.  A bath above the bound is refused
    # by BathParams itself.
    n_ph, m_abs, phi = inputs
    if not _within_the_bound(n_ph, m_abs, two_sided=False):
        for build in (BathParams, lambda n, m, p: make_bath(n, p, m)):
            with pytest.raises(ValueError, match="violates the uncertainty bound"):
                build(n_ph, m_abs, phi)
        return
    baths = [BathParams(n_ph, m_abs, phi), make_bath(n_ph, phi, m_abs)]
    melted = make_geometry(4, 2 * math.pi, 0.0)
    for bath in baths:
        model = build_model(melted, bath)
        try:
            _, psi, collective = dark_state(melted, bath)
        except ValueError:
            collective = None
        assert [model.squeezed_jumps is not None, _answers(lambda: bath.eta),
                collective is not None,
                _answers(lambda: predicted_populations("squeezed", 4, bath)),
                _answers(lambda: dark_condition(model))] == [bath.is_squeezed] * 5
        assert (_answers(lambda: predicted_populations("dimer", 4, bath))
                == _answers(lambda: dimer_chain(make_geometry(4, math.pi / 4, math.pi / 4), bath))
                == bath.is_minimal)
        if bath.is_squeezed:
            assert math.isfinite(bath.eta) and fidelity(collective, psi) >= 1.0 - 1e-9
            assert abs(dark_condition(model)) <= 1e-10


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

    @pytest.mark.parametrize("n_at", [2.5, math.nan, math.inf])
    def test_non_integral_atom_count(self, n_at):
        # 2.5 used to give n_at = 2 with three positions
        with pytest.raises(ValueError, match=f"n_at must be an integer >= 1, got {n_at}"):
            make_geometry(n_at, 1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_k0a(self, value):
        with pytest.raises(ValueError, match=f"finite, got k0a = {value},"):
            make_geometry(2, value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_k0zc(self, value):
        with pytest.raises(ValueError, match=f"finite, got k0a = 1.0, k0zc = {value}"):
            make_geometry(2, 1.0, value)

    @pytest.mark.parametrize("args,fragment", [
        ((2, math.nan), "finite, got k0a = nan, k0zc = 0.0"),
        ((0, 1.0), "n_at must be an integer >= 1, got 0"),
        ((2.5, 1.0), "n_at must be an integer >= 1, got 2.5")])
    def test_the_constructor_refuses(self, args, fragment):
        # a NaN geometry once constructed, and its solve raised an IndexError
        with pytest.raises(ValueError, match=fragment):
            ArrayGeometry(*args)

    def test_positions_are_derived(self):
        # positions once were an input: three of them at n_at = 2 constructed
        with pytest.raises(TypeError, match="k0z"):
            ArrayGeometry(2, 1.0, 0.0, k0z=np.array([5.0, 7.0]))
        geo = ArrayGeometry(2.0, 1, 0)
        assert (type(geo.n_at), type(geo.k0a), type(geo.k0zc)) == (int, float, float)
        assert geo.k0z.tolist() == [-0.5, 0.5] and not geo.k0z.flags.writeable
        assert dataclasses.replace(geo, k0zc=1.0).k0z.tolist() == [0.5, 1.5]

    def test_equal_inputs_give_equal_hashable_geometries_and_models(self, bath088):
        # comparing two geometries once compared their position arrays, which
        # raised "truth value ... ambiguous", and hash() raised TypeError
        geos = [make_geometry(2, 1.0), ArrayGeometry(2.0, 1, 0)]
        assert geos[0] == geos[1] and hash(geos[0]) == hash(geos[1])
        assert geos[0] != make_geometry(2, 1.0, 0.5)
        models = [build_model(geo, bath088, 0.7) for geo in geos]
        assert models[0] == models[1] and hash(models[0]) == hash(models[1])
        assert models[0] != build_model(geos[0], bath088)


def _positions_by_make_geometry(n_at, k0a, k0zc):
    """The checks and positions of `make_geometry` from when `ArrayGeometry`
    took k0z as an input, and the refusal of positions whose sums or
    differences overflow, which then passed to the solve."""
    if not n_at >= 1 or n_at % 1:
        raise ValueError(f"n_at must be an integer >= 1, got {n_at}")
    if not (math.isfinite(k0a) and math.isfinite(k0zc)):
        raise ValueError(f"k0a and k0zc must be finite, got k0a = {k0a}, k0zc = {k0zc}")
    n = np.arange(1, n_at + 1, dtype=float)
    k0z = k0zc + (n - (n_at + 1) / 2.0) * k0a
    if not np.all(np.isfinite(k0z[:, None] - k0z[None, :]) & np.isfinite(2 * k0z)):
        raise ValueError(f"positions and their differences must be finite, got k0a = {k0a}, "
                         f"k0zc = {k0zc} at n_at = {n_at}")
    return k0z


def _outcome(build):
    """The positions that build() gives as bytes, or its refusal's message."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # both sides overflow alike
            return build().tobytes()
    except ValueError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(n_at=st.integers(-2, 12) | st.floats(-2.0, 12.0)
       | st.sampled_from([math.nan, math.inf, -math.inf]),
       k0a=st.floats(), k0zc=st.floats())
@example(n_at=2, k0a=math.nan, k0zc=0.0)
@example(n_at=2.5, k0a=1.0, k0zc=0.0)
@example(n_at=4.0, k0a=math.pi / 4, k0zc=0.0)
@example(n_at=4, k0a=1e308, k0zc=0.0)  # its solve once raised an IndexError
def test_the_geometry_refuses_what_make_geometry_refused(n_at, k0a, k0zc):
    # the constructor refuses exactly those inputs, with the same message, and
    # where it admits them its positions keep every bit
    made = _outcome(lambda: _positions_by_make_geometry(n_at, k0a, k0zc))
    assert _outcome(lambda: ArrayGeometry(n_at, k0a, k0zc).k0z) == made
    assert _outcome(lambda: make_geometry(n_at, k0a, k0zc).k0z) == made
    if isinstance(made, bytes):
        with np.errstate(over="ignore", invalid="ignore"):
            assert ArrayGeometry(n_at, k0a, k0zc).n_at == n_at


class TestHamiltonian:
    def test_vanishes_at_k0a_pi(self):
        geo = make_geometry(2, math.pi, 0.0)
        assert np.max(np.abs(build_model(geo, make_bath(0.88)).hamiltonian)) <= 1e-15

    def test_two_atom_coupling(self):
        geo = make_geometry(2, math.pi / 4, 0.0)
        h = build_model(geo, make_bath(0.88), gamma=1.0).hamiltonian
        # |ge> = index 1, |eg> = index 2
        assert h[2, 1] == pytest.approx(0.5 * math.sin(math.pi / 4), abs=1e-15)
        assert is_hermitian(h)

    def test_three_atom_couplings(self):
        geo = make_geometry(3, math.pi / 2, 0.0)
        h = build_model(geo, make_bath(0.88)).hamiltonian
        # atom 1-3 distance pi: sin = 0; |egg> = 4, |gge> = 1
        assert h[4, 1] == pytest.approx(0.0, abs=1e-15)
        # atom 1-2 distance pi/2: sin = 1; |geg> = 2
        assert h[4, 2] == pytest.approx(0.5, abs=1e-15)

    def test_gamma_validation(self):
        with pytest.raises(ValueError, match="gamma must be finite and > 0, got 0.0"):
            build_model(make_geometry(2, 1.0), make_bath(0.88), gamma=0.0)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf])
    def test_non_finite_gamma(self, gamma):
        # a NaN H would fill every entry and cross the parity blocks in assembly
        with pytest.raises(ValueError, match=f"gamma must be finite and > 0, got {gamma}"):
            build_model(make_geometry(2, 1.0), make_bath(0.88), gamma)


def _channels(geo, bath=None):
    """The eight travelling channels' operators at bath (default N_ph 0.88,
    phi 0): per direction s = +, -: J_s, J_s^dag, J_{-phi,s}, J_{pi-phi,s}."""
    return [op for _, op in build_model(geo, bath or make_bath(0.88)).travelling_jumps]


class TestJumpOperators:
    def test_single_atom_is_sigma_minus(self):
        channels = _channels(make_geometry(1, math.pi / 4, 0.0))
        for j in channels[0::4]:  # J_+ and J_-
            assert_allclose(j, SIGMA_MINUS)

    def test_two_atom_phases(self, geo2_dark):
        j = _channels(geo2_dark)[0]
        expected = np.exp(1j * math.pi / 8) * np.kron(SIGMA_MINUS, np.eye(2)) + np.exp(
            -1j * math.pi / 8
        ) * np.kron(np.eye(2), SIGMA_MINUS)
        assert_allclose(j, expected, atol=1e-15)

    @pytest.mark.parametrize("n_at,k0a,k0zc", [(1, 0.0, 0.0), (2, math.pi / 4, 0.0),
                                               (3, 0.9, 0.4), (4, math.pi, 0.7)])
    def test_travelling_standing_identity(self, n_at, k0a, k0zc):
        # J_s = S_-^(R) - i s S_-^(I) entrywise
        geo = make_geometry(n_at, k0a, k0zc)
        s_minus_r = _site_sum(np.cos(geo.k0z), SIGMA_MINUS, n_at)
        s_minus_i = _site_sum(np.sin(geo.k0z), SIGMA_MINUS, n_at)
        channels = _channels(geo)
        for s, j in zip((+1, -1), channels[0::4]):
            assert np.max(np.abs(j - (s_minus_r - 1j * s * s_minus_i))) <= 1e-14

    def test_quadrature_theta_zero_hermitian(self, geo2_dark):
        j, _, jq, _ = _channels(geo2_dark)[:4]  # phi = 0: J_{0,+}
        assert_allclose(jq, j + j.conj().T, atol=1e-15)
        assert is_hermitian(jq)

    def test_quadrature_theta_pi(self, geo2_dark):
        j, _, _, jq = _channels(geo2_dark)[:4]  # phi = 0: J_{pi,+}
        assert_allclose(jq, 1j * (j - j.conj().T), atol=1e-15)

    def test_quadrature_single_atom_sigma_x(self):
        assert_allclose(_channels(make_geometry(1, 1.0, 0.0))[2], SIGMA_X, atol=1e-15)


class TestSqueezedJumps:
    def test_annihilate_pair_state(self, geo2_dark, bath088):
        (_, jx), (_, jy) = build_model(geo2_dark, bath088).squeezed_jumps
        psi = pair_state(geo2_dark, bath088, PairSpec(1, 2, "squeezed"))
        assert np.linalg.norm(jx @ psi) <= 1e-12
        assert np.linalg.norm(jy @ psi) <= 1e-12

    def test_not_hermitian(self, geo2_dark, bath088):
        (_, jx), (_, jy) = build_model(geo2_dark, bath088).squeezed_jumps
        assert not is_hermitian(jy)
        assert np.max(np.abs(jy - jy.conj().T)) > 0.1

    def test_single_atom_form(self, bath088):
        # one atom at the origin: S^(I) = 0 and S_+^(R) = sigma_+
        (_, jx), (_, jy) = build_model(make_geometry(1, 1.0, 0.0), bath088).squeezed_jumps
        assert np.max(np.abs(jx)) == 0.0
        norm = math.sqrt(abs(4 * bath088.mu * bath088.nu))
        assert_allclose(jy, (bath088.mu * SIGMA_MINUS - bath088.nu * SIGMA_PLUS) / norm,
                        atol=1e-15)

    def test_vacuum_rejected(self, geo2_dark):
        assert build_model(geo2_dark, make_bath(0.0)).squeezed_jumps is None

    def test_non_minimal_rejected(self, geo2_dark):
        assert build_model(geo2_dark, make_bath(0.88, m_abs=0.2)).squeezed_jumps is None


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

    def test_no_squeezed_form_without_pair_correlation(self, geo2_dark):
        # at a tiny n_ph an uncorrelated bath once passed the minimal test (|M|^2
        # within an absolute 1e-9 of N(N+1)) with nu = 0: its jumps were 0 / 0
        bath = make_bath(1e-189, m_abs=0.0)
        assert not bath.is_minimal
        assert build_model(geo2_dark, bath).squeezed_jumps is None

    def test_the_model_is_its_inputs(self, geo2_dark, bath088):
        assert [f.name for f in dataclasses.fields(ModelOperators)] == [
            "geometry", "bath", "gamma"]
        model = build_model(geo2_dark, bath088, 0.7)
        assert (model.geometry, model.bath, model.gamma) == (geo2_dark, bath088, 0.7)
        assert model.n_at == geo2_dark.n_at

    def test_build_model_builds_nothing(self, monkeypatch, geo2_dark, bath088):
        # each operator set is built on its first read, and only then
        calls = []
        monkeypatch.setattr(model_module, "site_lowering",
                            lambda n_at: calls.append(n_at) or site_lowering(n_at))
        model = build_model(geo2_dark, bath088)
        assert calls == [] and set(vars(model)) == {"geometry", "bath", "gamma"}
        model.hamiltonian
        assert calls == [2] and set(vars(model)) == {"geometry", "bath", "gamma",
                                                     "hamiltonian"}

    @pytest.mark.parametrize("gamma", [-1.0, 0.0, math.nan, math.inf])
    def test_the_model_refuses_gamma(self, geo2_dark, bath088, gamma):
        # gamma -1 once constructed, and its solve blamed dt for the instability
        with pytest.raises(ValueError, match=f"gamma must be finite and > 0, got {gamma}"):
            ModelOperators(geo2_dark, bath088, gamma)

    def test_a_second_read_returns_the_same_object(self, geo2_dark, bath088):
        model = build_model(geo2_dark, bath088)
        for name in ("hamiltonian", "travelling_jumps", "squeezed_jumps"):
            assert getattr(model, name) is getattr(model, name)


def _site_sum(coefficients, op2, n_at):
    """sum_n coefficients[n] op2^(n), embedded site by site."""
    out = np.zeros((2**n_at, 2**n_at), dtype=complex)
    for n, c in enumerate(coefficients):
        out += c * embed_single_site(op2, n + 1, n_at)
    return out


def _same(a, b):
    return a.dtype == b.dtype and np.array_equal(a, b)


@settings(max_examples=60, deadline=None)
@given(n_at=st.integers(1, 6), k0a=st.floats(0.0, 2.0 * math.pi),
       k0zc=st.floats(0.0, 2.0 * math.pi), n_ph=st.floats(0.0, 2.0),
       phi=st.floats(0.0, 2.0 * math.pi), squeezing=st.none() | st.floats(0.0, 1.0),
       gamma=st.floats(0.1, 3.0))
def test_model_operators_equal_their_direct_construction(n_at, k0a, k0zc, n_ph, phi,
                                                         squeezing, gamma):
    # built on first read, every rate and operator has the bits of its site-by-site
    # sum; squeezing None is the minimal bath
    geo = make_geometry(n_at, k0a, k0zc)
    bound = math.sqrt(n_ph * (n_ph + 1.0))
    bath = make_bath(n_ph, phi, None if squeezing is None else squeezing * bound)
    model = build_model(geo, bath, gamma)
    z = geo.k0z
    h = np.zeros((2**n_at, 2**n_at), dtype=complex)
    for n in range(n_at):
        for m in range(n_at):
            if n != m:
                h += 0.5 * gamma * math.sin(abs(z[n] - z[m])) * (
                    embed_single_site(SIGMA_PLUS, n + 1, n_at)
                    @ embed_single_site(SIGMA_MINUS, m + 1, n_at))
    assert _same(model.hamiltonian, h)
    # per direction s = +, -: J_s, J_s^dag, J_{-phi,s}, J_{pi-phi,s}
    rates = [0.5 * gamma * (n_ph + 1.0), 0.5 * gamma * n_ph,
             0.25 * gamma * bath.m_abs, -0.25 * gamma * bath.m_abs]
    assert [rate for rate, _ in model.travelling_jumps] == 2 * rates
    channels = [op for _, op in model.travelling_jumps]
    for i, s in enumerate((1, -1)):
        j = _site_sum([cmath.exp(-1j * s * zn) for zn in z], SIGMA_MINUS, n_at)
        expected = [j, j.conj().T] + [
            cmath.exp(1j * theta / 2) * j + cmath.exp(-1j * theta / 2) * j.conj().T
            for theta in (-phi, math.pi - phi)]
        for got, op in zip(channels[4 * i:4 * i + 4], expected, strict=True):
            assert _same(got, op)
    if model.squeezed_jumps is None:
        assert not bath.is_minimal or n_ph == 0.0 or bath.m_abs == 0.0
    else:
        assert bath.is_minimal and (squeezing is None or squeezing > 0.0)
        rate = 4.0 * gamma * abs(bath.mu * bath.nu)
        assert [r for r, _ in model.squeezed_jumps] == [rate, rate]
        sp_r = _site_sum(np.cos(z), SIGMA_PLUS, n_at)
        sp_i = _site_sum(np.sin(z), SIGMA_PLUS, n_at)
        norm = math.sqrt(abs(4 * bath.mu * bath.nu))
        (_, jx), (_, jy) = model.squeezed_jumps
        assert _same(jx, (bath.mu * sp_i.conj().T + bath.nu * sp_i) / norm)
        assert _same(jy, (bath.mu * sp_r.conj().T - bath.nu * sp_r) / norm)
    if squeezing is None and n_ph > 0.0:
        assert model.squeezed_jumps is not None


def test_collective_operators_equal_site_by_site_sums():
    for n_at in range(1, 7):
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
