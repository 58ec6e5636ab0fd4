import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from darkdimers import build_model, make_bath, make_geometry
from darkdimers.darkstates import (
    PairSpec,
    collective_amplitudes,
    collective_dark_state,
    dark_state,
    dimer_chain,
    melted_dark,
    pair_state,
    predicted_populations,
    sph_harm_equator,
    stability_residual,
    stable_dark_geometry,
)
from darkdimers.experiments import dimer_center
from darkdimers.observables import dark_condition, excitation_populations, fidelity
from darkdimers.operators import dicke_state


def jump_norms(geo, bath, psi):
    (_, jx), (_, jy) = build_model(geo, bath).squeezed_jumps
    return np.linalg.norm(jx @ psi), np.linalg.norm(jy @ psi)


class TestPairSpec:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            PairSpec(2, 1, "sym")

    def test_kind_enforced(self):
        with pytest.raises(ValueError):
            PairSpec(1, 2, "singlet")

    def test_sites_start_at_one(self):
        with pytest.raises(ValueError, match="1 <= n < m"):
            PairSpec(0, 2, "sym")


class TestPairState:
    def test_squeezed_amplitudes(self, geo2_dark, bath088):
        psi = pair_state(geo2_dark, bath088, PairSpec(1, 2, "squeezed"))
        # mu/sqrt(2.76) and nu/sqrt(2.76), frozen by direct arithmetic
        assert_allclose(
            psi, [0.8253237885, 0.0, 0.0, -0.5646597579], atol=1e-9
        )

    def test_sym_singlet_at_2pi(self, bath088):
        geo = make_geometry(2, 2 * math.pi, 0.0)
        psi = pair_state(geo, bath088, PairSpec(1, 2, "sym"))
        s = 1 / math.sqrt(2)
        assert_allclose(psi, [0.0, s, -s, 0.0], atol=1e-12)

    def test_sym_antisymmetric_phase_at_pi(self, bath088):
        geo = make_geometry(2, math.pi, 0.0)
        psi = pair_state(geo, bath088, PairSpec(1, 2, "sym"))
        s = 1 / math.sqrt(2)
        assert_allclose(psi, [0.0, s, s, 0.0], atol=1e-12)

    @pytest.mark.parametrize("k0zc", [0.0, math.pi / 2, math.pi])
    def test_squeezed_annihilated_by_jumps(self, bath088, k0zc):
        geo = make_geometry(2, math.pi / 4, k0zc)
        psi = pair_state(geo, bath088, PairSpec(1, 2, "squeezed"))
        nx, ny = jump_norms(geo, bath088, psi)
        assert nx <= 1e-12 and ny <= 1e-12

    def test_sym_annihilated_by_jumps(self, bath088):
        geo = make_geometry(2, math.pi, 0.0)
        psi = pair_state(geo, bath088, PairSpec(1, 2, "sym"))
        nx, ny = jump_norms(geo, bath088, psi)
        assert nx <= 1e-12 and ny <= 1e-12

    def test_embeds_into_larger_register(self, bath088):
        geo = make_geometry(4, math.pi, 0.0)
        psi = pair_state(geo, bath088, PairSpec(1, 3, "squeezed"))
        pops = np.abs(psi) ** 2
        # support only on |gggg> and |e g e g> (atoms 1 and 3 excited)
        assert pops[0] > 0 and pops[0b1010] > 0
        assert pops.sum() == pytest.approx(pops[0] + pops[0b1010], abs=1e-14)

    def test_pair_outside_register_rejected(self, bath088):
        geo = make_geometry(4, math.pi, 0.0)
        with pytest.raises(ValueError, match=r"\(1,5\) lies outside the 4-atom register"):
            pair_state(geo, bath088, PairSpec(1, 5, "sym"))

    def test_off_center_pair_rejected_like_the_geometry_test(self, bath088):
        # sin k0(z_1+z_2) = 2e-6: ||cos| - 1| = 2e-12 alone would pass it
        geo = make_geometry(2, math.pi / 4, 1e-6)
        assert not stable_dark_geometry(2, geo.k0a, geo.k0zc)
        with pytest.raises(ValueError, match="cos"):
            pair_state(geo, bath088, PairSpec(1, 2, "squeezed"))
        with pytest.raises(ValueError, match="cos"):
            dimer_chain(geo, bath088)

    def test_geometry_precondition_errors(self, bath088):
        geo = make_geometry(2, math.pi / 4, math.pi / 8)
        with pytest.raises(ValueError, match="cos"):
            pair_state(geo, bath088, PairSpec(1, 2, "squeezed"))
        with pytest.raises(ValueError, match="sin"):
            pair_state(geo, bath088, PairSpec(1, 2, "sym"))


class TestDimerChain:
    def test_two_atoms_reduces_to_pair(self, geo2_dark, bath088):
        assert_allclose(
            dimer_chain(geo2_dark, bath088),
            pair_state(geo2_dark, bath088, PairSpec(1, 2, "squeezed")),
            atol=1e-14,
        )

    def test_four_atom_configuration(self, bath088):
        geo = make_geometry(4, math.pi / 4, math.pi / 4)
        psi = dimer_chain(geo, bath088)
        nx, ny = jump_norms(geo, bath088, psi)
        assert nx <= 1e-12 and ny <= 1e-12

    def test_six_atom_pair_phases(self, bath088):
        # pair sums (-pi, 0, pi) give e^{i k0(z+z)} signs (-1, +1, -1)
        geo = make_geometry(6, math.pi / 4, 0.0)
        psi = dimer_chain(geo, bath088)
        mu, nu = bath088.mu.real, bath088.nu.real
        k = math.sqrt(mu**2 + nu**2)
        base = psi[0].real  # (mu/k)^3 > 0
        assert base > 0
        for pair, sign in ((0, -1), (1, +1), (2, -1)):
            idx = 0b110000 >> (2 * pair)
            assert psi[idx].real / base == pytest.approx(sign * nu / mu, abs=1e-12)

    def test_odd_atom_number_rejected(self, bath088):
        with pytest.raises(ValueError, match="even"):
            dimer_chain(make_geometry(3, math.pi / 4, 0.0), bath088)

    def test_bad_pairing_rejected(self, bath088):
        with pytest.raises(ValueError, match="cos"):
            dimer_chain(make_geometry(4, math.pi / 4, 0.0), bath088)


class TestStability:
    def test_chain_is_hamiltonian_stable(self, bath088):
        geo = make_geometry(4, math.pi / 4, math.pi / 4)
        model = build_model(geo, bath088)
        assert stability_residual(dimer_chain(geo, bath088), model) <= 1e-10

    def test_six_atom_chain_stable(self, bath088):
        geo = make_geometry(6, math.pi / 4, 0.0)
        model = build_model(geo, bath088)
        assert stability_residual(dimer_chain(geo, bath088), model) <= 1e-10

    def test_cross_pairing_unstable(self, bath088):
        # At k0a = pi/2, k0zc = pi/4 only the (1,3)(2,4) pairing exists;
        # it is jump-dark but the interaction drives it away.
        geo = make_geometry(4, math.pi / 2, math.pi / 4)
        mu, nu = bath088.mu, bath088.nu
        k = math.sqrt(abs(mu) ** 2 + abs(nu) ** 2)
        psi = np.zeros(16, dtype=complex)
        for e13 in (0, 1):
            for e24 in (0, 1):
                amp = 1.0 + 0.0j
                idx = 0
                if e13:
                    amp *= np.exp(1j * (geo.k0z[0] + geo.k0z[2])) * nu / k
                    idx |= 0b1010
                else:
                    amp *= mu / k
                if e24:
                    amp *= np.exp(1j * (geo.k0z[1] + geo.k0z[3])) * nu / k
                    idx |= 0b0101
                else:
                    amp *= mu / k
                psi[idx] += amp
        nx, ny = jump_norms(geo, bath088, psi)
        assert nx <= 1e-12 and ny <= 1e-12
        model = build_model(geo, bath088)
        assert stability_residual(psi, model) > 1e-3

    def test_melted_regime_hamiltonian_vanishes(self, bath088):
        geo = make_geometry(4, math.pi, 0.0)
        model = build_model(geo, bath088)
        psi = melted_dark(geo, bath088, 1)
        assert stability_residual(psi, model) <= 1e-12


class TestMeltedDark:
    def test_two_atoms_is_pair_state(self, bath088):
        geo = make_geometry(2, math.pi, 0.0)
        assert_allclose(
            melted_dark(geo, bath088, 1),
            pair_state(geo, bath088, PairSpec(1, 2, "squeezed")),
            atol=1e-14,
        )

    def test_four_atom_all_squeezed_matches_explicit_sum(self, bath088):
        # independent construction: psi_12 psi_34 + psi_13 psi_24 + psi_14 psi_23
        geo = make_geometry(4, math.pi, 0.0)
        mu, nu = bath088.mu, bath088.nu
        k2 = abs(mu) ** 2 + abs(nu) ** 2
        explicit = np.zeros(16, dtype=complex)
        for pairs in ([(1, 2), (3, 4)], [(1, 3), (2, 4)], [(1, 4), (2, 3)]):
            for exc in ((0, 0), (0, 1), (1, 0), (1, 1)):
                amp = 1.0 + 0.0j
                idx = 0
                for (n, m), e in zip(pairs, exc):
                    if e:
                        phase = np.exp(1j * (geo.k0z[n - 1] + geo.k0z[m - 1]))
                        amp *= phase * nu / math.sqrt(k2)
                        idx |= (1 << (4 - n)) | (1 << (4 - m))
                    else:
                        amp *= mu / math.sqrt(k2)
                explicit[idx] += amp
        explicit /= np.linalg.norm(explicit)
        assert fidelity(explicit, melted_dark(geo, bath088, 2)) >= 1.0 - 1e-12

    @pytest.mark.parametrize("n_at", [2, 4, 6])
    def test_all_sectors_annihilated(self, bath088, n_at):
        geo = make_geometry(n_at, math.pi, 0.0)
        for l in range(n_at // 2 + 1):
            psi = melted_dark(geo, bath088, l)
            nx, ny = jump_norms(geo, bath088, psi)
            assert nx <= 1e-10 and ny <= 1e-10, (n_at, l)

    def test_sectors_mutually_orthogonal(self, bath088):
        geo = make_geometry(6, math.pi, 0.0)
        states = [melted_dark(geo, bath088, l) for l in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                assert abs(np.vdot(states[i], states[j])) <= 1e-10

    def test_even_excitation_support(self, bath088):
        geo = make_geometry(4, math.pi, 0.0)
        pops = excitation_populations(melted_dark(geo, bath088, 2))
        assert pops[1] <= 1e-14 and pops[3] <= 1e-14

    def test_regime_validation(self, bath088):
        with pytest.raises(ValueError, match="sin"):
            melted_dark(make_geometry(4, math.pi / 4, 0.0), bath088, 2)
        with pytest.raises(ValueError, match="even"):
            melted_dark(make_geometry(3, math.pi, 0.0), bath088, 1)
        with pytest.raises(ValueError, match="l must"):
            melted_dark(make_geometry(4, math.pi, 0.0), bath088, 3)
        with pytest.raises(ValueError, match="capped"):
            melted_dark(make_geometry(10, math.pi, 0.0), bath088, 5)


class TestCollectiveAmplitudes:
    def test_two_atoms(self):
        s = math.sqrt(2) / 2
        assert collective_amplitudes(2, 0) == pytest.approx(s, abs=1e-12)
        assert collective_amplitudes(2, 2) == pytest.approx(s, abs=1e-12)
        assert collective_amplitudes(2, 1) == 0.0

    def test_four_atoms(self):
        assert collective_amplitudes(4, 0) == pytest.approx(
            math.sqrt(24) / 8, abs=1e-12
        )
        assert collective_amplitudes(4, 2) == pytest.approx(0.5, abs=1e-12)
        assert collective_amplitudes(4, 4) == pytest.approx(
            math.sqrt(24) / 8, abs=1e-12
        )

    def test_odd_excitations_vanish(self):
        for ne in (1, 3, 5):
            assert collective_amplitudes(6, ne) == 0.0

    @pytest.mark.parametrize("n_at,zc", [(2, 0.0), (2, math.pi / 2),
                                         (4, 0.0), (6, 0.0)])
    def test_amplitude_ratios_in_melted_state(self, bath088, n_at, zc):
        # Projections of the all-squeezed melted state onto the Dicke
        # ladder follow e^{-2 eta} c(ne+2)/c(ne) up to one fixed sign.
        geo = make_geometry(n_at, 2 * math.pi, zc)
        psi = melted_dark(geo, bath088, n_at // 2)
        amps = np.array(
            [np.vdot(dicke_state(n_at, ne), psi) for ne in range(n_at + 1)]
        )
        factor = math.exp(-2.0 * bath088.eta)
        signs = []
        for ne in range(0, n_at - 1, 2):
            ratio = amps[ne + 2] / amps[ne]
            expected = factor * collective_amplitudes(n_at, ne + 2) / \
                collective_amplitudes(n_at, ne)
            assert abs(abs(ratio) - expected) <= 1e-10
            assert abs(ratio.imag) <= 1e-12
            signs.append(np.sign(ratio.real))
        assert len(set(signs)) == 1


class TestSphHarmEquator:
    def test_against_scipy(self):
        from scipy.special import sph_harm_y

        for l in range(0, 7):
            for m in range(-l, l + 1):
                ref = sph_harm_y(l, m, math.pi / 2, 0.0).real
                assert sph_harm_equator(l, m) == pytest.approx(ref, abs=1e-12), (l, m)

    def test_equator_zero_for_odd_l_plus_m(self):
        assert sph_harm_equator(1, 0) == 0.0
        assert sph_harm_equator(3, 2) == 0.0

    def test_m_out_of_range(self):
        with pytest.raises(ValueError):
            sph_harm_equator(1, 2)


class TestCollectiveDarkState:
    def test_two_atom_form(self, bath088):
        # proportional to e^{eta}|gg> +/- e^{-eta}|ee>, the sign fixed by
        # the annihilation requirement at each center
        for zc, sign in ((0.0, -1.0), (math.pi / 2, +1.0)):
            geo = make_geometry(2, 2 * math.pi, zc)
            psi = collective_dark_state(geo, bath088)
            eta = bath088.eta
            expected = np.zeros(4, dtype=complex)
            expected[0] = math.exp(eta)
            expected[3] = sign * math.exp(-eta)
            expected /= np.linalg.norm(expected)
            assert fidelity(expected, psi) >= 1.0 - 1e-12
            nx, ny = jump_norms(geo, bath088, psi)
            assert nx <= 1e-12 and ny <= 1e-12

    @pytest.mark.parametrize("n_at", [4, 6])
    @pytest.mark.parametrize("zc", [0.0, math.pi / 2])
    def test_matches_melted_dark(self, bath088, n_at, zc):
        geo = make_geometry(n_at, 2 * math.pi, zc)
        col = collective_dark_state(geo, bath088)
        mel = melted_dark(geo, bath088, n_at // 2)
        assert fidelity(col, mel) >= 1.0 - 1e-9

    def test_no_weight_on_odd_sectors(self, bath088):
        geo = make_geometry(2, 2 * math.pi, 0.0)
        psi = collective_dark_state(geo, bath088)
        assert excitation_populations(psi)[1] <= 1e-14

    def test_regime_validation(self, bath088):
        with pytest.raises(ValueError, match="2pi"):
            collective_dark_state(make_geometry(2, math.pi, 0.0), bath088)
        with pytest.raises(ValueError, match="zc"):
            collective_dark_state(make_geometry(2, 2 * math.pi, 0.3), bath088)
        with pytest.raises(ValueError, match="even n_at"):
            collective_dark_state(make_geometry(3, 2 * math.pi, 0.0), bath088)


class TestPredictedPopulations:
    def test_thermal(self, bath088):
        x = 0.88 / 1.88
        assert x == pytest.approx(0.4680851064, abs=1e-9)
        p = predicted_populations("thermal", 6, bath088)
        expected = x ** np.arange(7)
        expected /= expected.sum()
        assert_allclose(p, expected, atol=1e-14)

    def test_dimer_six_atoms(self, bath088):
        p = predicted_populations("dimer", 6, bath088)
        # frozen from the closed form with x = 0.4680851, prefactor
        # (1.88/2.76)^3
        assert p[0] == pytest.approx(0.3160430917, abs=1e-9)
        assert p[2] == pytest.approx(0.4438051926, abs=1e-9)
        assert p[4] == pytest.approx(0.2077386008, abs=1e-9)
        assert p[6] == pytest.approx(0.0324131150, abs=1e-9)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert p[1] == 0.0 and p[3] == 0.0 and p[5] == 0.0

    def test_squeezed_two_atoms_reduces_to_pair(self, bath088):
        p = predicted_populations("squeezed", 2, bath088)
        assert_allclose(p, [1.88 / 2.76, 0.0, 0.88 / 2.76], atol=1e-12)

    @pytest.mark.parametrize("n_at", [4, 6])
    def test_squeezed_matches_collective_state(self, bath088, n_at):
        geo = make_geometry(n_at, 2 * math.pi, 0.0)
        state_pops = excitation_populations(melted_dark(geo, bath088, n_at // 2))
        assert_allclose(
            predicted_populations("squeezed", n_at, bath088), state_pops, atol=1e-10
        )

    def test_dimer_matches_chain_populations(self, bath088):
        geo = make_geometry(6, math.pi / 4, 0.0)
        chain_pops = excitation_populations(dimer_chain(geo, bath088))
        assert_allclose(
            predicted_populations("dimer", 6, bath088), chain_pops, atol=1e-12
        )

    def test_validation(self, bath088):
        with pytest.raises(ValueError, match="law"):
            predicted_populations("flat", 4, bath088)
        with pytest.raises(ValueError, match="even"):
            predicted_populations("dimer", 3, bath088)
        with pytest.raises(ValueError):
            predicted_populations("squeezed", 4, make_bath(0.0))


class TestStableDarkGeometry:
    @pytest.mark.parametrize(
        "k0a,k0zc,expected",
        [
            (math.pi / 4, math.pi / 4, True),    # dimerized chain
            (math.pi / 2, 0.0, True),
            (math.pi / 2, math.pi / 2, True),
            (3 * math.pi / 4, math.pi / 4, True),
            (math.pi, 0.0, True),                # melted
            (math.pi, math.pi / 2, True),
            (0.0, 0.0, True),
            (math.pi / 4, 0.0, False),           # pair centers off-extremum
            (math.pi / 8, math.pi / 4, False),   # not a pi/4 multiple
            (math.pi / 3, math.pi / 3, False),
            (math.pi, math.pi / 4, False),
        ],
    )
    def test_four_atom_table(self, k0a, k0zc, expected):
        assert stable_dark_geometry(4, k0a, k0zc) is expected

    def test_odd_atom_number_never_dark(self):
        assert not stable_dark_geometry(3, math.pi / 4, math.pi / 4)

    def test_two_atoms_any_separation(self):
        # a single centered pair is stable regardless of separation
        assert stable_dark_geometry(2, 1.234, 0.0)
        assert not stable_dark_geometry(2, 1.234, 0.3)


class TestDarkState:
    @pytest.mark.parametrize("offset", [-1e-8, -1e-10, 1e-10, 1e-8])
    def test_regime_at_the_melted_boundary(self, bath088, offset):
        # sin k0a = -offset: melted within the pair tolerance, a dimer chain
        # beyond it (a single centered pair is stable at any separation)
        geo = make_geometry(2, math.pi + offset, 0.0)
        name, psi, collective = dark_state(geo, bath088)
        constructor = melted_dark if abs(offset) < 1e-9 else dimer_chain
        assert name.startswith(constructor.__name__)
        assert collective is None  # the closed form needs k0 a = 0 (mod 2pi)
        assert max(jump_norms(geo, bath088, psi)) <= 1e-8

    def test_collective_form_where_it_applies(self, bath088):
        geo = make_geometry(4, 2 * math.pi, math.pi / 2)
        name, psi, collective = dark_state(geo, bath088)
        assert name == "melted_dark(l=2)"
        assert fidelity(collective, psi) == pytest.approx(1.0, abs=1e-12)
        # a lower sector is still cross-checked against the l = n_at/2 form
        _, lower, collective = dark_state(geo, bath088, 1)
        assert abs(np.vdot(collective, lower)) <= 1e-12

    @pytest.mark.parametrize("n_at,k0a,k0zc,l,fragment", [
        (4, math.pi / 3, 0.0, None, r"\|sin k0\(z_n\+z_m\)\| <= 1e-09"),
        (3, math.pi / 4, math.pi / 4, None, "n_at must be even"),
        (4, 2 * math.pi, 0.0, 9, r"l must be in 0\.\.2, got 9"),
        (4, math.pi / 4, math.pi / 4, 1, "the dimer chain has only sector l = 2, got l = 1"),
    ], ids=["off-center", "odd", "sector", "dimer-sector"])
    def test_no_dark_state_raises(self, bath088, n_at, k0a, k0zc, l, fragment):
        with pytest.raises(ValueError, match=fragment):
            dark_state(make_geometry(n_at, k0a, k0zc), bath088, l)


@settings(max_examples=40, deadline=None)
@given(n_at=st.sampled_from([2, 4, 6]), a_steps=st.integers(0, 7),
       zc_steps=st.integers(0, 3), n_ph=st.floats(0.0, 2.0, exclude_min=True),
       phi=st.floats(0.0, 2.0 * math.pi))
def test_dark_state_annihilated_wherever_geometry_is_stable(n_at, a_steps, zc_steps,
                                                            n_ph, phi):
    # k0a on the (pi/4) lattice, the array centered where every nearest-
    # neighbor pair sits at a quadrature extremum
    k0a = a_steps * math.pi / 4
    k0zc = dimer_center(n_at, k0a) + zc_steps * math.pi / 2
    assume(stable_dark_geometry(n_at, k0a, k0zc))
    geo, bath = make_geometry(n_at, k0a, k0zc), make_bath(n_ph, phi)
    assert abs(dark_condition(geo, bath)) <= 1e-10
    if abs(math.sin(k0a)) <= 1e-9:
        psi = melted_dark(geo, bath, n_at // 2)
    else:
        psi = dimer_chain(geo, bath)
    assert max(jump_norms(geo, bath, psi)) <= 1e-10
