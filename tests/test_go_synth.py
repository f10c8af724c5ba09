import numpy as np
import pytest

from cylris import (
    AngularGrid,
    expansion_from_surface_field,
    far_field_exact,
    far_field_po,
    go_impedance,
    modal_coefficients,
    phase_function,
)

SWEEP_DEG = (15.0, 30.0, 45.0, 60.0, 75.0)


@pytest.fixture(scope="module")
def po_grid():
    return AngularGrid.uniform(4096)


class TestPhaseFunction:
    def test_at_phi_zero(self, geom):
        phi_o = np.radians(37.0)
        got = phase_function(geom, phi_o, 0.0)
        assert got == pytest.approx(geom.k0r * (np.cos(phi_o) + 1.0), rel=1e-14)

    def test_vanishes_at_quarter_turns_for_broadside(self, geom):
        got = phase_function(geom, 0.0, np.array([np.pi / 2, -np.pi / 2]))
        assert np.allclose(got, 0.0, atol=1e-12)

    def test_full_scale_value(self, geom):
        got = phase_function(geom, np.radians(15.0), np.radians(30.0))
        expected = 30.159289474462014 * (np.cos(np.radians(15.0)) + np.cos(np.radians(30.0)))
        assert got == pytest.approx(expected, rel=1e-14)
        assert got == pytest.approx(55.25, abs=0.01)


class TestGoReflection:
    def test_unimodular(self, geom, fine_grid):
        g = go_impedance(geom, np.radians(15.0), fine_grid).gamma
        assert np.abs(np.abs(g) - 1.0).max() < 1e-12

    def test_half_turn_phase_gives_minus_one(self, geom):
        # pick a grid sample where the phase function equals pi by construction
        grid = AngularGrid.uniform(4096)
        i = grid.nearest_index(0.3)
        phi, phi_o = grid.values[i], 0.9
        scale = np.pi / phase_function(geom, phi_o, phi)
        from cylris import CylinderGeometry

        g2 = CylinderGeometry(radius_m=geom.radius_m * scale, freq_hz=geom.freq_hz)
        assert phase_function(g2, phi_o, phi) == pytest.approx(np.pi, rel=1e-12)
        assert go_impedance(g2, phi_o, grid).gamma[i] == pytest.approx(-1.0 + 0j, abs=1e-12)

    def test_round_trip_through_impedance(self, geom, fine_grid):
        # reflection from the impedance route must equal exp(-j Phi_r)
        prof = go_impedance(geom, np.radians(15.0), fine_grid)
        ok = ~prof.singular_mask
        z = prof.z_over_eta0[ok]
        zw = 1.0 / np.cos(fine_grid.values[ok])
        gamma = (z - zw) / (z + zw)
        assert np.abs(gamma - prof.gamma[ok]).max() < 1e-10


class TestGoImpedance:
    def test_purely_imaginary(self, geom, fine_grid):
        prof = go_impedance(geom, np.radians(15.0), fine_grid)
        assert np.abs(prof.z_over_eta0.real[~prof.singular_mask]).max() < 1e-12

    def test_short_circuit_where_phase_is_pi(self, geom):
        phi = 0.3
        phi_o = 0.9
        scale = np.pi / phase_function(geom, phi_o, phi)
        from cylris import CylinderGeometry

        g2 = CylinderGeometry(radius_m=geom.radius_m * scale, freq_hz=geom.freq_hz)
        grid = AngularGrid.uniform(4096)
        prof = go_impedance(g2, phi_o, grid)
        i = grid.nearest_index(phi)
        # the grid sample is within a step of the exact short-circuit point
        assert abs(prof.z_over_eta0[i].imag) < 0.2

    def test_singular_points_masked(self, geom):
        # a 3600-sample grid hits +-90 deg exactly, where cos(phi) vanishes
        grid = AngularGrid.uniform(3600)
        prof = go_impedance(geom, np.radians(15.0), grid)
        assert prof.singular_mask.any()
        assert prof.singular_mask[grid.nearest_index(np.pi / 2)]
        assert prof.singular_mask[grid.nearest_index(-np.pi / 2)]
        # zeros of sin(Phi_r / 2) away from the grazing angles are masked too
        away = prof.singular_mask & (np.abs(np.abs(grid.values) - np.pi / 2) > 0.01)
        assert away.any()
        phase = phase_function(geom, np.radians(15.0), grid.values)
        assert np.all(np.abs(np.sin(phase[away] / 2)) < 1e-6)
        assert np.all(np.isnan(prof.z_over_eta0[prof.singular_mask].real))
        assert np.all(np.isfinite(prof.z_over_eta0[~prof.singular_mask]))

    def test_reactance_oscillates_rapidly(self, geom, fine_grid):
        prof = go_impedance(geom, np.radians(15.0), fine_grid)
        lit = ~prof.singular_mask & (np.abs(fine_grid.values) < np.pi / 2)
        sign_changes = int(np.sum(np.diff(np.sign(prof.z_over_eta0.imag[lit])) != 0))
        assert sign_changes > 20


class TestFarFieldPo:
    def test_projection_core_matches_closed_form(self, geom, po_grid):
        # prescribing the exact steered surface field must reproduce the
        # closed-form coefficients to near machine precision
        phi_o = np.radians(15.0)
        target = np.exp(-1j * geom.k0r * np.cos(po_grid.values - phi_o))
        e_proj = expansion_from_surface_field(geom, target, po_grid)
        e_ref = modal_coefficients(geom, phi_o)
        assert np.abs(e_proj.coeffs - e_ref.coeffs).max() < 1e-12

    def test_specular_unit_reflection(self, geom, po_grid):
        # mirror-like Gamma = -1: the shadow current radiates the dominant
        # forward lobe near 180 while the curved mirror spreads the
        # reflected wave over the back half with its maximum at 0
        p = far_field_po(geom, np.full(len(po_grid), -1.0, dtype=complex), po_grid)
        mag = p.magnitude
        i_global = int(mag.argmax())
        assert abs(abs(po_grid.degrees[i_global]) - 180.0) < 5.0
        back_half = np.abs(po_grid.degrees) < 90.0
        i_back = int(np.argmax(np.where(back_half, mag, 0.0)))
        assert abs(po_grid.degrees[i_back]) < 5.0

    def test_shadow_alone_radiates_forward(self, geom, po_grid):
        p = far_field_po(geom, np.zeros(len(po_grid), dtype=complex), po_grid)
        i_pk = int(p.magnitude.argmax())
        assert abs(abs(po_grid.degrees[i_pk]) - 180.0) < 2.0

    def test_steered_beam_and_monotone_degradation(self, geom, po_grid, fine_grid):
        # the steered-lobe level falls behind the reference synthesis more
        # and more as the steering angle grows
        gaps = []
        for deg in SWEEP_DEG:
            phi_o = np.radians(deg)
            gamma = np.exp(-1j * phase_function(geom, phi_o, po_grid.values))
            p_go = far_field_po(geom, gamma, po_grid, out_grid=fine_grid)
            p_ex = far_field_exact(modal_coefficients(geom, phi_o), fine_grid)
            window = np.abs(fine_grid.degrees - deg) < 10.0
            go_peak = p_go.magnitude[window].max()
            ex_peak = p_ex.magnitude.max()
            gaps.append(20 * np.log10(ex_peak / go_peak))
        assert all(b > a for a, b in zip(gaps, gaps[1:]))
        assert 3.0 <= gaps[-1] <= 7.0  # total gap at the last angle

    def test_forward_lobes_present(self, geom, po_grid):
        gamma = np.exp(-1j * phase_function(geom, np.radians(15.0), po_grid.values))
        p = far_field_po(geom, gamma, po_grid)
        mag = p.magnitude
        fwd = mag[np.abs(np.abs(po_grid.values) - np.pi) < np.radians(5.0)].max()
        assert 20 * np.log10(fwd / mag.max()) > -10.0

    def test_shadow_model_none_suppresses_forward_lobe(self, geom, po_grid):
        gamma = np.exp(-1j * phase_function(geom, np.radians(15.0), po_grid.values))
        p_cancel = far_field_po(geom, gamma, po_grid, shadow_model="cancel")
        p_none = far_field_po(geom, gamma, po_grid, shadow_model="none")
        i180 = po_grid.nearest_index(np.pi)
        assert p_none.magnitude[i180] < p_cancel.magnitude[i180]

    def test_grid_resolution_guard(self, geom):
        small = AngularGrid.uniform(64)
        with pytest.raises(ValueError):
            far_field_po(geom, np.ones(64, dtype=complex), small)
