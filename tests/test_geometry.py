import numpy as np
import pytest

from cylris import (
    AngularGrid,
    CylinderGeometry,
    SteeringSpec,
    exclusion_set_mask,
    incident_field,
    wrap_angle,
)
from cylris.errors import ConfigError
from cylris.geometry import SPEED_OF_LIGHT


def test_electrical_radius_derived(geom):
    expected = 2 * np.pi * 3.6e9 / SPEED_OF_LIGHT * 0.4
    assert geom.k0r == pytest.approx(expected, rel=1e-15)
    assert geom.k0r == pytest.approx(30.159289474462014, rel=1e-12)


def test_nan_radius_is_refused():
    with pytest.raises(ConfigError, match="^geometry.radius_m: must be finite"):
        CylinderGeometry(radius_m=float("nan"), freq_hz=3.6e9)


def test_geometry_validation():
    with pytest.raises(ValueError):
        CylinderGeometry(radius_m=0.0, freq_hz=1e9)
    with pytest.raises(ValueError):
        CylinderGeometry(radius_m=1.0, freq_hz=-1.0)


class TestIncidentField:
    def test_origin(self, geom):
        assert incident_field(geom, 0.0, 1.234) == 1.0 + 0.0j

    def test_broadside_null_phase(self, geom):
        assert incident_field(geom, geom.radius_m, np.pi / 2) == pytest.approx(1.0 + 0.0j)

    def test_full_scale_phase(self, geom):
        got = incident_field(geom, geom.radius_m, 0.0)
        assert got == pytest.approx(np.exp(1j * 30.159289474462014), rel=1e-12)

    def test_negative_radius_rejected(self, geom):
        with pytest.raises(ValueError):
            incident_field(geom, -0.1, 0.0)


class TestAngularGrid:
    def test_uniform_half_open(self):
        g = AngularGrid.uniform(360)
        assert len(g) == 360
        assert g.values[0] == -np.pi
        assert g.values[-1] < np.pi
        assert g.spacing == pytest.approx(2 * np.pi / 360)

    def test_full_circle_by_construction(self):
        for n in (2, 7, 360):
            k = np.arange(n)
            assert np.array_equal(AngularGrid.uniform(n).values, -np.pi + 2 * np.pi * k / n)
        for n in (1, 0, -3):
            with pytest.raises(ValueError):
                AngularGrid.uniform(n)

    def test_rejects_nonuniform(self):
        # there is no constructor from arbitrary sample values
        with pytest.raises(TypeError):
            AngularGrid(np.array([0.0, 0.1, 0.3]))
        # and a uniform grid cannot be made non-uniform in place
        g = AngularGrid.uniform(8)
        with pytest.raises(ValueError):
            g.values[1] = 0.3
        assert np.allclose(np.diff(g.values), g.spacing)

    def test_rejects_decreasing(self):
        with pytest.raises(TypeError):
            AngularGrid(np.array([0.2, 0.1]))
        for n in (2, 7, 360):
            assert np.all(np.diff(AngularGrid.uniform(n).values) > 0)

    def test_nearest_index_wraps(self):
        g = AngularGrid.uniform(360)
        assert g.nearest_index(-np.pi + 1e-9) == 0
        # just below +pi wraps around to the first sample
        assert g.nearest_index(np.pi - 1e-9) == 0


class TestExclusionMask:
    def test_full_window_no_exclusion(self, fine_grid):
        spec = SteeringSpec(phi_o=0.0, delta_phi=2 * np.pi)
        assert not exclusion_set_mask(spec, fine_grid).any()

    def test_half_circle_window(self, fine_grid):
        spec = SteeringSpec(phi_o=0.0, delta_phi=np.pi)
        mask = exclusion_set_mask(spec, fine_grid)
        expected = np.abs(fine_grid.values) > np.pi / 2
        assert np.array_equal(mask, expected)

    def test_wraparound_window(self, fine_grid):
        spec = SteeringSpec(np.radians(170.0), np.radians(40.0))
        mask = exclusion_set_mask(spec, fine_grid)
        idx = fine_grid.nearest_index(np.radians(-175.0))
        assert not mask[idx]  # -175 deg is inside the wrapped main-beam window
        assert mask[fine_grid.nearest_index(0.0)]

    def test_invariant_under_2pi_shift(self, fine_grid):
        base = SteeringSpec(phi_o=np.radians(40.0), delta_phi=np.radians(30.0))
        shifted = SteeringSpec(phi_o=np.radians(40.0) + 2 * np.pi, delta_phi=np.radians(30.0))
        assert np.array_equal(
            exclusion_set_mask(base, fine_grid), exclusion_set_mask(shifted, fine_grid)
        )

    def test_complement_is_contiguous_arc_of_width_delta(self, fine_grid):
        spec = SteeringSpec(phi_o=np.radians(135.0), delta_phi=np.radians(25.0))
        inside = ~exclusion_set_mask(spec, fine_grid)
        measure = inside.sum() * fine_grid.spacing
        assert abs(measure - spec.delta_phi) <= 2 * fine_grid.spacing
        # contiguity up to the wrap point: at most one rising edge in the
        # circular sense
        rolled = np.roll(inside, 1)
        rising = np.sum(~rolled & inside)
        assert rising == 1


def test_steering_spec_wraps_phi_o():
    spec = SteeringSpec(phi_o=np.radians(190.0), delta_phi=0.1)
    assert spec.phi_o == pytest.approx(np.radians(-170.0))


def test_steering_spec_warns_below_reference():
    spec = SteeringSpec(phi_o=0.0, delta_phi=np.radians(5.0))
    with pytest.warns(UserWarning):
        spec.warn_if_below_reference(np.radians(10.0))


def test_wrap_angle_principal_interval():
    xs = np.array([-np.pi, np.pi, 3 * np.pi, -3.5 * np.pi, 0.1])
    w = wrap_angle(xs)
    assert np.all(w >= -np.pi) and np.all(w < np.pi)
    assert w[0] == -np.pi
    assert w[1] == -np.pi
