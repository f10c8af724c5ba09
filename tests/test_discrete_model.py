import dataclasses

import numpy as np
import pytest

from cylris import (
    AngularGrid,
    CylinderGeometry,
    ElementArray,
    SteeringSpec,
    conjugate_phase_excitation,
    far_field_discrete,
    reference_beamwidth,
    reference_window,
    steering_vector,
    steering_vector_at,
    wrap_angle,
)
from cylris.errors import ConfigError
from cylris.io import write_pattern_csv
from cylris.patterns import PatternGrid, half_power_width, pattern_metrics

from oracles import trapezoid_power

K0R = 30.159289474462014


def reference_table(array):
    return steering_vector(array, AngularGrid.uniform(3601))


def half_power_reference_width(table, phi_o):
    """Half-power width of the cophasal reference lobe pointed at phi_o."""
    return half_power_width(
        far_field_discrete(table, conjugate_phase_excitation(table.array, phi_o))
    )


class TestBuildArray:
    def test_single_element_centered(self, geom):
        arr = ElementArray(geom, 1, 0.038)
        assert arr.alphas[0] == 0.0

    def test_full_scale_layout(self, array30):
        d = np.degrees(np.diff(array30.alphas))
        assert np.allclose(d, 5.44309905374282, rtol=1e-12)
        span = np.degrees(array30.alphas[-1] - array30.alphas[0])
        assert span == pytest.approx(157.84987255854176, rel=1e-12)
        assert np.degrees(np.abs(array30.alphas).max()) < 90.0

    def test_numpy_scalars_act_as_python_numbers(self, array30):
        geom = CylinderGeometry(radius_m=np.float64(0.4), freq_hz=np.int64(3_600_000_000))
        arr = ElementArray(geom, np.int64(30), np.float64(0.038))
        assert arr.geom == array30.geom
        assert np.array_equal(arr.alphas, array30.alphas)

    def test_nan_pitch_is_refused(self, geom):
        with pytest.raises(ConfigError, match="^array.arc_pitch_m: must be finite"):
            ElementArray(geom, 8, float("nan"))

    def test_overlong_array_rejected(self, geom):
        with pytest.raises(ValueError):
            ElementArray(geom, 40, 0.038)

    @pytest.mark.parametrize(
        "n_elements, span",
        [(1, np.pi), (2, np.pi), (30, np.pi), (2, np.radians(190.0))],
        ids=["at_one", "at", "at_thirty", "past"],
    )
    def test_element_at_or_past_a_quarter_turn_rejected(self, geom, n_elements, span):
        """The span rule n p / R < pi is what keeps every element below a quarter turn."""
        with pytest.raises(ValueError, match="illuminated half"):
            ElementArray(geom, n_elements, span * geom.radius_m / n_elements)

    def test_alphas_are_the_uniform_arc_bit_for_bit(self, array30):
        step = 0.038 / array30.geom.radius_m
        assert np.array_equal(array30.alphas, (np.arange(1, 31) - 15.5) * step)
        assert not array30.alphas.flags.writeable
        arr = dataclasses.replace(array30, n_elements=8)
        assert np.array_equal(arr.alphas, (np.arange(1, 9) - 4.5) * step)
        with pytest.raises(ValueError, match="illuminated half"):
            dataclasses.replace(array30, n_elements=40)

    def test_unknown_element_pattern_rejected(self, geom):
        with pytest.raises(ValueError, match="element_pattern"):
            ElementArray(geom, 8, 0.038, element_pattern="cos3")


class TestSteeringVector:
    def test_boresight_of_element(self, array30):
        n = 7
        a_exact = steering_vector_at(array30, array30.alphas[n])
        assert abs(a_exact[n]) == pytest.approx(1.0, rel=1e-12)
        assert a_exact[n] == pytest.approx(
            np.exp(1j * K0R * (1 + np.cos(array30.alphas[n]))), rel=1e-12
        )

    def test_support_cutoff(self, array30):
        n = 3
        phi = wrap_angle(array30.alphas[n] + np.radians(120.0))
        assert steering_vector_at(array30, float(phi))[n] == 0.0

    def test_apex_round_trip_phase(self, geom):
        arr = ElementArray(geom, 1, 0.038)
        a = steering_vector_at(arr, 0.0)
        assert a[0] == pytest.approx(np.exp(2j * K0R), rel=1e-12)

    def test_support_mask_on_grid(self, array30, fine_grid):
        table = steering_vector(array30, fine_grid)
        delta = wrap_angle(fine_grid.values[:, None] - array30.alphas[None, :])
        outside = np.abs(delta) >= np.pi / 2
        assert np.all(table.a[outside] == 0)
        assert np.all(table.a[~outside] != 0)

    def test_cos2_pattern_scales_by_illumination(self, array30, obj_grid):
        assert array30.element_pattern == "cos"
        t1 = steering_vector(array30, obj_grid)
        t2 = steering_vector(ElementArray(array30.geom, 30, 0.038, "cos2"), obj_grid)
        scale = np.cos(array30.alphas)[None, :]
        assert np.allclose(t2.a, t1.a * scale, rtol=0, atol=1e-15)


class TestFarFieldDiscrete:
    def test_zero_excitation(self, array30, obj_grid):
        table = steering_vector(array30, obj_grid)
        p = far_field_discrete(table, np.zeros(30, dtype=complex))
        assert np.all(p.f == 0)

    def test_superposition(self, array30, obj_grid):
        table = steering_vector(array30, obj_grid)
        rng = np.random.default_rng(3)
        g1 = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        g2 = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        p12 = far_field_discrete(table, g1 + g2)
        p1 = far_field_discrete(table, g1)
        p2 = far_field_discrete(table, g2)
        assert np.abs(p12.f - (p1.f + p2.f)).max() < 1e-12 * np.abs(p12.f).max()

    def test_symmetric_pair_even_pattern(self, geom):
        arr = ElementArray(geom, 2, 0.038)
        assert arr.alphas[0] == -arr.alphas[1]
        grid = AngularGrid.uniform(3600)
        table = steering_vector(arr, grid)
        p = far_field_discrete(table, np.array([1.0 + 0j, 1.0 + 0j]))
        mag = p.magnitude
        # mirror sample of index k is index (n - k) % n on the half-open grid
        mirrored = np.roll(mag[::-1], 1)
        assert np.abs(mag - mirrored).max() < 1e-12 * mag.max()


class TestMetrics:
    def test_single_inband_sample_gives_minus_inf_sll(self, fine_grid):
        f = np.zeros(len(fine_grid), dtype=complex)
        f[fine_grid.nearest_index(0.3)] = 1.0
        spec = SteeringSpec(phi_o=0.3, delta_phi=np.radians(10.0))
        m = pattern_metrics(PatternGrid(grid=fine_grid, f=f), spec)
        assert m.sll_db == -np.inf

    def test_constant_pattern_gives_zero_sll(self, fine_grid):
        f = np.ones(len(fine_grid), dtype=complex)
        spec = SteeringSpec(phi_o=0.0, delta_phi=np.radians(10.0))
        m = pattern_metrics(PatternGrid(grid=fine_grid, f=f), spec)
        assert m.sll_db == 0.0
        assert np.isnan(m.beamwidth_rad)

    def test_metrics_recomputable_from_exported_csv(self, array30, fine_grid, tmp_path):
        spec = SteeringSpec(phi_o=np.radians(45.0), delta_phi=reference_window(array30))
        table = steering_vector(array30, fine_grid)
        p = far_field_discrete(table, conjugate_phase_excitation(array30, spec.phi_o))
        m = pattern_metrics(p, spec)
        path = tmp_path / "pattern.csv"
        write_pattern_csv(path, p)
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        phi_deg, f, mag_db = rows[:, 0], rows[:, 1] + 1j * rows[:, 2], rows[:, 3]
        mag = np.abs(f)
        i_pk = mag.argmax()
        # sample-level recompute agrees with the (sub-sample refined) metrics
        assert 20 * np.log10(mag[i_pk]) == pytest.approx(m.peak_db, abs=0.01)
        assert phi_deg[i_pk] == pytest.approx(np.degrees(m.peak_dir_rad), abs=1e-9)
        excl = np.abs(wrap_angle(np.radians(phi_deg) - spec.phi_o)) > spec.delta_phi / 2
        sll = 20 * np.log10(mag[excl].max() / mag[i_pk])
        assert sll == pytest.approx(m.sll_db, abs=0.05)
        assert mag_db.max() == pytest.approx(0.0, abs=1e-12)


class TestReferenceBeamwidth:
    def test_monotone_in_element_count(self, geom):
        widths = [
            half_power_reference_width(
                reference_table(ElementArray(geom, n, 0.038)), np.radians(15.0)
            )
            for n in (10, 20, 30)
        ]
        assert widths[0] > widths[1] > widths[2]

    def test_golden_values_full_scale(self, array30):
        # frozen at the first verified run of this configuration
        table = reference_table(array30)
        hp = np.degrees(half_power_reference_width(table, np.radians(15.0)))
        nn = np.degrees(reference_beamwidth(table, np.radians(15.0)))
        assert hp == pytest.approx(5.500486820252603, abs=1e-9)
        assert nn == pytest.approx(12.496528742015569, abs=1e-9)

    def test_default_window_is_twenty_percent_margin(self, array30):
        ref = reference_beamwidth(reference_table(array30), 0.0)
        assert reference_window(array30) == pytest.approx(1.2 * ref, rel=1e-12)

    def test_conjugate_phase_points_at_target(self, array30, fine_grid):
        # the element-gain taper drags the argmax slightly toward broadside;
        # the drift grows with steering and stays under one degree
        table = steering_vector(array30, fine_grid)
        for deg in (15.0, 30.0, 45.0, 60.0, 75.0):
            p = far_field_discrete(table, conjugate_phase_excitation(array30, np.radians(deg)))
            i_pk = int(p.magnitude.argmax())
            err = abs(wrap_angle(fine_grid.values[i_pk] - np.radians(deg)))
            assert err <= np.radians(0.75)
            if deg <= 30.0:
                assert err <= fine_grid.spacing


class TestGridRobustness:
    def test_band_limited_metrics_stable_across_grids(self, array30):
        # the fast optimizer grid and the reporting grid must agree
        spec_window = reference_window(array30)
        g_fast = AngularGrid.uniform(361)
        g_fine = AngularGrid.uniform(3601)
        t_fast = steering_vector(array30, g_fast)
        t_fine = steering_vector(array30, g_fine)
        rng = np.random.default_rng(11)
        for deg in (15.0, 45.0, 75.0):
            spec = SteeringSpec(phi_o=np.radians(deg), delta_phi=spec_window)
            excitations = [
                conjugate_phase_excitation(array30, spec.phi_o),
                np.where(rng.random(30) < 0.5, 1.0, -1.0).astype(complex),
            ]
            for g in excitations:
                m_fast = pattern_metrics(far_field_discrete(t_fast, g), spec)
                m_fine = pattern_metrics(far_field_discrete(t_fine, g), spec)
                assert abs(m_fast.peak_db - m_fine.peak_db) < 0.1
                assert abs(m_fast.sll_db - m_fine.sll_db) < 0.1

    def test_quadratic_form_matches_trapezoid_power(self, array30):
        from cylris import build_sigma

        grid = AngularGrid.uniform(57600)
        table = steering_vector(array30, grid)  # the trapezoid oracle's grid only
        spec = SteeringSpec(phi_o=np.radians(30.0), delta_phi=reference_window(array30))
        sig = build_sigma(table, spec)
        rng = np.random.default_rng(5)
        for _ in range(10):
            g = np.where(rng.random(30) < 0.5, 1.0, -1.0).astype(complex)
            lhs = float((g.conj() @ (sig.sigma @ g)).real)
            rhs = trapezoid_power(table.a @ g, grid.spacing)
            assert abs(lhs - rhs) <= 1e-6 * rhs
