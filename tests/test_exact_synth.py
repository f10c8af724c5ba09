import tracemalloc

import numpy as np
import pytest

from cylris import (
    AngularGrid,
    CylinderGeometry,
    ModalExpansion,
    SteeringSpec,
    boundary_residual,
    expansion_from_surface_field,
    far_field_exact,
    go_impedance,
    modal_coefficients,
    modal_sum,
    pattern_metrics,
    scattered_surface_field,
    specfun,
    surface_impedance,
    wrap_angle,
)
from cylris.exact_synth import ImpedanceProfile

from oracles import hankel2, modal_sum_dense, trapezoid_power

SWEEP_DEG = (15.0, 30.0, 45.0, 60.0, 75.0)


def _random_weights(order: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal(2 * order + 1) + 1j * rng.standard_normal(2 * order + 1)


class TestModalSum:
    # 2M+1 = 119 modes: odd and even grids above it, and folding grids below
    @pytest.mark.parametrize("n", (1441, 1440, 119, 50, 7))
    def test_matches_dense_oracle(self, n):
        w = _random_weights(59)
        grid = AngularGrid.uniform(n)
        ref = modal_sum_dense(w, grid.values)
        got = modal_sum(w, grid)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("n", (64, 9, 4))
    def test_single_mode(self, n):
        w = np.zeros(11, dtype=complex)
        w[5 + 3] = 1.0  # m = 3 alone: exp(-3j phi), also when 3 > n / 2
        grid = AngularGrid.uniform(n)
        ref = modal_sum_dense(w, grid.values)
        assert np.abs(modal_sum(w, grid) - ref).max() <= 1e-12

    @pytest.mark.parametrize("extra", (0, 1))
    def test_go_projection_is_the_adjoint(self, geom, extra):
        # <modal_sum(w), v> = <w, A^H v>, with A^H v read back from the GO
        # projection c_m = (1/n) (-j)^m (A^H v)_m / H_m(k0 R)
        order = specfun.truncation_order(geom.k0r)
        ms = np.arange(-order, order + 1)
        n = 2 * (2 * order + 1) + extra
        grid = AngularGrid.uniform(n)
        rng = np.random.default_rng(3)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        w = _random_weights(order, 4)
        c = expansion_from_surface_field(geom, v, grid).coeffs
        adjoint_v = n * 1j ** (ms % 4) * c * hankel2(ms, geom.k0r)
        lhs = np.vdot(v, modal_sum(w, grid))
        rhs = np.vdot(adjoint_v, w)
        assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(v) * np.linalg.norm(modal_sum(w, grid))

    def test_large_electrical_size_is_cheap(self):
        # k0R ~ 3.0e4 (40 m at 36 GHz, 2M+1 ~ 6.1e4 modes): the dense
        # grid x (2M+1) phase matrices of this case took 6.7 GB
        geom = CylinderGeometry(radius_m=40.0, freq_hz=36e9)
        assert geom.k0r == pytest.approx(3.0e4, rel=0.01)
        grid = AngularGrid.uniform(65536)
        phi_o = np.radians(30.0)
        tracemalloc.start()
        try:
            e = modal_coefficients(geom, phi_o)
            res = boundary_residual(geom, e, surface_impedance(geom, e, grid))
            mag = far_field_exact(e, grid).magnitude
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.nanmax(res) < 1e-8
        assert peak < 500e6
        assert abs(wrap_angle(grid.values[mag.argmax()] - phi_o)) <= grid.spacing


class TestModalCoefficients:
    def test_c0_independent_of_steering(self, geom):
        vals = [modal_coefficients(geom, np.radians(d)).coeffs[59] for d in (0.0, 33.0, 120.0)]
        assert vals[0] == vals[1] == vals[2]

    def test_backward_steering_is_symmetric(self, geom):
        e = modal_coefficients(geom, np.pi)
        c = e.coeffs
        assert np.allclose(c, c[::-1], rtol=1e-12, atol=1e-300)

    def test_tail_decays(self, geom):
        c = np.abs(modal_coefficients(geom, np.radians(15.0)).coeffs)
        assert max(c[0], c[-1]) / c.max() < 1e-8

    @pytest.mark.parametrize("deg", (15.0, 45.0, 75.0))
    def test_surface_field_reconstruction(self, geom, deg):
        # the expansion must reproduce the steered surface wavefront
        phi_o = np.radians(deg)
        e = modal_coefficients(geom, phi_o)
        grid = AngularGrid.uniform(1441)
        phi = grid.values
        got = scattered_surface_field(geom, e, grid)
        target = np.exp(-1j * geom.k0r * np.cos(phi - phi_o))
        assert np.abs(got - target).max() < 1e-6


class TestSurfaceImpedance:
    def test_real_part_attains_both_signs(self, geom, fine_grid):
        e = modal_coefficients(geom, np.radians(15.0))
        prof = surface_impedance(geom, e, fine_grid)
        re = prof.z_over_eta0.real[~prof.pole_mask]
        assert re.max() > 0 and re.min() < 0

    def test_pole_values_not_finite_and_masked(self, geom, fine_grid):
        e = modal_coefficients(geom, np.radians(15.0))
        prof = surface_impedance(geom, e, fine_grid)
        assert np.all(np.isfinite(prof.z_over_eta0[~prof.pole_mask]))
        if prof.pole_mask.any():
            assert np.all(np.isnan(prof.z_over_eta0[prof.pole_mask].real))

    def test_spot_values_match_direct_summation_oracle(self, geom):
        # frozen from oracles.impedance_direct (mpmath, reverse-order sum)
        e = modal_coefficients(geom, np.radians(15.0))
        grid = AngularGrid.uniform(3600)
        prof = surface_impedance(geom, e, grid)
        i40 = grid.nearest_index(np.radians(40.0))
        assert abs(grid.values[i40] - np.radians(40.0)) < 1e-12
        ref40 = -7.049760158590262 - 7.151577189884962j
        assert abs(prof.z_over_eta0[i40] - ref40) <= 1e-8 * abs(ref40)
        i70 = grid.nearest_index(np.radians(-70.0))
        ref70 = 2.4612063797387176 - 6.32010278384545j
        assert abs(prof.z_over_eta0[i70] - ref70) <= 1e-8 * abs(ref70)


class TestFarFieldExact:
    def test_isotropic_single_mode(self, fine_grid):
        e = ModalExpansion(np.array([0.0, 1.0, 0.0], dtype=complex))
        p = far_field_exact(e, fine_grid)
        mag = p.magnitude
        assert np.allclose(mag, mag[0], rtol=1e-12)

    def test_sweep_peaks_on_target_and_consistent(self, geom, fine_grid):
        peaks_db = []
        for deg in SWEEP_DEG:
            e = modal_coefficients(geom, np.radians(deg))
            p = far_field_exact(e, fine_grid)
            i_pk = int(p.magnitude.argmax())
            # global maximum lands within one grid step of the target
            assert abs(fine_grid.values[i_pk] - np.radians(deg)) <= fine_grid.spacing
            peaks_db.append(20 * np.log10(p.magnitude[i_pk]))
        assert max(peaks_db) - min(peaks_db) < 1.0

    def test_forward_scattering_suppressed(self, geom, fine_grid):
        e = modal_coefficients(geom, np.radians(15.0))
        p = far_field_exact(e, fine_grid)
        mag = p.magnitude
        fwd = mag[fine_grid.nearest_index(np.pi)]
        assert 20 * np.log10(fwd / mag.max()) <= -15.0

    def test_energy_invariant_under_refinement(self, geom):
        e = modal_coefficients(geom, np.radians(30.0))
        g1 = AngularGrid.uniform(721)
        g2 = AngularGrid.uniform(3601)
        p1 = trapezoid_power(far_field_exact(e, g1).f, g1.spacing)
        p2 = trapezoid_power(far_field_exact(e, g2).f, g2.spacing)
        assert abs(p1 - p2) <= 1e-10 * p2


class TestBoundaryResidual:
    def test_self_consistent_profile(self, geom, fine_grid):
        e = modal_coefficients(geom, np.radians(15.0))
        prof = surface_impedance(geom, e, fine_grid)
        res = boundary_residual(geom, e, prof)
        assert np.nanmax(res) < 1e-8

    def test_perturbed_profile_raises_residual(self, geom, fine_grid):
        e = modal_coefficients(geom, np.radians(15.0))
        prof = surface_impedance(geom, e, fine_grid)
        res0 = boundary_residual(geom, e, prof)
        z = prof.z_over_eta0.copy()
        bump = ~prof.pole_mask & (np.abs(z.real) > 0.1)
        z[bump] = z[bump] + 0.1 * z[bump].real
        perturbed = ImpedanceProfile(grid=fine_grid, z_over_eta0=z, pole_mask=prof.pole_mask)
        res1 = boundary_residual(geom, e, perturbed)
        assert np.all(res1[bump] > res0[bump])

    def test_go_profile_has_finite_nonzero_gap(self, geom, fine_grid):
        e = modal_coefficients(geom, np.radians(15.0))
        go_prof = go_impedance(geom, np.radians(15.0), fine_grid)
        as_impedance = ImpedanceProfile(
            grid=fine_grid, z_over_eta0=go_prof.z_over_eta0, pole_mask=go_prof.singular_mask
        )
        res = boundary_residual(geom, e, as_impedance)
        ok = ~go_prof.singular_mask
        assert np.all(np.isfinite(res[ok]))
        assert np.nanmax(res) > 1e-3


def test_metrics_of_exact_pattern(geom):
    # light integration: pattern metrics behave on a real synthesis output
    grid = AngularGrid.uniform(3601)
    e = modal_coefficients(geom, np.radians(45.0))
    p = far_field_exact(e, grid)
    spec = SteeringSpec(np.radians(45.0), np.radians(14.5))
    m = pattern_metrics(p, spec)
    assert abs(np.degrees(m.peak_dir_rad) - 45.0) <= 2.0
    assert m.sll_db < 0
    assert np.degrees(m.beamwidth_rad) < 14.5
    assert m.main_beam_level_at_target_db <= 0
