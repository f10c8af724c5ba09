"""J_m and H_m at k0 R come from one cached table per (k0 R, M): every exact
and GO result equals the former per-call evaluation bit for bit, whatever
the cache held before the call."""

import numpy as np
import pytest
import scipy.special

from cylris import (
    AngularGrid,
    CylinderGeometry,
    ModalExpansion,
    far_field_po,
    go_impedance,
    modal_coefficients,
    scattered_surface_field,
    surface_impedance,
)
from cylris.config import parse_config
from cylris.exact_synth import _radial_table, required_grid_points
from cylris.pipeline import run_sweep

from oracles import (
    far_field_po_per_call,
    modal_coefficients_per_call,
    scattered_fields_per_call,
    surface_impedance_per_call,
)

# R = 0.12 m and 0.4 m at 3.6 GHz, and R = 1 m at 36 GHz (k0 R ~ 754)
GEOMETRIES = [(0.12, 3.6e9), (0.4, 3.6e9), (1.0, 36e9)]
PHI_O = np.radians(40.0)


@pytest.fixture(autouse=True)
def cold_table():
    _radial_table.cache_clear()
    yield
    _radial_table.cache_clear()


def _go_grid(geom) -> AngularGrid:
    return AngularGrid.uniform(required_grid_points(geom.k0r, "go") + 1)


def _results(geom) -> list:
    """Every result that reads the table, for one geometry."""
    grid = _go_grid(geom)
    expansion = modal_coefficients(geom, PHI_O)
    profile = surface_impedance(geom, expansion, grid)
    gamma = go_impedance(geom, PHI_O, grid).gamma
    return [
        expansion.coeffs,
        scattered_surface_field(geom, expansion, grid),
        profile.z_over_eta0,
        profile.pole_mask,
        far_field_po(geom, gamma, grid).f,
    ]


@pytest.mark.parametrize("radius_m, freq_hz", GEOMETRIES)
@pytest.mark.parametrize("warm", [False, True])
def test_exact_results_equal_the_per_call_oracle(radius_m, freq_hz, warm):
    geom = CylinderGeometry(radius_m, freq_hz)
    grid = _go_grid(geom)
    if warm:
        _results(geom)
    expansion = modal_coefficients(geom, PHI_O)
    assert np.array_equal(expansion.coeffs, modal_coefficients_per_call(geom, PHI_O))
    e_s = scattered_surface_field(geom, expansion, grid)
    assert np.array_equal(e_s, scattered_fields_per_call(geom, expansion, grid)[0])
    profile = surface_impedance(geom, expansion, grid)
    z, pole = surface_impedance_per_call(geom, expansion, grid)
    assert np.array_equal(profile.z_over_eta0, z, equal_nan=True)
    assert np.array_equal(profile.pole_mask, pole)


@pytest.mark.parametrize("radius_m, freq_hz", GEOMETRIES)
@pytest.mark.parametrize("shadow_model", ["cancel", "none"])
def test_po_far_field_equals_the_per_call_oracle(radius_m, freq_hz, shadow_model):
    geom = CylinderGeometry(radius_m, freq_hz)
    grid = _go_grid(geom)
    modal_coefficients(geom, PHI_O)  # a warm table
    gamma = go_impedance(geom, PHI_O, grid).gamma
    got = far_field_po(geom, gamma, grid, shadow_model=shadow_model).f
    assert np.array_equal(got, far_field_po_per_call(geom, gamma, grid, shadow_model).f)


@pytest.mark.parametrize("warm", [False, True])
def test_user_expansion_of_another_order_reads_its_own_table(geom, warm):
    # order 5 on the shipped geometry, whose own truncation order is 51
    expansion = ModalExpansion(np.arange(1, 12) * (1 - 0.5j))
    grid = AngularGrid.uniform(361)
    if warm:
        modal_coefficients(geom, PHI_O)
    e_s = scattered_surface_field(geom, expansion, grid)
    assert np.array_equal(e_s, scattered_fields_per_call(geom, expansion, grid)[0])
    profile = surface_impedance(geom, expansion, grid)
    z, pole = surface_impedance_per_call(geom, expansion, grid)
    assert np.array_equal(profile.z_over_eta0, z, equal_nan=True)
    assert np.array_equal(profile.pole_mask, pole)


def test_table_is_read_only(geom):
    table = _radial_table(geom.k0r, 51)
    assert [a.shape for a in table] == [(103,)] * 3
    for a in table:
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_alternating_geometries_get_their_cold_values():
    geoms = [CylinderGeometry(r, f) for r, f in GEOMETRIES[:2]]
    cold = []
    for geom in geoms:
        _radial_table.cache_clear()
        cold.append(_results(geom))
    _radial_table.cache_clear()
    for geom, want in [*zip(geoms, cold), *zip(geoms, cold)]:
        for got, ref in zip(_results(geom), want):
            assert np.array_equal(got, ref, equal_nan=True)


def test_an_overflow_is_not_cached(geom):
    tiny = CylinderGeometry(1e-30, 3.6e9)
    want = modal_coefficients(geom, PHI_O).coeffs
    for _ in range(2):
        with pytest.raises(OverflowError):
            modal_coefficients(tiny, PHI_O)
    assert _radial_table.cache_info().currsize == 1
    assert np.array_equal(modal_coefficients(geom, PHI_O).coeffs, want)
    _radial_table.cache_clear()
    assert np.array_equal(modal_coefficients(geom, PHI_O).coeffs, want)


def test_a_sweep_calls_scipy_once_per_function(tmp_path, monkeypatch):
    calls = {"jv": 0, "yv": 0}

    def counted(name):
        fn = getattr(scipy.special, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(scipy.special, name, counted(name))
    cfg = parse_config(
        {
            "geometry": {"radius_m": 0.4, "freq_hz": 3.6e9},
            "steering": {
                "phi_o_deg": [15.0, 40.0, 70.0],
                "delta_phi_mode": "absolute_deg",
                "value": 20.0,
            },
            "method": {"name": ["exact", "go"]},
            "output": {"directory": str(tmp_path / "sweep")},
        }
    )
    assert len(run_sweep(cfg)["entries"]) == 6
    assert calls == {"jv": 1, "yv": 1}
