"""End-to-end acceptance checks for the full-scale configuration.

Each criterion prints one PASS/FAIL line (run with `pytest -s` to see them)
and asserts its stated tolerances and runtime budget.
"""

import json
import time

import numpy as np
import pytest
import yaml

from cylris import (
    AngularGrid,
    CylinderGeometry,
    ElementArray,
    SteeringSpec,
    boundary_residual,
    build_sigma,
    exclusion_set_mask,
    exhaustive_search,
    far_field_discrete,
    far_field_exact,
    far_field_po,
    ga_synthesize,
    go_impedance,
    go_quantized,
    ideal_one_bit,
    modal_coefficients,
    mpdr_relaxed,
    mpdr_synthesize,
    pattern_metrics,
    phase_function,
    reference_window,
    sll_objective,
    specfun,
    state_sets_for_array,
    steering_vector,
    steering_vector_at,
    surface_impedance,
    wrap_angle,
)
from cylris.cli import main as cli_main

from oracles import (
    bessel_j_prime, bessel_y_prime, brute_force_search, jacobi_anger, window_edge_rows
)

SWEEP_DEG = (15.0, 30.0, 45.0, 60.0, 75.0)


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}" + (f" ({detail})" if detail else ""))


@pytest.fixture(scope="module")
def full_scale():
    geom = CylinderGeometry(0.4, 3.6e9)
    array = ElementArray(geom, 30, 0.038)
    return geom, array


def test_criterion_1_special_functions(full_scale):
    geom, _ = full_scale
    t0 = time.perf_counter()
    x_full = geom.k0r
    ms = np.arange(0, int(np.ceil(1.5 * x_full)) + 1)
    worst = 0.0
    for x in (1.0, 10.0, 30.159, 100.0):
        w = specfun.bessel_j(ms, x) * bessel_y_prime(ms, x) - bessel_j_prime(
            ms, x
        ) * specfun.bessel_y(ms, x)
        worst = max(worst, float(np.max(np.abs(w - 2 / (np.pi * x)) / (2 / (np.pi * x)))))
    ja_worst = 0.0
    for x in (10.0, 30.159, 100.0):
        order = int(np.ceil(x + 6 * x ** (1 / 3) + 10))
        phi = AngularGrid.uniform(721).values
        err = np.abs(jacobi_anger(x, phi, order) - np.exp(1j * x * np.cos(phi))).max()
        ja_worst = max(ja_worst, float(err))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and ja_worst < 1e-8 and elapsed < 5.0
    _report(
        "1 special-function suite",
        ok,
        f"wronskian {worst:.1e}, jacobi-anger {ja_worst:.1e}, {elapsed:.2f} s",
    )
    assert worst < 1e-10
    assert ja_worst < 1e-8
    assert elapsed < 5.0


def test_criterion_2_exact_synthesis(full_scale):
    geom, _ = full_scale
    t0 = time.perf_counter()
    grid = AngularGrid.uniform(3601)
    peaks_db, residual_worst, re_both_signs = [], 0.0, True
    fwd_ok = True
    for deg in SWEEP_DEG:
        expansion = modal_coefficients(geom, np.radians(deg))
        profile = surface_impedance(geom, expansion, grid)
        res = boundary_residual(geom, expansion, profile)
        residual_worst = max(residual_worst, float(np.nanmax(res)))
        pattern = far_field_exact(expansion, grid)
        mag = pattern.magnitude
        i_pk = int(mag.argmax())
        assert abs(np.degrees(grid.values[i_pk]) - deg) <= 2.0
        peaks_db.append(20 * np.log10(mag[i_pk]))
        if deg == 15.0:
            fwd = mag[grid.nearest_index(np.pi)]
            fwd_ok = 20 * np.log10(fwd / mag[i_pk]) <= -15.0
            re = profile.z_over_eta0.real[~profile.pole_mask]
            re_both_signs = re.max() > 0 and re.min() < 0
    spread = max(peaks_db) - min(peaks_db)
    elapsed = time.perf_counter() - t0
    ok = residual_worst < 1e-8 and spread < 1.0 and fwd_ok and re_both_signs and elapsed < 30.0
    _report(
        "2 exact synthesis",
        ok,
        f"residual {residual_worst:.1e}, peak spread {spread:.3f} dB, {elapsed:.1f} s",
    )
    assert residual_worst < 1e-8
    assert spread < 1.0
    assert fwd_ok
    assert re_both_signs
    assert elapsed < 30.0


def test_criterion_3_go_synthesis(full_scale):
    geom, _ = full_scale
    t0 = time.perf_counter()
    grid = AngularGrid.uniform(3600)
    po_grid = AngularGrid.uniform(4096)
    profile = go_impedance(geom, np.radians(15.0), grid)
    re_worst = float(np.abs(profile.z_over_eta0.real[~profile.singular_mask]).max())
    gaps, fwd_close = [], False
    for deg in SWEEP_DEG:
        phi_o = np.radians(deg)
        gamma = np.exp(-1j * phase_function(geom, phi_o, po_grid.values))
        p_go = far_field_po(geom, gamma, po_grid, out_grid=grid)
        p_ex = far_field_exact(modal_coefficients(geom, phi_o), grid)
        window = np.abs(grid.degrees - deg) < 10.0
        gaps.append(
            20 * np.log10(p_ex.magnitude.max() / p_go.magnitude[window].max())
        )
        fwd = p_go.magnitude[grid.nearest_index(np.pi)]
        if 20 * np.log10(fwd / p_go.magnitude.max()) > -10.0:
            fwd_close = True
    monotone = all(b > a for a, b in zip(gaps, gaps[1:]))
    total = gaps[-1]
    elapsed = time.perf_counter() - t0
    ok = re_worst < 1e-12 and monotone and 3.0 <= total <= 7.0 and fwd_close and elapsed < 30.0
    _report(
        "3 go synthesis",
        ok,
        f"|Re Z| {re_worst:.1e}, gap(75) {total:.2f} dB, monotone {monotone}, {elapsed:.1f} s",
    )
    assert re_worst < 1e-12
    assert monotone
    assert 3.0 <= total <= 7.0
    assert fwd_close
    assert elapsed < 30.0


def test_criterion_4_mpdr_contract(full_scale):
    geom, array = full_scale
    table = steering_vector(array, AngularGrid.uniform(3601))
    spec = SteeringSpec(phi_o=np.radians(30.0), delta_phi=reference_window(array))
    sig = build_sigma(table, spec)

    herm = max(
        float(np.abs(sig.sigma - sig.sigma.conj().T).max()),
        float(np.abs(sig.sigma_s - sig.sigma_s.conj().T).max()),
    )
    min_eig = min(
        float(np.linalg.eigvalsh(sig.sigma).min()), float(np.linalg.eigvalsh(sig.sigma_s).min())
    )
    psd_floor = -1e-9 * sig.sigma.trace().real / 30

    rng = np.random.default_rng(17)
    resid_worst = 0.0
    for _ in range(100):
        phi_o = rng.uniform(-np.radians(75), np.radians(75))
        psi = rng.uniform(-np.pi, np.pi)
        rho = rng.uniform(0.2, 3.0)
        a_o = steering_vector_at(array, phi_o)
        g = rho * np.exp(1j * psi) * mpdr_relaxed(sig, a_o)
        resid_worst = max(resid_worst, float(abs(a_o @ g - rho * np.exp(1j * psi)) / rho))

    a_o = steering_vector_at(array, spec.phi_o)
    g_opt = mpdr_relaxed(sig, a_o)
    p_opt = float((g_opt.conj() @ sig.sigma @ g_opt).real)
    beats_all = True
    norm = a_o @ a_o.conj()
    for _ in range(100):
        w = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        x = g_opt + (w - a_o.conj() * (a_o @ w) / norm)
        beats_all &= float((x.conj() @ sig.sigma @ x).real) >= p_opt - 1e-9 * p_opt

    states = state_sets_for_array(ideal_one_bit("constant"), array)
    t0 = time.perf_counter()
    mpdr_synthesize(table, spec, states)
    elapsed = time.perf_counter() - t0

    ok = resid_worst < 1e-9 and beats_all and herm < 1e-12 and min_eig >= psd_floor and elapsed < 1.0
    _report(
        "4 mpdr contract",
        ok,
        f"constraint {resid_worst:.1e}, hermitian {herm:.1e}, synth {elapsed*1e3:.0f} ms",
    )
    assert resid_worst < 1e-9
    assert beats_all
    assert herm < 1e-12
    assert min_eig >= psd_floor
    assert elapsed < 1.0


def test_criterion_5_small_instance_oracles(toy):
    t0 = time.perf_counter()
    es = exhaustive_search(toy["table"], toy["spec"], toy["states"])
    excl = exclusion_set_mask(toy["spec"], toy["table"].grid)
    edges = window_edge_rows(toy["array"], toy["spec"])
    ref_val, ref_idx = brute_force_search(toy["table"].a, excl, toy["states"], edges)
    es_matches = tuple(es.state_indices) == ref_idx and es.objective == pytest.approx(
        ref_val, rel=1e-12
    )

    hits = 0
    floor_ok = True
    for seed in range(100):
        ga = ga_synthesize(
            toy["table"], toy["spec"], toy["states"], population=100, generations=50, seed=seed
        )
        floor_ok &= ga.objective >= es.objective - 1e-12
        if 20 * np.log10(ga.objective / es.objective) <= 0.5:
            hits += 1

    mpdr = mpdr_synthesize(toy["table"], toy["spec"], toy["states"])
    goq = go_quantized(toy["table"], toy["spec"], toy["states"])
    above_floor = (
        sll_objective(toy["table"], toy["spec"], mpdr.gamma) >= es.objective - 1e-12
        and sll_objective(toy["table"], toy["spec"], goq.gamma) >= es.objective - 1e-12
    )
    elapsed = time.perf_counter() - t0
    ok = es_matches and hits >= 95 and floor_ok and above_floor and elapsed < 120.0
    _report(
        "5 small-instance oracles",
        ok,
        f"es exact {es_matches}, ga hits {hits}/100, {elapsed:.1f} s",
    )
    assert es_matches
    assert hits >= 95
    assert floor_ok
    assert above_floor
    assert elapsed < 120.0


def test_criterion_6_full_scale_trends(full_scale):
    geom, array = full_scale
    t0 = time.perf_counter()
    window = reference_window(array)
    fine = AngularGrid.uniform(3601)
    t_fine = steering_vector(array, fine)
    t_obj = steering_vector(array, AngularGrid.uniform(361))
    states = state_sets_for_array(ideal_one_bit("constant"), array)

    rows: dict[float, dict[str, tuple]] = {}
    for deg in SWEEP_DEG:
        spec = SteeringSpec(phi_o=np.radians(deg), delta_phi=window)
        results = {
            "ga": ga_synthesize(t_obj, spec, states, seed=0),
            "mpdr": mpdr_synthesize(t_fine, spec, states),
            "go_q": go_quantized(t_obj, spec, states),
        }
        rows[deg] = {}
        for name, res in results.items():
            m = pattern_metrics(far_field_discrete(t_fine, res.gamma), spec)
            pointing = float(np.degrees(abs(wrap_angle(m.peak_dir_rad - spec.phi_o))))
            target_abs = m.peak_db + m.main_beam_level_at_target_db
            rows[deg][name] = (m.sll_db, pointing, target_abs)

    ok_a = all(rows[d][m][1] <= 3.0 for d in SWEEP_DEG if d <= 60.0 for m in rows[d])
    # "decreases with steering" asserted as a trend: negative fitted slope
    # and a net drop across the sweep, which tolerates the local bounces the
    # quantized solutions genuinely exhibit
    ok_b = True
    for m in ("ga", "mpdr", "go_q"):
        levels = [rows[d][m][2] for d in SWEEP_DEG]
        slope = float(np.polyfit(range(len(levels)), levels, 1)[0])
        ok_b &= slope < 0 and levels[-1] < levels[0]
    worst_count = sum(
        1 for d in SWEEP_DEG if rows[d]["go_q"][0] >= max(v[0] for v in rows[d].values()) - 1e-9
    )
    ok_c = worst_count >= 3
    elapsed = time.perf_counter() - t0
    ok = ok_a and ok_b and ok_c and elapsed < 600.0
    _report(
        "6 full-scale trends",
        ok,
        f"pointing_ok {ok_a}, trend_ok {ok_b}, go_q worst {worst_count}/5, {elapsed:.0f} s",
    )
    assert ok_a
    assert ok_b
    assert ok_c
    assert elapsed < 600.0


def test_criterion_7_determinism(tmp_path):
    cfg = {
        "geometry": {"radius_m": 0.12, "freq_hz": 3.6e9},
        "array": {"n_elements": 8, "arc_pitch_m": 0.038},
        "steering": {"phi_o_deg": 20.0, "delta_phi_mode": "ref_factor", "value": 1.2},
        "meta_atom": {"model": "constant"},
        "method": {"name": "es"},
        "output": {
            "directory": str(tmp_path / "serial"),
            "grid_points": 721,
            "objective_grid_points": 361,
        },
    }
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert cli_main(["synth", "-c", str(path)]) == 0
    assert cli_main(["synth", "-c", str(path), "-o", str(tmp_path / "parallel"),
                     "--workers", "2"]) == 0
    assert cli_main(["synth", "-c", str(path), "-o", str(tmp_path / "again")]) == 0

    ga_cfg = dict(cfg)
    ga_cfg["method"] = {"name": "ga", "population": 60, "generations": 20, "seed": 3}
    ga_cfg["output"] = dict(cfg["output"], directory=str(tmp_path / "ga1"))
    ga_path = tmp_path / "ga.yaml"
    ga_path.write_text(yaml.safe_dump(ga_cfg))
    assert cli_main(["synth", "-c", str(ga_path)]) == 0
    assert cli_main(["synth", "-c", str(ga_path), "-o", str(tmp_path / "ga2")]) == 0

    identical = True
    for name in ("pattern.csv", "metrics.json", "result.json"):
        identical &= (
            (tmp_path / "serial" / name).read_bytes()
            == (tmp_path / "parallel" / name).read_bytes()
            == (tmp_path / "again" / name).read_bytes()
        )
        identical &= (
            (tmp_path / "ga1" / name).read_bytes() == (tmp_path / "ga2" / name).read_bytes()
        )
    result = json.loads((tmp_path / "serial" / "result.json").read_text())
    no_clock = "wall_time_ms" not in result
    _report("7 determinism", identical and no_clock, "serial == parallel == repeat, no clock")
    assert identical
    assert no_clock
