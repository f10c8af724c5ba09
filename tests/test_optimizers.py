import numpy as np
import pytest

from cylris import (
    AngularGrid,
    BudgetExceededError,
    CylinderGeometry,
    StateTable,
    SteeringSpec,
    build_array,
    build_sigma,
    conjugate_phase_excitation,
    exclusion_set_mask,
    exhaustive_search,
    ga_synthesize,
    go_quantized,
    go_reflection,
    ideal_one_bit,
    mpdr_relaxed,
    mpdr_synthesize,
    phase_function,
    project_to_states,
    reference_window,
    sll_objective,
    state_sets_for_array,
    steering_vector,
    steering_vector_at,
)

from cylris import optimizers
from oracles import (
    brute_force_search,
    crossover_loop,
    es_gemm_search,
    exclusion_arc_power,
    mpdr_scan_loop,
    nearest_state_loop,
    sigma_s_quad,
    sll_ratio_masked,
    trapezoid_power,
)


@pytest.fixture(scope="module")
def sigma30(array30, fine_grid):
    table = steering_vector(array30, fine_grid)
    spec = SteeringSpec(phi_o=np.radians(30.0), delta_phi=np.radians(14.5))
    return table, spec, build_sigma(table, spec)


@pytest.fixture(scope="module")
def toy_sigma(toy):
    return toy["table"], build_sigma(toy["table"], toy["spec"])


class TestBuildSigma:
    def test_single_element_full_power(self, geom, obj_grid):
        arr = build_array(geom, 1, 0.038)
        table = steering_vector(arr, obj_grid)
        spec = SteeringSpec(phi_o=0.0, delta_phi=np.radians(10.0))
        sig = build_sigma(table, spec)
        # integral of cos^2 over the element's half-circle support
        assert sig.sigma[0, 0].real == pytest.approx(np.pi / 2, abs=1e-7)

    def test_full_window_empties_sigma_s(self, array30, obj_grid):
        table = steering_vector(array30, obj_grid)
        spec = SteeringSpec(phi_o=0.0, delta_phi=2 * np.pi)
        sig = build_sigma(table, spec)
        assert np.all(sig.sigma_s == 0)

    def test_hermitian_and_psd(self, sigma30):
        _, _, sig = sigma30
        for m in (sig.sigma, sig.sigma_s):
            assert np.abs(m - m.conj().T).max() < 1e-12
            ev = np.linalg.eigvalsh(m)
            assert ev.min() >= -1e-9 * m.trace().real / m.shape[0]

    def test_off_diagonal_conjugate_pair(self, geom, obj_grid):
        arr = build_array(geom, 2, 0.038)
        table = steering_vector(arr, obj_grid)
        sig = build_sigma(table, SteeringSpec(phi_o=0.0, delta_phi=np.radians(10.0)))
        assert sig.sigma[0, 1] == np.conj(sig.sigma[1, 0])

    def test_table_grid_plays_no_part(self, array30, obj_grid, sigma30):
        table, spec, sig = sigma30
        coarse = build_sigma(steering_vector(array30, obj_grid), spec)
        assert np.array_equal(coarse.sigma, sig.sigma)
        assert np.array_equal(coarse.sigma_s, sig.sigma_s)

    @pytest.mark.parametrize(
        "radius_m, freq_hz, n_elements, pitch_m",
        [(0.4, 3.6e9, 30, 0.038), (1.0, 10e9, 40, 0.015)],
        ids=("k0R_30", "k0R_209"),
    )
    def test_panel_self_convergence(self, monkeypatch, radius_m, freq_hz, n_elements, pitch_m):
        """Doubling the nodes per panel moves no entry beyond rounding."""
        arr = build_array(CylinderGeometry(radius_m, freq_hz), n_elements, pitch_m)
        table = steering_vector(arr, AngularGrid.uniform(361))
        spec = SteeringSpec(phi_o=np.radians(35.0), delta_phi=reference_window(arr))
        sig = build_sigma(table, spec)
        monkeypatch.setattr(optimizers, "SIGMA_PANEL_NODES", 2 * optimizers.SIGMA_PANEL_NODES)
        doubled = build_sigma(table, spec)
        scale = np.abs(sig.sigma).max()
        assert np.abs(doubled.sigma - sig.sigma).max() <= 1e-12 * scale
        assert np.abs(doubled.sigma_s - sig.sigma_s).max() <= 1e-12 * scale

    @pytest.mark.parametrize(
        "phi_o_deg, element_pattern",
        [(0.0, "cos"), (47.0, "cos"), (178.0, "cos"), (47.0, "cos2")],  # 178: wraps +-pi
    )
    def test_sigma_s_matches_quad_oracle(self, array30, obj_grid, phi_o_deg, element_pattern):
        table = steering_vector(array30, obj_grid, element_pattern)
        spec = SteeringSpec(phi_o=np.radians(phi_o_deg), delta_phi=np.radians(14.5))
        sig = build_sigma(table, spec)
        ref = sigma_s_quad(array30, spec, element_pattern)
        assert np.abs(sig.sigma_s - ref).max() <= 1e-12 * np.abs(sig.sigma).max()
        assert np.array_equal(sig.sigma_s, sig.sigma_s.conj().T)

    def test_quadratic_forms_match_fine_trapezoid(self, array30, sigma30):
        _, spec, sig = sigma30
        table = steering_vector(array30, AngularGrid.uniform(57600))
        rng = np.random.default_rng(2)
        gs = [np.where(rng.random(30) < 0.5, 1.0, -1.0).astype(complex) for _ in range(100)]
        ref_sides = exclusion_arc_power(array30, spec, np.stack(gs, axis=1))
        for g, ref_side in zip(gs, ref_sides):
            full = float((g.conj() @ (sig.sigma @ g)).real)
            side = float((g.conj() @ (sig.sigma_s @ g)).real)
            assert abs(full - trapezoid_power(table.a @ g, table.grid.spacing)) <= 1e-6 * full
            assert abs(side - ref_side) <= 1e-6 * max(ref_side, 1e-30)


class TestMpdrRelaxed:
    def test_constraint_satisfied_for_random_draws(self, array30, sigma30):
        _, _, sig = sigma30
        rng = np.random.default_rng(7)
        for _ in range(100):
            phi_o = rng.uniform(-np.radians(75), np.radians(75))
            psi = rng.uniform(-np.pi, np.pi)
            rho = rng.uniform(0.2, 3.0)
            a_o = steering_vector_at(array30, phi_o)
            g = mpdr_relaxed(sig, a_o, rho=rho, psi=psi)
            resid = abs(a_o @ g - rho * np.exp(1j * psi)) / rho
            assert resid < 1e-9

    def test_beats_random_feasible_points(self, array30, sigma30):
        _, _, sig = sigma30
        rng = np.random.default_rng(13)
        phi_o = np.radians(30.0)
        a_o = steering_vector_at(array30, phi_o)
        g = mpdr_relaxed(sig, a_o, rho=1.0, psi=0.3)
        p_opt = float((g.conj() @ (sig.sigma @ g)).real)
        target = a_o @ g
        norm = a_o @ a_o.conj()
        for _ in range(100):
            w = rng.standard_normal(30) + 1j * rng.standard_normal(30)
            x = g + (w - a_o.conj() * (a_o @ w) / norm)
            assert abs(a_o @ x - target) < 1e-9 * abs(target)
            p = float((x.conj() @ (sig.sigma @ x)).real)
            assert p >= p_opt - 1e-9 * p_opt

    def test_psi_shift_rotates_solution(self, array30, sigma30):
        _, _, sig = sigma30
        a_o = steering_vector_at(array30, np.radians(30.0))
        g1 = mpdr_relaxed(sig, a_o, psi=0.2)
        g2 = mpdr_relaxed(sig, a_o, psi=0.2 + 0.77)
        assert np.abs(g2 - g1 * np.exp(1j * 0.77)).max() < 1e-12 * np.abs(g1).max()


class TestProjectToStates:
    def test_nearest_state_wins(self):
        states = [np.array([1.0 + 0j, -1.0 + 0j])]
        g = 0.9 * np.exp(1j * np.radians(170.0))
        values, idx = project_to_states(np.array([g]), states)
        assert values[0] == -1.0 + 0j
        assert idx[0] == 1

    def test_exact_tie_takes_lowest_index(self):
        states = [np.array([1.0 + 0j, -1.0 + 0j])]
        _, idx = project_to_states(np.array([0.0 + 0j]), states)
        assert idx[0] == 0

    def test_idempotent(self, toy):
        rng = np.random.default_rng(23)
        g = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        once, once_idx = project_to_states(g, toy["states"])
        twice, twice_idx = project_to_states(once, toy["states"])
        assert np.array_equal(once, twice)
        assert np.array_equal(once_idx, twice_idx)


    @pytest.mark.parametrize("taper", ["constant", "cosine"])
    def test_batch_matches_per_element_oracle(self, array30, taper):
        states = state_sets_for_array(ideal_one_bit(taper), array30)
        rng = np.random.default_rng(5)
        batch = rng.standard_normal((50, 30)) + 1j * rng.standard_normal((50, 30))
        batch[0] = 0.0  # every element ties between its two states
        values, idx = project_to_states(batch, states)
        assert values.shape == idx.shape == batch.shape
        for row, v, i in zip(batch, values, idx):
            ref_v, ref_i = nearest_state_loop(row, states)
            assert np.array_equal(i, ref_i) and np.array_equal(v, ref_v)
        _, single_idx = project_to_states(batch[3], states)
        assert np.array_equal(single_idx, idx[3])


class TestMpdrSynthesize:
    @pytest.mark.parametrize("psi_samples, psi_refine", [(360, 0), (36, 19), (361, 7)])
    def test_scan_matches_per_psi_loop_oracle(self, toy, toy_sigma, psi_samples, psi_refine):
        """Same indices and objective, bit for bit, as scoring one psi at a time.

        One-bit states are symmetric, so psi and psi + pi score exactly alike:
        every even-sized scan has ties, and the first (lowest-psi) one must win.
        """
        table, sig = toy_sigma
        res = mpdr_synthesize(
            table, toy["spec"], toy["states"], psi_samples=psi_samples, psi_refine=psi_refine
        )
        a_o = steering_vector_at(toy["array"], toy["spec"].phi_o)
        x = optimizers._solve_sigma(sig.sigma, a_o.conj())
        objective, idx, _, evaluations = mpdr_scan_loop(
            x, sig.sigma_s, toy["states"], psi_samples, psi_refine
        )
        assert res.objective == objective
        assert np.array_equal(res.state_indices, idx)
        assert res.evaluations == evaluations

    def test_full_scale_scan_matches_oracle(self, array30, sigma30):
        table, spec, sig = sigma30
        states = state_sets_for_array(ideal_one_bit("cosine"), array30)
        res = mpdr_synthesize(table, spec, states, psi_refine=5)
        x = optimizers._solve_sigma(sig.sigma, steering_vector_at(array30, spec.phi_o).conj())
        objective, idx, _, _ = mpdr_scan_loop(x, sig.sigma_s, states, 360, 5)
        assert res.objective == objective
        assert np.array_equal(res.state_indices, idx)

    def test_psi_period_for_symmetric_one_bit(self, toy, toy_sigma):
        _, sig = toy_sigma
        a_o = steering_vector_at(toy["array"], toy["spec"].phi_o)
        x = np.linalg.solve(sig.sigma, a_o.conj())
        for psi in (-2.0, 0.3, 1.1):
            p1, _ = project_to_states(x * np.exp(1j * psi), toy["states"])
            p2, _ = project_to_states(x * np.exp(1j * (psi + np.pi)), toy["states"])
            assert np.array_equal(p2, -p1)
            s1 = (p1.conj() @ sig.sigma_s @ p1).real
            s2 = (p2.conj() @ sig.sigma_s @ p2).real
            assert s1 == pytest.approx(s2, rel=1e-12)

    def test_objective_recomputable_from_gamma(self, toy, toy_sigma):
        table, sig = toy_sigma
        res = mpdr_synthesize(table, toy["spec"], toy["states"])
        g = res.gamma
        recomputed = float((g.conj() @ (sig.sigma_s @ g)).real)
        assert recomputed == pytest.approx(res.objective, rel=1e-12)
        direct = exclusion_arc_power(toy["array"], toy["spec"], g)
        assert direct == pytest.approx(res.objective, rel=1e-6)

    def test_deterministic(self, toy, toy_sigma):
        table, sig = toy_sigma
        r1 = mpdr_synthesize(table, toy["spec"], toy["states"])
        r2 = mpdr_synthesize(table, toy["spec"], toy["states"])
        assert np.array_equal(r1.gamma, r2.gamma)
        assert r1.objective == r2.objective

    def test_never_beats_exhaustive_floor(self, toy, toy_sigma):
        table, sig = toy_sigma
        res = mpdr_synthesize(table, toy["spec"], toy["states"])
        es = exhaustive_search(toy["table"], toy["spec"], toy["states"])
        mpdr_ratio = sll_objective(toy["table"], toy["spec"], res.gamma)
        assert mpdr_ratio >= es.objective - 1e-12

    @pytest.mark.parametrize("psi_samples, psi_refine", [(0, 0), (36, -3)])
    def test_rejects_empty_scan(self, toy, toy_sigma, psi_samples, psi_refine):
        table, sig = toy_sigma
        with pytest.raises(ValueError, match="psi_samples"):
            mpdr_synthesize(
                table, toy["spec"], toy["states"],
                psi_samples=psi_samples, psi_refine=psi_refine,
            )

    def test_refinement_never_worsens_score(self, toy, toy_sigma):
        table, sig = toy_sigma
        coarse = mpdr_synthesize(table, toy["spec"], toy["states"], psi_samples=36)
        refined = mpdr_synthesize(
            table, toy["spec"], toy["states"], psi_samples=36, psi_refine=19
        )
        assert refined.objective <= coarse.objective
        assert refined.evaluations == coarse.evaluations + 19


def _es_instance(n_elements, radius_m, phi_o_deg, model="constant", states_of=None, first=None):
    def build():
        geom = CylinderGeometry(radius_m=radius_m, freq_hz=3.6e9)
        array = build_array(geom, n_elements, 0.038)
        states = state_sets_for_array(states_of or ideal_one_bit(model), array)
        if first is not None:
            states[0] = np.asarray(first, dtype=complex)
        spec = SteeringSpec(phi_o=np.radians(phi_o_deg), delta_phi=1.2 * reference_window(array))
        return steering_vector(array, AngularGrid.uniform(361)), spec, states

    return build


# {1, -1, j, -j}: closed under negation, pairs at indices (0, 1) and (2, 3)
_FOUR_STATES = StateTable(bits=2, angles_deg=np.array([0.0]), states=np.array([[1, -1, 1j, -1j]]))

ES_INSTANCES = {
    "toy": _es_instance(8, 0.12, 20.0),
    **{f"constant12_phi{d:g}": _es_instance(12, 0.4, d) for d in (10, 22, 35, 48, 61, 74)},
    "cosine10": _es_instance(10, 0.4, 30.0, model="cosine"),
    # element 0 alone is closed under negation; the optimum has its state 1
    "cosine10_first_pm1": _es_instance(10, 0.4, 25.0, model="cosine", first=[1, -1]),
    "four_states_non_contiguous": _es_instance(5, 0.4, 25.0, states_of=_FOUR_STATES),
    "one_element": _es_instance(1, 0.4, 15.0),
    "two_elements": _es_instance(2, 0.4, 15.0),
}


class TestExhaustiveSearch:
    def test_single_element_direct_comparison(self, geom):
        arr = build_array(geom, 1, 0.038)
        grid = AngularGrid.uniform(361)
        table = steering_vector(arr, grid)
        states = state_sets_for_array(ideal_one_bit("constant"), arr)
        spec = SteeringSpec(phi_o=0.0, delta_phi=np.radians(20.0))
        res = exhaustive_search(table, spec, states)
        both = [sll_objective(table, spec, states[0][i : i + 1]) for i in (0, 1)]
        assert res.objective == min(both)
        assert res.evaluations == 2

    def test_matches_independent_brute_force(self, toy):
        res = exhaustive_search(toy["table"], toy["spec"], toy["states"])
        excl = exclusion_set_mask(toy["spec"], toy["table"].grid)
        ref_val, ref_idx = brute_force_search(toy["table"].a, excl, toy["states"])
        assert tuple(res.state_indices) == ref_idx
        assert res.objective == pytest.approx(ref_val, rel=1e-12)

    def test_budget_guard_refuses_full_scale(self, array30, obj_grid):
        table = steering_vector(array30, obj_grid)
        states = state_sets_for_array(ideal_one_bit("constant"), array30)
        spec = SteeringSpec(phi_o=np.radians(15.0), delta_phi=np.radians(14.5))
        with pytest.raises(BudgetExceededError):
            exhaustive_search(table, spec, states)

    @pytest.mark.parametrize("name", ES_INSTANCES)
    def test_matches_oracles_for_every_batch_and_worker_count(self, name):
        table, spec, states = ES_INSTANCES[name]()
        excl = exclusion_set_mask(spec, table.grid)
        _, ref_idx = es_gemm_search(table.a, excl, states)
        assert brute_force_search(table.a, excl, states)[1] == ref_idx
        for batch in (1, 2, 37, 1024):
            for workers in (1, 2):
                res = exhaustive_search(table, spec, states, workers=workers, batch=batch)
                assert tuple(res.state_indices) == ref_idx, (batch, workers)
                assert res.objective == sll_objective(table, spec, res.gamma)
                assert res.evaluations == len(states[0]) ** len(states)

    @pytest.mark.parametrize(
        "name, expected",
        [
            ("toy", [0]),
            ("cosine10", [0, 1]),
            ("cosine10_first_pm1", [0, 1]),
            ("four_states_non_contiguous", [0, 2]),
        ],
    )
    def test_negation_halves_only_closed_state_sets(self, name, expected):
        _, _, states = ES_INSTANCES[name]()
        assert optimizers._negation_representatives(states) == expected

    def test_pool_capped_at_task_count(self, toy, monkeypatch):
        seen = []

        class RecordingPool:  # runs the tasks in this process; starts nothing
            def __init__(self, max_workers, initializer, initargs):
                seen.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, spans):
                return map(fn, spans)

        monkeypatch.setattr(optimizers, "ProcessPoolExecutor", RecordingPool)
        args = (toy["table"], toy["spec"], toy["states"])
        serial = exhaustive_search(*args, batch=2)
        for workers in (1000, 3):  # batch 2: 64 high tuples (element 0 halved)
            res = exhaustive_search(*args, workers=workers, batch=2)
            assert np.array_equal(res.state_indices, serial.state_indices)
        exhaustive_search(*args, workers=8)  # batch 1024: a single task, no pool
        assert seen == [64, 3]
        assert optimizers._ES_CTX == {}

    def test_context_empty_after_return_and_after_error(self, toy, monkeypatch):
        exhaustive_search(toy["table"], toy["spec"], toy["states"])
        assert optimizers._ES_CTX == {}

        def fail(*args):
            raise RuntimeError("scoring failed")

        monkeypatch.setattr(optimizers, "_objective_batch", fail)
        with pytest.raises(RuntimeError, match="scoring failed"):
            exhaustive_search(toy["table"], toy["spec"], toy["states"])
        assert optimizers._ES_CTX == {}

    @pytest.mark.parametrize("kwargs", [dict(workers=0), dict(workers=-3), dict(batch=0)])
    def test_rejects_non_positive_workers_and_batch(self, toy, kwargs):
        with pytest.raises(ValueError, match=">= 1"):
            exhaustive_search(toy["table"], toy["spec"], toy["states"], **kwargs)

    def test_parallel_matches_serial(self, toy):
        serial = exhaustive_search(toy["table"], toy["spec"], toy["states"], workers=1)
        parallel = exhaustive_search(toy["table"], toy["spec"], toy["states"], workers=2, batch=37)
        assert np.array_equal(serial.state_indices, parallel.state_indices)
        assert serial.objective == parallel.objective


class TestGa:
    def test_seeded_determinism(self, toy):
        cfg = dict(population=40, generations=12)
        r1 = ga_synthesize(toy["table"], toy["spec"], toy["states"], **cfg, seed=99)
        r2 = ga_synthesize(toy["table"], toy["spec"], toy["states"], **cfg, seed=99)
        assert np.array_equal(r1.gamma, r2.gamma)
        assert np.array_equal(r1.state_indices, r2.state_indices)
        assert r1.objective == r2.objective

    def test_evaluation_count_contract(self, toy):
        cfg = dict(population=30, generations=7)
        res = ga_synthesize(toy["table"], toy["spec"], toy["states"], **cfg, seed=1)
        assert res.evaluations == 30 + 7 * 29
        assert res.evaluations <= 30 * (7 + 1)

    def test_selection_only_monotone_elite(self, toy):
        cfg = dict(population=30, generations=15, p_crossover=0.0, p_mutation=0.0)
        res = ga_synthesize(toy["table"], toy["spec"], toy["states"], **cfg, seed=4)
        hist = np.array(res.history)
        assert hist.size == cfg["generations"] + 1
        assert np.all(np.diff(hist) <= 0)

    def test_close_to_exhaustive_on_toy(self, toy):
        es = exhaustive_search(toy["table"], toy["spec"], toy["states"])
        cfg = dict(population=100, generations=50)
        hits = 0
        for seed in range(20):
            ga = ga_synthesize(toy["table"], toy["spec"], toy["states"], **cfg, seed=seed)
            assert ga.objective >= es.objective - 1e-12
            if 20 * np.log10(ga.objective / es.objective) <= 0.5:
                hits += 1
        assert hits >= 19

    @pytest.mark.parametrize("rows", [7, 8])
    def test_crossover_matches_pair_loop_oracle(self, rows):
        rng = np.random.default_rng(rows)
        children = rng.integers(0, 4, size=(rows, 9))
        do_cross = rng.random(rows // 2) < 0.6
        masks = rng.random((rows // 2, 9)) < 0.5
        expected = children.copy()
        crossover_loop(expected, do_cross, masks)
        optimizers._crossover(children, do_cross, masks)
        assert np.array_equal(children, expected)

    @pytest.mark.parametrize("population", [41, 60])
    def test_seeded_run_matches_crossover_oracle(self, toy, monkeypatch, population):
        cfg = dict(population=population, generations=25)

        def run():
            return ga_synthesize(toy["table"], toy["spec"], toy["states"], **cfg, seed=7)

        fast = run()
        monkeypatch.setattr(optimizers, "_crossover", crossover_loop)
        slow = run()
        assert np.array_equal(fast.state_indices, slow.state_indices)
        assert fast.history == slow.history
        assert fast.objective == slow.objective

    def test_objective_recomputable(self, toy):
        cfg = dict(population=40, generations=10)
        res = ga_synthesize(toy["table"], toy["spec"], toy["states"], **cfg, seed=2)
        assert sll_objective(toy["table"], toy["spec"], res.gamma) == pytest.approx(
            res.objective, rel=1e-12
        )


class TestGoQuantized:
    def test_sign_quantization_structure(self, toy):
        res = go_quantized(toy["table"], toy["spec"], toy["states"])
        phase = phase_function(toy["geom"], toy["spec"].phi_o, toy["array"].alphas)
        expected = np.where(np.cos(phase) >= 0, 1.0, -1.0)
        assert np.array_equal(res.gamma, expected.astype(complex))

    def test_never_beats_exhaustive_floor(self, toy):
        es = exhaustive_search(toy["table"], toy["spec"], toy["states"])
        res = go_quantized(toy["table"], toy["spec"], toy["states"])
        assert res.objective >= es.objective - 1e-12

    def test_objective_recomputable(self, toy):
        res = go_quantized(toy["table"], toy["spec"], toy["states"])
        assert sll_objective(toy["table"], toy["spec"], res.gamma) == pytest.approx(
            res.objective, rel=1e-12
        )

    @pytest.mark.parametrize("n_elements, radius_m", [(8, 0.12), (30, 0.4)])
    def test_go_reflection_is_the_cophasal_excitation(self, n_elements, radius_m):
        array = build_array(CylinderGeometry(radius_m, 3.6e9), n_elements, 0.038)
        for phi_o in np.radians(np.arange(-80.0, 81.0)):
            assert np.array_equal(
                conjugate_phase_excitation(array, phi_o),
                go_reflection(array.geom, phi_o, array.alphas),
            )


class TestSllObjective:
    @pytest.mark.parametrize(
        "n_elements, radius_m, grid_points, element_pattern",
        [(8, 0.12, 361, "cos"), (30, 0.4, 3601, "cos"), (30, 0.4, 361, "cos2")],
    )
    def test_matches_masked_ratio_oracle(self, n_elements, radius_m, grid_points, element_pattern):
        array = build_array(CylinderGeometry(radius_m, 3.6e9), n_elements, 0.038)
        table = steering_vector(array, AngularGrid.uniform(grid_points), element_pattern)
        rng = np.random.default_rng(n_elements + grid_points)
        specs = [
            SteeringSpec(phi_o=rng.uniform(-np.pi, np.pi), delta_phi=rng.uniform(0.01, 2 * np.pi))
            for _ in range(12)
        ]
        specs += [
            SteeringSpec(phi_o=np.radians(178.0), delta_phi=np.radians(10.0)),  # wraps +-pi
            SteeringSpec(phi_o=np.radians(30.0), delta_phi=2 * np.pi),
            SteeringSpec(phi_o=np.radians(-30.0), delta_phi=np.radians(400.0)),
        ]
        gammas = rng.standard_normal((8, n_elements)) + 1j * rng.standard_normal((8, n_elements))
        gammas = np.vstack([gammas, rng.choice([1.0, -1.0], size=(8, n_elements))])
        zero = np.zeros(n_elements)
        for spec in specs:
            for g in gammas:
                assert sll_objective(table, spec, g) == sll_ratio_masked(table, spec, g)
            # 0/0 (a zero pattern, no sidelobe sample) is the one case left undefined
            if exclusion_set_mask(spec, table.grid).any():
                assert sll_objective(table, spec, zero) == sll_ratio_masked(table, spec, zero)
        assert sll_objective(table, specs[-3], zero) == np.inf  # all-zero pattern
        for wide in specs[-2:]:  # empty exclusion set
            assert sll_objective(table, wide, gammas[0]) == 0.0


def test_singular_sigma_raises_numerical_error(toy):
    from cylris import NumericalError, SigmaMatrices

    n = 8
    sig = SigmaMatrices(
        sigma=np.zeros((n, n), dtype=complex),
        sigma_s=np.zeros((n, n), dtype=complex),
    )
    a_o = steering_vector_at(toy["array"], toy["spec"].phi_o)
    with pytest.raises(NumericalError):
        mpdr_relaxed(sig, a_o)


def test_es_dominates_all_methods_on_toy(toy, toy_sigma):
    es = exhaustive_search(toy["table"], toy["spec"], toy["states"])
    table, sig = toy_sigma
    mpdr = mpdr_synthesize(table, toy["spec"], toy["states"])
    ga = ga_synthesize(
        toy["table"], toy["spec"], toy["states"], population=60, generations=30, seed=0
    )
    goq = go_quantized(toy["table"], toy["spec"], toy["states"])
    for gamma in (mpdr.gamma, ga.gamma, goq.gamma):
        assert sll_objective(toy["table"], toy["spec"], gamma) >= es.objective - 1e-12
