import functools

import numpy as np
import pytest

from cylris import (
    AngularGrid,
    BudgetExceededError,
    ConfigError,
    CylinderGeometry,
    ElementArray,
    SigmaMatrices,
    StateTable,
    SteeringSpec,
    SteeringVectorTable,
    build_sigma,
    conjugate_phase_excitation,
    exhaustive_search,
    ga_synthesize,
    go_quantized,
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
    es_task_full,
    exclusion_arc_power,
    mpdr_scan_loop,
    nearest_state_loop,
    sigma_s_quad,
    sll_ratio_masked,
    trapezoid_power,
    window_edge_rows,
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
        arr = ElementArray(geom, 1, 0.038)
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
        arr = ElementArray(geom, 2, 0.038)
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
        arr = ElementArray(CylinderGeometry(radius_m, freq_hz), n_elements, pitch_m)
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
        array = ElementArray(array30.geom, 30, 0.038, element_pattern)
        table = steering_vector(array, obj_grid)
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
            g = rho * np.exp(1j * psi) * mpdr_relaxed(sig, a_o)
            resid = abs(a_o @ g - rho * np.exp(1j * psi)) / rho
            assert resid < 1e-9

    def test_beats_random_feasible_points(self, array30, sigma30):
        _, _, sig = sigma30
        rng = np.random.default_rng(13)
        phi_o = np.radians(30.0)
        a_o = steering_vector_at(array30, phi_o)
        g = np.exp(1j * 0.3) * mpdr_relaxed(sig, a_o)
        p_opt = float((g.conj() @ (sig.sigma @ g)).real)
        target = a_o @ g
        norm = a_o @ a_o.conj()
        for _ in range(100):
            w = rng.standard_normal(30) + 1j * rng.standard_normal(30)
            x = g + (w - a_o.conj() * (a_o @ w) / norm)
            assert abs(a_o @ x - target) < 1e-9 * abs(target)
            p = float((x.conj() @ (sig.sigma @ x)).real)
            assert p >= p_opt - 1e-9 * p_opt


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


# the two-angle table of the CSV pipeline test: magnitudes 0.90-1.00
TWO_ANGLE_TABLE = StateTable(
    angles_deg=np.array([0.0, 80.0]),
    states=np.array(
        [[1.0, -1.0], [0.95 * np.exp(-1j * np.radians(20)), 0.9 * np.exp(1j * np.radians(120))]]
    ),
)
MPDR_STATE_MODELS = {
    "constant": ideal_one_bit("constant"),
    "cosine": ideal_one_bit("cosine"),
    "table": TWO_ANGLE_TABLE,
}
MPDR_ANGLES_DEG = np.random.default_rng(3).uniform(10.0, 75.0, 3)


@pytest.fixture(scope="module")
def mpdr_cases(array30, obj_grid):
    table = steering_vector(array30, obj_grid)
    window = reference_window(array30)
    return table, [SteeringSpec(np.radians(deg), window) for deg in MPDR_ANGLES_DEG]


class TestMpdrSynthesize:
    @pytest.mark.parametrize("model", MPDR_STATE_MODELS)
    def test_never_worse_than_dense_scan_oracle(self, array30, mpdr_cases, model):
        """At least as good as a 3600-sample scan of the same normalized solve,
        one psi at a time, and the same states when the scores tie."""
        table, specs = mpdr_cases
        states = state_sets_for_array(MPDR_STATE_MODELS[model], array30)
        for spec in specs:
            res = mpdr_synthesize(table, spec, states)
            sig = build_sigma(table, spec)
            x = mpdr_relaxed(sig, steering_vector_at(array30, spec.phi_o))
            u = np.abs(states).mean() * x / np.abs(x)
            objective, idx, _ = mpdr_scan_loop(u, sig.sigma_s, states, 3600)
            power = float((res.gamma.conj() @ (sig.sigma_s @ res.gamma)).real)
            assert power <= objective
            if power == objective:
                assert np.array_equal(res.state_indices, idx)
            assert res.evaluations <= 30 * 2 * 1 + 1

    @pytest.mark.parametrize("model", MPDR_STATE_MODELS)
    def test_candidates_reach_every_scanned_projection(self, toy, toy_sigma, model):
        """Every state vector a 7200-sample psi scan projects to is one of the candidates'."""
        _, sig = toy_sigma
        states = state_sets_for_array(MPDR_STATE_MODELS[model], toy["array"])
        theta = np.angle(mpdr_relaxed(sig, steering_vector_at(toy["array"], toy["spec"].phi_o)))
        r = np.abs(states).mean()
        psis = optimizers._psi_candidates(theta, r, states)
        assert psis.size <= 8 * 2 * 1 + 1 and np.all(np.diff(psis) > 0)

        def projections(psi):
            _, idx = project_to_states(r * np.exp(1j * (theta + psi[:, None])), states)
            return {tuple(row) for row in idx}

        reached = projections(psis)
        assert len(reached) == psis.size - 1  # -pi and the last midpoint share an interval
        assert projections(-np.pi + 2 * np.pi * np.arange(7200) / 7200) <= reached

    @pytest.mark.parametrize("scale", [1e-3, 1e3])
    @pytest.mark.parametrize("model", MPDR_STATE_MODELS)
    def test_states_do_not_depend_on_sigma_scale(
        self, array30, mpdr_cases, monkeypatch, model, scale
    ):
        table, specs = mpdr_cases
        states = state_sets_for_array(MPDR_STATE_MODELS[model], array30)
        before = [mpdr_synthesize(table, spec, states).state_indices for spec in specs]
        build = optimizers.build_sigma

        def scaled(table, spec):
            sig = build(table, spec)
            return SigmaMatrices(sigma=scale * sig.sigma, sigma_s=scale * sig.sigma_s)

        monkeypatch.setattr(optimizers, "build_sigma", scaled)
        for spec, idx in zip(specs, before):
            assert np.array_equal(mpdr_synthesize(table, spec, states).state_indices, idx)

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
        """MPDR chooses by the exclusion-set power and reports the sidelobe ratio."""
        table, sig = toy_sigma
        res = mpdr_synthesize(table, toy["spec"], toy["states"])
        g = res.gamma
        assert res.objective == sll_objective(table, toy["spec"], g)
        power = float((g.conj() @ (sig.sigma_s @ g)).real)
        direct = exclusion_arc_power(toy["array"], toy["spec"], g)
        assert direct == pytest.approx(power, rel=1e-6)

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


def _es_instance(n_elements, radius_m, phi_o_deg, model="constant", states_of=None, first=None):
    def build():
        geom = CylinderGeometry(radius_m=radius_m, freq_hz=3.6e9)
        array = ElementArray(geom, n_elements, 0.038)
        states = state_sets_for_array(states_of or ideal_one_bit(model), array)
        if first is not None:
            states[0] = np.asarray(first, dtype=complex)
        spec = SteeringSpec(phi_o=np.radians(phi_o_deg), delta_phi=1.2 * reference_window(array))
        return steering_vector(array, AngularGrid.uniform(361)), spec, states

    return build


# {1, -1, j, -j}: closed under negation, pairs at indices (0, 1) and (2, 3)
_FOUR_STATES = StateTable(angles_deg=np.array([0.0]), states=np.array([[1, -1, 1j, -1j]]))

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
        arr = ElementArray(geom, 1, 0.038)
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
        excl = toy["spec"].excludes(toy["table"].grid.values)
        edges = window_edge_rows(toy["array"], toy["spec"])
        ref_val, ref_idx = brute_force_search(toy["table"].a, excl, toy["states"], edges)
        assert tuple(res.state_indices) == ref_idx
        assert res.objective == pytest.approx(ref_val, rel=1e-12)

    def test_budget_guard_refuses_full_scale(self, array30, obj_grid):
        table = steering_vector(array30, obj_grid)
        states = state_sets_for_array(ideal_one_bit("constant"), array30)
        spec = SteeringSpec(phi_o=np.radians(15.0), delta_phi=np.radians(14.5))
        with pytest.raises(BudgetExceededError):
            exhaustive_search(table, spec, states)

    @pytest.mark.parametrize("name", ES_INSTANCES)
    def test_matches_oracles_for_every_batch_and_worker_count(self, name, monkeypatch):
        table, spec, states = ES_INSTANCES[name]()
        excl = spec.excludes(table.grid.values)
        edges = window_edge_rows(table.array, spec)
        _, ref_idx = es_gemm_search(table.a, excl, states, edges)
        assert brute_force_search(table.a, excl, states, edges)[1] == ref_idx
        for batch in (1, 2, 37, 1024):
            monkeypatch.setattr(optimizers, "ES_LOW_COLUMNS", batch)
            for workers in (1, 2):
                res = exhaustive_search(table, spec, states, workers=workers)
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

    @staticmethod
    def recording_pool(monkeypatch, cpus):
        """Pool sizes and task counts asked for, with `cpus` usable CPUs and
        a pool that runs the tasks in this process: it starts no process."""
        seen, tasks = [], []

        class RecordingPool:
            def __init__(self, max_workers, initializer, initargs):
                seen.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, spans):
                tasks.append(len(spans))
                return map(fn, spans)

        monkeypatch.setattr(optimizers, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(optimizers.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        return seen, tasks

    def test_pool_capped_at_task_count(self, toy, monkeypatch):
        seen, _ = self.recording_pool(monkeypatch, cpus=1000)
        args = (toy["table"], toy["spec"], toy["states"])
        monkeypatch.setattr(optimizers, "ES_LOW_COLUMNS", 2)
        serial = exhaustive_search(*args)
        for workers in (1000, 3):  # batch 2: 64 high tuples (element 0 halved)
            res = exhaustive_search(*args, workers=workers)
            assert np.array_equal(res.state_indices, serial.state_indices)
        monkeypatch.setattr(optimizers, "ES_LOW_COLUMNS", 1024)
        exhaustive_search(*args, workers=8)  # batch 1024: a single task, no pool
        assert seen == [64, 3]
        assert optimizers._ES_CTX == {}

    # batch 2: 64 high tuples, split into about four tasks per process
    @pytest.mark.parametrize(
        "cpus, pools, n_tasks", [(4, [4, 3], [16, 11]), (2, [2, 2], [8, 8]), (1, [], [])]
    )
    def test_pool_capped_at_usable_cpus(self, toy, monkeypatch, cpus, pools, n_tasks):
        seen, tasks = self.recording_pool(monkeypatch, cpus)
        args = (toy["table"], toy["spec"], toy["states"])
        monkeypatch.setattr(optimizers, "ES_LOW_COLUMNS", 2)
        serial = exhaustive_search(*args)
        for workers in (10000, 3):
            res = exhaustive_search(*args, workers=workers)
            assert np.array_equal(res.state_indices, serial.state_indices)
            assert res.objective == serial.objective
        assert (seen, tasks) == (pools, n_tasks)
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

    def test_nan_budget_is_refused(self, toy):
        with pytest.raises(ConfigError, match="^method.budget: "):
            exhaustive_search(toy["table"], toy["spec"], toy["states"], budget=float("nan"))

    @pytest.mark.parametrize("kwargs", [dict(workers=0), dict(workers=-3)])
    def test_rejects_non_positive_workers_and_batch(self, toy, kwargs):
        with pytest.raises(ValueError, match=">= 1"):
            exhaustive_search(toy["table"], toy["spec"], toy["states"], **kwargs)

    def test_parallel_matches_serial(self, toy, monkeypatch):
        serial = exhaustive_search(toy["table"], toy["spec"], toy["states"], workers=1)
        monkeypatch.setattr(optimizers, "ES_LOW_COLUMNS", 37)
        parallel = exhaustive_search(toy["table"], toy["spec"], toy["states"], workers=2)
        assert np.array_equal(serial.state_indices, parallel.state_indices)
        assert serial.objective == parallel.objective


def _es_edge_case(name):
    """Toy-array ES instances at the edges of the probe-and-prune bound."""

    def build():
        geom = CylinderGeometry(radius_m=0.12, freq_hz=3.6e9)
        array = ElementArray(geom, 8, 0.038)
        grid = AngularGrid.uniform(361)
        table = steering_vector(array, grid)
        states = state_sets_for_array(ideal_one_bit("constant"), array)
        spec = SteeringSpec(phi_o=np.radians(20.0), delta_phi=reference_window(array))
        if name == "exact_ties":
            # small-integer entries make every pattern sum exact; with columns
            # 3 and 7 copies of 2 and 6, swapped states tie bit for bit
            rng = np.random.default_rng(1)
            a = rng.integers(-8, 9, (361, 8)) + 1j * rng.integers(-8, 9, (361, 8))
            a[:, 3], a[:, 7] = a[:, 2], a[:, 6]
            table = SteeringVectorTable(grid=grid, a=a, array=array)
        elif name == "all_zero_states":  # every ratio is inf
            states = np.zeros_like(states)
        elif name == "off_state_first":  # the first tuple alone is all zero
            states[:, 0] = 0
        elif name == "empty_exclusion_set":  # every ratio is 0
            spec = SteeringSpec(phi_o=spec.phi_o, delta_phi=2 * np.pi)
        elif name == "single_sample_window":  # the optimum is below 1 at 5.5 deg
            spec = SteeringSpec(phi_o=grid.values[186], delta_phi=grid.spacing)
        return table, spec, states

    return build


ES_EDGE_CASES = {
    name: _es_edge_case(name)
    for name in (
        "exact_ties",
        "all_zero_states",
        "off_state_first",
        "empty_exclusion_set",
        "single_sample_window",
    )
}

# 16 one-bit elements: 2^15 visited tuples, so at every batch each task
# holds several high tuples and the pruned path runs.
ES_CONSTANT16 = {
    f"constant16_phi{d:g}": _es_instance(16, 0.4, d)
    for d in np.random.default_rng(16).uniform(10.0, 75.0, 5).round(2)
}

BATCHES = (1, 2, 37, 1024)


class TestProbeAndPrune:
    @pytest.mark.parametrize("name", {**ES_INSTANCES, **ES_EDGE_CASES, **ES_CONSTANT16})
    def test_every_span_matches_the_unpruned_oracle(self, name, monkeypatch):
        table, spec, states = {**ES_INSTANCES, **ES_EDGE_CASES, **ES_CONSTANT16}[name]()
        # batches 1 and 2 on 16 elements would take about 5 s per angle with
        # the oracle; the smaller instances run them through the pruned path
        batches = (37, 1024) if name in ES_CONSTANT16 else BATCHES
        pruned, spans = optimizers._es_task, []
        excl = spec.excludes(table.grid.values)

        def checked(span):
            ctx = optimizers._ES_CTX
            got = pruned(span)
            want = es_task_full(ctx["p_lo"], ctx["f_hi"], excl, span)
            assert (got[0].hex(), got[1:]) == (want[0].hex(), want[1:]), (batch, span)
            spans.append(span)
            return got

        monkeypatch.setattr(optimizers, "_es_task", checked)
        for batch in batches:
            monkeypatch.setattr(optimizers, "ES_LOW_COLUMNS", batch)
            exhaustive_search(table, spec, states)
        assert spans

    @pytest.mark.parametrize("name", ES_EDGE_CASES)
    def test_edge_cases_match_brute_force(self, name, monkeypatch):
        table, spec, states = ES_EDGE_CASES[name]()
        excl = spec.excludes(table.grid.values)
        edges = window_edge_rows(table.array, spec)
        ref_val, ref_idx = brute_force_search(table.a, excl, states, edges)
        for batch in BATCHES:
            monkeypatch.setattr(optimizers, "ES_LOW_COLUMNS", batch)
            res = exhaustive_search(table, spec, states)
            assert tuple(res.state_indices) == ref_idx, batch
            assert res.objective == pytest.approx(ref_val, rel=1e-12)

    def test_edge_cases_are_what_they_claim(self):
        table, spec, states = ES_EDGE_CASES["exact_ties"]()
        res = exhaustive_search(table, spec, states)
        swapped = res.state_indices[[0, 1, 3, 2, 4, 5, 7, 6]]
        assert not np.array_equal(swapped, res.state_indices)
        assert sll_objective(table, spec, states[np.arange(8), swapped]) == res.objective
        for name, objective in [("all_zero_states", np.inf), ("empty_exclusion_set", 0.0)]:
            res = exhaustive_search(*ES_EDGE_CASES[name]())
            assert res.objective == objective and not res.state_indices.any()
        table, spec, _ = ES_EDGE_CASES["single_sample_window"]()
        assert (~spec.excludes(table.grid.values)).sum() == 1

    def test_pruning_scores_under_a_tenth_of_the_columns(self, monkeypatch):
        full, scored = optimizers._objective_batch, []

        def counting(patterns, excl):
            scored.append(patterns.shape[1])
            return full(patterns, excl)

        monkeypatch.setattr(optimizers, "_objective_batch", counting)
        # batch 64: 512 high tuples in four serial tasks, whose first tuples
        # are scored in full (256 of the 2^15 columns; 4096 at batch 1024)
        monkeypatch.setattr(optimizers, "ES_LOW_COLUMNS", 64)
        for name, build in ES_CONSTANT16.items():
            scored.clear()
            exhaustive_search(*build())
            assert sum(scored) < 0.1 * 2**15, name


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
        """The population is scored in single precision, the winner rescored in double."""
        cfg = dict(population=40, generations=10)
        res = ga_synthesize(toy["table"], toy["spec"], toy["states"], **cfg, seed=2)
        assert res.objective == sll_objective(toy["table"], toy["spec"], res.gamma)


class TestScoringPrecision:
    """GA scores its population in complex64; ES, go_q and sll_objective score in
    complex128, as ES is the floor the other methods are judged against."""

    @pytest.fixture
    def blocks(self, monkeypatch):
        seen = []
        batch = optimizers._objective_batch

        def recording(patterns, excl):
            seen.append((patterns.dtype.name, patterns.shape[1]))
            return batch(patterns, excl)

        monkeypatch.setattr(optimizers, "_objective_batch", recording)
        return seen

    def test_ga_population_single_winner_double(self, toy, blocks):
        cfg = dict(population=30, generations=6)
        ga_synthesize(toy["table"], toy["spec"], toy["states"], **cfg, seed=5)
        scored = [("complex64", 30)] + [("complex64", 29)] * 6
        assert blocks == scored + [("complex128", 1)]  # the rescore of the winner

    @pytest.mark.parametrize(
        "run",
        [
            functools.partial(exhaustive_search, workers=1),
            go_quantized,
            lambda table, spec, states: sll_objective(table, spec, states[:, 0]),
        ],
        ids=["es", "go_q", "sll_objective"],
    )
    def test_others_score_in_double(self, toy, blocks, run):
        run(toy["table"], toy["spec"], toy["states"])
        assert blocks and {dtype for dtype, _ in blocks} == {"complex128"}

    @pytest.mark.parametrize("phi_o_deg", [15.0, 30.0, 45.0, 60.0, 75.0])
    def test_single_precision_score_error_bound(self, array30, obj_grid, phi_o_deg):
        """A 1000-chromosome +-1 population on the shipped array scores in complex64
        within a relative 1e-5 of complex128 (5.0e-7 at worst, at 45 deg)."""
        table = steering_vector(array30, obj_grid)
        spec = SteeringSpec(np.radians(phi_o_deg), reference_window(array30, 1.2))
        excl = spec.excludes(table.grid.values)
        gammas = np.random.default_rng(int(phi_o_deg)).choice([1.0, -1.0], size=(30, 1000))
        double = optimizers._objective_batch(table.a @ gammas, excl)
        single = optimizers._objective_batch(
            table.a.astype(np.complex64) @ gammas.astype(np.complex64), excl
        )
        assert single.dtype == np.float32
        np.testing.assert_allclose(single, double, rtol=1e-5, atol=0)


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
        array = ElementArray(CylinderGeometry(radius_m, 3.6e9), n_elements, 0.038)
        for phi_o in np.radians(np.arange(-80.0, 81.0)):
            assert np.array_equal(
                conjugate_phase_excitation(array, phi_o),
                np.exp(-1j * phase_function(array.geom, phi_o, array.alphas)),
            )


class TestSllObjective:
    @pytest.mark.parametrize(
        "n_elements, radius_m, grid_points, element_pattern",
        [(8, 0.12, 361, "cos"), (30, 0.4, 3601, "cos"), (30, 0.4, 361, "cos2")],
    )
    def test_matches_masked_ratio_oracle(self, n_elements, radius_m, grid_points, element_pattern):
        array = ElementArray(CylinderGeometry(radius_m, 3.6e9), n_elements, 0.038, element_pattern)
        table = steering_vector(array, AngularGrid.uniform(grid_points))
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
            if spec.excludes(table.grid.values).any():
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
