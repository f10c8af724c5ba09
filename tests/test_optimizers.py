import numpy as np
import pytest

from cylris import (
    AngularGrid,
    BudgetExceededError,
    GaConfig,
    SteeringSpec,
    build_array,
    build_sigma,
    exclusion_set_mask,
    exhaustive_search,
    ga_synthesize,
    go_quantized,
    ideal_one_bit,
    mpdr_relaxed,
    mpdr_synthesize,
    phase_function,
    project_to_states,
    sll_objective,
    state_sets_for_array,
    steering_vector,
    steering_vector_at,
)

from cylris import optimizers
from oracles import (
    brute_force_search,
    crossover_loop,
    mpdr_scan_loop,
    nearest_state_loop,
    trapezoid_power,
)


@pytest.fixture(scope="module")
def sigma30(array30):
    grid = AngularGrid.uniform(57600)
    table = steering_vector(array30, grid)
    spec = SteeringSpec(phi_o=np.radians(30.0), delta_phi=np.radians(14.5))
    return table, spec, build_sigma(table, spec)


@pytest.fixture(scope="module")
def toy_sigma(toy):
    grid = AngularGrid.uniform(2880)
    table = steering_vector(toy["array"], grid)
    return table, build_sigma(table, toy["spec"], check_convergence=False)


class TestBuildSigma:
    def test_single_element_full_power(self, geom):
        arr = build_array(geom, 1, 0.038)
        grid = AngularGrid.uniform(57600)
        table = steering_vector(arr, grid)
        spec = SteeringSpec(phi_o=0.0, delta_phi=np.radians(10.0))
        sig = build_sigma(table, spec)
        # integral of cos^2 over the element's half-circle support
        assert sig.sigma[0, 0].real == pytest.approx(np.pi / 2, abs=1e-7)

    def test_full_window_empties_sigma_s(self, array30):
        grid = AngularGrid.uniform(57600)
        table = steering_vector(array30, grid)
        spec = SteeringSpec(phi_o=0.0, delta_phi=2 * np.pi)
        sig = build_sigma(table, spec)
        assert np.all(sig.sigma_s == 0)

    def test_hermitian_and_psd(self, sigma30):
        _, _, sig = sigma30
        for m in (sig.sigma, sig.sigma_s):
            assert np.abs(m - m.conj().T).max() < 1e-12
            ev = np.linalg.eigvalsh(m)
            assert ev.min() >= -1e-9 * m.trace().real / m.shape[0]

    def test_off_diagonal_conjugate_pair(self, geom):
        arr = build_array(geom, 2, 0.038)
        grid = AngularGrid.uniform(57600)
        table = steering_vector(arr, grid)
        sig = build_sigma(table, SteeringSpec(phi_o=0.0, delta_phi=np.radians(10.0)))
        assert sig.sigma[0, 1] == np.conj(sig.sigma[1, 0])

    def test_coarse_grid_warns(self, array30):
        grid = AngularGrid.uniform(722)
        table = steering_vector(array30, grid)
        spec = SteeringSpec(phi_o=0.0, delta_phi=np.radians(14.5))
        with pytest.warns(UserWarning, match="not converged"):
            build_sigma(table, spec)

    def test_quadratic_form_exact_on_matched_grid(self, sigma30):
        table, spec, sig = sigma30
        rng = np.random.default_rng(2)
        excl = exclusion_set_mask(spec, table.grid)
        for _ in range(100):
            g = np.where(rng.random(30) < 0.5, 1.0, -1.0).astype(complex)
            full = float((g.conj() @ (sig.sigma @ g)).real)
            side = float((g.conj() @ (sig.sigma_s @ g)).real)
            f = table.a @ g
            assert abs(full - trapezoid_power(f, table.grid.spacing)) <= 1e-6 * full
            ref_side = trapezoid_power(f, table.grid.spacing, mask=excl)
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
            g = mpdr_relaxed(sig, a_o, rho=rho, psi=psi).gamma
            resid = abs(a_o @ g - rho * np.exp(1j * psi)) / rho
            assert resid < 1e-9

    def test_beats_random_feasible_points(self, array30, sigma30):
        _, _, sig = sigma30
        rng = np.random.default_rng(13)
        phi_o = np.radians(30.0)
        a_o = steering_vector_at(array30, phi_o)
        g = mpdr_relaxed(sig, a_o, rho=1.0, psi=0.3).gamma
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
        g1 = mpdr_relaxed(sig, a_o, psi=0.2).gamma
        g2 = mpdr_relaxed(sig, a_o, psi=0.2 + 0.77).gamma
        assert np.abs(g2 - g1 * np.exp(1j * 0.77)).max() < 1e-12 * np.abs(g1).max()


class TestProjectToStates:
    def test_nearest_state_wins(self):
        states = [np.array([1.0 + 0j, -1.0 + 0j])]
        g = 0.9 * np.exp(1j * np.radians(170.0))
        out = project_to_states(np.array([g]), states)
        assert out.gamma[0] == -1.0 + 0j
        assert out.state_indices[0] == 1

    def test_exact_tie_takes_lowest_index(self):
        states = [np.array([1.0 + 0j, -1.0 + 0j])]
        out = project_to_states(np.array([0.0 + 0j]), states)
        assert out.state_indices[0] == 0

    def test_idempotent(self, toy):
        rng = np.random.default_rng(23)
        g = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        once = project_to_states(g, toy["states"])
        twice = project_to_states(once, toy["states"])
        assert np.array_equal(once.gamma, twice.gamma)
        assert np.array_equal(once.state_indices, twice.state_indices)


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
        single = project_to_states(batch[3], states)
        assert np.array_equal(single.state_indices, idx[3])


class TestMpdrSynthesize:
    @pytest.mark.parametrize("psi_samples, psi_refine", [(360, 0), (36, 19), (361, 7)])
    def test_scan_matches_per_psi_loop_oracle(self, toy, toy_sigma, psi_samples, psi_refine):
        """Same indices and objective, bit for bit, as scoring one psi at a time.

        One-bit states are symmetric, so psi and psi + pi score exactly alike:
        every even-sized scan has ties, and the first (lowest-psi) one must win.
        """
        table, sig = toy_sigma
        res = mpdr_synthesize(
            table, sig, toy["spec"], toy["states"], psi_samples=psi_samples, psi_refine=psi_refine
        )
        a_o = steering_vector_at(toy["array"], toy["spec"].phi_o)
        x = optimizers._solve_sigma(sig.sigma, a_o.conj())
        objective, idx, _, evaluations = mpdr_scan_loop(
            x, sig.sigma_s, toy["states"], psi_samples, psi_refine
        )
        assert res.objective == objective
        assert np.array_equal(res.gamma.state_indices, idx)
        assert res.evaluations == evaluations

    def test_full_scale_scan_matches_oracle(self, array30, sigma30):
        table, spec, sig = sigma30
        states = state_sets_for_array(ideal_one_bit("cosine"), array30)
        res = mpdr_synthesize(table, sig, spec, states, psi_refine=5)
        x = optimizers._solve_sigma(sig.sigma, steering_vector_at(array30, spec.phi_o).conj())
        objective, idx, _, _ = mpdr_scan_loop(x, sig.sigma_s, states, 360, 5)
        assert res.objective == objective
        assert np.array_equal(res.gamma.state_indices, idx)

    def test_psi_period_for_symmetric_one_bit(self, toy, toy_sigma):
        _, sig = toy_sigma
        a_o = steering_vector_at(toy["array"], toy["spec"].phi_o)
        x = np.linalg.solve(sig.sigma, a_o.conj())
        for psi in (-2.0, 0.3, 1.1):
            p1 = project_to_states(x * np.exp(1j * psi), toy["states"])
            p2 = project_to_states(x * np.exp(1j * (psi + np.pi)), toy["states"])
            assert np.array_equal(p2.gamma, -p1.gamma)
            s1 = (p1.gamma.conj() @ sig.sigma_s @ p1.gamma).real
            s2 = (p2.gamma.conj() @ sig.sigma_s @ p2.gamma).real
            assert s1 == pytest.approx(s2, rel=1e-12)

    def test_objective_recomputable_from_gamma(self, toy, toy_sigma):
        table, sig = toy_sigma
        res = mpdr_synthesize(table, sig, toy["spec"], toy["states"])
        g = res.gamma.gamma
        recomputed = float((g.conj() @ (sig.sigma_s @ g)).real)
        assert recomputed == pytest.approx(res.objective, rel=1e-12)
        excl = exclusion_set_mask(toy["spec"], table.grid)
        direct = trapezoid_power(table.a @ g, table.grid.spacing, mask=excl)
        assert direct == pytest.approx(res.objective, rel=1e-6)

    def test_deterministic(self, toy, toy_sigma):
        table, sig = toy_sigma
        r1 = mpdr_synthesize(table, sig, toy["spec"], toy["states"])
        r2 = mpdr_synthesize(table, sig, toy["spec"], toy["states"])
        assert np.array_equal(r1.gamma.gamma, r2.gamma.gamma)
        assert r1.objective == r2.objective

    def test_never_beats_exhaustive_floor(self, toy, toy_sigma):
        table, sig = toy_sigma
        res = mpdr_synthesize(table, sig, toy["spec"], toy["states"])
        es = exhaustive_search(toy["table"], toy["spec"], toy["states"])
        mpdr_ratio = sll_objective(toy["table"], toy["spec"], res.gamma)
        assert mpdr_ratio >= es.objective - 1e-12

    def test_refinement_never_worsens_score(self, toy, toy_sigma):
        table, sig = toy_sigma
        coarse = mpdr_synthesize(table, sig, toy["spec"], toy["states"], psi_samples=36)
        refined = mpdr_synthesize(
            table, sig, toy["spec"], toy["states"], psi_samples=36, psi_refine=19
        )
        assert refined.objective <= coarse.objective
        assert refined.evaluations == coarse.evaluations + 19


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
        assert tuple(res.gamma.state_indices) == ref_idx
        assert res.objective == pytest.approx(ref_val, rel=1e-12)

    def test_budget_guard_refuses_full_scale(self, array30, obj_grid):
        table = steering_vector(array30, obj_grid)
        states = state_sets_for_array(ideal_one_bit("constant"), array30)
        spec = SteeringSpec(phi_o=np.radians(15.0), delta_phi=np.radians(14.5))
        with pytest.raises(BudgetExceededError):
            exhaustive_search(table, spec, states)

    def test_parallel_matches_serial(self, toy):
        serial = exhaustive_search(toy["table"], toy["spec"], toy["states"], workers=1)
        parallel = exhaustive_search(toy["table"], toy["spec"], toy["states"], workers=2, batch=37)
        assert np.array_equal(serial.gamma.state_indices, parallel.gamma.state_indices)
        assert serial.objective == parallel.objective


class TestGa:
    def test_seeded_determinism(self, toy):
        cfg = GaConfig(population=40, generations=12)
        r1 = ga_synthesize(toy["table"], toy["spec"], toy["states"], cfg, seed=99)
        r2 = ga_synthesize(toy["table"], toy["spec"], toy["states"], cfg, seed=99)
        assert np.array_equal(r1.gamma.gamma, r2.gamma.gamma)
        assert np.array_equal(r1.gamma.state_indices, r2.gamma.state_indices)
        assert r1.objective == r2.objective

    def test_evaluation_count_contract(self, toy):
        cfg = GaConfig(population=30, generations=7)
        res = ga_synthesize(toy["table"], toy["spec"], toy["states"], cfg, seed=1)
        assert res.evaluations == 30 + 7 * 29
        assert res.evaluations <= 30 * (7 + 1)

    def test_selection_only_monotone_elite(self, toy):
        cfg = GaConfig(population=30, generations=15, p_crossover=0.0, p_mutation=0.0)
        res = ga_synthesize(
            toy["table"], toy["spec"], toy["states"], cfg, seed=4, track_history=True
        )
        hist = np.array(res.history)
        assert np.all(np.diff(hist) <= 0)

    def test_close_to_exhaustive_on_toy(self, toy):
        es = exhaustive_search(toy["table"], toy["spec"], toy["states"])
        cfg = GaConfig(population=100, generations=50)
        hits = 0
        for seed in range(20):
            ga = ga_synthesize(toy["table"], toy["spec"], toy["states"], cfg, seed=seed)
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
        cfg = GaConfig(population=population, generations=25)

        def run():
            return ga_synthesize(
                toy["table"], toy["spec"], toy["states"], cfg, seed=7, track_history=True
            )

        fast = run()
        monkeypatch.setattr(optimizers, "_crossover", crossover_loop)
        slow = run()
        assert np.array_equal(fast.gamma.state_indices, slow.gamma.state_indices)
        assert fast.history == slow.history
        assert fast.objective == slow.objective

    def test_objective_recomputable(self, toy):
        cfg = GaConfig(population=40, generations=10)
        res = ga_synthesize(toy["table"], toy["spec"], toy["states"], cfg, seed=2)
        assert sll_objective(toy["table"], toy["spec"], res.gamma) == pytest.approx(
            res.objective, rel=1e-12
        )


class TestGoQuantized:
    def test_sign_quantization_structure(self, toy):
        res = go_quantized(toy["array"], toy["spec"].phi_o, toy["states"])
        phase = phase_function(toy["geom"], toy["spec"].phi_o, toy["array"].alphas)
        expected = np.where(np.cos(phase) >= 0, 1.0, -1.0)
        assert np.array_equal(res.gamma.gamma, expected.astype(complex))

    def test_never_beats_exhaustive_floor(self, toy):
        es = exhaustive_search(toy["table"], toy["spec"], toy["states"])
        res = go_quantized(
            toy["array"], toy["spec"].phi_o, toy["states"], table=toy["table"], spec=toy["spec"]
        )
        assert res.objective >= es.objective - 1e-12

    def test_objective_recomputable(self, toy):
        res = go_quantized(
            toy["array"], toy["spec"].phi_o, toy["states"], table=toy["table"], spec=toy["spec"]
        )
        assert sll_objective(toy["table"], toy["spec"], res.gamma) == pytest.approx(
            res.objective, rel=1e-12
        )


def test_singular_sigma_raises_numerical_error(toy):
    from cylris import NumericalError, SigmaMatrices

    n = 8
    sig = SigmaMatrices(
        sigma=np.zeros((n, n), dtype=complex),
        sigma_s=np.zeros((n, n), dtype=complex),
        grid_points=2880,
    )
    a_o = steering_vector_at(toy["array"], toy["spec"].phi_o)
    with pytest.raises(NumericalError):
        mpdr_relaxed(sig, a_o)


def test_es_dominates_all_methods_on_toy(toy, toy_sigma):
    es = exhaustive_search(toy["table"], toy["spec"], toy["states"])
    table_sigma, sig = toy_sigma
    mpdr = mpdr_synthesize(table_sigma, sig, toy["spec"], toy["states"])
    ga = ga_synthesize(
        toy["table"], toy["spec"], toy["states"], GaConfig(population=60, generations=30), seed=0
    )
    goq = go_quantized(toy["array"], toy["spec"].phi_o, toy["states"])
    for gamma in (mpdr.gamma, ga.gamma, goq.gamma):
        assert sll_objective(toy["table"], toy["spec"], gamma) >= es.objective - 1e-12
