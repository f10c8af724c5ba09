"""The four synthesis strategies for the discrete one-bit cylinder.

* exhaustive search over the full state space (budget-guarded),
* a seeded integer-chromosome genetic algorithm,
* the closed-form minimum-power distortionless-response (MPDR) relaxation
  with nearest-state projection and a 1D search over the constraint phase,
* spatial sampling plus quantization of the geometrical-optics solution.

All optimizers score candidates with the same sidelobe objective: the ratio
of the largest pattern magnitude inside the exclusion set to the global
peak. Results are deterministic given the RNG seed; exhaustive-search
chunks may be fanned out over processes without changing the outcome.
"""

from __future__ import annotations

import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .discrete_model import (
    ElementArray,
    ExcitationVector,
    SteeringVectorTable,
    steering_vector_at,
)
from .errors import BudgetExceededError, NumericalError
from .geometry import SteeringSpec, exclusion_set_mask
from .go_synth import phase_function

__all__ = [
    "SigmaMatrices",
    "SynthesisResult",
    "GaConfig",
    "build_sigma",
    "mpdr_relaxed",
    "project_to_states",
    "mpdr_synthesize",
    "exhaustive_search",
    "ga_synthesize",
    "go_quantized",
    "sll_objective",
]

DEFAULT_ES_BUDGET = 2**24
SIGMA_CONVERGENCE_RTOL = 1e-8
CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class SigmaMatrices:
    """Quadrature matrices Sigma (full circle) and Sigma_S (exclusion set).

    gamma^H Sigma gamma equals the trapezoid integral of |F|^2 on the grid
    the matrices were built from, exactly; grid_points records that grid.
    """

    sigma: np.ndarray
    sigma_s: np.ndarray
    grid_points: int


@dataclass(frozen=True)
class SynthesisResult:
    """Outcome of one synthesis run.

    objective_kind is "sll_ratio" (linear Linf ratio, used by ES/GA/GO) or
    "sidelobe_power" (quadratic exclusion-set power, used by MPDR); the
    value is always recomputable from gamma.
    """

    method: str
    gamma: ExcitationVector
    objective: float
    objective_kind: str
    evaluations: int
    wall_time_s: float
    rng_seed: int | None = None
    history: tuple[float, ...] | None = None


def _hermitize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


def build_sigma(
    table: SteeringVectorTable,
    spec: SteeringSpec,
    check_convergence: bool = True,
    sigma: np.ndarray | None = None,
) -> SigmaMatrices:
    """Periodic trapezoid quadrature of a*(phi) a^T(phi) over the table grid.

    Sigma integrates over the full circle, Sigma_S over the exclusion set
    only. When the grid size is even, Sigma is re-estimated from every other
    sample and a warning is emitted if the two disagree beyond 1e-8 relative
    (the element-pattern support edges limit plain trapezoid convergence, so
    coarse grids do trip this). Sigma_S carries an O(h) boundary term from
    the exclusion-set indicator and is excluded from the check.

    Sigma does not depend on the steering spec: pass the `sigma` of an
    earlier call on the same table to build only Sigma_S.
    """
    n = len(table.grid)
    if n < 721:
        raise ValueError("sigma quadrature grid must have at least 721 points")
    w = table.grid.spacing
    a = table.a
    if sigma is None:
        sigma = _hermitize((a.conj().T @ a) * w)
        if check_convergence and n % 2 == 0:
            half = a[::2]
            sigma_half = _hermitize((half.conj().T @ half) * (2 * w))
            rel = np.abs(sigma - sigma_half).max() / np.abs(sigma).max()
            if rel > SIGMA_CONVERGENCE_RTOL:
                warnings.warn(
                    f"sigma quadrature not converged: halving the grid changes entries "
                    f"by {rel:.2e} relative (> {SIGMA_CONVERGENCE_RTOL:.0e}); increase the grid",
                    stacklevel=2,
                )
    ae = a[exclusion_set_mask(spec, table.grid)]
    sigma_s = _hermitize((ae.conj().T @ ae) * w)
    return SigmaMatrices(sigma=sigma, sigma_s=sigma_s, grid_points=n)


def _solve_sigma(sigma: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve Sigma x = rhs with a Tikhonov fallback for ill-conditioned Sigma."""
    cond = np.linalg.cond(sigma)
    mat = sigma
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        eps = 1e-10 * np.trace(sigma).real / sigma.shape[0]
        mat = sigma + eps * np.eye(sigma.shape[0])
        cond = np.linalg.cond(mat)
        if not np.isfinite(cond) or cond > CONDITION_LIMIT:
            raise NumericalError("sigma matrix is singular even after regularization")
    try:
        return np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("sigma solve failed") from exc


def mpdr_relaxed(
    sig: SigmaMatrices, a_o: np.ndarray, rho: float = 1.0, psi: float = 0.0
) -> ExcitationVector:
    """Closed-form relaxed minimizer of gamma^H Sigma gamma under
    a_o^T gamma = rho exp(j psi): gamma = lambda Sigma^-1 a_o* exp(j psi)
    with real lambda = rho / (a_o^T Sigma^-1 a_o*)."""
    a_o = np.asarray(a_o, dtype=complex)
    x = _solve_sigma(sig.sigma, a_o.conj())
    denom = (a_o @ x).real
    if denom <= 0 or not np.isfinite(denom):
        raise NumericalError("degenerate steering vector: a_o^T Sigma^-1 a_o* <= 0")
    lam = rho / denom
    return ExcitationVector(gamma=lam * x * np.exp(1j * psi), provenance="mpdr_relaxed")


def project_to_states(
    gamma, state_sets: list[np.ndarray]
) -> ExcitationVector | tuple[np.ndarray, np.ndarray]:
    """Element-wise nearest-state quantization (Euclidean complex distance).

    The one projection kernel: `gamma` is one excitation (N,) or a batch
    (..., N), and one broadcast argmin over (..., N, L) projects them all.
    Ties break toward the lowest state index; the projection is idempotent.
    Returns an ExcitationVector for one excitation, and the arrays
    (values, state_indices), both shaped like `gamma`, for a batch.
    """
    g = gamma.gamma if isinstance(gamma, ExcitationVector) else np.asarray(gamma, dtype=complex)
    if g.shape[-1:] != (len(state_sets),):
        raise ValueError("gamma length must equal the number of state sets")
    states = np.vstack(state_sets)  # (N, L)
    idx = np.argmin(np.abs(states - g[..., None]), axis=-1)  # first (lowest) index on ties
    values = states[np.arange(g.shape[-1]), idx]
    if g.ndim > 1:
        return values, idx
    return ExcitationVector(gamma=values, provenance="projected", state_indices=idx)


def sll_objective(table: SteeringVectorTable, spec: SteeringSpec, gamma) -> float:
    """Sidelobe objective: max |F| over the exclusion set / global max |F|."""
    g = gamma.gamma if isinstance(gamma, ExcitationVector) else np.asarray(gamma, dtype=complex)
    mag = np.abs(table.a @ g)
    peak = mag.max()
    if peak == 0:
        return np.inf
    excl = exclusion_set_mask(spec, table.grid)
    if not excl.any():
        return 0.0
    return float(mag[excl].max() / peak)


def _objective_batch(a: np.ndarray, excl: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """Sidelobe ratio for a batch of excitations (columns of gammas)."""
    mag = np.abs(a @ gammas)
    if not excl.any():
        return np.zeros(mag.shape[1])
    peak = mag.max(axis=0)
    side = mag[excl].max(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(peak > 0, side / peak, np.inf)
    return out


def mpdr_synthesize(
    table: SteeringVectorTable,
    sig: SigmaMatrices,
    spec: SteeringSpec,
    state_sets: list[np.ndarray],
    psi_samples: int = 360,
    psi_refine: int = 0,
) -> SynthesisResult:
    """Project the relaxed MPDR solution at each constraint phase psi and
    keep the projection with the least exclusion-set power.

    The overall amplitude does not move the projection for near-unimodular
    states, so the constraint scalar is dropped and only psi is swept
    (uniform grid over [-pi, pi), optionally refined around the minimum).
    Every psi of a scan is projected in one `project_to_states` broadcast;
    each candidate is then scored as g^H Sigma_S g in ascending psi, and the
    first minimum wins. Fully deterministic.
    """
    t0 = time.perf_counter()
    if sig.grid_points != len(table.grid):
        raise ValueError("sigma matrices were built on a different grid than the table")
    # exact steering vector at phi_o, not a grid snap
    a_o = steering_vector_at(table.array, spec.phi_o, table.element_pattern)
    x = _solve_sigma(sig.sigma, a_o.conj())

    def scan(psis: np.ndarray) -> tuple:
        values, idx = project_to_states(x[None, :] * np.exp(1j * psis)[:, None], state_sets)
        scores = [float((g.conj() @ (sig.sigma_s @ g)).real) for g in values]
        k = int(np.argmin(scores))  # the first (lowest-psi) minimum
        return scores[k], values[k], idx[k], float(psis[k])

    best = scan(-np.pi + 2 * np.pi * np.arange(psi_samples) / psi_samples)
    if psi_refine > 0:
        step = 2 * np.pi / psi_samples
        refined = scan(best[3] - step + 2 * step * np.arange(1, psi_refine + 1) / (psi_refine + 1))
        if refined[0] < best[0]:
            best = refined
    score, values, idx, _ = best
    return SynthesisResult(
        method="mpdr",
        gamma=ExcitationVector(gamma=values, provenance="mpdr", state_indices=idx),
        objective=score,
        objective_kind="sidelobe_power",
        evaluations=psi_samples + psi_refine,
        wall_time_s=time.perf_counter() - t0,
    )


# --- exhaustive search -------------------------------------------------------

_ES_CTX: dict = {}


def _es_init(a, excl, states_matrix, n_states, batch):
    _ES_CTX["a"] = a
    _ES_CTX["excl"] = excl
    _ES_CTX["states"] = states_matrix
    _ES_CTX["L"] = n_states
    _ES_CTX["batch"] = batch


def _decode(ks: np.ndarray, n_elements: int, n_states: int) -> np.ndarray:
    """Mixed-radix decode of enumeration index -> state-index tuples.

    Element 0 is the most significant digit, so ascending k enumerates the
    tuples in lexicographic order.
    """
    idx = np.empty((ks.size, n_elements), dtype=np.int64)
    rem = ks.copy()
    for n in range(n_elements - 1, -1, -1):
        idx[:, n] = rem % n_states
        rem //= n_states
    return idx


def _es_chunk(span: tuple[int, int]) -> tuple[float, int]:
    """Best (objective, enumeration index) over [start, stop)."""
    start, stop = span
    a = _ES_CTX["a"]
    excl = _ES_CTX["excl"]
    states = _ES_CTX["states"]
    n_states = _ES_CTX["L"]
    batch = _ES_CTX["batch"]
    n_el = states.shape[0]
    cols = np.arange(n_el)
    best_val, best_k = np.inf, start
    for b0 in range(start, stop, batch):
        ks = np.arange(b0, min(b0 + batch, stop))
        idx = _decode(ks, n_el, n_states)
        gammas = states[cols[None, :], idx].T  # (N, chunk)
        vals = _objective_batch(a, excl, gammas)
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val, best_k = float(vals[i]), int(ks[i])
    return best_val, best_k


def exhaustive_search(
    table: SteeringVectorTable,
    spec: SteeringSpec,
    state_sets: list[np.ndarray],
    budget: int = DEFAULT_ES_BUDGET,
    workers: int = 1,
    batch: int = 4096,
) -> SynthesisResult:
    """Global minimizer of the sidelobe ratio over the full state space.

    Refuses to run when L^N exceeds `budget` (raise the budget explicitly,
    or use the GA/MPDR routes). Ties break to the lexicographically smallest
    state-index tuple. `workers > 1` fans the enumeration out over
    processes; the ordered reduction keeps the result identical to a serial
    run.
    """
    t0 = time.perf_counter()
    n_el = table.n_elements
    n_states = len(state_sets[0])
    if any(len(s) != n_states for s in state_sets):
        raise ValueError("all elements must have the same number of states")
    total = n_states**n_el
    if total > budget:
        raise BudgetExceededError(
            f"exhaustive search needs {total} evaluations, budget is {budget}; "
            "raise the budget or use the ga/mpdr/go_q methods"
        )
    excl = exclusion_set_mask(spec, table.grid)
    states_matrix = np.vstack(state_sets)
    spans = [(s, min(s + batch, total)) for s in range(0, total, batch)]
    if workers > 1:
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_es_init,
            initargs=(table.a, excl, states_matrix, n_states, batch),
        ) as pool:
            results = list(pool.map(_es_chunk, spans))
    else:
        _es_init(table.a, excl, states_matrix, n_states, batch)
        results = [_es_chunk(s) for s in spans]
    best_val, best_k = np.inf, 0
    for val, k in results:  # submission order: earliest k wins ties
        if val < best_val:
            best_val, best_k = val, k
    idx = _decode(np.array([best_k]), n_el, n_states)[0]
    gamma = ExcitationVector(
        gamma=states_matrix[np.arange(n_el), idx],
        provenance="es",
        state_indices=idx,
    )
    return SynthesisResult(
        method="es",
        gamma=gamma,
        objective=float(best_val),
        objective_kind="sll_ratio",
        evaluations=total,
        wall_time_s=time.perf_counter() - t0,
    )


# --- genetic algorithm -------------------------------------------------------


@dataclass(frozen=True)
class GaConfig:
    """GA hyperparameters; the defaults are the full-scale settings."""

    population: int = 1000
    generations: int = 200
    p_crossover: float = 0.9
    p_mutation: float = 0.05

    def __post_init__(self):
        if self.population < 2 or self.generations < 0:
            raise ValueError("population must be >= 2 and generations >= 0")
        for p in (self.p_crossover, self.p_mutation):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must lie in [0, 1]")


def _crossover(children: np.ndarray, do_cross: np.ndarray, masks: np.ndarray) -> None:
    """Uniform crossover in place: pair k (rows 2k, 2k+1) swaps its genes
    where masks[k], if do_cross[k]."""
    n = 2 * do_cross.size
    swap = do_cross[:, None] & masks
    even, odd = children[0:n:2], children[1:n:2]
    children[0:n:2], children[1:n:2] = np.where(swap, odd, even), np.where(swap, even, odd)


def ga_synthesize(
    table: SteeringVectorTable,
    spec: SteeringSpec,
    state_sets: list[np.ndarray],
    config: GaConfig | None = None,
    seed: int = 0,
    track_history: bool = False,
) -> SynthesisResult:
    """Integer-chromosome GA for the sidelobe ratio (one gene per element).

    Tournament selection of size two, uniform crossover, per-gene mutation
    to a different random state, elitism of one. A single seeded generator
    drives every draw, so identical seeds give identical results.
    """
    cfg = config or GaConfig()
    t0 = time.perf_counter()
    n_el = table.n_elements
    n_states = len(state_sets[0])
    if any(len(s) != n_states for s in state_sets):
        raise ValueError("all elements must have the same number of states")
    states_matrix = np.vstack(state_sets)
    cols = np.arange(n_el)
    excl = exclusion_set_mask(spec, table.grid)
    rng = np.random.default_rng(seed)

    def evaluate(pop_idx: np.ndarray) -> np.ndarray:
        gammas = states_matrix[cols[None, :], pop_idx].T
        return _objective_batch(table.a, excl, gammas)

    pop = rng.integers(0, n_states, size=(cfg.population, n_el))
    fit = evaluate(pop)
    evaluations = cfg.population
    i_best = int(np.argmin(fit))
    best_fit, best_chrom = float(fit[i_best]), pop[i_best].copy()
    history = [best_fit] if track_history else None

    n_children = cfg.population - 1  # the elite fills the remaining slot
    n_pairs = n_children // 2
    for _ in range(cfg.generations):
        cand = rng.integers(0, cfg.population, size=(n_children, 2))
        winners = np.where(fit[cand[:, 0]] <= fit[cand[:, 1]], cand[:, 0], cand[:, 1])
        children = pop[winners].copy()
        do_cross = rng.random(n_pairs) < cfg.p_crossover
        masks = rng.random((n_pairs, n_el)) < 0.5
        _crossover(children, do_cross, masks)
        if n_states > 1:
            mutate = rng.random((n_children, n_el)) < cfg.p_mutation
            draws = rng.integers(0, n_states - 1, size=(n_children, n_el))
            mutated = draws + (draws >= children)  # uniform over the other states
            children = np.where(mutate, mutated, children)
        child_fit = evaluate(children)
        evaluations += n_children
        pop = np.vstack([best_chrom[None, :], children])
        fit = np.concatenate([[best_fit], child_fit])
        i = int(np.argmin(fit))
        if fit[i] < best_fit:
            best_fit, best_chrom = float(fit[i]), pop[i].copy()
        if history is not None:
            history.append(best_fit)

    gamma = ExcitationVector(
        gamma=states_matrix[cols, best_chrom],
        provenance="ga",
        state_indices=best_chrom,
    )
    return SynthesisResult(
        method="ga",
        gamma=gamma,
        objective=best_fit,
        objective_kind="sll_ratio",
        evaluations=evaluations,
        wall_time_s=time.perf_counter() - t0,
        rng_seed=seed,
        history=tuple(history) if history is not None else None,
    )


def go_quantized(
    array: ElementArray,
    phi_o: float,
    state_sets: list[np.ndarray],
    table: SteeringVectorTable | None = None,
    spec: SteeringSpec | None = None,
) -> SynthesisResult:
    """Sample the geometrical-optics reflection at the element positions and
    quantize to the nearest available states. Closed form, deterministic.

    The sidelobe objective is reported when a table and steering spec are
    supplied, NaN otherwise.
    """
    t0 = time.perf_counter()
    gamma_cont = np.exp(-1j * phase_function(array.geom, phi_o, array.alphas))
    proj = project_to_states(gamma_cont, state_sets)
    gamma = ExcitationVector(
        gamma=proj.gamma, provenance="go_q", state_indices=proj.state_indices
    )
    obj = np.nan
    if table is not None and spec is not None:
        obj = sll_objective(table, spec, gamma)
    return SynthesisResult(
        method="go_q",
        gamma=gamma,
        objective=float(obj),
        objective_kind="sll_ratio",
        evaluations=1,
        wall_time_s=time.perf_counter() - t0,
    )
