"""The four synthesis strategies for the discrete one-bit cylinder.

* exhaustive search over the full state space (budget-guarded),
* a seeded integer-chromosome genetic algorithm,
* the closed-form minimum-power distortionless-response (MPDR) relaxation
  with nearest-state projection and a 1D search over the constraint phase,
* spatial sampling plus quantization of the geometrical-optics solution.

Every optimizer is called as fn(table, spec, states, **params): the steering
table, the steering spec, the (N, L) array of per-element state sets, and
keyword parameters named as the `method` config keys. ES, GA and GO score
candidates with the same sidelobe objective on the table's grid: the ratio
of the largest pattern magnitude inside the exclusion set to the global
peak. Results are deterministic given the RNG seed; exhaustive-search
chunks may be fanned out over processes without changing the outcome.
"""

from __future__ import annotations

import functools
import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .discrete_model import (
    ElementArray,
    SteeringVectorTable,
    conjugate_phase_excitation,
    steering_vector_at,
)
from .errors import BudgetExceededError, NumericalError
from .geometry import SteeringSpec, exclusion_set_mask, wrap_angle

__all__ = [
    "SigmaMatrices",
    "SynthesisResult",
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
CONDITION_LIMIT = 1e12
# Sigma quadrature: Gauss-Legendre nodes per panel, and the largest panel
# width in units of 1/k0R.
SIGMA_PANEL_NODES = 16
SIGMA_PANEL_WIDTH = 8.0


@dataclass(frozen=True)
class SigmaMatrices:
    """Quadrature matrices Sigma (full circle) and Sigma_S (exclusion set)."""

    sigma: np.ndarray
    sigma_s: np.ndarray


@dataclass(frozen=True)
class SynthesisResult:
    """Outcome of one synthesis run.

    gamma is the chosen excitation (N,) and state_indices the state each
    element takes. objective_kind is "sll_ratio" (linear Linf ratio, used by
    ES/GA/GO) or "sidelobe_power" (quadratic exclusion-set power, used by
    MPDR); the value is always recomputable from gamma.
    """

    method: str
    gamma: np.ndarray
    state_indices: np.ndarray
    objective: float
    objective_kind: str
    evaluations: int
    rng_seed: int | None = None
    history: tuple[float, ...] | None = None


def _hermitize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)  # numpy.polynomial loads on first use


def _sigma_nodes(array: ElementArray, spec: SteeringSpec) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-pi, pi) for the Sigma integrand.

    a_n*(phi) a_m(phi) is smooth between the element-support edges
    alpha_n +- pi/2, and the exclusion-set indicator jumps only at the window
    edges phi_o +- delta_phi/2; panels break at all of them and are split to
    a width <= SIGMA_PANEL_WIDTH / k0R, so the rule stays exact as the
    integrand oscillates faster with the electrical size.
    """
    half = spec.delta_phi / 2.0
    edges = np.concatenate(
        [array.alphas - np.pi / 2, array.alphas + np.pi / 2, [spec.phi_o - half, spec.phi_o + half]]
    )
    breaks = np.unique(np.concatenate([wrap_angle(edges), [-np.pi, np.pi]]))
    lengths = np.diff(breaks)
    splits = np.ceil(lengths * array.geom.k0r / SIGMA_PANEL_WIDTH).astype(int)
    width = np.repeat(lengths / splits, splits)
    k = np.arange(width.size) - np.repeat(np.cumsum(splits) - splits, splits)  # index in its span
    mid = np.repeat(breaks[:-1], splits) + (k + 0.5) * width
    x, w = _gauss_legendre(SIGMA_PANEL_NODES)
    return (mid[:, None] + 0.5 * width[:, None] * x).ravel(), (0.5 * width[:, None] * w).ravel()


def build_sigma(table: SteeringVectorTable, spec: SteeringSpec) -> SigmaMatrices:
    """Sigma = integral of a*(phi) a^T(phi) over the circle, Sigma_S over the exclusion set.

    Gauss-Legendre panels (`_sigma_nodes`) make both exact to rounding:
    Sigma is the weighted sum over every node, Sigma_S over the
    exclusion-set nodes only, so both are Gram matrices (Hermitian PSD).
    Only `table.array` and `table.element_pattern` are read; the table's
    grid plays no part.
    """
    nodes, weights = _sigma_nodes(table.array, spec)
    a = steering_vector_at(table.array, nodes, table.element_pattern) * np.sqrt(weights)[:, None]
    a_s = a[np.abs(wrap_angle(nodes - spec.phi_o)) > spec.delta_phi / 2.0]  # exclusion_set_mask
    return SigmaMatrices(sigma=_hermitize(a.conj().T @ a), sigma_s=_hermitize(a_s.conj().T @ a_s))


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
) -> np.ndarray:
    """Closed-form relaxed minimizer of gamma^H Sigma gamma under
    a_o^T gamma = rho exp(j psi): gamma = lambda Sigma^-1 a_o* exp(j psi)
    with real lambda = rho / (a_o^T Sigma^-1 a_o*)."""
    a_o = np.asarray(a_o, dtype=complex)
    x = _solve_sigma(sig.sigma, a_o.conj())
    denom = (a_o @ x).real
    if denom <= 0 or not np.isfinite(denom):
        raise NumericalError("degenerate steering vector: a_o^T Sigma^-1 a_o* <= 0")
    lam = rho / denom
    return lam * x * np.exp(1j * psi)


def project_to_states(gamma, states) -> tuple[np.ndarray, np.ndarray]:
    """Element-wise nearest-state quantization (Euclidean complex distance).

    The one projection kernel: `gamma` is one excitation (N,) or a batch
    (..., N), `states` the (N, L) state sets, and one broadcast argmin over
    (..., N, L) projects them all. Ties break toward the lowest state index;
    the projection is idempotent. Returns (values, state_indices), both
    shaped like `gamma`.
    """
    g = np.asarray(gamma, dtype=complex)
    states = np.asarray(states, dtype=complex)
    if g.shape[-1:] != states.shape[:1]:
        raise ValueError("gamma length must equal the number of state sets")
    idx = np.argmin(np.abs(states - g[..., None]), axis=-1)  # first (lowest) index on ties
    return states[np.arange(g.shape[-1]), idx], idx


def sll_objective(table: SteeringVectorTable, spec: SteeringSpec, gamma) -> float:
    """Sidelobe objective: max |F| over the exclusion set / global max |F|."""
    g = np.asarray(gamma, dtype=complex)
    return float(_objective_batch((table.a @ g)[:, None], exclusion_set_mask(spec, table.grid))[0])


def _objective_batch(patterns: np.ndarray, excl: np.ndarray) -> np.ndarray:
    """Sidelobe ratio of each column of a pattern block (grid x batch).

    The exclusion set is a few runs of grid rows, so its maximum is taken
    over row slices rather than a copy of most of the block; the peak adds
    the protected-window rows. max is exact, so this is max|F| over the
    exclusion set / max|F|: inf for an all-zero pattern, 0.0 when the
    exclusion set is empty.
    """
    mag = np.abs(patterns)
    if not excl.any():
        return np.zeros(mag.shape[1])
    runs = np.flatnonzero(np.diff(excl, prepend=False, append=False)).reshape(-1, 2)
    side = np.maximum.reduce([mag[start:stop].max(axis=0) for start, stop in runs])
    peak = np.maximum(side, mag[~excl].max(axis=0, initial=0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(peak > 0, side / peak, np.inf)
    return out


def mpdr_synthesize(
    table: SteeringVectorTable,
    spec: SteeringSpec,
    states,
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
    first minimum wins. Fully deterministic. Of `table`, only the array and
    element pattern are read: Sigma and Sigma_S come from `build_sigma`.
    """
    if psi_samples < 1 or psi_refine < 0:
        raise ValueError(f"need psi_samples >= 1, psi_refine >= 0; got {psi_samples}, {psi_refine}")
    sig = build_sigma(table, spec)
    # exact steering vector at phi_o, not a grid snap
    a_o = steering_vector_at(table.array, spec.phi_o, table.element_pattern)
    x = _solve_sigma(sig.sigma, a_o.conj())

    def scan(psis: np.ndarray) -> tuple:
        values, idx = project_to_states(x[None, :] * np.exp(1j * psis)[:, None], states)
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
        gamma=values,
        state_indices=idx,
        objective=score,
        objective_kind="sidelobe_power",
        evaluations=psi_samples + psi_refine,
    )


# --- exhaustive search -------------------------------------------------------

_ES_CTX: dict = {}


def _es_init(p_lo, f_hi, excl):
    _ES_CTX.update(p_lo=p_lo, f_hi=f_hi, excl=excl)


def _es_task(span: tuple[int, int]) -> tuple[float, int, int]:
    """Best (objective, high tuple, low tuple) over the high tuples [start, stop).

    Elementwise numpy only: the pattern of (h, every low tuple) is
    f_hi[h] + P_lo, scored column by column; the first minimum wins.
    """
    start, stop = span
    p_lo, f_hi, excl = _ES_CTX["p_lo"], _ES_CTX["f_hi"], _ES_CTX["excl"]
    block = np.empty_like(p_lo)
    best = (np.inf, start, 0)
    for h in range(start, stop):
        np.add(p_lo, f_hi[h][:, None], out=block)
        vals = _objective_batch(block, excl)
        i = int(np.argmin(vals))
        if vals[i] < best[0]:
            best = (float(vals[i]), h, i)
    return best


def _lex_tuples(digits: list) -> np.ndarray:
    """Every tuple of the given per-position digits, in lexicographic order."""
    return np.array(list(itertools.product(*digits)), dtype=np.int64, ndmin=2)


def _negation_representatives(states: np.ndarray) -> list[int]:
    """Element-0 state indices the search must visit.

    When every state set is closed under exact negation, gamma and -gamma
    give the same |F|, and of the two the lexicographically smaller tuple
    has the smaller element-0 index. So an element-0 state whose negation
    sits at a lower index never wins, and is skipped.
    """
    s0 = states[0]
    if not all(np.isin(-s, s).all() for s in states):
        return list(range(len(s0)))
    return [i for i in range(len(s0)) if not np.any(s0[:i] == -s0[i])]


def exhaustive_search(
    table: SteeringVectorTable,
    spec: SteeringSpec,
    states,
    budget: int = DEFAULT_ES_BUDGET,
    workers: int = 1,
    batch: int = 1024,
) -> SynthesisResult:
    """Global minimizer of the sidelobe ratio over the full state space.

    Refuses to run when L^N exceeds `budget` (raise the budget explicitly,
    or use the GA/MPDR routes). Ties break to the lexicographically smallest
    state-index tuple. The last n_lo elements, L^n_lo <= `batch`, form the
    low part: the patterns of all their tuples (P_lo) and of every tuple of
    the other elements (f_hi) are built here with BLAS, and a pattern is
    then one elementwise sum f_hi[h] + P_lo. State sets closed under
    negation visit only the element-0 states that can win (about half).
    `workers > 1` fans the high tuples out over processes that run no BLAS;
    the ordered reduction keeps the result identical to a serial run.
    `evaluations` is L^N, the size of the space covered.
    """
    if workers < 1 or batch < 1:
        raise ValueError(f"workers and batch must be >= 1, got {workers} and {batch}")
    states = np.asarray(states, dtype=complex)
    n_el, n_states = table.n_elements, states.shape[1]
    total = n_states**n_el
    if total > budget:
        raise BudgetExceededError(
            f"exhaustive search needs {total} evaluations, budget is {budget}; "
            "raise the budget or use the ga/mpdr/go_q methods"
        )
    n_lo = 0
    while n_lo < n_el - 1 and n_states ** (n_lo + 1) <= batch:
        n_lo += 1
    n_hi = n_el - n_lo
    hi_idx = _lex_tuples(
        [_negation_representatives(states)] + [range(n_states)] * (n_hi - 1)
    )
    lo_idx = _lex_tuples([range(n_states)] * n_lo)
    a = table.a
    p_lo = a[:, n_hi:] @ states[np.arange(n_hi, n_el), lo_idx].T  # (grid, L^n_lo)
    f_hi = states[np.arange(n_hi), hi_idx] @ a[:, :n_hi].T  # (high tuples, grid)
    excl = exclusion_set_mask(spec, table.grid)
    step = -(-len(hi_idx) // (4 * workers))  # about four equal tasks per worker
    spans = [(s, min(s + step, len(hi_idx))) for s in range(0, len(hi_idx), step)]
    n_proc = min(workers, len(spans))
    try:
        if n_proc > 1:
            with ProcessPoolExecutor(
                max_workers=n_proc, initializer=_es_init, initargs=(p_lo, f_hi, excl)
            ) as pool:
                results = list(pool.map(_es_task, spans))
        else:
            _es_init(p_lo, f_hi, excl)
            results = [_es_task(s) for s in spans]
    finally:
        _ES_CTX.clear()
    best_val, best_h, best_lo = np.inf, 0, 0
    for val, h, lo in results:  # submission order: the earliest tuple wins ties
        if val < best_val:
            best_val, best_h, best_lo = val, h, lo
    idx = np.concatenate([hi_idx[best_h], lo_idx[best_lo]])
    gamma = states[np.arange(n_el), idx]
    return SynthesisResult(
        method="es",
        gamma=gamma,
        state_indices=idx,
        objective=sll_objective(table, spec, gamma),
        objective_kind="sll_ratio",
        evaluations=total,
    )


# --- genetic algorithm -------------------------------------------------------


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
    states,
    population: int = 1000,
    generations: int = 200,
    p_crossover: float = 0.9,
    p_mutation: float = 0.05,
    seed: int = 0,
) -> SynthesisResult:
    """Integer-chromosome GA for the sidelobe ratio (one gene per element).

    Tournament selection of size two, uniform crossover, per-gene mutation
    to a different random state, elitism of one. A single seeded generator
    drives every draw, so identical seeds give identical results.
    `history` holds the best objective of the initial population and after
    each generation (generations + 1 values). The defaults are the
    full-scale settings.
    """
    if population < 2 or generations < 0:
        raise ValueError("population must be >= 2 and generations >= 0")
    for p in (p_crossover, p_mutation):
        if not 0.0 <= p <= 1.0:
            raise ValueError("probabilities must lie in [0, 1]")
    states = np.asarray(states, dtype=complex)
    n_el, n_states = table.n_elements, states.shape[1]
    cols = np.arange(n_el)
    excl = exclusion_set_mask(spec, table.grid)
    rng = np.random.default_rng(seed)

    def evaluate(pop_idx: np.ndarray) -> np.ndarray:
        gammas = states[cols[None, :], pop_idx].T
        return _objective_batch(table.a @ gammas, excl)

    pop = rng.integers(0, n_states, size=(population, n_el))
    fit = evaluate(pop)
    evaluations = population
    i_best = int(np.argmin(fit))
    best_fit, best_chrom = float(fit[i_best]), pop[i_best].copy()
    history = [best_fit]

    n_children = population - 1  # the elite fills the remaining slot
    n_pairs = n_children // 2
    for _ in range(generations):
        cand = rng.integers(0, population, size=(n_children, 2))
        winners = np.where(fit[cand[:, 0]] <= fit[cand[:, 1]], cand[:, 0], cand[:, 1])
        children = pop[winners].copy()
        do_cross = rng.random(n_pairs) < p_crossover
        masks = rng.random((n_pairs, n_el)) < 0.5
        _crossover(children, do_cross, masks)
        if n_states > 1:
            mutate = rng.random((n_children, n_el)) < p_mutation
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
        history.append(best_fit)

    return SynthesisResult(
        method="ga",
        gamma=states[cols, best_chrom],
        state_indices=best_chrom,
        objective=best_fit,
        objective_kind="sll_ratio",
        evaluations=evaluations,
        rng_seed=seed,
        history=tuple(history),
    )


def go_quantized(table: SteeringVectorTable, spec: SteeringSpec, states) -> SynthesisResult:
    """Sample the geometrical-optics reflection at the element positions and
    quantize to the nearest available states. Closed form, deterministic.

    The GO reflection exp(-j Phi_r(alpha_n)) is the cophasal excitation
    pointed at spec.phi_o; the sidelobe objective is scored on `table`.
    """
    gamma, idx = project_to_states(conjugate_phase_excitation(table.array, spec.phi_o), states)
    return SynthesisResult(
        method="go_q",
        gamma=gamma,
        state_indices=idx,
        objective=sll_objective(table, spec, gamma),
        objective_kind="sll_ratio",
        evaluations=1,
    )
