"""The four synthesis strategies for the discrete one-bit cylinder.

* exhaustive search over the full state space (budget-guarded),
* a seeded integer-chromosome genetic algorithm,
* the closed-form minimum-power distortionless-response (MPDR) relaxation
  with nearest-state projection at every distinct constraint phase,
* spatial sampling plus quantization of the geometrical-optics solution.

Every optimizer is called as fn(table, spec, states, **params): the steering
table, the steering spec, the (N, L) array of per-element state sets, and
keyword parameters named as the `method` config keys, whose defaults and
rules are those keys' (`config.checked`). Every method reports one
objective, `sll_objective`; ES, GA and GO also search by it, MPDR by the
exclusion-set power. GA scores its population in single precision and
rescores its winner in double; ES, the floor the others are judged against,
scores in double throughout. Results are deterministic given the RNG seed;
exhaustive-search chunks may be fanned out over processes without changing
the outcome.
"""

from __future__ import annotations

import functools
import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .config import checked
from .discrete_model import (
    ElementArray,
    SteeringVectorTable,
    conjugate_phase_excitation,
    steering_vector_at,
)
from .errors import BudgetExceededError, NumericalError
from .geometry import SteeringSpec, wrap_angle

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

CONDITION_LIMIT = 1e12
# Sigma quadrature: Gauss-Legendre nodes per panel, and the largest panel
# width in units of 1/k0R.
SIGMA_PANEL_NODES = 16
SIGMA_PANEL_WIDTH = 8.0
# Exhaustive search: every ES_PROBE_STRIDE-th exclusion-set row is probed
# before a column is scored in full; the low part holds <= ES_LOW_COLUMNS tuples.
ES_PROBE_STRIDE = 16
ES_LOW_COLUMNS = 1024


@dataclass(frozen=True)
class SigmaMatrices:
    """Quadrature matrices Sigma (full circle) and Sigma_S (exclusion set)."""

    sigma: np.ndarray
    sigma_s: np.ndarray


@dataclass(frozen=True)
class SynthesisResult:
    """Outcome of one synthesis run.

    gamma is the chosen excitation (N,) and state_indices the state each
    element takes; objective is `sll_objective` of gamma, for every method.
    """

    method: str
    gamma: np.ndarray
    state_indices: np.ndarray
    objective: float
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

    a_n*(phi) a_m(phi) is smooth between the element-support edges alpha_n +- pi/2,
    and the exclusion-set indicator jumps only at the window `spec.edges`; panels
    break at all of them and are split to a width <= SIGMA_PANEL_WIDTH / k0R, so
    the rule stays exact as the integrand oscillates faster with the electrical size.
    """
    edges = np.concatenate([array.alphas - np.pi / 2, array.alphas + np.pi / 2, spec.edges])
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
    Only `table.array` is read; the table's grid plays no part.
    """
    nodes, weights = _sigma_nodes(table.array, spec)
    a = steering_vector_at(table.array, nodes) * np.sqrt(weights)[:, None]
    a_s = a[spec.excludes(nodes)]
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


def mpdr_relaxed(sig: SigmaMatrices, a_o: np.ndarray) -> np.ndarray:
    """Closed-form relaxed minimizer of gamma^H Sigma gamma under
    a_o^T gamma = 1: gamma = Sigma^-1 a_o* / (a_o^T Sigma^-1 a_o*).

    The constraint rho exp(j psi) is met by rho exp(j psi) times this
    gamma, as the problem is quadratic."""
    a_o = np.asarray(a_o, dtype=complex)
    x = _solve_sigma(sig.sigma, a_o.conj())
    denom = (a_o @ x).real
    if denom <= 0 or not np.isfinite(denom):
        raise NumericalError("degenerate steering vector: a_o^T Sigma^-1 a_o* <= 0")
    return (1.0 / denom) * x


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
    """Sidelobe objective: max |F| over the exclusion set / max |F|, on the `_objective_rows`."""
    a, excl = _objective_rows(table, spec)
    return float(_objective_batch((a @ np.asarray(gamma, dtype=complex))[:, None], excl)[0])


def _objective_rows(table: SteeringVectorTable, spec: SteeringSpec):
    """The grid rows, then the exact rows at the window `spec.edges`, where the open
    exclusion set attains its supremum, and their exclusion mask. The edge rows are
    exclusion rows only when the grid's set is non-empty, so an empty set still scores 0.0."""
    excl = spec.excludes(table.grid.values)
    edges = steering_vector_at(table.array, spec.edges)
    return np.vstack([table.a, edges]), np.append(excl, [excl.any()] * 2)


def _objective_batch(patterns: np.ndarray, excl: np.ndarray) -> np.ndarray:
    """Sidelobe ratio of each column of a pattern block (rows x batch).

    The exclusion set is a few runs of rows, so its maximum is taken
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


def _psi_candidates(theta: np.ndarray, r: float, states: np.ndarray) -> np.ndarray:
    """One psi per distinct projection of r exp(j(theta + psi)), ascending.

    Element n switches from state a to b where its point crosses their
    bisector, 2 r |d| cos(theta_n + psi - beta) = |s_b|^2 - |s_a|^2 with
    d = s_b - s_a = |d| exp(j beta); -pi and the midpoint of each interval
    between crossings, up to pi, reach every projection.
    """
    a, b = np.triu_indices(states.shape[1], 1)
    d = states[:, b] - states[:, a]
    with np.errstate(divide="ignore", invalid="ignore"):
        c = (np.abs(states[:, b]) ** 2 - np.abs(states[:, a]) ** 2) / (2 * r * np.abs(d))
    ok = np.abs(c) <= 1  # drops non-finite ratios and pairs whose bisector r never meets
    base = (np.angle(d) - theta[:, None])[ok]
    half = np.arccos(c[ok])
    breaks = np.append(np.unique(wrap_angle(np.concatenate([base - half, base + half]))), np.pi)
    return np.concatenate([[-np.pi], 0.5 * (breaks[:-1] + breaks[1:])])


def mpdr_synthesize(table: SteeringVectorTable, spec: SteeringSpec, states) -> SynthesisResult:
    """Project the relaxed MPDR solution at every distinct constraint phase
    psi; keep the projection with the least exclusion-set power.

    Only the phases of x = `mpdr_relaxed`(Sigma, a_o) are kept, times the
    mean state magnitude, so the scale of Sigma moves no state. The
    `_psi_candidates` are projected in one broadcast and scored as
    g^H Sigma_S g in ascending psi; the first minimum wins and reports its
    `sll_objective`. `evaluations` is the candidate count.
    """
    states = np.asarray(states, dtype=complex)
    sig = build_sigma(table, spec)
    # exact steering vector at phi_o, not a grid snap
    theta = np.angle(mpdr_relaxed(sig, steering_vector_at(table.array, spec.phi_o)))
    r = float(np.abs(states).mean())
    psis = _psi_candidates(theta, r, states)
    values, idx = project_to_states(r * np.exp(1j * (theta + psis[:, None])), states)
    scores = [float((g.conj() @ (sig.sigma_s @ g)).real) for g in values]
    k = int(np.argmin(scores))  # the first (lowest-psi) minimum
    return SynthesisResult(
        method="mpdr",
        gamma=values[k],
        state_indices=idx[k],
        objective=sll_objective(table, spec, values[k]),
        evaluations=psis.size,
    )


# --- exhaustive search -------------------------------------------------------

_ES_CTX: dict = {}


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _es_init(p_lo, f_hi, excl):
    """Share the search tables; probe rows: the window, then the last two
    exclusion rows (the window edges, when the set is non-empty) and every
    ES_PROBE_STRIDE-th one before them."""
    window, side = np.flatnonzero(~excl), np.flatnonzero(excl)
    probe = np.concatenate([window, side[-2:], side[:-2:ES_PROBE_STRIDE]])
    _ES_CTX.update(p_lo=p_lo, f_hi=f_hi, excl=excl, probe=probe, n_window=window.size)


def _es_task(span: tuple[int, int]) -> tuple[float, int, int]:
    """Best (objective, high tuple, low tuple) over the high tuples [start, stop).

    Elementwise numpy only: the pattern of (h, every low tuple) is
    f_hi[h] + P_lo. The best starts at (start, 0), scored alone; every high
    tuple is then probed on the `_es_init` rows, and a column is scored in
    full only when min(probed sidelobe / exact window peak, 1) is below the
    best. That is a lower bound on its ratio, as the edge rows are exclusion
    rows and a finite ratio is <= 1; the clamp never prunes against inf.
    Division rounds monotonically and `<` is strict, so ties keep the earlier
    tuple and the span's first minimum, (start, 0) at worst, survives.
    """
    start, stop = span
    p_lo, f_hi, excl = _ES_CTX["p_lo"], _ES_CTX["f_hi"], _ES_CTX["excl"]
    probe, n_window = _ES_CTX["probe"], _ES_CTX["n_window"]
    rows = np.empty((probe.size, p_lo.shape[1]), dtype=p_lo.dtype)
    best = (float(_objective_batch(p_lo[:, :1] + f_hi[start][:, None], excl)[0]), start, 0)
    for h in range(start, stop):
        np.take(p_lo, probe, axis=0, out=rows, mode="clip")  # "clip": no bounce buffer
        rows += f_hi[h, probe][:, None]
        mag = np.abs(rows)
        main = mag[:n_window].max(axis=0, initial=0.0)
        lb = mag[n_window:].max(axis=0, initial=0.0)  # <= the exclusion-set max
        with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 is nan: kept
            cols = np.flatnonzero(~(np.minimum(lb / main, 1.0) >= best[0]))
        if not cols.size:
            continue
        block = p_lo[:, cols]
        block += f_hi[h][:, None]
        vals = _objective_batch(block, excl)
        i = int(np.argmin(vals))
        if vals[i] < best[0]:
            best = (float(vals[i]), h, int(cols[i]))
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
    budget: int | None = None,
    workers: int | None = None,
) -> SynthesisResult:
    """Global minimizer of the sidelobe ratio over the full state space.

    Refuses to run when L^N exceeds `budget` (raise the budget explicitly,
    or use the GA/MPDR routes). Ties break to the lexicographically smallest
    state-index tuple. The last n_lo elements, L^n_lo <= ES_LOW_COLUMNS, form the
    low part: the patterns of all their tuples (P_lo) and of every tuple of
    the other elements (f_hi) are built here with BLAS, and a pattern is
    then one elementwise sum f_hi[h] + P_lo. State sets closed under
    negation visit only the element-0 states that can win (about half).
    `workers > 1` fans the high tuples out over processes that run no BLAS,
    at most one per usable CPU and one per task; the ordered reduction keeps
    the result identical to a serial run. A task's best starts at its first
    tuple, and only columns whose probed lower bound stays below the best are
    scored in full; ties keep the earlier tuple (`_es_task`).
    `evaluations` is L^N, the size of the space covered.
    """
    budget, workers = checked("method.budget", budget), checked("method.workers", workers)
    states = np.asarray(states, dtype=complex)
    n_el, n_states = table.n_elements, states.shape[1]
    total = n_states**n_el
    if total > budget:
        raise BudgetExceededError(
            f"exhaustive search needs {total} evaluations, budget is {budget}; "
            "raise the budget or use the ga/mpdr/go_q methods"
        )
    n_lo = 0
    while n_lo < n_el - 1 and n_states ** (n_lo + 1) <= ES_LOW_COLUMNS:
        n_lo += 1
    n_hi = n_el - n_lo
    hi_idx = _lex_tuples([_negation_representatives(states)] + [range(n_states)] * (n_hi - 1))
    lo_idx = _lex_tuples([range(n_states)] * n_lo)
    a, excl = _objective_rows(table, spec)
    p_lo = a[:, n_hi:] @ states[np.arange(n_hi, n_el), lo_idx].T  # (rows, L^n_lo)
    f_hi = states[np.arange(n_hi), hi_idx] @ a[:, :n_hi].T  # (high tuples, rows)
    n_proc = min(workers, _usable_cpus())
    step = -(-len(hi_idx) // (4 * n_proc))  # about four equal tasks per process
    spans = [(s, min(s + step, len(hi_idx))) for s in range(0, len(hi_idx), step)]
    n_proc = min(n_proc, len(spans))
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
    population: int | None = None,
    generations: int | None = None,
    p_crossover: float | None = None,
    p_mutation: float | None = None,
    seed: int | None = None,
) -> SynthesisResult:
    """Integer-chromosome GA for the sidelobe ratio (one gene per element).

    Tournament selection of size two, uniform crossover, per-gene mutation
    to a different random state, elitism of one. A single seeded generator
    drives every draw, so identical seeds give identical results.
    The population is scored in single precision (the `_objective_rows` and
    the states cast to complex64 once per call); `objective` is the winner
    rescored in double by `sll_objective`. `history` holds the
    single-precision best of the initial population and after each
    generation (generations + 1 values). A parameter left out takes its
    `method` config default, the full-scale setting.
    """
    population = checked("method.population", population)
    generations = checked("method.generations", generations)
    p_crossover = checked("method.p_crossover", p_crossover)
    p_mutation = checked("method.p_mutation", p_mutation)
    seed = checked("method.seed", seed)
    states = np.asarray(states, dtype=complex)
    n_el, n_states = table.n_elements, states.shape[1]
    cols = np.arange(n_el)
    a, excl = _objective_rows(table, spec)
    rng = np.random.default_rng(seed)
    a32, states32 = a.astype(np.complex64), states.astype(np.complex64)

    def evaluate(pop_idx: np.ndarray) -> np.ndarray:
        return _objective_batch(a32 @ states32[cols[None, :], pop_idx].T, excl)

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

    gamma = states[cols, best_chrom]
    return SynthesisResult(
        method="ga",
        gamma=gamma,
        state_indices=best_chrom,
        objective=sll_objective(table, spec, gamma),
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
        evaluations=1,
    )
