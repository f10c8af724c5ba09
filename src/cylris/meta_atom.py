"""Discrete reflection-state sets of the reconfigurable elements.

A StateTable holds, per incidence angle, the L = 2^b complex reflection
coefficients an element can switch between. Elements at different angular
positions see the incident wave at different local angles, so each element
resolves its own state set from the table. Externally characterized data
(full-wave or measured) is ingested from CSV and never computed here.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .geometry import wrap_angle

__all__ = [
    "StateTable",
    "ideal_one_bit",
    "load_state_table",
    "state_set_for_element",
    "state_sets_for_array",
]

PASSIVITY_TOL = 1e-9


@dataclass(frozen=True)
class StateTable:
    """Angle-resolved reflection states of one meta-atom design.

    states[i, l] is the complex reflection of state l at incidence angle
    angles_deg[i]. A single row means an angle-independent model. Unwrapped
    per-state phases are kept alongside so interpolation can treat magnitude
    and phase separately.
    """

    bits: int
    angles_deg: np.ndarray
    states: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        angles = np.asarray(self.angles_deg, dtype=float)
        states = np.asarray(self.states, dtype=complex)
        if self.bits < 1:
            raise ValueError("bits must be >= 1")
        n_states = 2**self.bits
        if states.ndim != 2 or states.shape != (angles.size, n_states):
            raise ValueError(f"states must have shape (n_angles, {n_states})")
        if angles.size > 1 and np.any(np.diff(angles) <= 0):
            raise ValueError("angles_deg must be strictly increasing")
        if np.any(angles < 0) or np.any(angles > 90):
            raise ValueError("angles_deg must lie in [0, 90]")
        bad = np.abs(states) > 1.0 + PASSIVITY_TOL
        if np.any(bad):
            i, l = np.argwhere(bad)[0]
            raise ValueError(
                f"passivity violated at angle row {i} (angle {angles[i]:.3f} deg), "
                f"state {l}: |gamma| = {abs(states[i, l]):.6f} > 1"
            )
        object.__setattr__(self, "angles_deg", angles)
        object.__setattr__(self, "states", states)
        mags = np.abs(states)
        phases = np.unwrap(np.angle(states), axis=0) if angles.size > 1 else np.angle(states)
        object.__setattr__(self, "_mags", mags)
        object.__setattr__(self, "_phases", phases)

    @property
    def n_states(self) -> int:
        return self.states.shape[1]

    def states_at(self, angle_deg: float) -> np.ndarray:
        """State set at one incidence angle; linear interpolation in angle.

        Magnitude and unwrapped phase are interpolated separately; exact
        table rows are returned verbatim at the knots. Angles outside the
        tabulated range clamp to the nearest row.
        """
        if self.angles_deg.size == 1:
            return self.states[0].copy()
        a = float(np.clip(angle_deg, self.angles_deg[0], self.angles_deg[-1]))
        idx = np.searchsorted(self.angles_deg, a)
        if idx < self.angles_deg.size and self.angles_deg[idx] == a:
            return self.states[idx].copy()
        mags = np.array([np.interp(a, self.angles_deg, self._mags[:, l]) for l in range(self.n_states)])
        phs = np.array([np.interp(a, self.angles_deg, self._phases[:, l]) for l in range(self.n_states)])
        return mags * np.exp(1j * phs)


def ideal_one_bit(taper: str = "constant", angle_step_deg: float = 1.0) -> StateTable:
    """Idealized two-state element: unit magnitude, 180 deg split at normal.

    taper="constant" keeps the 180 deg split at every incidence angle (single
    row). taper="cosine" degrades the split as 180 * cos(theta), tabulated on
    a uniform angle grid over [0, 90] deg, which mimics how the state
    contrast of a real element collapses toward grazing.
    """
    if taper == "constant":
        return StateTable(
            bits=1,
            angles_deg=np.array([0.0]),
            states=np.array([[1.0 + 0j, -1.0 + 0j]]),
            metadata={"model": "ideal_one_bit", "taper": "constant"},
        )
    if taper == "cosine":
        if angle_step_deg <= 0:
            raise ValueError("angle_step_deg must be positive")
        angles = np.arange(0.0, 90.0 + angle_step_deg / 2, angle_step_deg)
        angles = angles[angles <= 90.0]
        delta = np.pi * np.cos(np.radians(angles))
        states = np.stack([np.ones_like(delta) + 0j, np.exp(1j * delta)], axis=1)
        return StateTable(
            bits=1,
            angles_deg=angles,
            states=states,
            metadata={"model": "ideal_one_bit", "taper": "cosine"},
        )
    raise ValueError("taper must be 'constant' or 'cosine'")


def load_state_table(path, bits: int | None = None, metadata: dict | None = None) -> StateTable:
    """Load a state table from CSV: angle_deg, state_index, mag, phase_deg.

    One header line; every (angle, state) pair must be present. The number
    of distinct state indices must be a power of two (sets bits when not
    given). Raises ValueError naming the offending row on any violation.
    """
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        expected = ["angle_deg", "state_index", "mag", "phase_deg"]
        if [h.strip() for h in header] != expected:
            raise ValueError(f"{path}: header must be {','.join(expected)}")
        for ln, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                angle, idx, mag, ph = float(row[0]), int(row[1]), float(row[2]), float(row[3])
            except (ValueError, IndexError) as exc:
                raise ValueError(f"{path}: line {ln}: cannot parse row {row}") from exc
            if mag > 1.0 + PASSIVITY_TOL:
                raise ValueError(f"{path}: line {ln}: |gamma| = {mag} violates passivity")
            rows.append((angle, idx, mag, ph, ln))
    if not rows:
        raise ValueError(f"{path}: no data rows")
    angles = np.array(sorted({r[0] for r in rows}))
    state_ids = sorted({r[1] for r in rows})
    n_states = len(state_ids)
    if state_ids != list(range(n_states)):
        raise ValueError(f"{path}: state indices must be 0..L-1, got {state_ids}")
    b = n_states.bit_length() - 1
    if 2**b != n_states:
        raise ValueError(f"{path}: number of states {n_states} is not a power of two")
    if bits is not None and bits != b:
        raise ValueError(f"{path}: table has {n_states} states but bits = {bits} was requested")
    table = np.full((angles.size, n_states), np.nan, dtype=complex)
    for angle, idx, mag, ph, ln in rows:
        i = int(np.searchsorted(angles, angle))
        if not np.isnan(table[i, idx].real):
            raise ValueError(f"{path}: line {ln}: duplicate entry for angle {angle}, state {idx}")
        table[i, idx] = mag * np.exp(1j * np.radians(ph))
    missing = np.argwhere(np.isnan(table.real))
    if missing.size:
        i, l = missing[0]
        raise ValueError(f"{path}: missing entry for angle {angles[i]} deg, state {l}")
    return StateTable(bits=b, angles_deg=angles, states=table, metadata=dict(metadata or {}))


def state_set_for_element(table: StateTable, alpha_n: float) -> np.ndarray:
    """State set of the element at angular position alpha_n.

    The incident wave travels along -x and the element normal is radial, so
    the local incidence angle is theta_n = |alpha_n|; state sets are even in
    alpha by construction.
    """
    alpha = float(wrap_angle(alpha_n))
    if abs(alpha) >= np.pi / 2:
        raise ValueError("element must be on the illuminated half (|alpha| < pi/2)")
    return table.states_at(np.degrees(abs(alpha)))


def state_sets_for_array(table: StateTable, array) -> np.ndarray:
    """State sets of every element of an array: row n is element n's set, (N, L)."""
    return np.array([state_set_for_element(table, a) for a in array.alphas])
