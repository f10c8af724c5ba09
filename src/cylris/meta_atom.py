"""Discrete reflection-state sets of the reconfigurable elements.

A StateTable holds, per incidence angle, the L = 2^b complex reflection
coefficients an element can switch between. Elements at different angular
positions see the incident wave at different local angles, so each element
resolves its own state set from the table. Externally characterized data
(full-wave or measured) is ingested from CSV and never computed here.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import wrap_angle

__all__ = [
    "StateTable",
    "ideal_one_bit",
    "load_state_table",
    "state_sets_for_array",
]

PASSIVITY_TOL = 1e-9


@dataclass(frozen=True)
class StateTable:
    """Angle-resolved reflection states of one meta-atom design.

    states[i, l] is the complex reflection of state l at incidence angle
    angles_deg[i]; the state count L, the width of `states`, is a power of
    two >= 2. A single row means an angle-independent model.
    """

    angles_deg: np.ndarray
    states: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        angles = np.asarray(self.angles_deg, dtype=float)
        states = np.asarray(self.states, dtype=complex)
        if angles.ndim != 1 or states.ndim != 2 or states.shape[0] != angles.size:
            raise ValueError("states must have shape (n_angles, L)")
        n_states = states.shape[1]
        if n_states < 2 or n_states & (n_states - 1):
            raise ValueError(f"number of states {n_states} is not a power of two >= 2")
        if not (np.isfinite(angles).all() and np.isfinite(states).all()):
            raise ValueError("angles_deg and states must be finite")
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

    def states_at(self, angles_deg) -> np.ndarray:
        """State sets at incidence angles (deg), shape angles.shape + (L,).

        Magnitude and unwrapped phase interpolate linearly in angle, each
        state on its own; exact table rows are returned verbatim at the
        knots. Angles outside the tabulated range clamp to the nearest row,
        so a single-row table returns its row at every angle.
        """
        knots, states = self.angles_deg, self.states
        a = np.asarray(angles_deg, dtype=float)
        if not np.isfinite(a).all():
            raise ValueError("incidence angles must be finite")
        a = np.clip(a, knots[0], knots[-1])
        phases = np.unwrap(np.angle(states), axis=0)
        mags = np.stack([np.interp(a, knots, m) for m in np.abs(states).T], axis=-1)
        phs = np.stack([np.interp(a, knots, p) for p in phases.T], axis=-1)
        idx = np.minimum(np.searchsorted(knots, a), knots.size - 1)
        return np.where((knots[idx] == a)[..., None], states[idx], mags * np.exp(1j * phs))


def ideal_one_bit(taper: str) -> StateTable:
    """Idealized two-state element: unit magnitude, 180 deg split at normal.

    taper="constant" keeps the 180 deg split at every incidence angle (single
    row). taper="cosine" degrades the split as 180 * cos(theta), tabulated
    every 1 deg over [0, 90] deg, which mimics how the state
    contrast of a real element collapses toward grazing.
    """
    if taper == "constant":
        angles, states = np.array([0.0]), np.array([[1.0, -1.0]])
    elif taper == "cosine":
        angles = np.arange(0.0, 90.5, 1.0)
        delta = np.pi * np.cos(np.radians(angles))
        states = np.stack([np.ones_like(delta), np.exp(1j * delta)], axis=1)
    else:
        raise ValueError("taper must be 'constant' or 'cosine'")
    return StateTable(angles, states, {"model": "ideal_one_bit", "taper": taper})


def load_state_table(path) -> StateTable:
    """Load a state table from CSV: angle_deg, state_index, mag, phase_deg.

    One header line; every (angle, state) pair must be present, with finite
    values and 0 <= mag <= 1. Raises ValueError naming the file, and the
    offending line where there is one, on any violation, including every
    `StateTable` rule and a file that does not decode as text.
    """
    try:
        with open(path, newline="") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    reader = csv.reader(lines)
    header = next(reader, None)
    if header is None:
        raise ValueError(f"{path}: empty file")
    expected = ["angle_deg", "state_index", "mag", "phase_deg"]
    if [h.strip() for h in header] != expected:
        raise ValueError(f"{path}: header must be {','.join(expected)}")
    rows = []
    for ln, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        try:
            angle, idx, mag, ph = float(row[0]), int(row[1]), float(row[2]), float(row[3])
        except (ValueError, IndexError) as exc:
            raise ValueError(f"{path}: line {ln}: cannot parse row {row}") from exc
        if not all(map(math.isfinite, (angle, mag, ph))) or mag < 0:
            raise ValueError(f"{path}: line {ln}: values must be finite and mag >= 0, got {row}")
        if mag > 1.0 + PASSIVITY_TOL:
            raise ValueError(f"{path}: line {ln}: |gamma| = {mag} violates passivity")
        rows.append((angle, idx, mag, ph, ln))
    if not rows:
        raise ValueError(f"{path}: no data rows")
    angles = np.array(sorted({r[0] for r in rows}))
    state_ids = sorted({r[1] for r in rows})
    if state_ids != list(range(len(state_ids))):
        raise ValueError(f"{path}: state indices must be 0..L-1, got {state_ids}")
    table = np.full((angles.size, len(state_ids)), np.nan, dtype=complex)
    for angle, idx, mag, ph, ln in rows:
        i = int(np.searchsorted(angles, angle))
        if not np.isnan(table[i, idx].real):
            raise ValueError(f"{path}: line {ln}: duplicate entry for angle {angle}, state {idx}")
        table[i, idx] = mag * np.exp(1j * np.radians(ph))
    missing = np.argwhere(np.isnan(table.real))
    if missing.size:
        i, l = missing[0]
        raise ValueError(f"{path}: missing entry for angle {angles[i]} deg, state {l}")
    try:
        return StateTable(angles, table)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def state_sets_for_array(table: StateTable, array) -> np.ndarray:
    """State sets of every element of an array: row n is element n's set, (N, L).

    The incident wave travels along -x and the element normal is radial, so
    element n sees the local incidence angle |alpha_n|, below 90 deg since
    `ElementArray` keeps every element on the illuminated half; state sets
    are even in alpha by construction.
    """
    return table.states_at(np.degrees(np.abs(wrap_angle(array.alphas))))
