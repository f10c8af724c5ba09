"""Deterministic CSV/JSON writers for run artifacts.

Floats are written with `repr`, which is the shortest round-trip form, so
files are lossless and byte-stable across runs with identical inputs. No
timestamps or clock readings are ever written.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .exact_synth import ImpedanceProfile
from .go_synth import GoProfile
from .optimizers import SynthesisResult
from .patterns import PatternGrid, PatternMetrics

__all__ = [
    "write_pattern_csv",
    "write_impedance_csv",
    "write_go_impedance_csv",
    "write_metrics_json",
    "write_result_json",
    "write_state_sets_json",
    "write_json",
    "read_pattern_csv",
]


def _fmt(x: float) -> str:
    return repr(float(x))


def _json_default(o):
    if isinstance(o, (np.integer,)):
        return int(o)
    if isinstance(o, (np.floating,)):
        return float(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o)}")


def write_json(path, payload: dict) -> None:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with p.open("w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def write_pattern_csv(path, pattern: PatternGrid) -> None:
    """Columns: phi_deg, re_F, im_F, mag_db (peak-normalized)."""
    mag_db = pattern.magnitude_db(normalized=True)
    lines = ["phi_deg,re_F,im_F,mag_db"]
    for phi, f, db in zip(pattern.grid.degrees, pattern.f, mag_db):
        lines.append(f"{_fmt(phi)},{_fmt(f.real)},{_fmt(f.imag)},{_fmt(db)}")
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text("\n".join(lines) + "\n")


def read_pattern_csv(path):
    """Read a pattern CSV back into (phi_deg, complex F, mag_db) arrays."""
    rows = Path(path).read_text().strip().split("\n")
    if rows[0] != "phi_deg,re_F,im_F,mag_db":
        raise ValueError(f"{path}: unexpected header {rows[0]!r}")
    data = np.array([[float(c) for c in r.split(",")] for r in rows[1:]])
    return data[:, 0], data[:, 1] + 1j * data[:, 2], data[:, 3]


def _write_impedance_rows(path, profile, flags, flag_column: str) -> None:
    """Columns: phi_deg, re_Z_over_eta0, im_Z_over_eta0, then `flag_column` (0/1)."""
    lines = [f"phi_deg,re_Z_over_eta0,im_Z_over_eta0,{flag_column}"]
    for phi, z, flag in zip(profile.grid.degrees, profile.z_over_eta0, flags):
        lines.append(f"{_fmt(phi)},{_fmt(z.real)},{_fmt(z.imag)},{int(flag)}")
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text("\n".join(lines) + "\n")


def write_impedance_csv(path, profile: ImpedanceProfile) -> None:
    """Columns: phi_deg, re_Z_over_eta0, im_Z_over_eta0, pole_flag."""
    _write_impedance_rows(path, profile, profile.pole_mask, "pole_flag")


def write_go_impedance_csv(path, profile: GoProfile) -> None:
    """Columns: phi_deg, re_Z_over_eta0, im_Z_over_eta0, singular_flag."""
    _write_impedance_rows(path, profile, profile.singular_mask, "singular_flag")


def write_metrics_json(path, metrics: PatternMetrics) -> None:
    write_json(path, metrics.to_dict())


def _objective_db(result: SynthesisResult) -> float | None:
    """Method objective in dB: 20 log10 for ratios, 10 log10 for powers."""
    v = result.objective
    if not math.isfinite(v) or v <= 0:
        return None
    scale = 10.0 if result.objective_kind == "sidelobe_power" else 20.0
    return scale * math.log10(v)


def write_state_sets_json(path, array, state_sets, metadata: dict | None = None) -> None:
    """Audit export of the per-element resolved state sets."""
    payload = {
        "metadata": dict(metadata or {}),
        "elements": [
            {
                "index": n,
                "alpha_deg": float(np.degrees(array.alphas[n])),
                "states": [{"re": float(s.real), "im": float(s.imag)} for s in states],
            }
            for n, states in enumerate(state_sets)
        ],
    }
    write_json(path, payload)


def write_result_json(path, result: SynthesisResult) -> None:
    payload = {
        "method": result.method,
        "objective": result.objective if math.isfinite(result.objective) else None,
        "objective_kind": result.objective_kind,
        "objective_db": _objective_db(result),
        "evaluations": result.evaluations,
        "rng_seed": result.rng_seed,
        "gamma": [
            {"state_index": int(i), "re": float(g.real), "im": float(g.imag)}
            for i, g in zip(result.state_indices, result.gamma)
        ],
    }
    write_json(path, payload)
