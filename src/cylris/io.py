"""Deterministic CSV/JSON writers for run artifacts.

Floats are written with `repr`, which is the shortest round-trip form, so
files are lossless and byte-stable across runs with identical inputs. No
timestamps or clock readings are ever written.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from pathlib import Path

import numpy as np

from .exact_synth import ImpedanceProfile
from .geometry import AngularGrid
from .go_synth import GoProfile
from .optimizers import SynthesisResult
from .patterns import PatternGrid, PatternMetrics

__all__ = [
    "write_pattern_csv",
    "write_impedance_csv",
    "write_go_impedance_csv",
    "write_comparison_csv",
    "write_metrics_json",
    "write_result_json",
    "state_sets_text",
    "write_state_sets_json",
    "write_json",
]

# Rows per `write` call of a CSV writer: the text of one chunk is built at a
# time, never the whole file.
CHUNK_ROWS = 512


def _fmt(x: float) -> str:
    return repr(float(x))


@lru_cache(maxsize=2)  # a run writes one reporting grid; two bound the memory held
def _degree_cells(n_points: int) -> tuple:
    """The phi_deg column of every n-point grid, which only `AngularGrid.uniform` builds."""
    return tuple(map(repr, AngularGrid.uniform(n_points).degrees.tolist()))


def _write_rows(path, header: str, columns: list) -> None:
    """Write `header`, then row k joins the k-th cell of every column with commas.

    A column is either a sequence of cell strings or a numeric array, whose
    cells are the `repr` of its values (for a float array, `_fmt` of each).
    """
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with p.open("w") as fh:
        fh.write(header + "\n")
        for start in range(0, len(columns[0]), CHUNK_ROWS):
            cells = [
                map(repr, c[start : start + CHUNK_ROWS].tolist())
                if isinstance(c, np.ndarray)
                else c[start : start + CHUNK_ROWS]
                for c in columns
            ]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_json(path, payload) -> None:
    """Write `payload`, a dict or the text `_json_text` already made of one."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(payload if isinstance(payload, str) else _json_text(payload))


def write_pattern_csv(path, pattern: PatternGrid) -> None:
    """Columns: phi_deg, re_F, im_F, mag_db (peak-normalized)."""
    f = pattern.f
    _write_rows(
        path,
        "phi_deg,re_F,im_F,mag_db",
        [_degree_cells(len(pattern.grid)), f.real, f.imag, pattern.magnitude_db()],
    )


def _write_impedance_rows(path, profile, flags, flag_column: str) -> None:
    """Columns: phi_deg, re_Z_over_eta0, im_Z_over_eta0, then `flag_column` (0/1)."""
    z = profile.z_over_eta0
    _write_rows(
        path,
        f"phi_deg,re_Z_over_eta0,im_Z_over_eta0,{flag_column}",
        [_degree_cells(len(profile.grid)), z.real, z.imag, np.asarray(flags, dtype=int)],
    )


def write_impedance_csv(path, profile: ImpedanceProfile) -> None:
    """Columns: phi_deg, re_Z_over_eta0, im_Z_over_eta0, pole_flag."""
    _write_impedance_rows(path, profile, profile.pole_mask, "pole_flag")


def write_go_impedance_csv(path, profile: GoProfile) -> None:
    """Columns: phi_deg, re_Z_over_eta0, im_Z_over_eta0, singular_flag."""
    _write_impedance_rows(path, profile, profile.singular_mask, "singular_flag")


COMPARISON_COLUMNS = (
    "method",
    "phi_o_deg",
    "peak_db",
    "sll_db",
    "pointing_err_deg",
    "beamwidth_deg",
    "target_level_abs_db",
    "target_level_norm_db",
)


def _cell(v) -> str:
    return "" if v is None else (v if isinstance(v, str) else _fmt(v))


def write_comparison_csv(path, comparison: dict) -> None:
    """One row per comparison entry, in COMPARISON_COLUMNS; a None is an empty cell."""
    rows = comparison["rows"]
    _write_rows(
        path,
        ",".join(COMPARISON_COLUMNS),
        [[_cell(r[c]) for r in rows] for c in COMPARISON_COLUMNS],
    )


def write_metrics_json(path, metrics: PatternMetrics) -> None:
    write_json(path, metrics.to_dict())


def _objective_db(result: SynthesisResult) -> float | None:
    """The sidelobe-ratio objective in dB; None unless it is positive and finite."""
    v = result.objective
    return 20.0 * math.log10(v) if math.isfinite(v) and v > 0 else None


def state_sets_text(array, state_sets, metadata: dict) -> str:
    """The states.json text: an audit export of the per-element resolved state sets.

    The bytes are `_json_text` of {"metadata": metadata, "elements": [{"index": n,
    "alpha_deg": ..., "states": [{"re": ..., "im": ...}, ...]}, ...]}, the
    (N, L) `state_sets` holding L >= 2 finite values each. That fixed shape is
    formatted here, as json's indenting encoder is pure Python.
    """
    elements = []
    for n, (alpha, states) in enumerate(zip(np.degrees(array.alphas).tolist(), state_sets)):
        cells = ",\n".join(
            f'        {{\n          "im": {im!r},\n          "re": {re!r}\n        }}'
            for re, im in zip(states.real.tolist(), states.imag.tolist())
        )
        elements.append(
            f'    {{\n      "alpha_deg": {alpha!r},\n      "index": {n},\n'
            f'      "states": [\n{cells}\n      ]\n    }}'
        )
    meta = _json_text(metadata).rstrip("\n").replace("\n", "\n  ")  # nested one level
    return '{\n  "elements": [\n' + ",\n".join(elements) + f'\n  ],\n  "metadata": {meta}\n}}\n'


def write_state_sets_json(path, text: str) -> None:
    """Write a `state_sets_text` export."""
    write_json(path, text)


def write_result_json(path, result: SynthesisResult) -> None:
    payload = {
        "method": result.method,
        "objective": result.objective if math.isfinite(result.objective) else None,
        "objective_db": _objective_db(result),
        "evaluations": result.evaluations,
        "rng_seed": result.rng_seed,
        "gamma": [
            {"state_index": int(i), "re": float(g.real), "im": float(g.imag)}
            for i, g in zip(result.state_indices, result.gamma)
        ],
    }
    write_json(path, payload)
