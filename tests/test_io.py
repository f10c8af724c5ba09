"""The artifact writers: the same bytes as the per-row loop writers they
replaced, and no state carried between runs of one process."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from cylris import (
    AngularGrid,
    CylinderGeometry,
    ElementArray,
    GoProfile,
    ImpedanceProfile,
    StateTable,
    ideal_one_bit,
    io,
    state_sets_for_array,
)
from cylris.cli import main
from cylris.patterns import PatternGrid

from oracles import (
    comparison_csv_loop,
    impedance_csv_loop,
    pattern_csv_loop,
    state_sets_payload,
)

REPO = Path(__file__).resolve().parents[1]

# Grids on both sides of every chunk edge the writers meet.
SIZES = sorted({2, 3, 361, 3601, io.CHUNK_ROWS - 1, io.CHUNK_ROWS, io.CHUNK_ROWS + 1})
# Floats whose repr is easy to get wrong: signed zero, the smallest
# subnormal, exponent forms on both sides, and the non-finite values
# (-inf is mag_db at a zero sample, nan a pole row of impedance.csv).
FINITE_EDGES = [0.0, -0.0, 5e-324, 1e16, 1e-5]
EDGES = FINITE_EDGES + [-np.inf, np.nan]


def _column(n: int, edges: list, seed: int) -> np.ndarray:
    """Seeded normals spanning many decades, with `edges` at random rows."""
    rng = np.random.default_rng(seed)
    col = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
    rows = rng.choice(n, size=min(n, len(edges)), replace=False)
    col[rows] = edges[: rows.size]
    return col


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """re + j im with both parts kept as given (no arithmetic on inf, nan or -0.0)."""
    out = np.empty(re.size, dtype=complex)
    out.real, out.imag = re, im
    return out


def _pattern(n: int) -> PatternGrid:
    f = _complex(_column(n, FINITE_EDGES, 1), _column(n, FINITE_EDGES[::-1], 2))
    f[n // 2] = complex(0.0, -0.0)  # a zero sample: mag_db is -inf there
    return PatternGrid(grid=AngularGrid.uniform(n), f=f)


def _impedance(n: int) -> tuple[np.ndarray, np.ndarray]:
    z = _complex(_column(n, EDGES, 3), _column(n, EDGES[::-1], 4))
    flags = np.random.default_rng(5).random(n) < 0.1
    z[flags] = np.nan
    return z, flags


@pytest.mark.parametrize("n", SIZES)
class TestCsvWritersMatchRowLoops:
    def test_pattern(self, n, tmp_path):
        pattern = _pattern(n)
        assert np.isneginf(pattern.magnitude_db()).any()
        io.write_pattern_csv(tmp_path / "new.csv", pattern)
        pattern_csv_loop(tmp_path / "loop.csv", pattern)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()

    def test_exact_impedance(self, n, tmp_path):
        z, poles = _impedance(n)
        profile = ImpedanceProfile(grid=AngularGrid.uniform(n), z_over_eta0=z, pole_mask=poles)
        io.write_impedance_csv(tmp_path / "new.csv", profile)
        impedance_csv_loop(tmp_path / "loop.csv", profile, profile.pole_mask, "pole_flag")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()

    def test_go_impedance(self, n, tmp_path):
        z, singular = _impedance(n)
        profile = GoProfile(
            grid=AngularGrid.uniform(n),
            gamma=np.ones(n, dtype=complex),
            z_over_eta0=z,
            singular_mask=singular,
        )
        io.write_go_impedance_csv(tmp_path / "new.csv", profile)
        impedance_csv_loop(tmp_path / "loop.csv", profile, singular, "singular_flag")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()

    def test_comparison(self, n, tmp_path):
        cells = {c: _column(n, EDGES, k).tolist() for k, c in enumerate(io.COMPARISON_COLUMNS)}
        rows = [{c: cells[c][i] for c in io.COMPARISON_COLUMNS} for i in range(n)]
        for i, r in enumerate(rows):
            r["method"] = ("ga", "mpdr", "go_q")[i % 3]
            r["beamwidth_deg"] = None if i % 4 == 0 else r["beamwidth_deg"]
            r["target_level_norm_db"] = None if i % 5 == 1 else r["target_level_norm_db"]
        comparison = {"reference_level_db": None, "rows": rows}
        io.write_comparison_csv(tmp_path / "new.csv", comparison)
        comparison_csv_loop(tmp_path / "loop.csv", comparison, io.COMPARISON_COLUMNS)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()

    def test_cached_degree_column_is_the_grid(self, n):
        fresh = tuple(repr(float(d)) for d in AngularGrid.uniform(n).degrees)
        assert io._degree_cells(n) == fresh


# A 4-state, angle-independent table, so every element carries its values
# verbatim: repr forms that are easy to get wrong (signed zero, the smallest
# subnormal, an exponent form), with metadata that nests, escapes and sorts.
FOUR_STATES = StateTable(
    angles_deg=[0.0],
    states=[[complex(-1.0, -0.0), complex(-0.0, 1.0), complex(5e-324, -1.0), 0.9 + 1e-5j]],
    metadata={
        "patch_side_mm": 26.0,
        "diode": {"on": "series RL", "off": None, "pins": [1, 2]},
        "note": "line 1\nline \"2\" \u00b0",
        "bias_ok": True,
    },
)


@pytest.mark.parametrize(
    "n_elements, radius_m, table",
    [
        (8, 0.12, ideal_one_bit("constant")),
        (30, 0.4, ideal_one_bit("constant")),
        (30, 0.4, ideal_one_bit("cosine")),
        (8, 0.12, FOUR_STATES),
        (30, 0.4, FOUR_STATES),
    ],
    ids=["toy", "shipped", "shipped-cosine", "toy-4-states", "shipped-4-states"],
)
def test_state_sets_text_matches_json_reference(n_elements, radius_m, table):
    array = ElementArray(CylinderGeometry(radius_m, 3.6e9), n_elements, 0.038)
    sets = state_sets_for_array(table, array)
    expected = io._json_text(state_sets_payload(array, sets, table.metadata))
    assert io.state_sets_text(array, sets, table.metadata) == expected


# --- no state carried between runs of one process ---------------------------

_SHIPPED = {"radius_m": 0.4, "freq_hz": 3.6e9}
_TOY = {"radius_m": 0.12, "freq_hz": 3.6e9}


def _config(tmp_path, name, geometry, array, meta_atom, methods, phi, grid_points):
    cfg = {
        "geometry": geometry,
        "array": array,
        "steering": {"phi_o_deg": phi, "delta_phi_mode": "ref_factor", "value": 1.2},
        "meta_atom": meta_atom,
        "method": {"name": methods},
        "output": {"directory": str(tmp_path / name), "grid_points": grid_points,
                   "objective_grid_points": 361},
    }
    path = tmp_path / f"{name}.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


def test_runs_in_one_process_match_fresh_processes(tmp_path):
    """Sweeps that differ in array and state model, the first array swept again
    at other angles (its tables then come from the cache), then a standalone
    synth, all in this process: every case's files equal those of the same
    run in a fresh interpreter."""
    atom = tmp_path / "atom.csv"
    atom.write_text(
        "angle_deg,state_index,mag,phase_deg\n0,0,1.0,0\n0,1,1.0,180\n"
        "80,0,0.95,-20\n80,1,0.9,120\n"
    )
    runs = [
        ("sweep", _config(tmp_path, "shipped", _SHIPPED, {"n_elements": 30, "arc_pitch_m": 0.038},
                          {"model": "constant"}, ["mpdr", "go_q"], [20.0, 40.0], 721)),
        ("sweep", _config(tmp_path, "shipped_again", _SHIPPED,
                          {"n_elements": 30, "arc_pitch_m": 0.038}, {"model": "constant"},
                          ["mpdr", "go_q"], [25.0, 55.0], 721)),
        ("sweep", _config(tmp_path, "toy", _TOY, {"n_elements": 8, "arc_pitch_m": 0.038},
                          {"model": "table", "table_path": str(atom)}, ["mpdr", "go_q"],
                          [20.0, 40.0], 721)),
        ("synth", _config(tmp_path, "cos2", _TOY,
                          {"n_elements": 8, "arc_pitch_m": 0.038, "element_pattern": "cos2"},
                          {"model": "cosine"}, "mpdr", 30.0, 1441)),
    ]
    env = {**os.environ}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    for command, path in runs:
        here, fresh = tmp_path / "here" / path.stem, tmp_path / "fresh" / path.stem
        assert main([command, "-c", str(path), "-o", str(here)]) == 0
        subprocess.run(
            [sys.executable, "-m", "cylris.cli", command, "-c", str(path), "-o", str(fresh)],
            env=env, check=True, capture_output=True,
        )
        compared = 0
        for name in ("states.json", "result.json", "pattern.csv", "metrics.json"):
            for a in sorted(here.rglob(name)):
                b = fresh / a.relative_to(here)
                assert a.read_bytes() == b.read_bytes(), (path.stem, a.relative_to(here))
                compared += 1
        assert compared == (16 if command == "sweep" else 4)
