"""Benchmark workloads: the run configs each workload feeds the library.

Every config is generated from (workload, seed, pass index), so the same seed
gives the same inputs. A pass is one `run_sweep` call; each pass draws fresh
steering angles (and a fresh GA seed), so no two passes of a run repeat a
case. See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import os
import random
from pathlib import Path

NAMES = ("mpdr_sweep", "method_sweep", "exact_go", "es_search")

# Steering angles are drawn one per equal-width stratum of this range, so
# every pass covers near-broadside and far-steered beams alike.
ANGLE_RANGE_DEG = (10.0, 75.0)

# The shipped full-scale array: 40 cm cylinder at 3.6 GHz, 38 mm arc pitch.
_SHIPPED_GEOMETRY = {"radius_m": 0.4, "freq_hz": 3.6e9}
_SHIPPED_ARRAY = {"n_elements": 30, "arc_pitch_m": 0.038}

# Smoke sizes: the toy_es instance (8 elements on a 12 cm cylinder) and
# coarse grids, so a smoke pass takes milliseconds.
_SMOKE_GEOMETRY = {"radius_m": 0.12, "freq_hz": 3.6e9}
_SMOKE_ARRAY = {"n_elements": 8, "arc_pitch_m": 0.038}
_SMOKE_OUTPUT = {"grid_points": 361, "objective_grid_points": 181, "sigma_grid_points": 1440}


def _angles(rng: random.Random, n: int) -> list[float]:
    lo, hi = ANGLE_RANGE_DEG
    width = (hi - lo) / n
    return [round(lo + (i + rng.random()) * width, 2) for i in range(n)]


def _mpdr_sweep(rng, smoke, root):
    return {
        "geometry": dict(_SMOKE_GEOMETRY if smoke else _SHIPPED_GEOMETRY),
        "array": dict(_SMOKE_ARRAY if smoke else _SHIPPED_ARRAY),
        "steering": {"phi_o_deg": _angles(rng, 4), "delta_phi_mode": "ref_factor", "value": 1.2},
        "meta_atom": {"model": "constant"},
        "method": {"name": ["mpdr", "go_q"]},
        "output": dict(_SMOKE_OUTPUT) if smoke else {},
    }


def _method_sweep(rng, smoke, root):
    import yaml

    raw = yaml.safe_load((root / "configs" / "method_sweep.yaml").read_text())
    raw["steering"]["phi_o_deg"] = _angles(rng, len(raw["steering"]["phi_o_deg"]))
    raw["method"]["seed"] = rng.randrange(2**31)
    if smoke:
        raw["geometry"] = dict(_SMOKE_GEOMETRY)
        raw["array"] = dict(_SMOKE_ARRAY)
        raw["method"].update(population=20, generations=3)
        raw["output"] = dict(_SMOKE_OUTPUT)
    return raw


def _exact_go(rng, smoke, root):
    # k0R ~ 754 at full size (1 m at 36 GHz): 2M+1 = 1639 modes, and the
    # default 3601-point grid meets the GO rule of 2(2M+1) samples.
    # shadow_model "none": with the default shadow-cancelling current the
    # forward lobe at 180 deg is the global peak, so SLL and pointing would
    # describe the shadow model instead of the synthesized beam. Both models
    # run the same modal sums.
    return {
        "geometry": {"radius_m": 0.05 if smoke else 1.0, "freq_hz": 36e9},
        "steering": {"phi_o_deg": _angles(rng, 2), "delta_phi_mode": "absolute_deg", "value": 2.0},
        "method": {"name": ["exact", "go"], "shadow_model": "none"},
        "output": {"grid_points": 721} if smoke else {},
    }


def _es_search(rng, smoke, root):
    # 20 elements: 2^20 evaluations; one angle per pass, fanned out over
    # every CPU the process may use.
    return {
        "geometry": dict(_SMOKE_GEOMETRY if smoke else _SHIPPED_GEOMETRY),
        "array": dict(_SMOKE_ARRAY) if smoke else {"n_elements": 20, "arc_pitch_m": 0.038},
        "steering": {"phi_o_deg": _angles(rng, 1), "delta_phi_mode": "ref_factor", "value": 1.2},
        "meta_atom": {"model": "constant"},
        "method": {"name": "es", "workers": es_workers()},
        "output": dict(_SMOKE_OUTPUT) if smoke else {},
    }


_BUILDERS = {
    "mpdr_sweep": _mpdr_sweep,
    "method_sweep": _method_sweep,
    "exact_go": _exact_go,
    "es_search": _es_search,
}


def es_workers() -> int:
    """ES process count: every CPU this process may run on (`nproc`)."""
    return len(os.sched_getaffinity(0))


def pass_config(name: str, seed: int, index: int, root: Path, smoke: bool = False) -> dict:
    """Raw config mapping for pass `index` of workload `name` under `seed`."""
    rng = random.Random(f"{name}/{seed}/{index}")
    return _BUILDERS[name](rng, smoke, Path(root))
