"""Batch pipelines: one synthesis run, sweeps, comparisons, self-validation.

Every method takes one case path: `_synthesize` writes the files that the
method alone produces (impedance.csv for exact and go; states.json and
result.json for the discrete methods), and `run_single` writes pattern.csv,
metrics.json and manifest.json. The manifest embeds the fully resolved
config; re-running from it reproduces the other artifacts byte for byte, so
no artifact records a clock. `compare` reads it as `--from-manifest` does.
Per-array work is cached by value, as `exact_synth` caches its Bessel table.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np
import scipy

from . import __version__, exact_synth, go_synth, io, meta_atom, optimizers
from .config import DISCRETE_METHODS, RunConfig, load_manifest, read_json
from .discrete_model import (
    REFERENCE_GRID_POINTS,
    ElementArray,
    SteeringVectorTable,
    far_field_discrete,
    reference_beamwidth,
    steering_vector,
    steering_vector_at,
)
from .errors import ConfigError
from .geometry import AngularGrid, CylinderGeometry, SteeringSpec, exclusion_set_mask, wrap_angle
from .patterns import pattern_metrics

__all__ = ["run_single", "run_sweep", "build_comparison", "run_validation", "write_manifest"]


@lru_cache(maxsize=2)  # a sweep has one array; two bound the memory held
def _steering_table(array: ElementArray, n_points: int) -> SteeringVectorTable:
    """The steering table of `array` on the n_points grid, read-only and built
    once per (array, grid size) in a process."""
    table = steering_vector(array, AngularGrid.uniform(n_points))
    table.a.flags.writeable = False
    return table


@lru_cache(maxsize=2)
def _reference_lobe(array: ElementArray) -> float:
    """The boresight null-based lobe width (`reference_window` at factor 1)."""
    return reference_beamwidth(_steering_table(array, REFERENCE_GRID_POINTS), 0.0)


def _delta_phi(cfg: RunConfig, array: ElementArray | None) -> float:
    if cfg.steering["delta_phi_mode"] == "absolute_deg":
        return float(np.radians(cfg.steering["value"]))
    return cfg.steering["value"] * _reference_lobe(array)


def _require_window_sample(spec: SteeringSpec, n_points: int, key: str) -> None:
    """Refuse a grid with no sample inside the protected window or none outside it.

    Either way the sidelobe ratio is not defined on that grid.
    """
    excl = exclusion_set_mask(spec, AngularGrid.uniform(n_points))
    if excl.all():
        raise ConfigError(
            f"output.{key}: no sample of the {n_points}-point grid lies inside the "
            f"{np.degrees(spec.delta_phi):.4g} deg protected window"
        )
    if not excl.any():
        raise ConfigError(
            f"steering.value: the {np.degrees(spec.delta_phi):.4g} deg protected window "
            f"leaves no sample of the {n_points}-point output.{key} grid outside it"
        )


def write_manifest(path, cfg: RunConfig, command: str) -> None:
    payload = {
        "tool": "cylris",
        "version": __version__,
        "command": command,
        "config": cfg.resolved(),
        "environment": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    io.write_json(path, payload)


# discrete method -> optimizer. Looked up on the module at call time, so a
# wrapper bound to `optimizers.<name>` sees every call.
_OPTIMIZERS = dict(
    zip(DISCRETE_METHODS, ("exhaustive_search", "ga_synthesize", "mpdr_synthesize", "go_quantized"))
)


def _synthesize(
    cfg: RunConfig, geom, array, method: str, phi_o: float, spec: SteeringSpec, outdir: Path
):
    """Run `method`, write the files it alone produces, and return its pattern
    on the reporting grid: impedance.csv for exact and go, states.json and
    result.json for the discrete methods. Every grid it samples must have a
    sample inside the protected window and one outside, and resolve the
    cylinder's 2M+1 modes (the GO projection needs twice as many); a discrete
    method's steering angle must be faced by some element."""
    n_points = cfg.output["grid_points"]
    discrete = method in DISCRETE_METHODS
    need = exact_synth.required_grid_points(geom.k0r, "go" if method == "go" else "exact")
    for key in ("grid_points", "objective_grid_points") if discrete else ("grid_points",):
        _require_window_sample(spec, cfg.output[key], key)
        if cfg.output[key] < need:
            raise ConfigError(f"output.{key}: {method} at k0R = {geom.k0r:.4g} needs >= {need}")
    if discrete:
        if not steering_vector_at(array, phi_o).any():
            raise ConfigError(f"steering.phi_o_deg: no element faces {np.degrees(phi_o):g} deg")
        atom = cfg.meta_atom
        if atom["model"] == "table":
            state_table = meta_atom.load_state_table(atom["table_path"])
        else:
            state_table = meta_atom.ideal_one_bit(taper=atom["model"])
        states = meta_atom.state_sets_for_array(state_table, array)
        states_text = io.state_sets_text(array, states, state_table.metadata)
        io.write_state_sets_json(outdir / "states.json", states_text)
        synthesize = getattr(optimizers, _OPTIMIZERS[method])
        table = _steering_table(array, cfg.output["objective_grid_points"])
        result = synthesize(table, spec, states, **cfg.params_for(method))
        io.write_result_json(outdir / "result.json", result)
        return far_field_discrete(_steering_table(array, n_points), result.gamma)
    grid = AngularGrid.uniform(n_points)
    if method == "exact":
        expansion = exact_synth.modal_coefficients(geom, phi_o)
        profile = exact_synth.surface_impedance(geom, expansion, grid)
        pattern = exact_synth.far_field_exact(expansion, grid)
        io.write_impedance_csv(outdir / "impedance.csv", profile)
    else:  # go
        profile = go_synth.go_impedance(geom, phi_o, grid)
        pattern = go_synth.far_field_po(geom, profile.gamma, grid, **cfg.params_for(method))
        io.write_go_impedance_csv(outdir / "impedance.csv", profile)
    return pattern


def run_single(cfg: RunConfig, outdir=None, command: str = "synth"):
    """Run one (method, steering angle) synthesis and write its artifacts.

    Steering tables and the reference lobe are cached by array value, so a
    sweep's cases, and later runs on its array, build each once; the state
    sets are resolved per case, so a state-table file is never read stale.
    """
    for key, axis in (("method.name", cfg.methods), ("steering.phi_o_deg", cfg.phi_o_deg)):
        if len(axis) != 1:
            raise ConfigError(
                f"{key}: one run takes one entry, got {len(axis)}; sweep runs a list"
            )
    geom = CylinderGeometry(**cfg.geometry)
    array = None if cfg.array is None else ElementArray(geom, **cfg.array)
    method = cfg.methods[0]
    phi_o = float(np.radians(cfg.phi_o_deg[0]))
    spec = SteeringSpec(phi_o=phi_o, delta_phi=_delta_phi(cfg, array))
    if array is not None:
        spec.warn_if_below_reference(_reference_lobe(array))
    outdir = Path(outdir if outdir is not None else cfg.output["directory"])
    outdir.mkdir(parents=True, exist_ok=True)
    pattern = _synthesize(cfg, geom, array, method, phi_o, spec, outdir)
    m = pattern_metrics(pattern, spec)
    io.write_pattern_csv(outdir / "pattern.csv", pattern)
    io.write_metrics_json(outdir / "metrics.json", m)
    write_manifest(outdir / "manifest.json", cfg, command)
    return {
        "method": method,
        "phi_o_deg": cfg.phi_o_deg[0],
        "delta_phi_deg": float(np.degrees(spec.delta_phi)),
        "outdir": str(outdir),
        "metrics": m.to_dict(),
    }


def run_sweep(cfg: RunConfig, outdir=None):
    """Run every (method x steering angle) combination plus a comparison.

    Each case writes into `<method>_phi<angle:g>`; angles whose labels
    coincide are refused before any case runs.
    """
    labels = [f"{phi_deg:g}" for phi_deg in cfg.phi_o_deg]
    if len(set(labels)) != len(labels):
        raise ConfigError(
            f"steering.phi_o_deg: {list(cfg.phi_o_deg)} give the run directory labels "
            f"{labels}, which repeat; angles must differ in their first 6 significant digits"
        )
    outdir = Path(outdir if outdir is not None else cfg.output["directory"])
    outdir.mkdir(parents=True, exist_ok=True)
    entries = []
    for method in cfg.methods:
        for phi_deg, label in zip(cfg.phi_o_deg, labels):
            sub = outdir / f"{method}_phi{label}"
            output = {**cfg.output, "directory": str(sub)}
            one = replace(cfg, methods=(method,), phi_o_deg=(phi_deg,), output=output)
            entries.append(run_single(one, outdir=sub, command="sweep"))
    comparison = build_comparison(entries)
    io.write_json(outdir / "comparison.json", comparison)
    io.write_comparison_csv(outdir / "comparison.csv", comparison)
    write_manifest(outdir / "manifest.json", cfg, "sweep")
    return {"outdir": str(outdir), "comparison": comparison, "entries": entries}


def build_comparison(entries: list[dict]) -> dict:
    """Merge per-run summaries into one table under a shared normalization.

    Absolute target levels are re-referenced to the maximum observed at the
    smallest steering angle present, mirroring how cross-method main-beam
    comparisons are normally plotted.
    """
    if not entries:
        raise ConfigError("nothing to compare")
    rows = []
    for e in entries:
        met = e["metrics"]
        peak_db = met["peak_db"]
        tgt_rel = met["target_level_db"]
        abs_target = None if peak_db is None or tgt_rel is None else peak_db + tgt_rel
        rows.append(
            {
                "method": e["method"],
                "phi_o_deg": e["phi_o_deg"],
                "peak_db": peak_db,
                "sll_db": met["sll_db"],
                "pointing_err_deg": abs(
                    float(np.degrees(wrap_angle(np.radians(met["peak_dir_deg"] - e["phi_o_deg"]))))
                ),
                "beamwidth_deg": met["beamwidth_deg"],
                "target_level_abs_db": abs_target,
            }
        )
    angle_min = min(r["phi_o_deg"] for r in rows)
    ref_levels = [
        r["target_level_abs_db"]
        for r in rows
        if r["phi_o_deg"] == angle_min and r["target_level_abs_db"] is not None
    ]
    ref = max(ref_levels) if ref_levels else None
    for r in rows:
        r["target_level_norm_db"] = (
            None if ref is None or r["target_level_abs_db"] is None
            else r["target_level_abs_db"] - ref
        )
    rows.sort(key=lambda r: (r["method"], r["phi_o_deg"]))
    return {"reference_level_db": ref, "rows": rows}


_METRIC_KEYS = ("peak_db", "peak_dir_deg", "sll_db", "beamwidth_deg", "target_level_db")


def _read_run(run_dir) -> tuple[tuple, dict]:
    """The (settings fingerprint, comparison entry) of one written run."""
    cfg = load_manifest(Path(run_dir) / "manifest.json")
    metrics_path = Path(run_dir) / "metrics.json"
    met = read_json(metrics_path)
    for key in _METRIC_KEYS:
        if not isinstance(met, dict) or key not in met:
            raise ConfigError(f"{metrics_path}: missing key {key!r}")
        v = met[key]
        number = isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
        if not number and (v is not None or key == "peak_dir_deg"):
            raise ConfigError(f"{metrics_path}: {key}: expected a number, got {json.dumps(v)}")
    fingerprint = (json.dumps([cfg.geometry, cfg.array], sort_keys=True), cfg.output["grid_points"])
    entry = {
        "method": cfg.methods[0],
        "phi_o_deg": cfg.phi_o_deg[0],
        "metrics": {key: met[key] for key in _METRIC_KEYS},
    }
    return fingerprint, entry


def compare_runs(run_dirs: list, outdir) -> dict:
    """Merge previously written runs; geometries and grids must match.

    A manifest is read as `synth --from-manifest` reads it. A metric that is
    missing, or not a finite number (null, a non-finite value, is allowed but
    for peak_dir_deg), is a ConfigError; every error names the file and key.
    """
    runs = [_read_run(d) for d in run_dirs]
    if len({fingerprint for fingerprint, _ in runs}) > 1:
        raise ConfigError("runs were produced with different geometry/array/grid settings")
    comparison = build_comparison([entry for _, entry in runs])
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    io.write_json(outdir / "comparison.json", comparison)
    io.write_comparison_csv(outdir / "comparison.csv", comparison)
    return comparison


# --- self-validation ---------------------------------------------------------


def run_validation(radius_m: float = 0.4, freq_hz: float = 3.6e9) -> list[tuple[str, bool, str]]:
    """Four checks of the exact and GO models of one cylinder; (name, ok, detail) each.

    All four sample one grid of max(3601, the GO grid rule) points, so every
    check resolves the modes of the cylinder it is given. The Bessel
    identities check scipy, not the model, so the test suite runs them.
    """
    geom = CylinderGeometry(radius_m=radius_m, freq_hz=freq_hz)
    x = geom.k0r
    checks: list[tuple[str, bool, str]] = []

    grid = AngularGrid.uniform(max(3601, exact_synth.required_grid_points(x, "go")))
    phi = grid.values
    worst = 0.0
    for deg in (15.0, 45.0, 75.0):
        phi_o = np.radians(deg)
        expansion = exact_synth.modal_coefficients(geom, phi_o)
        e = exact_synth.scattered_surface_field(geom, expansion, grid)
        worst = max(worst, float(np.abs(e - np.exp(-1j * x * np.cos(phi - phi_o))).max()))
    checks.append(("surface_field_identity", worst < 1e-6, f"max abs err {worst:.2e}"))

    expansion = exact_synth.modal_coefficients(geom, np.radians(15.0))
    profile = exact_synth.surface_impedance(geom, expansion, grid)
    res = exact_synth.boundary_residual(geom, expansion, profile)
    worst = float(np.nanmax(res))
    checks.append(("boundary_residual", worst < 1e-8, f"max residual {worst:.2e}"))

    go_profile = go_synth.go_impedance(geom, np.radians(15.0), grid)
    ok_mask = ~go_profile.singular_mask
    if not ok_mask.any():  # a tiny cylinder: every sample is singular
        return checks + [
            (name, False, "no non-singular sample")
            for name in ("go_purely_imaginary", "go_round_trip_identity")
        ]
    re_worst = float(np.abs(go_profile.z_over_eta0.real[ok_mask]).max())
    checks.append(("go_purely_imaginary", re_worst < 1e-12, f"max |Re| {re_worst:.2e}"))

    z = go_profile.z_over_eta0[ok_mask]
    zw = 1.0 / np.cos(grid.values[ok_mask])
    gamma_rt = (z - zw) / (z + zw)
    rt_err = float(np.abs(gamma_rt - go_profile.gamma[ok_mask]).max())
    checks.append(("go_round_trip_identity", rt_err < 1e-10, f"max abs err {rt_err:.2e}"))

    return checks
