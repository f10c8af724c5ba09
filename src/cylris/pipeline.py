"""Batch pipelines: one synthesis run, sweeps, comparisons, self-validation.

A run writes pattern.csv, metrics.json, result.json (discrete methods),
impedance.csv (continuous syntheses) and manifest.json into its output
directory. The manifest embeds the fully resolved config; re-running from
it reproduces the other artifacts byte for byte, so no artifact records a
clock.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy

from . import __version__, exact_synth, go_synth, io, meta_atom, optimizers, specfun
from .config import RunConfig
from .discrete_model import build_array, far_field_discrete, reference_window, steering_vector
from .errors import ConfigError
from .geometry import AngularGrid, CylinderGeometry, SteeringSpec, exclusion_set_mask, wrap_angle
from .patterns import pattern_metrics

__all__ = ["run_single", "run_sweep", "build_comparison", "run_validation", "write_manifest"]


class _ArrayContext:
    """The per-array work of a run, built on first use and then kept.

    Every case of a sweep shares one geometry, array, element pattern and
    set of grid sizes, so `run_sweep` hands one context to all of them: each
    steering table (keyed by grid size) and the boresight reference window
    are built once. `clear` drops the kept arrays; the context rebuilds them
    on demand.
    """

    def __init__(self, cfg: RunConfig):
        self.geom = CylinderGeometry(**cfg.geometry)
        self.array = (
            None if cfg.array is None
            else build_array(self.geom, cfg.array["n_elements"], cfg.array["arc_pitch_m"])
        )
        self.element_pattern = None if cfg.array is None else cfg.array["element_pattern"]
        self._kept: dict = {}

    def _once(self, key, build):
        if key not in self._kept:
            self._kept[key] = build()
        return self._kept[key]

    def table(self, n_points: int):
        return self._once(
            n_points,
            lambda: steering_vector(self.array, AngularGrid.uniform(n_points), self.element_pattern),
        )

    def reference_window(self) -> float:
        """The boresight null-based lobe width (`reference_window` at factor 1)."""
        return self._once("reference", lambda: reference_window(self.array, factor=1.0))

    def clear(self) -> None:
        self._kept.clear()


def _state_table(cfg: RunConfig) -> meta_atom.StateTable:
    if cfg.meta_atom["model"] == "table":
        return meta_atom.load_state_table(cfg.meta_atom["table_path"])
    return meta_atom.ideal_one_bit(taper=cfg.meta_atom["model"])


def _delta_phi(cfg: RunConfig, ctx: _ArrayContext) -> float:
    if cfg.steering["delta_phi_mode"] == "absolute_deg":
        return float(np.radians(cfg.steering["value"]))
    if ctx.array is None:
        raise ConfigError("delta_phi_mode 'ref_factor' needs an array block")
    return cfg.steering["value"] * ctx.reference_window()


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


def write_manifest(path, cfg: RunConfig, command: str, extra: dict | None = None) -> None:
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
    if extra:
        payload.update(extra)
    io.write_json(path, payload)


def _run_continuous(
    cfg: RunConfig, ctx: _ArrayContext, method: str, phi_o: float, spec: SteeringSpec, outdir: Path
):
    geom = ctx.geom
    n_points = cfg.output["grid_points"]
    need = exact_synth.required_grid_points(geom.k0r, method)
    if n_points < need:
        raise ConfigError(f"output.grid_points: {method} at k0R = {geom.k0r:.4g} needs >= {need}")
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
    m = pattern_metrics(pattern, spec)
    io.write_pattern_csv(outdir / "pattern.csv", pattern)
    io.write_metrics_json(outdir / "metrics.json", m)
    return pattern, m, None


# method name -> optimizer. Looked up on the module at call time, so a
# wrapper bound to `optimizers.<name>` sees every call.
_OPTIMIZERS = {
    "es": "exhaustive_search",
    "ga": "ga_synthesize",
    "mpdr": "mpdr_synthesize",
    "go_q": "go_quantized",
}


def _run_discrete(
    cfg: RunConfig, ctx: _ArrayContext, method: str, phi_o: float, spec: SteeringSpec, outdir: Path
):
    if method != "mpdr":  # mpdr scores on no grid
        _require_window_sample(spec, cfg.output["objective_grid_points"], "objective_grid_points")
    state_table = _state_table(cfg)
    states = meta_atom.state_sets_for_array(state_table, ctx.array)
    io.write_state_sets_json(outdir / "states.json", ctx.array, states, state_table.metadata)
    synthesize = getattr(optimizers, _OPTIMIZERS[method])
    table = ctx.table(cfg.output["objective_grid_points"])
    result = synthesize(table, spec, states, **cfg.params_for(method))
    pattern = far_field_discrete(ctx.table(cfg.output["grid_points"]), result.gamma)
    m = pattern_metrics(pattern, spec)
    io.write_pattern_csv(outdir / "pattern.csv", pattern)
    io.write_metrics_json(outdir / "metrics.json", m)
    io.write_result_json(outdir / "result.json", result)
    return pattern, m, result


def run_single(cfg: RunConfig, outdir=None, command: str = "synth", _context=None):
    """Run one (method, steering angle) synthesis and write its artifacts.

    `_context` is the per-array work `run_sweep` shares between the cases of
    one sweep; without it the run builds its own.
    """
    for key, axis in (("method.name", cfg.methods), ("steering.phi_o_deg", cfg.phi_o_deg)):
        if len(axis) != 1:
            raise ConfigError(
                f"{key}: one run takes one entry, got {len(axis)}; sweep runs a list"
            )
    ctx = _context if _context is not None else _ArrayContext(cfg)
    method = cfg.methods[0]
    phi_o = float(np.radians(cfg.phi_o_deg[0]))
    spec = SteeringSpec(phi_o=phi_o, delta_phi=_delta_phi(cfg, ctx))
    _require_window_sample(spec, cfg.output["grid_points"], "grid_points")
    if ctx.array is not None:
        spec.warn_if_below_reference(ctx.reference_window())
    outdir = Path(outdir if outdir is not None else cfg.output["directory"])
    outdir.mkdir(parents=True, exist_ok=True)
    run = _run_continuous if method in ("exact", "go") else _run_discrete
    pattern, m, result = run(cfg, ctx, method, phi_o, spec, outdir)
    write_manifest(outdir / "manifest.json", cfg, command)
    return {
        "method": method,
        "phi_o_deg": cfg.phi_o_deg[0],
        "delta_phi_deg": float(np.degrees(spec.delta_phi)),
        "outdir": str(outdir),
        "metrics": m.to_dict(),
        "result": result,
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
    ctx = _ArrayContext(cfg)  # every case shares the array; emptied on return
    try:
        for method in cfg.methods:
            for phi_deg, label in zip(cfg.phi_o_deg, labels):
                sub = outdir / f"{method}_phi{label}"
                output = {**cfg.output, "directory": str(sub)}
                one = replace(cfg, methods=(method,), phi_o_deg=(phi_deg,), output=output)
                entries.append(run_single(one, outdir=sub, command="sweep", _context=ctx))
    finally:
        ctx.clear()
    comparison = build_comparison(entries)
    io.write_json(outdir / "comparison.json", comparison)
    _write_comparison_csv(outdir / "comparison.csv", comparison)
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


_COMPARISON_COLUMNS = (
    "method",
    "phi_o_deg",
    "peak_db",
    "sll_db",
    "pointing_err_deg",
    "beamwidth_deg",
    "target_level_abs_db",
    "target_level_norm_db",
)


def _write_comparison_csv(path, comparison: dict) -> None:
    lines = [",".join(_COMPARISON_COLUMNS)]
    for r in comparison["rows"]:
        cells = []
        for c in _COMPARISON_COLUMNS:
            v = r[c]
            cells.append("" if v is None else (v if isinstance(v, str) else repr(float(v))))
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")


def compare_runs(run_dirs: list, outdir) -> dict:
    """Merge previously written runs; geometries and grids must match."""
    import json

    entries = []
    fingerprints = set()
    for d in run_dirs:
        d = Path(d)
        manifest = json.loads((d / "manifest.json").read_text())
        met = json.loads((d / "metrics.json").read_text())
        conf = manifest["config"]
        fingerprints.add(
            (
                conf["geometry"]["radius_m"],
                conf["geometry"]["freq_hz"],
                json.dumps(conf.get("array"), sort_keys=True),
                conf["output"]["grid_points"],
            )
        )
        entries.append(
            {
                "method": conf["method"]["name"][0],
                "phi_o_deg": conf["steering"]["phi_o_deg"][0],
                "metrics": met,
            }
        )
    if len(fingerprints) > 1:
        raise ConfigError("runs were produced with different geometry/array/grid settings")
    comparison = build_comparison(entries)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    io.write_json(outdir / "comparison.json", comparison)
    _write_comparison_csv(outdir / "comparison.csv", comparison)
    return comparison


# --- self-validation ---------------------------------------------------------


def run_validation(radius_m: float = 0.4, freq_hz: float = 3.6e9) -> list[tuple[str, bool, str]]:
    """Identity and boundary-condition suites; returns (name, ok, detail)."""
    geom = CylinderGeometry(radius_m=radius_m, freq_hz=freq_hz)
    x = geom.k0r
    checks: list[tuple[str, bool, str]] = []

    ms = np.arange(0, int(np.ceil(1.5 * x)) + 1)
    worst = 0.0
    for xi in (1.0, 10.0, x, 100.0):
        wr = specfun.bessel_j(ms, xi) * specfun.bessel_y_prime(ms, xi) - specfun.bessel_j_prime(
            ms, xi
        ) * specfun.bessel_y(ms, xi)
        target = 2.0 / (np.pi * xi)
        worst = max(worst, float(np.max(np.abs(wr - target) / target)))
    checks.append(("wronskian_identity", worst < 1e-10, f"max rel err {worst:.2e}"))

    order = specfun.truncation_order(x)
    grid = AngularGrid.uniform(721)
    phi = grid.values
    rec = specfun.jacobi_anger(x, phi, order)
    err = float(np.abs(rec - np.exp(1j * x * np.cos(phi))).max())
    checks.append(("jacobi_anger_reconstruction", err < 1e-8, f"max abs err {err:.2e}"))

    mm = np.arange(1, 13)
    sym = specfun.bessel_j(-mm, x) == ((-1.0) ** mm) * specfun.bessel_j(mm, x)
    checks.append(("negative_order_symmetry", bool(np.all(sym)), f"{int(sym.sum())}/{mm.size} exact"))

    worst = 0.0
    for deg in (15.0, 45.0, 75.0):
        phi_o = np.radians(deg)
        expansion = exact_synth.modal_coefficients(geom, phi_o)
        e = exact_synth.scattered_surface_field(geom, expansion, grid)
        worst = max(worst, float(np.abs(e - np.exp(-1j * x * np.cos(phi - phi_o))).max()))
    checks.append(("surface_field_identity", worst < 1e-6, f"max abs err {worst:.2e}"))

    grid = AngularGrid.uniform(3601)
    expansion = exact_synth.modal_coefficients(geom, np.radians(15.0))
    profile = exact_synth.surface_impedance(geom, expansion, grid)
    res = exact_synth.boundary_residual(geom, expansion, profile)
    worst = float(np.nanmax(res))
    checks.append(("boundary_residual", worst < 1e-8, f"max residual {worst:.2e}"))

    go_profile = go_synth.go_impedance(geom, np.radians(15.0), grid)
    ok_mask = ~go_profile.singular_mask
    re_worst = float(np.abs(go_profile.z_over_eta0.real[ok_mask]).max())
    checks.append(("go_purely_imaginary", re_worst < 1e-12, f"max |Re| {re_worst:.2e}"))

    z = go_profile.z_over_eta0[ok_mask]
    zw = 1.0 / np.cos(grid.values[ok_mask])
    gamma_rt = (z - zw) / (z + zw)
    rt_err = float(np.abs(gamma_rt - go_profile.gamma[ok_mask]).max())
    checks.append(("go_round_trip_identity", rt_err < 1e-10, f"max abs err {rt_err:.2e}"))

    return checks
