"""Run configuration: strict schema, YAML in degrees, radians inside.

Unknown keys are rejected everywhere so a typo never silently falls back to
a default. `resolved()` returns the fully defaulted dictionary that goes
into the run manifest; feeding that dictionary back reproduces the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import yaml

from .errors import ConfigError

__all__ = ["RunConfig", "load_config", "parse_config", "METHOD_NAMES"]

METHOD_NAMES = ("exact", "go", "es", "ga", "mpdr", "go_q")
DISCRETE_METHODS = ("es", "ga", "mpdr", "go_q")

_METHOD_PARAMS: dict[str, dict[str, tuple]] = {
    # name -> key -> (type, default)
    "exact": {},
    "go": {"shadow_model": (str, "cancel")},
    "es": {"budget": (int, 2**24), "workers": (int, 1)},
    "ga": {
        "population": (int, 1000),
        "generations": (int, 200),
        "p_crossover": (float, 0.9),
        "p_mutation": (float, 0.05),
        "seed": (int, 0),
    },
    "mpdr": {"psi_samples": (int, 360), "psi_refine": (int, 0)},
    "go_q": {},
}


def _require_mapping(obj, path: str) -> dict:
    if obj is None:
        return {}
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected a mapping")
    return obj


def _check_unknown(d: dict, allowed, path: str) -> None:
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {sorted(unknown)}; allowed: {sorted(allowed)}")


def _get(d: dict, key: str, typ, path: str, default=None, required: bool = False):
    if key not in d or d[key] is None:
        if required:
            raise ConfigError(f"{path}.{key}: required")
        return default
    v = d[key]
    if isinstance(v, bool) != (typ is bool):  # bool is an int subclass; never coerce it
        raise ConfigError(f"{path}.{key}: expected {typ.__name__}, got {type(v).__name__}")
    if typ is float and isinstance(v, int):
        v = float(v)
    if typ is float and isinstance(v, str):
        # YAML 1.1 reads exponents like 3.6e9 as strings; accept them anyway
        try:
            v = float(v)
        except ValueError:
            pass
    if typ is int and isinstance(v, float) and v.is_integer():
        v = int(v)
    if not isinstance(v, typ):
        raise ConfigError(f"{path}.{key}: expected {typ.__name__}, got {type(v).__name__}")
    if typ is float and not math.isfinite(v):
        raise ConfigError(f"{path}.{key}: must be finite, got {v}")
    return v


@dataclass(frozen=True)
class RunConfig:
    radius_m: float
    freq_hz: float
    phi_o_deg: tuple[float, ...]
    delta_phi_mode: str
    delta_phi_value: float
    methods: tuple[str, ...]
    method_params: dict
    output_dir: str
    grid_points: int
    objective_grid_points: int
    n_elements: int | None = None
    arc_pitch_m: float | None = None
    element_pattern: str = "cos"
    meta_atom_model: str = "constant"
    meta_atom_table: str | None = None

    def params_for(self, method: str) -> dict:
        """The parameters of one method, keyed by their `method` config keys."""
        return {key: self.method_params[key] for key in _METHOD_PARAMS[method]}

    def resolved(self) -> dict:
        """Fully defaulted config dictionary, the manifest's `config` entry.

        Only the parameters of `self.methods` are kept, so every manifest
        replays. The worker count is an execution detail, not configuration:
        parallel and serial runs must produce identical artifacts.
        """
        params = {
            k: v for m in self.methods for k, v in self.params_for(m).items() if k != "workers"
        }
        out = {
            "geometry": {"radius_m": self.radius_m, "freq_hz": self.freq_hz},
            "steering": {
                "phi_o_deg": list(self.phi_o_deg),
                "delta_phi_mode": self.delta_phi_mode,
                "value": self.delta_phi_value,
            },
            "method": {"name": list(self.methods), **params},
            "output": {
                "directory": self.output_dir,
                "grid_points": self.grid_points,
                "objective_grid_points": self.objective_grid_points,
            },
        }
        if self.n_elements is not None:
            out["array"] = {
                "n_elements": self.n_elements,
                "arc_pitch_m": self.arc_pitch_m,
                "element_pattern": self.element_pattern,
            }
        out["meta_atom"] = {"model": self.meta_atom_model, "table_path": self.meta_atom_table}
        return out


def parse_config(raw: dict) -> RunConfig:
    """Validate a raw config mapping and fill every default."""
    raw = _require_mapping(raw, "config")
    _check_unknown(raw, ("geometry", "array", "steering", "meta_atom", "method", "output"), "config")

    geo = _require_mapping(raw.get("geometry"), "geometry")
    _check_unknown(geo, ("radius_m", "freq_hz"), "geometry")
    radius_m = _get(geo, "radius_m", float, "geometry", required=True)
    freq_hz = _get(geo, "freq_hz", float, "geometry", required=True)
    if radius_m <= 0 or freq_hz <= 0:
        raise ConfigError("geometry: radius_m and freq_hz must be positive")

    arr = raw.get("array")
    n_elements = arc_pitch_m = None
    element_pattern = "cos"
    if arr is not None:
        arr = _require_mapping(arr, "array")
        _check_unknown(arr, ("n_elements", "arc_pitch_m", "element_pattern"), "array")
        n_elements = _get(arr, "n_elements", int, "array", required=True)
        arc_pitch_m = _get(arr, "arc_pitch_m", float, "array", required=True)
        if n_elements < 1:
            raise ConfigError(f"array.n_elements: must be an integer >= 1, got {n_elements}")
        if arc_pitch_m <= 0:
            raise ConfigError(f"array.arc_pitch_m: must be positive, got {arc_pitch_m}")
        if n_elements * arc_pitch_m / radius_m >= math.pi:
            raise ConfigError(
                "array.n_elements: the array span exceeds the illuminated half: "
                f"n_elements * arc_pitch_m / geometry.radius_m = "
                f"{n_elements * arc_pitch_m / radius_m:.3f} rad >= pi"
            )
        element_pattern = _get(arr, "element_pattern", str, "array", default="cos")
        if element_pattern not in ("cos", "cos2"):
            raise ConfigError("array.element_pattern: must be 'cos' or 'cos2'")

    steer = _require_mapping(raw.get("steering"), "steering")
    _check_unknown(steer, ("phi_o_deg", "delta_phi_mode", "value"), "steering")
    phi_raw = steer.get("phi_o_deg")
    if phi_raw is None:
        raise ConfigError("steering.phi_o_deg: required")
    phi_list = phi_raw if isinstance(phi_raw, list) else [phi_raw]
    if not phi_list or not all(
        isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
        for x in phi_list
    ):
        raise ConfigError(
            "steering.phi_o_deg: expected a finite number or a nonempty list of finite numbers"
        )
    phi_list = [float(x) for x in phi_list]
    delta_phi_mode = _get(steer, "delta_phi_mode", str, "steering", default="ref_factor")
    if delta_phi_mode not in ("ref_factor", "absolute_deg"):
        raise ConfigError("steering.delta_phi_mode: must be 'ref_factor' or 'absolute_deg'")
    delta_phi_value = _get(
        steer, "value", float, "steering", default=1.2, required=delta_phi_mode == "absolute_deg"
    )
    if delta_phi_value <= 0:
        raise ConfigError("steering.value: must be positive")

    atom = _require_mapping(raw.get("meta_atom"), "meta_atom")
    _check_unknown(atom, ("model", "table_path"), "meta_atom")
    meta_model = _get(atom, "model", str, "meta_atom", default="constant")
    if meta_model not in ("constant", "cosine", "table"):
        raise ConfigError("meta_atom.model: must be 'constant', 'cosine' or 'table'")
    meta_table = _get(atom, "table_path", str, "meta_atom")
    if meta_model == "table" and not meta_table:
        raise ConfigError("meta_atom.table_path: required when model = 'table'")

    meth = _require_mapping(raw.get("method"), "method")
    name_raw = meth.get("name")
    if name_raw is None:
        raise ConfigError("method.name: required")
    names = [name_raw] if isinstance(name_raw, str) else name_raw
    if not isinstance(names, list) or not names or not all(isinstance(x, str) for x in names):
        raise ConfigError("method.name: expected a method name or a nonempty list of names")
    for nm in names:
        if nm not in METHOD_NAMES:
            raise ConfigError(f"method.name: unknown method '{nm}'; choose from {METHOD_NAMES}")
    if len(set(names)) != len(names):
        raise ConfigError("method.name: duplicate method names")
    allowed_params = {"name"}
    for nm in names:
        allowed_params |= set(_METHOD_PARAMS[nm])
    _check_unknown(meth, allowed_params, "method")
    # every method's parameters, defaulted, so a --method override finds its own
    method_params = {
        key: _get(meth, key, typ, "method", default=default)
        for params in _METHOD_PARAMS.values() for key, (typ, default) in params.items()
    }
    if method_params["shadow_model"] not in ("cancel", "none"):
        raise ConfigError("method.shadow_model: must be 'cancel' or 'none'")
    lowest = {
        "budget": 1, "workers": 1, "psi_samples": 1, "psi_refine": 0,
        "population": 2, "generations": 0,
    }
    for key, low in lowest.items():
        if (value := method_params[key]) < low:
            raise ConfigError(f"method.{key}: must be an integer >= {low}, got {value}")
    for key in ("p_crossover", "p_mutation"):
        if not 0.0 <= (value := method_params[key]) <= 1.0:
            raise ConfigError(f"method.{key}: must lie in [0, 1], got {value}")

    out = _require_mapping(raw.get("output"), "output")
    # sigma_grid_points and timing: accepted from old configs and manifests,
    # no effect (Sigma is integrated on no grid; runs record no clock)
    _check_unknown(
        out,
        ("directory", "grid_points", "objective_grid_points", "sigma_grid_points", "timing"),
        "output",
    )
    output_dir = _get(out, "directory", str, "output", default="out")
    grid_points = _get(out, "grid_points", int, "output", default=3601)
    objective_grid_points = _get(out, "objective_grid_points", int, "output", default=361)
    for label, n in (
        ("grid_points", grid_points),
        ("objective_grid_points", objective_grid_points),
    ):
        if n < 2:
            raise ConfigError(f"output.{label}: must be >= 2")

    needs_array = any(m in DISCRETE_METHODS for m in names) or delta_phi_mode == "ref_factor"
    if needs_array and n_elements is None:
        raise ConfigError(
            "array: block required for discrete methods and for delta_phi_mode = 'ref_factor'"
        )

    return RunConfig(
        radius_m=radius_m,
        freq_hz=freq_hz,
        phi_o_deg=tuple(phi_list),
        delta_phi_mode=delta_phi_mode,
        delta_phi_value=delta_phi_value,
        methods=tuple(names),
        method_params=method_params,
        output_dir=output_dir,
        grid_points=grid_points,
        objective_grid_points=objective_grid_points,
        n_elements=n_elements,
        arc_pitch_m=arc_pitch_m,
        element_pattern=element_pattern,
        meta_atom_model=meta_model,
        meta_atom_table=meta_table,
    )


def load_config(path) -> RunConfig:
    """Parse a YAML (or JSON, which is a YAML subset) config file."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        raw = yaml.safe_load(p.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"{p}: cannot parse: {exc}") from exc
    if raw is None:
        raise ConfigError(f"{p}: empty config")
    return parse_config(raw)
