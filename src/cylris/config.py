"""Run configuration: one strict schema, YAML in degrees, radians inside.

`SCHEMA` names each key once, with its type, default and rule. A YAML
config, a manifest, a command-line override and a library keyword
(`checked`) are all checked against it.
Unknown keys are rejected everywhere so a typo never silently falls back to
a default. `resolved()` returns the fully defaulted dictionary that goes
into the run manifest; feeding that dictionary back reproduces the run.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import ConfigError

__all__ = [
    "RunConfig", "SCHEMA", "load_config", "load_manifest", "parse_config", "override",
    "METHOD_NAMES",
]

METHOD_NAMES = ("exact", "go", "es", "ga", "mpdr", "go_q")
DISCRETE_METHODS = ("es", "ga", "mpdr", "go_q")

# method -> the `method` keys it takes, which are its library keywords
METHOD_KEYS = {
    "exact": (),
    "go": ("shadow_model",),
    "es": ("budget", "workers"),
    "ga": ("population", "generations", "p_crossover", "p_mutation", "seed"),
    "mpdr": (),
    "go_q": (),
}

_REQUIRED = object()  # the default of a key that has none


def _at_least(low):
    return f">= {low}", lambda v: v >= low


def _one_of(*choices):
    return f"one of {', '.join(map(repr, choices))}", lambda v: v in choices


_POSITIVE = ("> 0", lambda v: v > 0)
_UNIT = ("in [0, 1]", lambda v: 0.0 <= v <= 1.0)

# section -> key -> (type, default, rule). A rule is (text, test): the key
# "must be <text>" and a value v passes when test(v). A list[...] key takes
# one value or a nonempty list of distinct values, and reads as a tuple.
SCHEMA = {
    "geometry": {
        "radius_m": (float, _REQUIRED, _POSITIVE),
        "freq_hz": (float, _REQUIRED, _POSITIVE),
    },
    "array": {  # an optional block, whose size keys are required
        "n_elements": (int, _REQUIRED, _at_least(1)),
        "arc_pitch_m": (float, _REQUIRED, _POSITIVE),
        "element_pattern": (str, "cos", _one_of("cos", "cos2")),
    },
    "steering": {
        "phi_o_deg": (list[float], _REQUIRED, None),
        "delta_phi_mode": (str, "ref_factor", _one_of("ref_factor", "absolute_deg")),
        "value": (float, 1.2, _POSITIVE),
    },
    "meta_atom": {
        "model": (str, "constant", _one_of("constant", "cosine", "table")),
        "table_path": (str, None, None),
    },
    "method": {
        "name": (list[str], _REQUIRED, _one_of(*METHOD_NAMES)),
        "shadow_model": (str, "cancel", _one_of("cancel", "none")),
        "budget": (int, 2**24, _at_least(1)),
        "workers": (int, 1, _at_least(1)),
        "population": (int, 1000, _at_least(2)),
        "generations": (int, 200, _at_least(0)),
        "p_crossover": (float, 0.9, _UNIT),
        "p_mutation": (float, 0.05, _UNIT),
        "seed": (int, 0, _at_least(0)),
    },
    "output": {
        "directory": (str, "out", None),
        "grid_points": (int, 3601, _at_least(2)),
        "objective_grid_points": (int, 361, _at_least(2)),
    },
}

# accepted from old configs and manifests, no effect (Sigma is integrated
# on no grid; runs record no clock; MPDR scores every distinct psi)
_RETIRED = {"output": ("sigma_grid_points", "timing"), "method": ("psi_samples", "psi_refine")}

# the sweep axes: config key -> RunConfig field
_AXES = {"method.name": "methods", "steering.phi_o_deg": "phi_o_deg"}


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


def _value(v, key: str, typ, default, rule):
    """`v` checked against the schema entry of `key`; its default when None."""
    if v is None:
        if default is _REQUIRED:
            raise ConfigError(f"{key}: required")
        return default
    if getattr(typ, "__origin__", None) is list:
        items = v if isinstance(v, list) else [v]
        if not items:
            raise ConfigError(f"{key}: expected a value or a nonempty list")
        values = tuple(_value(x, key, typ.__args__[0], _REQUIRED, rule) for x in items)
        if len(set(values)) != len(values):
            raise ConfigError(f"{key}: repeated entries in {list(values)}")
        return values
    if isinstance(v, bool) != (typ is bool):  # bool is an int subclass; never coerce it
        raise ConfigError(f"{key}: expected {typ.__name__}, got {type(v).__name__}")
    if typ is float and isinstance(v, numbers.Real):  # an int or a numpy scalar too
        v = float(v)
    if typ is float and isinstance(v, str):
        # YAML 1.1 reads exponents like 3.6e9 as strings; accept them anyway
        try:
            v = float(v)
        except ValueError:
            pass
    if typ is int and (isinstance(v, numbers.Integral) or isinstance(v, float) and v.is_integer()):
        v = int(v)
    if not isinstance(v, typ):
        raise ConfigError(f"{key}: expected {typ.__name__}, got {type(v).__name__}")
    if typ is float and not math.isfinite(v):
        raise ConfigError(f"{key}: must be finite, got {v}")
    if rule is not None and not rule[1](v):
        raise ConfigError(f"{key}: must be {rule[0]}, got {v!r}")
    return v


def checked(key: str, value=None):
    """`value` checked against the `SCHEMA` entry of the dotted `key`; its default when None.

    The one source of a library keyword's default and rule: a bad value
    raises the ConfigError that the same value in a config would.
    """
    section, name = key.split(".")
    return _value(value, key, *SCHEMA[section][name])


def check_span(n_elements: int, arc_pitch_m: float, radius_m: float) -> None:
    """Refuse an array whose arc reaches past the illuminated half."""
    span = n_elements * arc_pitch_m / radius_m
    if span >= math.pi:
        raise ConfigError(
            "array.n_elements: the array span exceeds the illuminated half: "
            f"n_elements * arc_pitch_m / geometry.radius_m = {span:.3f} rad >= pi"
        )


@dataclass(frozen=True)
class RunConfig:
    """A checked config: each section under its config name, every default filled.

    `array` is None when the config has no array block. The sweep axes
    `method.name` and `steering.phi_o_deg` live in `methods` and `phi_o_deg`;
    `method` holds the parameters of every method.
    """

    geometry: dict
    array: dict | None
    steering: dict
    meta_atom: dict
    method: dict
    output: dict
    methods: tuple[str, ...]
    phi_o_deg: tuple[float, ...]

    def params_for(self, method: str) -> dict:
        """The parameters of one method, keyed by their `method` config keys."""
        return {key: self.method[key] for key in METHOD_KEYS[method]}

    def resolved(self) -> dict:
        """Fully defaulted config dictionary, the manifest's `config` entry.

        Only the parameters of `self.methods` are kept, so every manifest
        replays. The worker count is an execution detail, not configuration:
        parallel and serial runs must produce identical artifacts.
        """
        out = {s: getattr(self, s) for s in SCHEMA if getattr(self, s) is not None}
        out["steering"] = {"phi_o_deg": list(self.phi_o_deg), **self.steering}
        params = {k: v for m in self.methods for k, v in self.params_for(m).items()}
        params.pop("workers", None)
        out["method"] = {"name": list(self.methods), **params}
        return out


def parse_config(raw: dict) -> RunConfig:
    """Check a raw config mapping against `SCHEMA` and fill every default."""
    raw = _require_mapping(raw, "config")
    _check_unknown(raw, SCHEMA, "config")
    given: dict = {}
    sections: dict = {"array": None}
    for section, keys in SCHEMA.items():
        if section == "array" and raw.get(section) is None:
            continue
        given[section] = block = _require_mapping(raw.get(section), section)
        _check_unknown(block, (*keys, *_RETIRED.get(section, ())), section)
        sections[section] = {
            key: _value(block.get(key), f"{section}.{key}", *entry) for key, entry in keys.items()
        }

    steer = sections["steering"]
    if steer["delta_phi_mode"] == "absolute_deg" and given["steering"].get("value") is None:
        raise ConfigError("steering.value: required when delta_phi_mode = 'absolute_deg'")
    names = sections["method"].pop("name")
    allowed = {"name", *_RETIRED["method"]}.union(*(METHOD_KEYS[m] for m in names))
    _check_unknown(given["method"], allowed, "method")
    return _check_across(RunConfig(**sections, methods=names, phi_o_deg=steer.pop("phi_o_deg")))


def _check_across(cfg: RunConfig) -> RunConfig:
    """`cfg`, once the rules that span several sections hold."""
    arr = cfg.array
    if arr is not None:
        check_span(arr["n_elements"], arr["arc_pitch_m"], cfg.geometry["radius_m"])
    if cfg.meta_atom["model"] == "table" and not cfg.meta_atom["table_path"]:
        raise ConfigError("meta_atom.table_path: required when model = 'table'")
    discrete = set(cfg.methods) & set(DISCRETE_METHODS)
    if arr is None and (discrete or cfg.steering["delta_phi_mode"] == "ref_factor"):
        raise ConfigError(
            "array: block required for discrete methods and for delta_phi_mode = 'ref_factor'"
        )
    return cfg


def override(cfg: RunConfig, key: str, value) -> RunConfig:
    """`cfg` with the dotted config `key` set to `value`, checked like the config.

    The value obeys the key's schema rule, and the result the rules that
    span several sections (`--method es` needs an array block).
    """
    section, name = key.split(".")
    value = checked(key, value)
    field = _AXES.get(key)
    changes = {field: value} if field else {section: {**getattr(cfg, section), name: value}}
    return _check_across(replace(cfg, **changes))


def load_config(path) -> RunConfig:
    """Parse a YAML (or JSON, which is a YAML subset) config file."""
    import yaml  # here, so that `import cylris` does not load it

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


def load_manifest(path) -> RunConfig:
    """Parse the config embedded in a run's manifest.json; each ConfigError names the file."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"manifest not found: {p}")
    manifest = json.loads(p.read_text())
    if not isinstance(manifest, dict) or "config" not in manifest:
        raise ConfigError(f"{p}: no embedded config")
    try:
        return parse_config(manifest["config"])
    except ConfigError as exc:
        raise ConfigError(f"{p}: {exc}") from None
