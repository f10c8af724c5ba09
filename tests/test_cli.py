import json
import os
import pickle
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from cylris import (
    AngularGrid,
    CylinderGeometry,
    ElementArray,
    SteeringSpec,
    cli,
    exact_synth,
    go_synth,
    io,
    optimizers,
    phase_function,
    specfun,
)
from cylris.cli import main
from cylris.config import _REQUIRED, METHOD_KEYS, METHOD_NAMES, SCHEMA, load_config, parse_config
from cylris.errors import ConfigError


REPO = Path(__file__).resolve().parents[1]


def toy_config(outdir, method="mpdr", phi=20.0, **overrides):
    cfg = {
        "geometry": {"radius_m": 0.12, "freq_hz": 3.6e9},
        "array": {"n_elements": 8, "arc_pitch_m": 0.038},
        "steering": {"phi_o_deg": phi, "delta_phi_mode": "ref_factor", "value": 1.2},
        "meta_atom": {"model": "constant"},
        "method": {"name": method},
        "output": {
            "directory": str(outdir),
            "grid_points": 721,
            "objective_grid_points": 361,
        },
    }
    for key, val in overrides.items():
        cfg[key] = {**cfg.get(key, {}), **val}
    return cfg


def write_config(tmp_path, cfg, name="config.yaml"):
    p = tmp_path / name
    p.write_text(yaml.safe_dump(cfg))
    return p


def run_cli(argv):
    return main(argv)


class TestConfigParsing:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = toy_config(tmp_path / "out")
        cfg["geometry"]["radius_mm"] = 120
        with pytest.raises(ConfigError, match="radius_mm"):
            parse_config(cfg)

    def test_unknown_block_rejected(self, tmp_path):
        cfg = toy_config(tmp_path / "out")
        cfg["extras"] = {}
        with pytest.raises(ConfigError, match="extras"):
            parse_config(cfg)

    def test_missing_required_field(self, tmp_path):
        cfg = toy_config(tmp_path / "out")
        del cfg["geometry"]["freq_hz"]
        with pytest.raises(ConfigError, match="freq_hz"):
            parse_config(cfg)

    def test_discrete_method_requires_array(self, tmp_path):
        cfg = toy_config(tmp_path / "out")
        del cfg["array"]
        with pytest.raises(ConfigError, match="array"):
            parse_config(cfg)

    def test_resolved_round_trip(self, tmp_path):
        cfg = parse_config(toy_config(tmp_path / "out"))
        again = parse_config(cfg.resolved())
        assert again == cfg

    def test_load_from_yaml_file(self, tmp_path):
        path = write_config(tmp_path, toy_config(tmp_path / "out"))
        cfg = load_config(path)
        assert cfg.methods == ("mpdr",)
        assert cfg.phi_o_deg == (20.0,)


# every config key that a library call also takes as a keyword
LIBRARY_KEYS = [f"method.{name}" for names in METHOD_KEYS.values() for name in names] + [
    f"{section}.{name}" for section in ("geometry", "array") for name in SCHEMA[section]
]
# a value that breaks each key's rule
OUT_OF_RULE = {
    "method.shadow_model": "mirror",
    "method.budget": 0,
    "method.workers": 0,
    "method.population": 1,
    "method.generations": -1,
    "method.p_crossover": 1.5,
    "method.p_mutation": -0.1,
    "method.seed": -1,
    "geometry.radius_m": -0.12,
    "geometry.freq_hz": 0.0,
    "array.n_elements": 0,
    "array.arc_pitch_m": -0.038,
    "array.element_pattern": "cos3",
}


def library_call(key, toy, **kwargs):
    """The toy-sized library call that takes `key` as a keyword, given `kwargs`."""
    section, name = key.split(".")
    if section == "geometry":
        return CylinderGeometry(**{"radius_m": 0.12, "freq_hz": 3.6e9, **kwargs})
    if section == "array":
        return ElementArray(toy["geom"], **{"n_elements": 8, "arc_pitch_m": 0.038, **kwargs})
    if name == "shadow_model":
        grid = AngularGrid.uniform(256)
        gamma = np.exp(-1j * phase_function(toy["geom"], toy["spec"].phi_o, grid.values))
        return go_synth.far_field_po(toy["geom"], gamma, grid, **kwargs)
    args = toy["table"], toy["spec"], toy["states"]
    if name in METHOD_KEYS["es"]:
        return optimizers.exhaustive_search(*args, **kwargs)
    small = {k: v for k, v in {"population": 8, "generations": 2}.items() if k != name}
    return optimizers.ga_synthesize(*args, **small, **kwargs)


@pytest.mark.parametrize("key", LIBRARY_KEYS)
def test_library_keywords_follow_the_schema(key, toy, tmp_path):
    """A left-out keyword acts as its SCHEMA default, and a bad value fails as in a config."""
    section, name = key.split(".")
    default = SCHEMA[section][name][1]
    if default is not _REQUIRED:
        left_out = library_call(key, toy)
        assert pickle.dumps(left_out) == pickle.dumps(library_call(key, toy, **{name: default}))
    method = next((m for m, names in METHOD_KEYS.items() if name in names), "mpdr")
    raw = toy_config(tmp_path, method=method)
    raw[section][name] = OUT_OF_RULE[key]
    with pytest.raises(ConfigError) as from_config:
        parse_config(raw)
    with pytest.raises(ConfigError) as from_library:
        library_call(key, toy, **{name: OUT_OF_RULE[key]})
    assert str(from_library.value) == str(from_config.value)
    assert str(from_config.value).startswith(f"{key}: must be")


class TestSynthCommand:
    def test_mpdr_toy_run_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run"
        path = write_config(tmp_path, toy_config(out))
        assert run_cli(["synth", "-c", str(path)]) == 0
        for name in ("pattern.csv", "metrics.json", "result.json", "manifest.json"):
            assert (out / name).exists(), name
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics) == {
            "peak_db", "peak_dir_deg", "sll_db", "beamwidth_deg", "target_level_db"
        }
        assert metrics["sll_db"] < 0
        result = json.loads((out / "result.json").read_text())
        assert result["method"] == "mpdr"
        assert "wall_time_ms" not in result
        assert len(result["gamma"]) == 8
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["steering"]["phi_o_deg"] == [20.0]

    def test_exact_method_writes_impedance(self, tmp_path):
        out = tmp_path / "run"
        cfg = toy_config(out, method="exact")
        cfg["geometry"] = {"radius_m": 0.4, "freq_hz": 3.6e9}
        cfg["array"] = {"n_elements": 30, "arc_pitch_m": 0.038}
        cfg["output"]["grid_points"] = 1441
        path = write_config(tmp_path, cfg)
        assert run_cli(["synth", "-c", str(path)]) == 0
        assert (out / "impedance.csv").exists()
        header = (out / "impedance.csv").read_text().splitlines()[0]
        assert header == "phi_deg,re_Z_over_eta0,im_Z_over_eta0,pole_flag"
        metrics = json.loads((out / "metrics.json").read_text())
        assert abs(metrics["peak_dir_deg"] - 20.0) < 2.0

    def test_go_method_writes_singular_flag(self, tmp_path):
        out = tmp_path / "run"
        cfg = toy_config(out, method="go")
        cfg["geometry"] = {"radius_m": 0.4, "freq_hz": 3.6e9}
        cfg["array"] = {"n_elements": 30, "arc_pitch_m": 0.038}
        cfg["output"]["grid_points"] = 1440
        path = write_config(tmp_path, cfg)
        assert run_cli(["synth", "-c", str(path)]) == 0
        header = (out / "impedance.csv").read_text().splitlines()[0]
        assert header == "phi_deg,re_Z_over_eta0,im_Z_over_eta0,singular_flag"

    @pytest.mark.parametrize("method", ["exact", "go"])
    def test_steered_at_the_wrapped_angle(self, tmp_path, method):
        """A run writes what the library writes at spec.phi_o, bit for bit. At
        70 deg the wrap moves the angle by one ulp, and both patterns with it."""
        phi_o = SteeringSpec(np.radians(70.0), 1.0).phi_o
        assert phi_o != np.radians(70.0)
        out = tmp_path / "run"
        cfg = toy_config(
            out, method=method, phi=70.0, geometry={"radius_m": 0.4},
            array={"n_elements": 30}, output={"grid_points": 1441},
        )
        assert run_cli(_synth_argv(tmp_path, cfg)) == 0
        geom, grid = CylinderGeometry(0.4, 3.6e9), AngularGrid.uniform(1441)
        lib = tmp_path / "library"
        if method == "exact":
            expansion = exact_synth.modal_coefficients(geom, phi_o)
            pattern = exact_synth.far_field_exact(expansion, grid)
            profile = exact_synth.surface_impedance(geom, expansion, grid)
            io.write_impedance_csv(lib / "impedance.csv", profile)
        else:
            profile = go_synth.go_impedance(geom, phi_o, grid)
            pattern = go_synth.far_field_po(geom, profile.gamma, grid)
            io.write_go_impedance_csv(lib / "impedance.csv", profile)
        io.write_pattern_csv(lib / "pattern.csv", pattern)
        for name in ("pattern.csv", "impedance.csv"):
            assert (lib / name).read_bytes() == (out / name).read_bytes(), name

    def test_full_scale_es_hits_budget_guard(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = toy_config(out, method="es")
        cfg["array"] = {"n_elements": 30, "arc_pitch_m": 0.038}
        cfg["geometry"] = {"radius_m": 0.4, "freq_hz": 3.6e9}
        path = write_config(tmp_path, cfg)
        code = run_cli(["synth", "-c", str(path)])
        assert code == 3
        err = capsys.readouterr().err.strip()
        payload = json.loads(err)  # single machine-parsable line
        assert payload["code"] == 3

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = toy_config(tmp_path / "run")
        cfg["method"]["name"] = "newton"
        path = write_config(tmp_path, cfg)
        assert run_cli(["synth", "-c", str(path)]) == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["code"] == 2

    @pytest.mark.parametrize("method", ("exact", "go"))
    @pytest.mark.parametrize("via_cli", (False, True), ids=("yaml", "cli"))
    def test_grid_too_coarse_for_modes(self, tmp_path, capsys, method, via_cli):
        out = tmp_path / "run"
        cfg = toy_config(out, method=method)
        cfg["geometry"] = {"radius_m": 0.4, "freq_hz": 3.6e9}
        cfg["array"] = {"n_elements": 30, "arc_pitch_m": 0.038}
        k0r = CylinderGeometry(**cfg["geometry"]).k0r
        n_modes = 2 * specfun.truncation_order(k0r) + 1
        floor = n_modes if method == "exact" else 2 * n_modes
        argv = ["synth", "-c", str(write_config(tmp_path, cfg))]
        if via_cli:
            argv += ["--grid-points", str(floor - 1)]
        else:
            cfg["output"]["grid_points"] = floor - 1
            argv[2] = str(write_config(tmp_path, cfg))
        assert run_cli(argv) == 2
        payload = one_json_error(capsys)
        assert payload["code"] == 2 and "output.grid_points" in payload["error"]
        assert not (out / "pattern.csv").exists()
        assert run_cli(argv[:3] + ["--grid-points", str(floor)]) == 0

    @pytest.mark.parametrize(
        "method, key",
        [
            ("ga", "grid_points"),
            ("mpdr", "grid_points"),
            ("es", "objective_grid_points"),
            ("ga", "objective_grid_points"),
            ("go_q", "objective_grid_points"),
        ],
    )
    def test_discrete_grid_too_coarse_for_modes(self, tmp_path, capsys, method, key):
        """A discrete run's grids obey the exact rule: a coarser one would
        report metrics of an unresolved pattern."""
        out = tmp_path / "run"
        cfg = toy_config(out, method=method)
        if method == "ga":
            cfg["method"].update(population=20, generations=2)
        need = exact_synth.required_grid_points(CylinderGeometry(**cfg["geometry"]).k0r, "exact")
        assert need == 65
        cfg["output"][key] = need - 1
        assert run_cli(["synth", "-c", str(write_config(tmp_path, cfg))]) == 2
        payload = one_json_error(capsys)
        assert payload["code"] == 2 and f"output.{key}: {method}" in payload["error"]
        assert not (out / "pattern.csv").exists() and not (out / "states.json").exists()
        cfg["output"][key] = need
        assert run_cli(["synth", "-c", str(write_config(tmp_path, cfg))]) == 0

    def test_cli_overrides(self, tmp_path):
        out = tmp_path / "a"
        out2 = tmp_path / "b"
        path = write_config(tmp_path, toy_config(out, method="go_q", phi=10.0))
        assert run_cli(["synth", "-c", str(path), "-o", str(out2), "--phi-o-deg", "25"]) == 0
        manifest = json.loads((out2 / "manifest.json").read_text())
        assert manifest["config"]["steering"]["phi_o_deg"] == [25.0]
        assert not out.exists()


def _synth_argv(tmp_path, cfg):
    return ["synth", "-c", str(write_config(tmp_path, cfg))]


# one hand-written run: the resolved toy config and a full metrics file
_RUN_CONFIG = parse_config(toy_config("written")).resolved()
_RUN_METRICS = {
    "peak_db": 0.0, "peak_dir_deg": 20.0, "sll_db": -9.0, "beamwidth_deg": 20.0,
    "target_level_db": 0.0,
}


def _compare_argv(manifest, metrics):
    """`compare` on one run directory holding these manifest and metrics documents."""
    def argv(tmp):
        run = tmp / "written"
        run.mkdir(parents=True)
        (run / "manifest.json").write_text(json.dumps(manifest))
        (run / "metrics.json").write_text(json.dumps(metrics))
        return ["compare", str(run), "-o", str(tmp / "cmp")]

    return argv


def _replay_argv(manifest):
    """`synth --from-manifest` on a manifest file holding this JSON document."""
    def argv(tmp):
        (tmp / "manifest.json").write_text(json.dumps(manifest))
        return ["synth", "--from-manifest", str(tmp / "manifest.json"), "-o", str(tmp / "run")]

    return argv


def _then_write(argv_of, name, data: bytes):
    """`argv_of`, once the file `name` under the test directory holds `data`."""
    def argv(tmp):
        args = argv_of(tmp)
        (tmp / name).write_bytes(data)
        return args

    return argv


def _state_table_argv(tmp):
    """`synth` on the toy config with the state table `atom.csv`."""
    table = {"model": "table", "table_path": str(tmp / "atom.csv")}
    return _synth_argv(tmp, toy_config(tmp / "run", meta_atom=table))


def _phi_o_170_argv(method):
    """`synth` of configs/toy_es.yaml steered to 170 deg, where every toy element
    is >= 90 deg away, so the steering vector there is zero."""
    return lambda tmp: [
        "synth", "-c", str(REPO / "configs" / "toy_es.yaml"), "--method", method,
        "--phi-o-deg", "170", "-o", str(tmp / "run"),
    ]


# text saved as UTF-16, which is not UTF-8 from its byte-order mark on
UTF16 = "angle_deg,state_index,mag,phase_deg\n".encode("utf-16")

BAD_INPUTS = {
    "compare_missing_run_dir": lambda tmp: ["compare", str(tmp / "missing"), "-o", str(tmp)],
    "compare_manifest_without_config": _compare_argv({"tool": "cylris"}, _RUN_METRICS),
    "compare_manifest_empty_method_list": _compare_argv(
        {"config": {**_RUN_CONFIG, "method": {"name": []}}}, _RUN_METRICS
    ),
    "compare_metrics_without_target_level": _compare_argv(
        {"config": _RUN_CONFIG},
        {k: v for k, v in _RUN_METRICS.items() if k != "target_level_db"},
    ),
    "compare_manifest_radius_list": _compare_argv(
        {"config": {**_RUN_CONFIG, "geometry": {**_RUN_CONFIG["geometry"], "radius_m": [0.4]}}},
        _RUN_METRICS,
    ),
    "compare_metrics_peak_db_string": _compare_argv(
        {"config": _RUN_CONFIG}, {**_RUN_METRICS, "peak_db": "x"}
    ),
    "compare_metrics_peak_dir_null": _compare_argv(
        {"config": _RUN_CONFIG}, {**_RUN_METRICS, "peak_dir_deg": None}
    ),
    "compare_metrics_sll_bool": _compare_argv(
        {"config": _RUN_CONFIG}, {**_RUN_METRICS, "sll_db": True}
    ),
    "synth_manifest_5": _replay_argv(5),
    "synth_manifest_null": _replay_argv(None),
    "synth_manifest_string": _replay_argv("config"),
    "synth_manifest_not_json": _then_write(_replay_argv({}), "manifest.json", b"{"),
    "compare_metrics_not_json": _then_write(
        _compare_argv({"config": _RUN_CONFIG}, _RUN_METRICS), "written/metrics.json", b"{"
    ),
    "synth_config_not_utf8": _then_write(
        lambda tmp: _synth_argv(tmp, toy_config(tmp / "run")), "config.yaml", UTF16
    ),
    "synth_state_table_not_utf8": _then_write(_state_table_argv, "atom.csv", UTF16),
    # grids too coarse for the toy array's 65 modes
    "synth_discrete_grid_points_5_cli": lambda tmp: [
        "synth", "-c", str(REPO / "configs" / "toy_es.yaml"), "--method", "ga",
        "--grid-points", "5", "-o", str(tmp / "run"),
    ],
    "synth_objective_grid_points_64": lambda tmp: _synth_argv(
        tmp, toy_config(tmp / "run", method="es", output={"objective_grid_points": 64})
    ),
    **{
        f"synth_{method}_phi_o_no_element_faces": _phi_o_170_argv(method)
        for method in ("es", "ga", "mpdr", "go_q")
    },
}


def _with(section, key, value, method="go_q"):
    def argv(tmp):
        cfg = toy_config(tmp / "run", method=method)
        cfg[section][key] = value
        return _synth_argv(tmp, cfg)

    return argv


def _go_q_argv(tmp):
    return _synth_argv(tmp, toy_config(tmp / "run", method="go_q"))


def _es_argv(tmp):
    return _synth_argv(tmp, toy_config(tmp / "run", method="es"))


def _es_override_without_array(tmp):
    """An exact config with no array block, overridden to a discrete method."""
    cfg = toy_config(
        tmp / "run", method="exact", steering={"delta_phi_mode": "absolute_deg", "value": 10.0}
    )
    del cfg["array"]
    return _synth_argv(tmp, cfg) + ["--method", "es"]


# bad input -> (argv builder, the config key the error message must name)
KEYED_BAD_INPUTS = {
    "radius_m_bool": (_with("geometry", "radius_m", True), "geometry.radius_m"),
    "n_elements_bool": (_with("array", "n_elements", True), "array.n_elements"),
    "phi_o_deg_nan": (_with("steering", "phi_o_deg", float("nan")), "steering.phi_o_deg"),
    "phi_o_deg_list_inf": (
        _with("steering", "phi_o_deg", [20.0, float("inf")]), "steering.phi_o_deg"
    ),
    "value_nan": (_with("steering", "value", float("nan")), "steering.value"),
    "p_mutation_inf": (_with("method", "p_mutation", float("inf"), "ga"), "method.p_mutation"),
    "phi_o_deg_cli_nan": (
        lambda tmp: _go_q_argv(tmp) + ["--phi-o-deg", "nan"],
        "steering.phi_o_deg",
    ),
    "grid_points_3_cli": (
        lambda tmp: _go_q_argv(tmp) + ["--grid-points", "3"],
        "output.grid_points",
    ),
    "grid_points_0_cli": (
        lambda tmp: _go_q_argv(tmp) + ["--grid-points", "0"],
        "output.grid_points",
    ),
    "grid_points_3_yaml": (_with("output", "grid_points", 3), "output.grid_points"),
    "workers_0_yaml": (_with("method", "workers", 0, "es"), "method.workers"),
    "workers_2.5_yaml": (_with("method", "workers", 2.5, "es"), "method.workers"),
    "workers_0_cli": (lambda tmp: _es_argv(tmp) + ["--workers", "0"], "method.workers"),
    "workers_-3_cli": (lambda tmp: _es_argv(tmp) + ["--workers", "-3"], "method.workers"),
    "workers_abc_cli": (lambda tmp: _es_argv(tmp) + ["--workers", "abc"], "--workers"),
    "timing_flag_removed_cli": (lambda tmp: _es_argv(tmp) + ["--timing"], "--timing"),
    "objective_grid_points_3": (
        _with("output", "objective_grid_points", 3, "es"), "output.objective_grid_points"
    ),
    "n_elements_0": (_with("array", "n_elements", 0), "array.n_elements"),
    "arc_pitch_m_negative": (_with("array", "arc_pitch_m", -0.01), "array.arc_pitch_m"),
    "array_exceeds_lit_half": (
        lambda tmp: _synth_argv(
            tmp, toy_config(tmp / "run", geometry={"radius_m": 0.4}, array={"n_elements": 40})
        ),
        "array.n_elements",
    ),
    "ga_population_1": (_with("method", "population", 1, "ga"), "method.population"),
    "p_mutation_2": (_with("method", "p_mutation", 2.0, "ga"), "method.p_mutation"),
    "budget_-1": (_with("method", "budget", -1, "es"), "method.budget"),
    "budget_0": (_with("method", "budget", 0, "es"), "method.budget"),
    "seed_-1_yaml": (_with("method", "seed", -1, "ga"), "method.seed"),
    "seed_-5_cli": (
        lambda tmp: _synth_argv(tmp, toy_config(tmp / "run", method="ga")) + ["--seed", "-5"],
        "method.seed",
    ),
    "radius_m_negative": (_with("geometry", "radius_m", -0.12), "geometry.radius_m"),
    "freq_hz_0": (_with("geometry", "freq_hz", 0.0), "geometry.freq_hz"),
    "synth_angle_list": (_with("steering", "phi_o_deg", [10.0, 20.0]), "steering.phi_o_deg"),
    "synth_method_list": (_with("method", "name", ["mpdr", "go_q"]), "method.name"),
    "method_cli_es_without_array": (_es_override_without_array, "array: block required"),
    # a protected window that covers the whole circle leaves no sidelobe region
    "ref_factor_window_whole_circle": (_with("geometry", "freq_hz", 1.0e9), "steering.value"),
    # retired keys have no effect, but keep their former type and rule
    "retired_timing_nan": (_with("output", "timing", float("nan")), "output.timing"),
    "retired_timing_1": (_with("output", "timing", 1), "output.timing"),
    "retired_sigma_grid_points_-5": (
        _with("output", "sigma_grid_points", -5), "output.sigma_grid_points"
    ),
    "retired_psi_samples_nan": (
        _with("method", "psi_samples", float("nan"), "mpdr"), "method.psi_samples"
    ),
    "retired_psi_refine_list": (_with("method", "psi_refine", [1, 2], "mpdr"), "method.psi_refine"),
    "retired_timing_nan_manifest": (
        _replay_argv(
            {"config": {**_RUN_CONFIG, "output": {**_RUN_CONFIG["output"], "timing": float("nan")}}}
        ),
        "output.timing",
    ),
    "absolute_window_whole_circle": (
        lambda tmp: _synth_argv(
            tmp,
            toy_config(
                tmp / "run", method="exact",
                steering={"delta_phi_mode": "absolute_deg", "value": 400.0},
            ),
        ),
        "steering.value",
    ),
}


@pytest.mark.filterwarnings("ignore:delta_phi = .* is below the reference beamwidth")
@pytest.mark.parametrize("name", KEYED_BAD_INPUTS)
def test_bad_value_exits_2_naming_the_key(tmp_path, capsys, name):
    argv_of, key = KEYED_BAD_INPUTS[name]
    assert run_cli(argv_of(tmp_path)) == 2
    payload = one_json_error(capsys)
    assert payload["code"] == 2 and key in payload["error"]
    assert not (tmp_path / "run" / "pattern.csv").exists()


def one_json_error(capsys) -> dict:
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


@pytest.mark.parametrize("name", BAD_INPUTS)
def test_bad_input_exits_2_with_one_json_line(tmp_path, capsys, name):
    assert run_cli(BAD_INPUTS[name](tmp_path)) == 2
    assert one_json_error(capsys)["code"] == 2


@pytest.mark.parametrize("method", METHOD_NAMES)
def test_steering_angle_no_element_faces(tmp_path, capsys, method):
    """A discrete method is refused before any file is written; exact and GO
    steer anywhere."""
    argv = _phi_o_170_argv(method)(tmp_path)
    if method in ("exact", "go"):
        assert run_cli(argv) == 0
        return
    assert run_cli(argv) == 2
    assert "steering.phi_o_deg" in one_json_error(capsys)["error"]
    assert not any((tmp_path / "run").iterdir())


@pytest.mark.parametrize("method, peak_deg", [("go_q", "68.65"), ("mpdr", "-84.13")])
def test_missed_beam_warns(tmp_path, method, peak_deg):
    """At 150 deg one toy element faces the angle, at grazing incidence: the
    discrete pattern peaks outside the protected window. The run completes
    with its 0 dB sidelobe ratio, and says so."""
    argv = ["synth", "-c", str(REPO / "configs" / "toy_es.yaml"), "--method", method,
            "--phi-o-deg", "150", "-o", str(tmp_path / "run")]
    match = f"^{method} steered at 150 deg peaks at {peak_deg}[0-9]* deg"
    with pytest.warns(UserWarning, match=match):
        assert run_cli(argv) == 0
    assert json.loads((tmp_path / "run" / "metrics.json").read_text())["sll_db"] == 0.0


@pytest.mark.parametrize(
    "config, method",
    [("toy_es", "es"), ("toy_es", "mpdr"), ("baseline_mpdr", "go_q"), ("baseline_mpdr", "go")],
)
def test_a_steered_beam_does_not_warn(tmp_path, config, method):
    """Discrete beams that reach their angle are silent; so is go, whose peak
    is the forward-scatter lobe at 180 deg, outside the window."""
    argv = ["synth", "-c", str(REPO / "configs" / f"{config}.yaml"), "--method", method,
            "-o", str(tmp_path / "run")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(argv) == 0
    metrics = json.loads((tmp_path / "run" / "metrics.json").read_text())
    assert (metrics["sll_db"] == 0.0) == (method == "go")


@pytest.mark.parametrize(
    "name, path, key",
    [
        ("compare_manifest_without_config", "manifest.json", "no embedded config"),
        ("compare_manifest_empty_method_list", "manifest.json", "method.name"),
        ("compare_metrics_without_target_level", "metrics.json", "'target_level_db'"),
        ("compare_manifest_radius_list", "manifest.json", "geometry.radius_m"),
        ("compare_metrics_peak_db_string", "metrics.json", "peak_db"),
        ("compare_metrics_peak_dir_null", "metrics.json", "peak_dir_deg"),
        ("compare_metrics_sll_bool", "metrics.json", "sll_db"),
    ],
)
def test_compare_names_the_file_and_the_missing_key(tmp_path, capsys, name, path, key):
    assert run_cli(_compare_argv({"config": _RUN_CONFIG}, _RUN_METRICS)(tmp_path / "ok")) == 0
    capsys.readouterr()
    assert run_cli(BAD_INPUTS[name](tmp_path)) == 2
    error = one_json_error(capsys)["error"]
    assert str(tmp_path / "written" / path) in error and key in error


@pytest.mark.parametrize(
    "name, path",
    [
        ("synth_manifest_not_json", "manifest.json"),
        ("compare_metrics_not_json", "written/metrics.json"),
        ("synth_config_not_utf8", "config.yaml"),
        ("synth_state_table_not_utf8", "atom.csv"),
    ],
)
def test_unreadable_file_exits_2_naming_it(tmp_path, capsys, name, path):
    assert run_cli(BAD_INPUTS[name](tmp_path)) == 2
    assert str(tmp_path / path) in one_json_error(capsys)["error"]
    assert not (tmp_path / "run" / "pattern.csv").exists()


def test_compare_takes_null_metrics(tmp_path):
    """A non-finite metric is written as null; a run holding one still compares."""
    nulls = dict.fromkeys(("peak_db", "sll_db", "beamwidth_deg", "target_level_db"))
    assert run_cli(_compare_argv({"config": _RUN_CONFIG}, {**_RUN_METRICS, **nulls})(tmp_path)) == 0
    (row,) = json.loads((tmp_path / "cmp" / "comparison.json").read_text())["rows"]
    assert row["sll_db"] is None and row["pointing_err_deg"] == 0.0


@pytest.mark.parametrize("method", METHOD_NAMES)
def test_run_directory_holds_the_files_of_its_method(tmp_path, method):
    out = tmp_path / "run"
    cfg = toy_config(out, method=method)
    if method == "ga":
        cfg["method"].update({"population": 20, "generations": 2})
    assert run_cli(_synth_argv(tmp_path, cfg)) == 0
    own = {"impedance.csv"} if method in ("exact", "go") else {"result.json", "states.json"}
    names = {"manifest.json", "metrics.json", "pattern.csv", *own}
    assert sorted(f.name for f in out.iterdir()) == sorted(names)


def assert_replays(run_dir, replay_dir):
    """Replaying run_dir's manifest into replay_dir reproduces every artifact."""
    argv = ["synth", "--from-manifest", str(run_dir / "manifest.json"), "-o", str(replay_dir)]
    assert run_cli(argv) == 0
    names = sorted(f.name for f in run_dir.iterdir())
    assert names == sorted(f.name for f in replay_dir.iterdir())
    for name in names:
        if name != "manifest.json":
            assert (run_dir / name).read_bytes() == (replay_dir / name).read_bytes(), name
    configs = [
        json.loads((d / "manifest.json").read_text())["config"] for d in (run_dir, replay_dir)
    ]
    for conf in configs:
        conf["output"].pop("directory")
    assert configs[0] == configs[1]


class TestDeterminism:
    def test_sweep_sub_run_manifests_replay(self, tmp_path):
        out = tmp_path / "sweep"
        cfg = toy_config(out)
        cfg["method"] = {"name": ["mpdr", "ga"], "population": 20, "generations": 3, "seed": 7}
        cfg["steering"]["phi_o_deg"] = [10.0, 20.0]
        assert run_cli(["sweep", "-c", str(write_config(tmp_path, cfg))]) == 0
        subs = sorted(d for d in out.iterdir() if d.is_dir())
        assert [d.name for d in subs] == ["ga_phi10", "ga_phi20", "mpdr_phi10", "mpdr_phi20"]
        for sub in subs:
            conf = json.loads((sub / "manifest.json").read_text())["config"]
            assert ("population" in conf["method"]) == sub.name.startswith("ga")
            assert_replays(sub, tmp_path / "replay" / sub.name)

    def test_method_override_manifest_replays(self, tmp_path):
        out = tmp_path / "run"
        cfg = toy_config(out)
        cfg["method"] = {"name": ["ga", "mpdr"], "population": 20, "generations": 3}
        assert run_cli(["synth", "-c", str(write_config(tmp_path, cfg)), "--method", "mpdr"]) == 0
        assert_replays(out, tmp_path / "replay")

    @pytest.mark.parametrize("method", ["exact", "go", "es", "mpdr"])
    def test_override_to_unconfigured_method_replays(self, tmp_path, method):
        # go_q has no parameters, so the run needs the override's own defaults
        out = tmp_path / "run"
        path = write_config(tmp_path, toy_config(tmp_path / "base", method="go_q"))
        assert run_cli(["synth", "-c", str(path), "--method", method, "-o", str(out)]) == 0
        assert_replays(out, tmp_path / "replay")

    def test_go_override_of_mpdr_manifest_replays(self, tmp_path):
        base, out = tmp_path / "mpdr", tmp_path / "go"
        assert run_cli(["synth", "-c", str(write_config(tmp_path, toy_config(base)))]) == 0
        argv = ["synth", "--from-manifest", str(base / "manifest.json"), "--method", "go"]
        assert run_cli(argv + ["-o", str(out)]) == 0
        method = json.loads((out / "manifest.json").read_text())["config"]["method"]
        assert method == {"name": ["go"], "shadow_model": "cancel"}
        assert_replays(out, tmp_path / "replay")

    @pytest.mark.parametrize(
        "key, cfg_value, manifest_value",
        [("sigma_grid_points", 100, 57600), ("timing", True, False), ("timing", False, True)],
    )
    def test_retired_output_key_accepted_and_ignored(
        self, tmp_path, key, cfg_value, manifest_value
    ):
        """A config or manifest that still carries a retired output key writes
        the same bytes as one without it, and the key is not written back.
        sigma_grid_points: 100 was below the floor the key once had."""
        plain = tmp_path / "plain"
        assert run_cli(["synth", "-c", str(write_config(tmp_path, toy_config(plain)))]) == 0
        old_cfg = toy_config(tmp_path / "old_cfg", output={key: cfg_value})
        assert run_cli(["synth", "-c", str(write_config(tmp_path, old_cfg, "old.yaml"))]) == 0
        manifest = json.loads((plain / "manifest.json").read_text())
        expected = dict(manifest["config"]["output"])
        expected.pop("directory")
        assert key not in expected
        manifest["config"]["output"][key] = manifest_value
        old_manifest = tmp_path / "old_manifest.json"
        old_manifest.write_text(json.dumps(manifest))
        argv = ["synth", "--from-manifest", str(old_manifest), "-o", str(tmp_path / "old_man")]
        assert run_cli(argv) == 0
        names = sorted(f.name for f in plain.iterdir())
        for run in (tmp_path / "old_cfg", tmp_path / "old_man"):
            assert names == sorted(f.name for f in run.iterdir())
            for name in names:
                if name != "manifest.json":
                    assert (plain / name).read_bytes() == (run / name).read_bytes(), name
            output = json.loads((run / "manifest.json").read_text())["config"]["output"]
            output.pop("directory")
            assert output == expected

    @pytest.mark.parametrize("source", ["config", "manifest"])
    def test_retired_mpdr_keys_accepted_and_ignored(self, tmp_path, source):
        """A config or an older manifest that still carries psi_samples and
        psi_refine writes the same bytes as one without them, and the keys are
        not written back."""
        plain = tmp_path / "plain"
        assert run_cli(["synth", "-c", str(write_config(tmp_path, toy_config(plain)))]) == 0
        old = tmp_path / "old"
        if source == "config":
            cfg = toy_config(old)
            cfg["method"].update(psi_samples=360, psi_refine=0)
            argv = ["synth", "-c", str(write_config(tmp_path, cfg, "old.yaml"))]
        else:
            manifest = json.loads((plain / "manifest.json").read_text())
            manifest["config"]["method"].update(psi_samples=360, psi_refine=0)
            (tmp_path / "old_manifest.json").write_text(json.dumps(manifest))
            argv = ["synth", "--from-manifest", str(tmp_path / "old_manifest.json"), "-o", str(old)]
        assert run_cli(argv) == 0
        for name in ("pattern.csv", "metrics.json", "result.json", "states.json"):
            assert (plain / name).read_bytes() == (old / name).read_bytes(), name
        method = json.loads((old / "manifest.json").read_text())["config"]["method"]
        assert method == {"name": ["mpdr"]}

    def test_manifest_round_trip_byte_identical(self, tmp_path):
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        cfg = toy_config(out1, method="ga")
        cfg["method"].update({"population": 40, "generations": 10, "seed": 5})
        path = write_config(tmp_path, cfg)
        assert run_cli(["synth", "-c", str(path)]) == 0
        assert run_cli(["synth", "--from-manifest", str(out1 / "manifest.json"),
                        "-o", str(out2)]) == 0
        for name in ("pattern.csv", "metrics.json", "result.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_es_serial_parallel_byte_identical(self, tmp_path):
        outs, outp = tmp_path / "serial", tmp_path / "parallel"
        cfg = toy_config(outs, method="es")
        path = write_config(tmp_path, cfg)
        assert run_cli(["synth", "-c", str(path)]) == 0
        assert run_cli(["synth", "-c", str(path), "-o", str(outp), "--workers", "2"]) == 0
        for name in ("pattern.csv", "metrics.json", "result.json"):
            assert (outs / name).read_bytes() == (outp / name).read_bytes(), name
        m1 = json.loads((outs / "manifest.json").read_text())
        m2 = json.loads((outp / "manifest.json").read_text())
        m1["config"]["output"].pop("directory")
        m2["config"]["output"].pop("directory")
        assert m1 == m2  # only the target directory may differ

    # the 8-element toy is one task (no pool); 12 elements on R = 0.4 m are two
    @pytest.mark.parametrize("n_elements, pools", [(None, []), (12, [2])])
    def test_es_sweep_serial_parallel_byte_identical(
        self, tmp_path, monkeypatch, n_elements, pools
    ):
        raw = yaml.safe_load((REPO / "configs" / "toy_es.yaml").read_text())
        if n_elements is not None:
            raw["geometry"]["radius_m"] = 0.4
            raw["array"]["n_elements"] = n_elements
        seen, pool = [], optimizers.ProcessPoolExecutor

        def recording_pool(**kwargs):  # a real pool; records its size
            seen.append(kwargs["max_workers"])
            return pool(**kwargs)

        monkeypatch.setattr(optimizers, "ProcessPoolExecutor", recording_pool)
        # the pool size does not depend on this machine's CPU count
        monkeypatch.setattr(optimizers.os, "sched_getaffinity", lambda pid: {0, 1})
        out, first = tmp_path / "run", tmp_path / "first"
        argv = ["sweep", "-c", str(write_config(tmp_path, raw)), "-o", str(out)]
        assert run_cli(argv + ["--workers", "1"]) == 0
        out.rename(first)
        assert run_cli(argv + ["--workers", "2"]) == 0
        assert seen == pools
        files = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
        for rel in files:
            assert (first / rel).read_bytes() == (out / rel).read_bytes(), rel

    def test_identical_seeds_identical_outputs(self, tmp_path):
        out1, out2 = tmp_path / "x1", tmp_path / "x2"
        cfg = toy_config(out1, method="ga")
        cfg["method"].update({"population": 30, "generations": 8, "seed": 11})
        path = write_config(tmp_path, cfg)
        assert run_cli(["synth", "-c", str(path)]) == 0
        assert run_cli(["synth", "-c", str(path), "-o", str(out2)]) == 0
        for name in ("pattern.csv", "metrics.json", "result.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


class TestSweepAndCompare:
    def test_sweep_produces_comparison(self, tmp_path):
        out = tmp_path / "sweep"
        cfg = toy_config(out, method="mpdr", phi=20.0)
        cfg["method"]["name"] = ["mpdr", "go_q"]
        cfg["steering"]["phi_o_deg"] = [10.0, 20.0]
        path = write_config(tmp_path, cfg)
        assert run_cli(["sweep", "-c", str(path)]) == 0
        comparison = json.loads((out / "comparison.json").read_text())
        assert len(comparison["rows"]) == 4
        header = (out / "comparison.csv").read_text().splitlines()[0]
        assert header.startswith("method,phi_o_deg,peak_db,sll_db,pointing_err_deg")
        norm_at_10 = [
            r["target_level_norm_db"] for r in comparison["rows"] if r["phi_o_deg"] == 10.0
        ]
        assert max(norm_at_10) == 0.0  # shared normalization anchored at the smallest angle
        for sub in ("mpdr_phi10", "mpdr_phi20", "go_q_phi10", "go_q_phi20"):
            assert (out / sub / "metrics.json").exists()

    @pytest.mark.parametrize("angles", [[20.0, 20.0000001, 35.0], [20.0, 35.0, 20.0]])
    def test_sweep_refuses_repeated_run_labels(self, tmp_path, capsys, angles):
        """Two angles that share a `go_q_phi<angle:g>` directory would overwrite one run."""
        out = tmp_path / "sweep"
        cfg = toy_config(out, method="go_q")
        cfg["steering"]["phi_o_deg"] = angles
        assert run_cli(["sweep", "-c", str(write_config(tmp_path, cfg))]) == 2
        assert "steering.phi_o_deg" in one_json_error(capsys)["error"]
        assert not out.exists()

    @pytest.mark.parametrize("source", ["toy", "method_sweep", "es20"])
    def test_result_objective_is_the_reported_sidelobe(self, tmp_path, source):
        """Every discrete method's result.json objective_db reads the sll_db of its
        metrics.json within 0.1 dB: both score the exclusion set up to its edges.
        es20 is ES on 20 elements of the shipped cylinder, the perfbench size."""
        if source == "method_sweep":
            raw = yaml.safe_load((REPO / "configs" / "method_sweep.yaml").read_text())
            raw["output"]["directory"] = str(tmp_path / "sweep")
            raw["steering"]["phi_o_deg"] = [15.0, 30.0, 60.0]
            raw["method"].update(population=200, generations=50)
        elif source == "es20":
            raw = toy_config(
                tmp_path / "sweep", method=["es"], phi=[15.0, 30.0, 45.0, 60.0, 75.0],
                geometry={"radius_m": 0.4}, array={"n_elements": 20},
                output={"grid_points": 3601},
            )
        else:
            methods = ["es", "ga", "mpdr", "go_q"]
            raw = toy_config(tmp_path / "sweep", method=methods, phi=[12.0, 20.0, 31.0])
            raw["method"].update(population=200, generations=50)
        assert run_cli(["sweep", "-c", str(write_config(tmp_path, raw))]) == 0
        runs = sorted((tmp_path / "sweep").glob("*_phi*"))
        assert len(runs) == len(raw["steering"]["phi_o_deg"]) * len(raw["method"]["name"])
        for run in runs:
            result = json.loads((run / "result.json").read_text())
            metrics = json.loads((run / "metrics.json").read_text())
            assert "objective_kind" not in result
            assert abs(result["objective_db"] - metrics["sll_db"]) <= 0.1, run.name

    def test_sweep_cases_equal_standalone_runs(self, tmp_path):
        """The per-sweep shared context changes no byte of any case."""
        from dataclasses import replace

        from cylris.pipeline import run_single, run_sweep

        raw = toy_config(tmp_path / "sweep", method=["es", "ga", "mpdr", "go_q"])
        raw["steering"]["phi_o_deg"] = [12.0, 31.0]
        raw["method"].update(population=30, generations=5)
        cfg = parse_config(raw)
        out = run_sweep(cfg)
        assert len(out["entries"]) == 8
        for entry in out["entries"]:
            sub = Path(entry["outdir"])
            one = replace(
                cfg,
                methods=(entry["method"],),
                phi_o_deg=(entry["phi_o_deg"],),
                output={**cfg.output, "directory": str(sub)},
            )
            alone = tmp_path / "alone" / sub.name
            run_single(one, outdir=alone, command="sweep")
            names = sorted(f.name for f in sub.iterdir())
            assert names == sorted(f.name for f in alone.iterdir())
            for name in names:
                assert (sub / name).read_bytes() == (alone / name).read_bytes(), (sub.name, name)

    @pytest.mark.parametrize(
        "source, tables",
        [("method_sweep", [361, 3601]), ("toy", [361, 721, 3601])],
        ids=["method_sweep", "toy"],
    )
    def test_sweep_builds_each_table_once(self, tmp_path, monkeypatch, source, tables):
        """One steering table per distinct grid and one reference lobe, measured
        on the 3601-point table, per sweep; a second sweep of the same array
        builds none, and a cached table is read-only."""
        from cylris import discrete_model, pipeline

        if source == "method_sweep":
            raw = yaml.safe_load((REPO / "configs" / "method_sweep.yaml").read_text())
            raw["method"].update(population=20, generations=2)
            raw["output"]["directory"] = str(tmp_path / "sweep")
        else:
            methods = ["es", "ga", "mpdr", "go_q"]
            raw = toy_config(tmp_path / "sweep", method=methods, phi=[15.0, 30.0])
            raw["method"].update(population=20, generations=2)
        cfg = parse_config(raw)
        calls = {"steering_vector": [], "reference_beamwidth": []}
        steering_vector = discrete_model.steering_vector
        reference_beamwidth = discrete_model.reference_beamwidth

        def counted_steering_vector(array, grid, *args, **kwargs):
            calls["steering_vector"].append(len(grid))
            return steering_vector(array, grid, *args, **kwargs)

        def counted_reference_beamwidth(table, *args, **kwargs):
            calls["reference_beamwidth"].append(len(table.grid))
            return reference_beamwidth(table, *args, **kwargs)

        for module in (pipeline, discrete_model):
            monkeypatch.setattr(module, "steering_vector", counted_steering_vector)
        monkeypatch.setattr(pipeline, "reference_beamwidth", counted_reference_beamwidth)
        pipeline._steering_table.cache_clear()
        pipeline._reference_lobe.cache_clear()
        pipeline.run_sweep(cfg)
        # objective, output and reference grids, each built once
        assert sorted(calls["steering_vector"]) == tables
        assert calls["reference_beamwidth"] == [3601]
        for made in calls.values():
            made.clear()
        pipeline.run_sweep(cfg, outdir=tmp_path / "again")
        assert calls == {"steering_vector": [], "reference_beamwidth": []}
        array = discrete_model.ElementArray(CylinderGeometry(**cfg.geometry), **cfg.array)
        table = pipeline._steering_table(array, cfg.output["objective_grid_points"])
        assert calls["steering_vector"] == [] and not table.a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table.a[0, 0] = 0.0

    def test_sweep_calls_each_optimizer_through_its_module_attribute(self, tmp_path, monkeypatch):
        """A wrapper bound to `optimizers.<name>` sees every case of its method."""
        from cylris.pipeline import run_sweep

        names = ("exhaustive_search", "ga_synthesize", "mpdr_synthesize", "go_quantized")
        angles = [12.0, 31.0, 47.0]
        raw = toy_config(tmp_path / "sweep", method=["es", "ga", "mpdr", "go_q"])
        raw["steering"]["phi_o_deg"] = angles
        raw["method"].update(population=20, generations=2)
        calls = dict.fromkeys(names, 0)

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        for name in names:
            monkeypatch.setattr(optimizers, name, counting(name, getattr(optimizers, name)))
        run_sweep(parse_config(raw))
        assert calls == dict.fromkeys(names, len(angles))

    def test_compare_merges_prior_runs(self, tmp_path):
        d1, d2 = tmp_path / "m", tmp_path / "g"
        p1 = write_config(tmp_path, toy_config(d1, method="mpdr"), "c1.yaml")
        p2 = write_config(tmp_path, toy_config(d2, method="go_q"), "c2.yaml")
        assert run_cli(["synth", "-c", str(p1)]) == 0
        assert run_cli(["synth", "-c", str(p2)]) == 0
        out = tmp_path / "cmp"
        assert run_cli(["compare", str(d1), str(d2), "-o", str(out)]) == 0
        comparison = json.loads((out / "comparison.json").read_text())
        assert {r["method"] for r in comparison["rows"]} == {"mpdr", "go_q"}

    def test_compare_rejects_mismatched_geometry(self, tmp_path, capsys):
        d1, d2 = tmp_path / "m", tmp_path / "g"
        cfg2 = toy_config(d2, method="go_q")
        cfg2["geometry"]["radius_m"] = 0.16
        cfg2["array"]["n_elements"] = 6
        p1 = write_config(tmp_path, toy_config(d1, method="mpdr"), "c1.yaml")
        p2 = write_config(tmp_path, cfg2, "c2.yaml")
        assert run_cli(["synth", "-c", str(p1)]) == 0
        assert run_cli(["synth", "-c", str(p2)]) == 0
        assert run_cli(["compare", str(d1), str(d2), "-o", str(tmp_path / "cmp")]) == 2

    def test_sweep_exact_vs_go_degradation_column(self, tmp_path):
        # the continuous syntheses side by side: the quantization-free
        # steered-lobe gap between them grows monotonically with angle
        out = tmp_path / "sweep"
        cfg = toy_config(out, method="exact")
        cfg["geometry"] = {"radius_m": 0.4, "freq_hz": 3.6e9}
        cfg["array"] = {"n_elements": 30, "arc_pitch_m": 0.038}
        cfg["method"]["name"] = ["exact", "go"]
        cfg["steering"]["phi_o_deg"] = [15.0, 45.0, 75.0]
        cfg["output"]["grid_points"] = 1440
        path = write_config(tmp_path, cfg)
        assert run_cli(["sweep", "-c", str(path)]) == 0
        rows = json.loads((out / "comparison.json").read_text())["rows"]
        levels = {
            (r["method"], r["phi_o_deg"]): r["target_level_abs_db"] for r in rows
        }
        gaps = [levels[("exact", d)] - levels[("go", d)] for d in (15.0, 45.0, 75.0)]
        assert gaps[0] < gaps[1] < gaps[2]

    def test_compare_toy_exhaustive_dominates(self, tmp_path):
        dirs = []
        for method in ("es", "ga", "mpdr", "go_q"):
            d = tmp_path / method
            cfg = toy_config(d, method=method)
            if method == "ga":
                cfg["method"].update({"population": 100, "generations": 50, "seed": 0})
            p = write_config(tmp_path, cfg, f"{method}.yaml")
            assert run_cli(["synth", "-c", str(p)]) == 0
            dirs.append(str(d))
        out = tmp_path / "cmp"
        assert run_cli(["compare", *dirs, "-o", str(out)]) == 0
        rows = json.loads((out / "comparison.json").read_text())["rows"]
        sll = {r["method"]: r["sll_db"] for r in rows}
        # reported SLL is recomputed on the fine grid; allow the grid-split drift
        assert sll["es"] <= min(sll.values()) + 0.1

    def test_single_run_compare_degenerate(self, tmp_path):
        d1 = tmp_path / "m"
        p1 = write_config(tmp_path, toy_config(d1, method="go_q"))
        assert run_cli(["synth", "-c", str(p1)]) == 0
        out = tmp_path / "cmp"
        assert run_cli(["compare", str(d1), "-o", str(out)]) == 0
        comparison = json.loads((out / "comparison.json").read_text())
        assert len(comparison["rows"]) == 1
        assert comparison["rows"][0]["target_level_norm_db"] == 0.0


MODEL_CHECKS = (
    "surface_field_identity",
    "boundary_residual",
    "go_purely_imaginary",
    "go_round_trip_identity",
)


class TestValidate:
    # k0R ~ 30 (the shipped cylinder), ~ 106 and ~ 754 (the perfbench exact_go cylinder)
    @pytest.mark.parametrize(
        "flags",
        [[], ["--radius-m", "1.4"], ["--radius-m", "1", "--freq-hz", "36e9"]],
        ids=["default", "k0r_106", "k0r_754"],
    )
    def test_validate_passes(self, capsys, flags):
        assert run_cli(["validate", *flags]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == [f"PASS {name}" for name in MODEL_CHECKS]

    def test_every_check_samples_the_go_grid_rule(self, capsys, monkeypatch):
        # k0R ~ 3016, where the GO rule asks for more than 3601 points
        need = exact_synth.required_grid_points(CylinderGeometry(4.0, 36e9).k0r, "go")
        assert need == 12454
        lengths = []

        def recording(fn):
            def call(geom, arg, grid, *rest, **kwargs):
                lengths.append(len(grid))
                return fn(geom, arg, grid, *rest, **kwargs)

            return call

        for module, name in [
            (exact_synth, "scattered_surface_field"),
            (exact_synth, "surface_impedance"),
            (go_synth, "go_impedance"),
        ]:
            monkeypatch.setattr(module, name, recording(getattr(module, name)))
        assert run_cli(["validate", "--radius-m", "4", "--freq-hz", "36e9"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == [f"PASS {name}" for name in MODEL_CHECKS]
        assert len(lengths) == 5 and min(lengths) >= need

    def test_a_failing_check_exits_4_with_one_json_line(self, capsys, monkeypatch):
        failing = [("boundary_residual", False, "max residual 1.00e-03")]
        monkeypatch.setattr(cli, "run_validation", lambda **kwargs: failing)
        assert run_cli(["validate"]) == 4
        captured = capsys.readouterr()
        assert "FAIL boundary_residual: max residual 1.00e-03" in captured.out.splitlines()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "validation suite failed", "code": 4}

    def test_a_cylinder_with_no_non_singular_go_sample_fails(self, capsys):
        # k0R ~ 7.5e-8: every GO sample is singular, so the GO checks have nothing to read
        assert run_cli(["validate", "--radius-m", "1e-9"]) == 4
        captured = capsys.readouterr()
        assert captured.out.splitlines()[2:] == [
            "FAIL go_purely_imaginary: no non-singular sample",
            "FAIL go_round_trip_identity: no non-singular sample",
        ]
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "validation suite failed", "code": 4}


def test_angle_units_round_trip(tmp_path):
    # degrees in config and files, radians inside
    out = tmp_path / "run"
    cfg = toy_config(out, method="go_q", phi=37.5)
    path = write_config(tmp_path, cfg)
    assert run_cli(["synth", "-c", str(path)]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["steering"]["phi_o_deg"] == [37.5]
    rows = (out / "pattern.csv").read_text().splitlines()[1:]
    degs = np.array([float(r.split(",")[0]) for r in rows])
    assert degs[0] == -180.0 and degs[-1] < 180.0
    assert abs(metrics["peak_dir_deg"]) <= 180.0


def test_cosine_taper_model_through_pipeline(tmp_path):
    out = tmp_path / "run"
    cfg = toy_config(out, method="go_q")
    cfg["meta_atom"] = {"model": "cosine"}
    path = write_config(tmp_path, cfg)
    assert run_cli(["synth", "-c", str(path)]) == 0
    states = json.loads((out / "states.json").read_text())
    # the state split shrinks with the element's off-axis angle
    splits = {}
    for el in states["elements"]:
        s0, s1 = (complex(s["re"], s["im"]) for s in el["states"])
        splits[abs(el["alpha_deg"])] = abs(np.angle(s1 / s0))
    angles = sorted(splits)
    assert splits[angles[0]] > splits[angles[-1]]


def test_csv_state_table_through_pipeline(tmp_path):
    table = tmp_path / "atom.csv"
    table.write_text(
        "angle_deg,state_index,mag,phase_deg\n"
        "0,0,1.0,0\n0,1,1.0,180\n"
        "80,0,0.95,-20\n80,1,0.9,120\n"
    )
    out = tmp_path / "run"
    cfg = toy_config(out, method="mpdr")
    cfg["meta_atom"] = {"model": "table", "table_path": str(table)}
    path = write_config(tmp_path, cfg)
    assert run_cli(["synth", "-c", str(path)]) == 0
    result = json.loads((out / "result.json").read_text())
    assert all(abs(complex(g["re"], g["im"])) <= 1 + 1e-9 for g in result["gamma"])


@pytest.mark.parametrize(
    "row",
    ["0,1,-1.0,180", "0,1,nan,180", "0,1,inf,180", "0,1,1.0,nan", "nan,1,1.0,180", "inf,1,1.0,180"],
)
def test_malformed_state_table_exits_2_naming_the_line(tmp_path, capsys, row):
    table = tmp_path / "atom.csv"
    table.write_text(f"angle_deg,state_index,mag,phase_deg\n0,0,1.0,0\n{row}\n")
    cfg = toy_config(tmp_path / "run", method="mpdr")
    cfg["meta_atom"] = {"model": "table", "table_path": str(table)}
    assert run_cli(["synth", "-c", str(write_config(tmp_path, cfg))]) == 2
    error = one_json_error(capsys)["error"]
    assert f"{table}: line 3: values must be finite" in error
    assert not (tmp_path / "run" / "pattern.csv").exists()


def test_cos2_element_pattern_through_pipeline(tmp_path):
    out = tmp_path / "run"
    cfg = toy_config(out, method="go_q")
    cfg["array"]["element_pattern"] = "cos2"
    path = write_config(tmp_path, cfg)
    assert run_cli(["synth", "-c", str(path)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["array"]["element_pattern"] == "cos2"


def test_cos2_window_is_the_cos2_reference_lobe(tmp_path):
    """ref_factor scales the cophasal lobe of the configured array, element pattern included."""
    from cylris import AngularGrid, ElementArray, reference_beamwidth, steering_vector
    from cylris.pipeline import run_single

    cfg = toy_config(tmp_path / "run", method="go_q")
    cfg["array"]["element_pattern"] = "cos2"
    out = run_single(parse_config(cfg))
    array = ElementArray(CylinderGeometry(radius_m=0.12, freq_hz=3.6e9), 8, 0.038, "cos2")
    lobe = reference_beamwidth(steering_vector(array, AngularGrid.uniform(3601)), 0.0)
    assert out["delta_phi_deg"] == pytest.approx(1.2 * np.degrees(lobe), rel=1e-12)
    assert out["delta_phi_deg"] == pytest.approx(62.50, abs=0.005)


@pytest.mark.parametrize("method", ["exact", "go"])
def test_bessel_overflow_exits_4_with_one_json_line(tmp_path, capsys, method):
    """Y_m(k0 R) overflows on a 1e-30 m cylinder: a numerical failure, not a traceback."""
    cfg = toy_config(
        tmp_path / "run", method=method, geometry={"radius_m": 1e-30},
        steering={"delta_phi_mode": "absolute_deg", "value": 20.0},
    )
    del cfg["array"]
    assert run_cli(_synth_argv(tmp_path, cfg)) == 4
    payload = one_json_error(capsys)
    assert payload["code"] == 4 and "overflow" in payload["error"]
    assert not (tmp_path / "run" / "pattern.csv").exists()


@pytest.mark.parametrize("method", ["exact", "go"])
def test_infinite_k0r_exits_2_with_one_json_line(tmp_path, capsys, method):
    """R = 1e300 m at 1e300 Hz passes the positive checks, but k0 R overflows to inf."""
    cfg = toy_config(
        tmp_path / "run", method=method, geometry={"radius_m": 1e300, "freq_hz": 1e300},
        steering={"delta_phi_mode": "absolute_deg", "value": 20.0},
    )
    del cfg["array"]
    assert run_cli(_synth_argv(tmp_path, cfg)) == 2
    payload = one_json_error(capsys)
    assert payload["code"] == 2 and "electrical size" in payload["error"]
    assert not (tmp_path / "run" / "pattern.csv").exists()


def _limit_address_space():
    """Cap the child's address space at 2 GiB (runs in the child only)."""
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


OUT_OF_MEMORY = {
    "grid_points_1e12": lambda tmp: [
        "-c", str(REPO / "configs" / "toy_es.yaml"), "--grid-points", "1000000000000"
    ],
    # with grids that resolve the cylinder's modes, so MPDR starts
    "mpdr_radius_30000m": lambda tmp: [
        "-c",
        str(write_config(tmp, toy_config(
            tmp / "run", geometry={"radius_m": 30000.0},
            output=dict.fromkeys(
                ("grid_points", "objective_grid_points"),
                exact_synth.required_grid_points(CylinderGeometry(30000.0, 3.6e9).k0r, "exact"),
            ),
        ))),
    ],
}


@pytest.mark.parametrize("name", OUT_OF_MEMORY)
def test_out_of_memory_exits_3_with_one_json_line(tmp_path, name):
    """A size that does not fit in memory ends at the resource guard, not in a traceback."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "cylris.cli", "synth", *OUT_OF_MEMORY[name](tmp_path),
         "-o", str(tmp_path / "run")],
        capture_output=True, text=True, env=env, preexec_fn=_limit_address_space, timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["code"] == 3


def test_es_budget_override(tmp_path):
    out = tmp_path / "run"
    cfg = toy_config(out, method="es")
    cfg["method"]["budget"] = 100  # 2^8 = 256 > 100: refused
    path = write_config(tmp_path, cfg)
    assert run_cli(["synth", "-c", str(path)]) == 3
    cfg["method"]["budget"] = 256
    cfg["output"]["directory"] = str(tmp_path / "run2")
    path2 = write_config(tmp_path, cfg, "c2.yaml")
    assert run_cli(["synth", "-c", str(path2)]) == 0


def test_state_sets_audit_export(tmp_path):
    out = tmp_path / "run"
    path = write_config(tmp_path, toy_config(out, method="go_q"))
    assert run_cli(["synth", "-c", str(path)]) == 0
    states = json.loads((out / "states.json").read_text())
    assert len(states["elements"]) == 8
    for el in states["elements"]:
        assert len(el["states"]) == 2
        assert abs(el["alpha_deg"]) < 90.0


def test_shipped_baseline_config_runs(tmp_path):
    import pathlib

    baseline = pathlib.Path(__file__).resolve().parents[1] / "configs" / "baseline_mpdr.yaml"
    out = tmp_path / "baseline"
    assert run_cli(["synth", "-c", str(baseline), "-o", str(out)]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["sll_db"] < 0
    assert abs(metrics["peak_dir_deg"] - 15.0) < 3.0
    for name in ("pattern.csv", "metrics.json", "result.json", "manifest.json"):
        assert (out / name).exists()


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cylris.cli", "--version"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "cylris" in proc.stdout
