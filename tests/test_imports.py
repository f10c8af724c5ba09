"""Import weight: only the Bessel-function paths load `scipy.special`, and
only `load_config` loads `yaml`.

Each check runs in a fresh interpreter, so no module this test session has
already imported can hide or cause the load.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

RUN_METHODS = """
import sys

import yaml

import cylris.cli
from cylris import config, pipeline

raw = yaml.safe_load(open(sys.argv[1]).read())
for method in sys.argv[3:]:
    name, _, params = method.partition(":")
    raw["method"] = {"name": name, **yaml.safe_load(params or "{}")}
    pipeline.run_single(config.parse_config(raw), outdir=f"{sys.argv[2]}/{name}")
"""


def run_fresh(tmp_path, script, *methods):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(REPO / "src"), *sys.path])}
    argv = [str(REPO / "configs" / "toy_es.yaml"), str(tmp_path), *methods]
    proc = subprocess.run(
        [sys.executable, "-c", RUN_METHODS + textwrap.dedent(script), *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_discrete_runs_never_load_scipy_special(tmp_path):
    out = run_fresh(
        tmp_path,
        "print('scipy.special' in sys.modules)",
        "mpdr",
        "go_q",
        "es:{workers: 1}",
        "ga:{population: 20, generations: 3, seed: 1}",
    )
    assert out.split() == ["False"]
    for name in ("mpdr", "go_q", "es", "ga"):
        assert (tmp_path / name / "pattern.csv").is_file(), name


def test_exact_run_and_validation_load_scipy_special(tmp_path):
    script = """
    print('scipy.special' in sys.modules)
    assert all(ok for _, ok, _ in pipeline.run_validation())
    print('scipy.special' in sys.modules)
    """
    assert run_fresh(tmp_path, script, "exact").split() == ["True", "True"]
    assert (tmp_path / "exact" / "impedance.csv").is_file()


def test_import_cylris_loads_neither_yaml_nor_scipy_special():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(REPO / "src"), *sys.path])}
    script = "import sys, cylris; print('yaml' in sys.modules, 'scipy.special' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]
