"""Property-based fuzz of the command-line boundary.

Each example runs `cylris synth` in-process on the toy configuration (8
elements on a 12 cm cylinder, a small GA) with up to two keys set to a
drawn value: None, a bool, an integer, a float (nan and inf included), a
short string or a list. Whatever the input, the run ends in a documented
exit code, reports a failure as exactly one JSON line on stderr (one that
names the config key when the exit code is 2), and never reports success
with a non-finite peak or sidelobe level.

Finite numbers stay within +-1000, and the radius within +-2 m (k0R <= 151
at 3.6 GHz), so every example is small: grid sizes, psi scans and the
electrical size k0R all scale the work (an MPDR run at k0R ~ 1e6 asks for
gigabytes), and that is not what this test probes.
"""

import json
import math
import re
import shutil

import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cylris.cli import main
from cylris.config import METHOD_NAMES


GA = {"population": 8, "generations": 2, "seed": 1}


def _toy(method: str) -> dict:
    return {
        "geometry": {"radius_m": 0.12, "freq_hz": 3.6e9},
        "array": {"n_elements": 8, "arc_pitch_m": 0.038, "element_pattern": "cos"},
        "steering": {"phi_o_deg": 20.0, "delta_phi_mode": "ref_factor", "value": 1.2},
        "meta_atom": {"model": "constant"},
        "method": {"name": method, **(GA if method == "ga" else {})},
        "output": {"grid_points": 721, "objective_grid_points": 181},
    }


KEYS = (
    ("geometry", "radius_m"),
    ("geometry", "freq_hz"),
    ("array", "n_elements"),
    ("array", "arc_pitch_m"),
    ("array", "element_pattern"),
    ("steering", "phi_o_deg"),
    ("steering", "delta_phi_mode"),
    ("steering", "value"),
    ("meta_atom", "model"),
    ("method", "name"),
    ("method", "seed"),
    ("method", "p_crossover"),
    ("method", "p_mutation"),
    ("method", "budget"),
    ("method", "workers"),
    ("method", "shadow_model"),
    ("output", "grid_points"),
    ("output", "objective_grid_points"),
)

# The largest finite number drawn for a key; the radius sets k0R.
LIMITS = {("geometry", "radius_m"): 2}


def values(limit: int):
    return st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-5, max_value=limit),
        st.floats(min_value=-limit, max_value=limit),
        st.sampled_from([math.nan, math.inf, -math.inf]),
        st.text(max_size=4),
        st.lists(st.integers(min_value=-5, max_value=90), max_size=3),
    )


# an exit-2 message names the config key it refuses
NAMES_A_KEY = re.compile(
    r"\b(geometry|array|steering|meta_atom|method|output)(\.\w+|: unknown key)"
)

MUTATIONS = st.lists(
    st.sampled_from(KEYS).flatmap(
        lambda key: st.tuples(st.just(key), values(LIMITS.get(key, 1000)))
    ),
    max_size=2,
)


@settings(
    max_examples=400,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(method=st.sampled_from(METHOD_NAMES), mutations=MUTATIONS)
def test_synth_ends_in_a_documented_exit(tmp_path, capsys, method, mutations):
    cfg = _toy(method)
    for (section, key), value in mutations:
        cfg[section][key] = value
    cfg["output"]["directory"] = str(tmp_path / "run")
    shutil.rmtree(tmp_path / "run", ignore_errors=True)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    capsys.readouterr()

    code = main(["synth", "-c", str(path)])

    err = capsys.readouterr().err.strip().splitlines()
    assert code in (0, 2, 3, 4)
    if code:
        assert len(err) == 1
        payload = json.loads(err[0])
        assert payload["code"] == code
        if code == 2:
            assert NAMES_A_KEY.search(payload["error"]), payload["error"]
    else:
        metrics = json.loads((tmp_path / "run" / "metrics.json").read_text())
        assert metrics["peak_db"] is not None and math.isfinite(metrics["peak_db"])
        assert metrics["sll_db"] is not None and math.isfinite(metrics["sll_db"])
