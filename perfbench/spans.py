"""In-memory span tracer that wraps the library's public functions.

A span is (name, start, end, parent). Wrappers are installed from outside
the library: each traced function is replaced, by identity, under every name
that any `cylris` module binds it to. That covers from-imports such as
`pipeline.steering_vector` or `go_synth.far_field_exact`, and calls inside
the defining module, which look the name up in its globals.

Counters are derived from argument shapes at the call boundary, never from
inside the library, so they count the work a call was asked to do.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

# module -> traced public functions. specfun and the io writers are traced
# whole; elsewhere the functions that own a stage of the run.
LAYERS = {
    "config": ("parse_config",),
    "pipeline": ("run_sweep", "run_single"),
    "discrete_model": ("steering_vector", "reference_window", "far_field_discrete"),
    "optimizers": (
        "build_sigma",
        "mpdr_synthesize",
        "ga_synthesize",
        "exhaustive_search",
        "go_quantized",
    ),
    "meta_atom": ("state_sets_for_array",),
    "specfun": None,  # every name in specfun.__all__
    "exact_synth": (
        "modal_coefficients",
        "surface_impedance",
        "far_field_exact",
    ),
    "go_synth": ("go_impedance", "expansion_from_surface_field", "far_field_po"),
    "patterns": ("pattern_metrics",),
    "io": (
        "write_pattern_csv",
        "write_impedance_csv",
        "write_go_impedance_csv",
        "write_metrics_json",
        "write_result_json",
        "write_state_sets_json",
        "write_json",
    ),
}


def _modal_cells(fn: str, args, result) -> int:
    """grid x (2M+1) of the dense phase matrix the call builds."""
    if fn == "expansion_from_surface_field":  # (geom, e_surface, grid) -> expansion
        return len(args[2]) * result.coeffs.size
    if fn == "far_field_exact":  # (expansion, grid)
        expansion, grid = args[:2]
    else:  # surface_impedance(geom, expansion, grid)
        expansion, grid = args[1:3]
    return len(grid) * expansion.coeffs.size


class Tracer:
    """Records spans and boundary counters while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, float] = defaultdict(float)
        self.steering_keys: set = set()
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # --- recording ---------------------------------------------------------

    def _count(self, layer: str, fn: str, args, kwargs, result) -> None:
        c = self.counters
        if fn == "steering_vector":
            array, grid = args[:2]
            pattern = kwargs.get("element_pattern", args[2] if len(args) > 2 else "cos")
            c["steering_vector.cells"] += len(grid) * array.n_elements
            self.steering_keys.add(
                (
                    array.geom.radius_m,
                    array.geom.freq_hz,
                    array.n_elements,
                    array.arc_pitch_m,
                    len(grid),
                    float(grid.values[0]),
                    pattern,
                )
            )
        elif fn == "build_sigma":
            c["build_sigma.grid_points"] += len(args[0].grid)
        elif fn in ("mpdr_synthesize", "ga_synthesize", "exhaustive_search"):
            c[f"{fn}.evaluations"] += result.evaluations
            if fn == "exhaustive_search":
                workers = kwargs.get("workers", args[4] if len(args) > 4 else 1)
                c["exhaustive_search.workers"] = max(c["exhaustive_search.workers"], workers)
        elif fn in ("surface_impedance", "far_field_exact", "expansion_from_surface_field"):
            c[f"{layer}.modal_cells"] += _modal_cells(fn, args, result)
        elif layer == "io":
            c["io.files"] += 1
            c["io.bytes"] += os.path.getsize(args[0])

    def wrap(self, layer: str, fn_name: str, fn):
        spans, stack, name = self.spans, self._stack, f"{layer}.{fn_name}"
        counters, calls_key, count = self.counters, f"{layer}.{fn_name}.calls", self._count

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            counters[calls_key] += 1
            count(layer, fn_name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    # --- installing --------------------------------------------------------

    def install(self) -> None:
        """Replace every traced function under every name a cylris module binds."""
        modules = {name: importlib.import_module(f"cylris.{name}") for name in LAYERS}
        bound = [m for n, m in sys.modules.items() if n == "cylris" or n.startswith("cylris.")]
        for layer, names in LAYERS.items():
            mod = modules[layer]
            for fn_name in names if names is not None else mod.__all__:
                original = getattr(mod, fn_name)
                traced = self.wrap(layer, fn_name, original)
                for m in bound:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, traced)
                            self._patched.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    # --- analysis ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus child-span coverage."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child):
            out[name] += (end - start) - covered
        return dict(out)

    def inclusive_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans:
            out[name] += end - start
        return dict(out)

    def write(self, path) -> None:
        """Write the recorded spans as JSON: one [name, start, end, parent] each."""
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)
