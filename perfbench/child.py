"""Workload process: one client running a workload's passes in a closed loop.

Started by run.py as `python3 child.py SPEC.json RESULT.json`, in a fresh
interpreter so that set-up time and peak RSS belong to the workload alone.
Each pass is one `pipeline.run_sweep` call; each (method, angle) case starts
only after the previous one has finished. Passes continue until the run
time is used up, to the nearest whole pass.
"""

from __future__ import annotations

import ctypes
import glob
import json
import math
import os
import platform
import shutil
import sys
import time
import traceback
from pathlib import Path

RESIDUAL_LIMIT = 1e-8  # the `cylris validate` boundary-residual threshold
METRIC_KEYS = ("peak_db", "peak_dir_deg", "sll_db", "beamwidth_deg", "target_level_db")


def _blas_threads() -> int | None:
    """Thread count of the loaded OpenBLAS, read through its C API."""
    import numpy as np

    libs_dir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libs_dir / "*openblas*")):
        cdll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(cdll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(spec: dict) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "es_workers": spec["es_workers"],
        "workload": spec["workload"],
        "seed": spec["seed"],
        "smoke": spec["smoke"],
    }


def _finite(metrics: dict) -> bool:
    return all(metrics.get(k) is not None and math.isfinite(metrics[k]) for k in METRIC_KEYS)


def _rerun_matches(pipeline, call: tuple) -> tuple[bool, str]:
    """Run a recorded case again with identical arguments; compare its artifacts."""
    one, args, kwargs, case_dir = call
    first = case_dir.with_name(case_dir.name + ".first")
    case_dir.rename(first)
    pipeline.run_single(one, *args, **kwargs)
    names = sorted(p.name for p in first.iterdir())
    if names != sorted(p.name for p in case_dir.iterdir()):
        return False, f"{case_dir.name}: file sets differ on rerun"
    differ = [n for n in names if (first / n).read_bytes() != (case_dir / n).read_bytes()]
    if differ:
        return False, f"{case_dir.name}: {', '.join(differ)} differ on rerun"
    return True, f"{case_dir.name}: {len(names)} files identical"


def _boundary_residual(case_dir: Path) -> float:
    """Worst boundary residual of a written exact-synthesis impedance.csv."""
    import numpy as np

    from cylris import exact_synth
    from cylris.geometry import AngularGrid, CylinderGeometry

    conf = json.loads((case_dir / "manifest.json").read_text())["config"]
    geom = CylinderGeometry(**conf["geometry"])
    rows = np.loadtxt(case_dir / "impedance.csv", delimiter=",", skiprows=1)
    grid = AngularGrid.uniform(conf["output"]["grid_points"])
    profile = exact_synth.ImpedanceProfile(
        grid=grid, z_over_eta0=rows[:, 1] + 1j * rows[:, 2], pole_mask=rows[:, 3] != 0
    )
    expansion = exact_synth.modal_coefficients(geom, np.radians(conf["steering"]["phi_o_deg"][0]))
    return float(np.nanmax(exact_synth.boundary_residual(geom, expansion, profile)))


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    root = Path(spec["root"])
    src = root / "src"
    sys.path.insert(0, str(src))
    import cylris
    from cylris import config, pipeline

    if Path(cylris.__file__).resolve().parent != (src / "cylris").resolve():
        raise ImportError(f"cylris imported from {cylris.__file__}, not from {src}")
    import workloads

    def raw_config(index: int) -> dict:
        return workloads.pass_config(spec["workload"], spec["seed"], index, root, spec["smoke"])

    raw = raw_config(0)
    t_parse = time.perf_counter()
    cfg = config.parse_config(raw)
    result: dict = {"ready": time.monotonic(), "config_parse_s": time.perf_counter() - t_parse}
    if spec["setup_only"]:
        Path(result_path).write_text(json.dumps(result))
        return 0
    result["env"] = environment(spec)

    # Every case is timed at the run_single boundary. A traced pass wraps
    # this timer too, so its span covers the whole case.
    cases: list[dict] = []
    first_call: list[tuple] = []  # (config, args, kwargs, outdir) of the first case
    run_single = pipeline.run_single

    def timed_run_single(one, *args, **kwargs):
        t0 = time.perf_counter()
        ok = False
        try:
            out = run_single(one, *args, **kwargs)
            ok = _finite(out["metrics"])
            if not first_call:
                first_call.append((one, args, kwargs, Path(out["outdir"])))
            return out
        finally:
            cases.append(
                {
                    "method": one.methods[0],
                    "phi_o_deg": one.phi_o_deg[0],
                    "s": time.perf_counter() - t0,
                    "ok": ok,
                }
            )

    pipeline.run_single = timed_run_single
    # With tracing on, odd passes are traced and even passes are not, so the
    # untraced reference runs under the same machine conditions.
    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
    work = Path(spec["workdir"])
    errors: list[str] = []
    quality = None
    pass0_dirs: list[Path] = []
    counters: dict = {}
    passes: list[list] = []  # [cases, seconds, traced] of every completed pass
    min_passes = 2 if tracer is not None else 1
    t_start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        t_pass = time.perf_counter()
        n_before = len(cases)
        try:
            if passes:
                cfg = config.parse_config(raw_config(len(passes)))
            out = pipeline.run_sweep(cfg, outdir=work / f"pass{len(passes)}")
            pass_s = time.perf_counter() - t_pass
        except Exception:  # a failing case ends the run; it is counted, not hidden
            errors.append(traceback.format_exc())
            break
        finally:
            if traced:
                tracer.uninstall()
        passes.append([len(cases) - n_before, pass_s, traced])
        if len(passes) == 1:
            rows = out["comparison"]["rows"]
            # non-finite values are already counted as failed cases
            quality = {
                "sll_db.worst": max(
                    (r["sll_db"] for r in rows if r["sll_db"] is not None), default=None
                ),
                "pointing_err_deg.max": max(r["pointing_err_deg"] for r in rows),
            }
            pass0_dirs = [Path(e["outdir"]) for e in out["entries"]]
        elif len(passes) == 2 and traced:
            counters = {
                **tracer.counters,
                "steering_vector.distinct": len(tracer.steering_keys),
                "cases": passes[-1][0],
            }
        loop_s = time.perf_counter() - t_start
        if len(passes) >= min_passes and loop_s + 0.5 * loop_s / len(passes) >= spec["seconds"]:
            break
    pipeline.run_single = run_single

    result.update(cases=cases, passes=passes, quality=quality, errors=errors, checks=[])
    if tracer is not None:
        tracer.write(work.parent / f"{work.name}.spans.json")
        result["layers"] = {
            "self_s": tracer.self_times(),
            "inclusive_s": tracer.inclusive_times(),
            "counters": dict(tracer.counters),
            "counters_first_pass": counters,
        }
    if not errors:
        checks = result["checks"]
        ok, detail = _rerun_matches(pipeline, first_call[0])
        checks.append({"name": "rerun_bytes", "ok": ok, "detail": detail})
        exact_dirs = [d for d in pass0_dirs if d.name.startswith("exact_")]
        if exact_dirs:
            worst = _boundary_residual(exact_dirs[0])
            checks.append(
                {
                    "name": "boundary_residual",
                    "ok": worst < RESIDUAL_LIMIT,
                    "detail": f"{exact_dirs[0].name}: max residual {worst:.2e} "
                    f"(limit {RESIDUAL_LIMIT:.0e})",
                }
            )
    shutil.rmtree(work, ignore_errors=True)
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
