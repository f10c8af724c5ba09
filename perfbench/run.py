"""cylris benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload mpdr_sweep --seed 1 --seconds 20 --trace 0

Run from the repository root; the library is imported from ./src. With
`--trace 0` the run reports the end-to-end metrics. With `--trace 1` it
reports the per-layer metrics: every other pass is traced, and the untraced
passes between them give the reference wall time under the same machine
conditions. Human-readable lines go first; the last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`. The exit code is 0 only when every output check passed.
`--smoke` swaps in tiny sizes so a run takes seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_PROBES = 4  # extra fresh interpreters timed to first case; median of 5
DEADLINE_S = 170.0  # every child is killed by then, so the run ends within 180 s
MODAL_BYTES_PER_CELL = 16  # complex128
P90_MIN_SAMPLES = 100  # p90 is reported only with >= 10 samples beyond it
TRACE_CONSISTENCY = 0.10  # per-layer self times must sum to within 10% of wall time


class ChildFailed(RuntimeError):
    pass


def run_child(spec: dict, tag: str, started: float) -> tuple[dict, float, float]:
    """Run child.py on `spec`; return (result, set-up seconds, peak RSS in MB)."""
    out_dir = ROOT / ".perfbench"
    spec_path = out_dir / f"{tag}.spec.json"
    result_path = out_dir / f"{tag}.result.json"
    spec_path.write_text(json.dumps(spec))
    result_path.unlink(missing_ok=True)
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), str(spec_path), str(result_path)],
        stdout=sys.stderr,
        start_new_session=True,
    )
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() - started > DEADLINE_S:
            os.killpg(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise ChildFailed(f"{tag}: killed at the {DEADLINE_S:.0f} s deadline")
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not result_path.exists():
        raise ChildFailed(f"{tag}: workload process exited with {proc.returncode}")
    result = json.loads(result_path.read_text())
    spec_path.unlink()
    if spec["setup_only"]:
        result_path.unlink()
    return result, result["ready"] - spawned, usage.ru_maxrss / 1024.0


def _quantile_report(times: list[float]) -> str:
    if len(times) < P90_MIN_SAMPLES:
        return f"n/a ({len(times)} samples; needs {P90_MIN_SAMPLES})"
    return f"{statistics.quantiles(times, n=10)[-1]:.6g} s ({len(times)} samples)"


def end_to_end(result: dict, setups: list[float], rss_mb: float) -> dict:
    times = [c["s"] for c in result["cases"]]
    return {
        "cases_per_s": (statistics.median(n / s for n, s, _ in result["passes"]), "1/s"),
        "case_s.p50": (statistics.median(times), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def _case_s(passes: list, traced: bool) -> float:
    """Mean wall seconds per case over the traced or the untraced passes."""
    chosen = [(n, s) for n, s, t in passes if t == traced]
    return sum(s for _, s in chosen) / sum(n for n, _ in chosen)


def self_sum_frac(result: dict) -> float:
    """Per-case sum of every self time over the untraced case wall time."""
    traced_cases = sum(n for n, _, t in result["passes"] if t)
    traced_s = sum(result["layers"]["self_s"].values()) / traced_cases
    return traced_s / _case_s(result["passes"], False)


def per_layer(result: dict) -> dict:
    """Per-case self times of the traced passes and counters of the first one."""
    lay = result["layers"]
    cases = sum(n for n, _, t in result["passes"] if t)
    self_s, incl, cnt = lay["self_s"], lay["inclusive_s"], lay["counters"]
    cnt0 = lay["counters_first_pass"]
    cases0 = cnt0["cases"]

    def fn_s(span):  # self seconds per case of one traced function
        return (self_s.get(span, 0.0) / cases, "s")

    def layer_s(module):  # self seconds per case of a whole module
        return (sum(v for k, v in self_s.items() if k.startswith(module + ".")) / cases, "s")

    def per_case(key, unit="count"):
        return (cnt0.get(key, 0.0) / cases0, unit)

    def per_call(key, span):
        calls = cnt0.get(f"{span}.calls", 0.0)
        return (cnt0.get(key, 0.0) / calls if calls else 0.0, "count")

    def evals_per_s(fn):
        t = incl.get(f"optimizers.{fn}", 0.0)
        return (cnt.get(f"{fn}.evaluations", 0.0) / t if t else 0.0, "1/s")

    sv_calls = cnt0.get("discrete_model.steering_vector.calls", 0.0)
    specfun_calls = sum(v for k, v in cnt0.items() if k.startswith("specfun."))
    overhead = 1 / _case_s(result["passes"], False) - 1 / _case_s(result["passes"], True)
    quality = result["quality"]
    return {
        "config.parse_s": (result["config_parse_s"], "s"),
        "steering_vector.s": fn_s("discrete_model.steering_vector"),
        "steering_vector.calls": per_case("discrete_model.steering_vector.calls"),
        "steering_vector.cells": per_case("steering_vector.cells"),
        "steering_vector.distinct_frac": (
            cnt0.get("steering_vector.distinct", 0) / sv_calls if sv_calls else 0.0,
            "ratio",
        ),
        "reference_window.s": fn_s("discrete_model.reference_window"),
        "reference_window.calls": per_case("discrete_model.reference_window.calls"),
        "far_field_discrete.s": fn_s("discrete_model.far_field_discrete"),
        "build_sigma.s": fn_s("optimizers.build_sigma"),
        "build_sigma.grid_points": per_call("build_sigma.grid_points", "optimizers.build_sigma"),
        "mpdr_synthesize.s": fn_s("optimizers.mpdr_synthesize"),
        "mpdr_synthesize.evaluations": per_call(
            "mpdr_synthesize.evaluations", "optimizers.mpdr_synthesize"
        ),
        "ga_synthesize.s": fn_s("optimizers.ga_synthesize"),
        "ga_synthesize.evals_per_s": evals_per_s("ga_synthesize"),
        "exhaustive_search.s": fn_s("optimizers.exhaustive_search"),
        "exhaustive_search.evals_per_s": evals_per_s("exhaustive_search"),
        "exhaustive_search.workers": (cnt0.get("exhaustive_search.workers", 0.0), "count"),
        "go_quantized.s": fn_s("optimizers.go_quantized"),
        "state_sets_for_array.s": fn_s("meta_atom.state_sets_for_array"),
        "specfun.s": layer_s("specfun"),
        "specfun.calls": (specfun_calls / cases0, "count"),
        "modal_coefficients.s": fn_s("exact_synth.modal_coefficients"),
        "surface_impedance.s": fn_s("exact_synth.surface_impedance"),
        "far_field_exact.s": fn_s("exact_synth.far_field_exact"),
        "exact_synth.modal_cells": per_case("exact_synth.modal_cells"),
        "exact_synth.modal_bytes": (
            MODAL_BYTES_PER_CELL * cnt0.get("exact_synth.modal_cells", 0.0) / cases0,
            "bytes",
        ),
        "go_synth.modal_cells": per_case("go_synth.modal_cells"),
        "go_impedance.s": fn_s("go_synth.go_impedance"),
        "expansion_from_surface_field.s": fn_s("go_synth.expansion_from_surface_field"),
        "far_field_po.s": fn_s("go_synth.far_field_po"),
        "pattern_metrics.s": fn_s("patterns.pattern_metrics"),
        "io.write_s": layer_s("io"),
        "io.bytes": per_case("io.bytes", "bytes"),
        "io.files": per_case("io.files"),
        "pipeline.self_s": layer_s("pipeline"),
        "trace.overhead_cases_per_s": (overhead, "1/s"),
        "sll_db.worst": (quality["sll_db.worst"], "dB"),
        "pointing_err_deg.max": (quality["pointing_err_deg.max"], "deg"),
    }


def failures(result: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over the cases and the output checks.

    A sweep that raised outside any case still counts as one failure.
    """
    bad_cases = [c for c in result["cases"] if not c["ok"]]
    bad_checks = [c for c in result["checks"] if not c["ok"]]
    messages = [f"case {c['method']} at {c['phi_o_deg']} deg failed" for c in bad_cases]
    messages += [f"check {c['name']} failed: {c['detail']}" for c in bad_checks]
    messages += [e.strip().splitlines()[-1] for e in result["errors"]]
    failed = len(bad_cases) + len(bad_checks)
    if result["errors"] and not bad_cases:
        failed += 1
    attempted = max(len(result["cases"]) + len(result["checks"]), failed, 1)
    return attempted, failed, messages


def print_report(args, result: dict, metrics: dict, extra: list[str]) -> None:
    cases = result["cases"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
          f"{'  (smoke)' if args.smoke else ''}")
    print(f"environment {json.dumps(result['env'], sort_keys=True)}")
    passes = result["passes"]
    print(f"cases {len(cases)} in {len(passes)} passes ({sum(t for *_, t in passes)} traced), "
          f"{sum(s for _, s, _ in passes):.3f} s (closed loop, one client)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34s} {value:>16.6g} {unit}")
    for line in extra:
        print(line)
    for check in result["checks"]:
        print(f"  check {check['name']}: {'PASS' if check['ok'] else 'FAIL'} ({check['detail']})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not (ROOT / "src" / "cylris" / "__init__.py").is_file():
        sys.stderr.write(f"error: no cylris sources under {ROOT / 'src'}\n")
        return 2
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    spec = {
        "root": str(ROOT),
        "workdir": str(ROOT / ".perfbench" / tag),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "es_workers": workloads.es_workers() if args.workload == "es_search" else None,
        "trace": bool(args.trace),
        "setup_only": False,
    }
    try:
        setups = [
            run_child({**spec, "setup_only": True}, f"{tag}-probe{i}", started)[1]
            for i in range(0 if args.trace else SETUP_PROBES)
        ]
        result, setup, rss = run_child(spec, tag, started)
    except ChildFailed as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    attempted, failed, messages = failures(result)
    metrics: dict = {}
    extra = [f"  failed_frac {failed / attempted:.6g} ({failed} of {attempted})"]
    if not failed and args.trace == 0:
        metrics = end_to_end(result, setups + [setup], rss)
        times = [c["s"] for c in result["cases"]]
        extra += [
            f"  {'case_s.p90':<34s} {_quantile_report(times)}",
            f"  {'sll_db.worst':<34s} {result['quality']['sll_db.worst']:>16.6g} dB",
            f"  {'pointing_err_deg.max':<34s} "
            f"{result['quality']['pointing_err_deg.max']:>16.6g} deg",
        ]
    elif not failed:
        metrics = per_layer(result)
        frac = self_sum_frac(result)
        within = abs(frac - 1) <= TRACE_CONSISTENCY
        extra += [
            f"  tracing overhead (untraced - traced cases_per_s): "
            f"{metrics['trace.overhead_cases_per_s'][0]:.6g} 1/s",
            f"  trace consistency: layer self times sum to {frac:.4f} of the untraced case "
            f"wall time ({'within' if within else 'OUTSIDE'} {TRACE_CONSISTENCY:.0%})",
        ]
    print_report(args, result, metrics, extra)
    for message in messages:
        print(f"FAILED: {message}")
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
