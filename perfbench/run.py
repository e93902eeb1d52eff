"""The repository's benchmark: three workloads, end to end and per layer.

Usage::

    python3 perfbench/run.py --workload {figures,explore,serve} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` runs the workload untraced for about ``--seconds``
(several passes, each in a fresh program process) and prints the
end-to-end metrics as medians over the passes.  ``--trace 1`` runs one
untraced and one traced pass and prints the per-layer metrics from the
traced one, plus the tracing overhead.  Both check every output.

Human-readable report lines come first; the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).  A record of the run, with its
health readings, is written under ``.perfbench/runs/``.  The exit code
is 0 only if the run completed and every check passed.

See ``perfbench/README.md`` for the workloads, the metrics and how to
read them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import time
from pathlib import Path
from typing import Any, Callable

import layers
import procs
import stats
import workloads

#: End-to-end metric -> (unit, which way is better).  Every workload
#: reports every one of them.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
WORKLOADS = ("figures", "explore", "serve")
DEFAULT_SEED = 1
RUN_DEADLINE_S = 170.0
FIGURE_REFERENCE = procs.ROOT / "results" / "figures.json"


def log(line: str = "") -> None:
    print(line, flush=True)


def passes_for(workload: str, seconds: float) -> int:
    """How many passes fill about ``seconds`` (at least one)."""
    return max(1, int(seconds // workloads.PASS_SECONDS[workload]))


# -- set-up --------------------------------------------------------------


def preflight() -> list[str]:
    """Problems that make a run impossible (missing program, ...)."""
    problems = []
    if not (procs.ROOT / "src" / "repro" / "cli.py").is_file():
        problems.append(f"no program source at {procs.ROOT / 'src' / 'repro'}")
    if not Path("/proc/stat").exists():
        problems.append("no /proc/stat: the benchmark needs Linux")
    return problems


def warm_caches(tmp: Path) -> bool:
    """Fill the private bytecode cache with the whole program and the
    benchmark's own modules, and compile (or find) the native kernel in
    the private kernel cache; untimed.  True if the kernel loaded."""
    child = procs.Child(
        procs.python_cmd(
            "-c",
            "import compileall, sys\n"
            f"compileall.compile_dir({str(procs.ROOT / 'src' / 'repro')!r}, quiet=1)\n"
            f"compileall.compile_dir({str(procs.BENCH)!r}, quiet=1)\n"
            "import repro.cli\n"
            "from repro.kernels.native import load_native_kernel\n"
            "sys.exit(0 if load_native_kernel() is not None else 3)",
        ),
        deadline_s=600, stderr_path=tmp / "warm.stderr",
    )
    return child.reap().returncode == 0


# -- one run -------------------------------------------------------------


class Run:
    """Collects a run's passes, checks and report lines."""

    def __init__(self, workload: str, seed: int, tmp: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.passes: list[tuple[int, dict]] = []
        self.extra_setups: list[float] = []
        self.host_speed: list[float] = []
        self.checks: list[tuple[str, bool, str]] = []
        self.attempted = 0
        self.failed = 0
        self.health: dict[str, Any] = {}
        self.report: dict[str, Any] = {}

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(ok for _, ok, _ in self.checks)


def run_passes(run: Run, one_pass: Callable[..., dict], count: int,
               deadline: float, **kwargs: Any) -> None:
    """``count`` untraced passes (fewer if the deadline comes first)."""
    for index in range(count):
        if index and time.monotonic() > deadline:
            log(f"note: stopping after {index} pass(es): run deadline")
            break
        run.host_speed.append(procs.host_speed_s())
        run.passes.append((index, one_pass(run.seed, index, run.tmp, **kwargs)))


def take_setup_samples(run: Run, deadline: float, **kwargs: Any) -> None:
    """Start the program without work until the run has enough set-up
    samples for a steady median."""
    while len(run.passes) + len(run.extra_setups) < workloads.SETUP_SAMPLES:
        if time.monotonic() > deadline:
            break
        run.extra_setups.append(SETUP[run.workload](run.seed, run.tmp, **kwargs))


def end_to_end(run: Run) -> dict[str, float]:
    """Medians over the untraced passes, their set-up-only samples and,
    for ``serve``, the slices of each pass (``workloads.wall_samples``)."""
    untraced = [result for _, result in run.passes]
    metrics = {name: stats.median([p[name] for p in untraced]) for name in END_TO_END}
    metrics["setup_s"] = stats.median([p["setup_s"] for p in untraced] + run.extra_setups)
    metrics["wall_s"] = stats.median(
        [w for p in untraced for w in p.get("wall_samples", [p["wall_s"]])])
    return metrics


# -- workload-specific checks and report -----------------------------------


def finish_figures(run: Run, checked: list[tuple[int, dict]]) -> None:
    results = [result for _, result in checked]
    run.attempted = sum(r["operations"] for r in results)
    reference = FIGURE_REFERENCE.read_bytes()
    outputs = {r["output_sha256"] for r in results}
    run.check("figures: every pass wrote the same bytes", len(outputs) == 1,
              f"{len(outputs)} distinct output(s)")
    if run.seed == DEFAULT_SEED:
        same = Path(results[0]["output_path"]).read_bytes() == reference
        run.check("figures: output equals results/figures.json", same)
    run.report["digest"] = workloads.digest(sorted(outputs))
    run.report["store_entries"] = results[0]["program"]["store_entries"]
    run.report["store_hit_ratio"] = _ratio(
        results[0]["program"]["store_hits"], results[0]["program"]["store_misses"])
    slowest = sorted(results[0]["figure_s"].items(), key=lambda kv: -kv[1])[:4]
    run.report["slowest_figures_s"] = {k: round(v, 3) for k, v in slowest}
    run.report["failed_frac"] = 0.0


def finish_explore(run: Run, checked: list[tuple[int, dict]]) -> None:
    results = checked
    run.attempted = sum(r["operations"] for _, r in results)
    failed_points = sum(r["failed_points"] for _, r in results)
    for index, result in results:
        run.check(f"explore: study {index} exited 0", result["exit_code"] == 0)
        run.check(f"explore: study {index} spent its budget of 256",
                  result["operations"] == 256, str(result["operations"]))
    reference = workloads.REFERENCE / f"explore-seed{DEFAULT_SEED}.json"
    for index, result in results:
        if workloads.explore_seed(run.seed, index) != DEFAULT_SEED:
            continue
        expected = json.loads(reference.read_text())
        frontier = (workloads.REFERENCE / expected["frontier_file"]).read_bytes()
        run.check("explore: frontier bytes equal the reference",
                  result["frontier_bytes"] == frontier)
        run.check("explore: failed-point count equals the reference",
                  result["failed_points"] == expected["failed_points"],
                  f"{result['failed_points']} vs {expected['failed_points']}")
    run.report["digest"] = workloads.digest(
        [[workloads.explore_seed(run.seed, i), r["frontier_sha256"], r["failed_points"]]
         for i, r in results])
    run.report["failed_frac"] = failed_points / run.attempted
    run.report["failed_points"] = failed_points
    run.report["frontier_sizes"] = [r["frontier_size"] for _, r in results]
    run.report["stderr_bytes"] = [r["stderr_bytes"] for _, r in results]


def finish_serve(run: Run, checked: list[tuple[int, dict]]) -> None:
    """Latency tables, failures and the byte-identity oracle."""
    rows = [row for _, result in checked for row in result["rows"]]
    run.attempted = len(rows)
    run.failed = sum(1 for row in rows if row[1] != 200)
    oracle = workloads.serve_oracle(run.seed, checked, run.tmp)
    run.check("serve: every 200 body equals the direct engine's bytes",
              not oracle["mismatches"],
              f"{oracle['checked']} checked, {oracle['distinct']} distinct, "
              f"mismatches: {oracle['mismatches'][:5]}")
    run.check("serve: every request answered 200", run.failed == 0,
              f"{run.failed} of {run.attempted} failed")
    run.report["digest"] = workloads.digest(
        [[index, [row[3] for row in result["rows"]]] for index, result in checked])
    untraced = [result for _, result in run.passes]
    latencies: dict[str, list[float]] = {}
    for result in untraced:
        for kind, status, latency, *_ in result["rows"]:
            if status == 200:
                latencies.setdefault(kind, []).append(latency * 1e3)
    table = {}
    for name, kind, q in (("hit_p50_ms", "hit", 50), ("hit_p99_ms", "hit", 99),
                          ("miss_p50_ms", "miss", 50), ("miss_p90_ms", "miss", 90),
                          ("sweep_p50_ms", "sweep", 50)):
        try:
            value = stats.percentile(latencies.get(kind, []), q)
            table[name] = [round(value.value, 4), value.count]
        except stats.TooFewSamples as exc:
            table[name] = ["n/a", str(exc)]
    run.report["latency_ms_and_samples"] = table
    run.report["rps"] = round(stats.median(
        [len(r["rows"]) / r["wall_s"] for r in untraced]), 2)
    run.report["failed_frac"] = run.failed / run.attempted
    run.health["loadgen_cpu_s"] = [round(r["loadgen_cpu_s"], 3) for r in untraced]
    run.health["loadgen_late_p50_ms"] = [round(r["loadgen_late_p50_ms"], 3) for r in untraced]
    run.health["loadgen_late_max_ms"] = [round(r["loadgen_late_max_ms"], 3) for r in untraced]


FINISH = {"figures": finish_figures, "explore": finish_explore, "serve": finish_serve}
PASS = {"figures": workloads.figures_pass, "explore": workloads.explore_pass,
        "serve": workloads.serve_pass}
SETUP = {"figures": workloads.program_setup, "explore": workloads.program_setup,
         "serve": workloads.serve_setup}


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


# -- traced run ------------------------------------------------------------


def traced_metrics(run: Run, untraced: dict, traced: dict) -> dict[str, float]:
    """Per-layer metrics from the traced pass, plus tracing overhead."""
    program = dict(traced.get("program", {}))
    if run.workload == "serve":
        snapshot = traced["service_metrics"]
        server_p50 = (snapshot["histograms"]["service_latency_s"]["p50"] or 0.0) * 1e3
        hits = [row[2] * 1e3 for row in traced["rows"] if row[0] == "hit" and row[1] == 200]
        client_p50 = stats.percentile(hits, 50).value
        program.update({
            "service.server_p50_ms": server_p50,
            "service.http_overhead_ms": client_p50 - server_p50,
            "service.store_hit_ratio": snapshot["derived"]["store_hit_rate"],
            "service.coalesce_ratio": snapshot["derived"]["coalesce_hit_rate"],
            "service.rejected": snapshot["counters"].get("rejected_total", 0),
            "warehouse.disk_hits": snapshot["engine"]["store_disk_hits"],
            "warehouse.promotions": snapshot["engine"]["store_promotions"],
        })
    metrics = layers.layer_metrics(traced["spans"], program)
    metrics["trace.wall_s"] = traced["wall_s"]
    metrics["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    wall = traced["wall_s"]
    run.report["shares_of_traced_wall"] = {
        "sim.transfer (inclusive)": round(metrics["sim.transfer.total_s"] / wall, 3),
        "sim.run_many (self)": round(metrics["sim.run_many.self_s"] / wall, 3),
        "encoding.ecc (self)": round(metrics["encoding.ecc.self_s"] / wall, 3),
    }
    run.report["untraced_wall_s"] = untraced["wall_s"]
    return metrics


# -- entry point -----------------------------------------------------------


def execute(args: argparse.Namespace, tmp: Path) -> tuple[Run, dict[str, float], dict]:
    deadline = time.monotonic() + min(RUN_DEADLINE_S - 40, max(args.seconds, 1) * 1.5)
    run = Run(args.workload, args.seed, tmp)
    run.health["native_kernel"] = warm_caches(tmp)
    kwargs: dict[str, Any] = {}
    if args.workload == "serve":
        kwargs["template"] = workloads.prepare_warehouse(args.seed, tmp)
    steal = procs.host_steal_ticks()
    if args.trace:
        run_passes(run, PASS[args.workload], 1, deadline, **kwargs)
        traced = PASS[args.workload](args.seed, 0, tmp, trace=True, **kwargs)
        metrics = traced_metrics(run, run.passes[0][1], traced)
        units = layers.PER_LAYER
        checked = run.passes + [(0, traced)]
    else:
        run_passes(run, PASS[args.workload], passes_for(args.workload, args.seconds),
                   deadline, **kwargs)
        take_setup_samples(run, deadline + 15, **kwargs)
        metrics = end_to_end(run)
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
        checked = run.passes
    FINISH[args.workload](run, checked)
    run.health["steal_ticks_total"] = procs.host_steal_ticks() - steal
    run.health["steal_ticks_per_pass"] = [r["steal_ticks"] for _, r in run.passes]
    run.health["host_loop_s_before_pass"] = [round(v, 4) for v in run.host_speed]
    run.health["loadavg_at_end"] = os.getloadavg()
    run.report["passes"] = len(run.passes)
    for name in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb"):
        run.report[f"{name}_per_pass"] = [round(r[name], 4) for _, r in run.passes]
    run.report["setup_s_extra_samples"] = [round(v, 4) for v in run.extra_setups]
    return run, metrics, units


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Children inherit an ignored SIGINT (as from a shell's background
    # job), and ``repro serve`` stops on SIGINT; so catch it here, which
    # leaves it at its default in every child.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    problems = preflight()
    if problems:
        for problem in problems:
            print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    tmp = procs.WORK / f"run-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        run, metrics, units = execute(args, tmp)
    except (RuntimeError, OSError) as exc:  # PassFailed, a server that never listened, ...
        print(f"perfbench: {args.workload} failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    log(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
        f"python={platform.python_version()} cpus={os.cpu_count()}")
    for name, value in metrics.items():
        log(f"  {name:34s} {value:14.6g} {units[name]}")
    for key, value in run.report.items():
        log(f"  {key}: {value}")
    log(f"  health: {json.dumps(run.health)}")
    for name, ok, detail in run.checks:
        log(f"  check {'ok  ' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    record = procs.WORK / "runs" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(time.time())}.json")
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps(
        {"args": vars(args), "result": result, "report": run.report,
         "health": run.health, "checks": run.checks}, indent=1, default=str))
    log(json.dumps(result))
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
