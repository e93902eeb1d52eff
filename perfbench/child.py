"""Processes the benchmark starts; each runs the program one way.

Usage (the benchmark starts these; they are not meant for hand use)::

    python child.py setup --out RESULT
    python child.py figures --seed S --out RESULT [--trace SPANS]
    python child.py explore --seed S --dir JOURNAL --out RESULT [--trace SPANS]
    python child.py serve --trace SPANS --out RESULT -- SERVE_ARGS...
    python child.py oracle --seed S --requests R --rows ROWS --out RESULT

``setup``, ``figures`` and ``explore`` print ``READY <monotonic>`` once
``repro.cli`` is imported and the native kernel loaded (the end of
set-up), then run the timed phase and write a JSON result.  ``serve``
is the traced ``repro serve`` launcher: it installs the span wrappers
in the server process and hands over to ``repro.cli.main``.
``oracle`` recomputes every ``serve`` response directly.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib
import inspect
import io
import json
import pkgutil
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer

FIGURE_SAMPLE_BLOCKS = 3000


def _setup() -> dict:
    """Import the CLI and load the native kernel, timing each."""
    start = time.perf_counter()
    import repro.cli  # noqa: F401

    imported = time.perf_counter()
    from repro.kernels.native import load_native_kernel

    load_native_kernel()
    loaded = time.perf_counter()
    return {"cli.import_s": imported - start, "kernels.native_load_s": loaded - imported}


def _ready() -> None:
    print(f"READY {time.monotonic()!r}", flush=True)


def _store_program_counts(program: dict, stores) -> None:
    hits = misses = entries = 0
    for store in stores:
        stats = store.stats()
        hits, misses, entries = hits + stats.hits, misses + stats.misses, entries + stats.size
    program.update(store_hits=hits, store_misses=misses, store_entries=entries)


def _start_trace(path: str | None):
    if path is None:
        return None, None
    import layers

    tracer = Tracer()
    return tracer, layers.install(tracer)


def _finish_trace(tracer, counts, program: dict, path: str | None) -> None:
    if tracer is None:
        return
    from repro.kernels.native import native_available

    tracer.restore()
    tracer.dump(path)
    program["failed_jobs"] = counts.failed_jobs
    program["native"] = native_available()


def figure_runners(seed: int) -> list[tuple[str, object]]:
    """Every figure harness, in name order, bound to ``seed``.

    The configuration is the one ``repro all --sample-blocks 3000``
    runs, with the workload seed in ``SystemConfig.seed`` (and the
    ``seed`` of the block-value harnesses).
    """
    import repro.experiments as experiments
    from repro.sim.config import SystemConfig

    system = SystemConfig(sample_blocks=FIGURE_SAMPLE_BLOCKS, seed=seed)
    runners = []
    for info in sorted(pkgutil.iter_modules(experiments.__path__), key=lambda m: m.name):
        if not info.name.startswith("fig"):
            continue
        module = importlib.import_module(f"repro.experiments.{info.name}")
        params = inspect.signature(module.run).parameters
        if "system" in params:
            call = functools.partial(module.run, system)
        elif "num_blocks" in params:
            call = functools.partial(module.run, num_blocks=FIGURE_SAMPLE_BLOCKS, seed=seed)
        else:
            call = module.run
        runners.append((info.name.split("_")[0], call))
    return runners


def run_setup(args) -> dict:
    program = _setup()
    _ready()
    return {"program": program}


def run_figures(args) -> dict:
    program = _setup()
    _ready()
    tracer, counts = _start_trace(args.trace)
    results, timings = {}, {}
    cpu = time.process_time()
    start = time.perf_counter()
    runners = figure_runners(args.seed)
    for name, call in runners:
        began = time.perf_counter()
        results[name] = call()
        timings[name] = time.perf_counter() - began
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu
    _finish_trace(tracer, counts, program, args.trace)
    from repro.sim.store import RESULT_STORE

    _store_program_counts(program, [RESULT_STORE, *(counts.stores if counts else [])])
    output = json.dumps(results, indent=2, default=str).encode()
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "operations": len(runners),
        "figure_s": timings,
        "output_sha256": hashlib.sha256(output).hexdigest(),
        "output_path": _write_bytes(args.out, ".figures.json", output),
        "program": program,
    }


def run_explore(args) -> dict:
    program = _setup()
    import repro.cli

    _ready()
    tracer, counts = _start_trace(args.trace)
    argv = ["explore", "--preset", "frontier", "--seed", str(args.seed),
            "--out", args.dir, "--json"]
    captured = io.StringIO()
    cpu = time.process_time()
    start = time.perf_counter()
    with contextlib.redirect_stdout(captured):
        code = repro.cli.main(argv)
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu
    _finish_trace(tracer, counts, program, args.trace)
    if counts is not None:
        _store_program_counts(program, counts.stores)
    summary = json.loads(captured.getvalue())
    frontier = (Path(args.dir) / "frontier.json").read_bytes()
    program["frontier_size"] = len(summary["frontier"])
    return {
        "exit_code": code,
        "wall_s": wall,
        "cpu_s": cpu,
        "operations": summary["evaluations"],
        "failed_points": summary["failed"],
        "frontier_size": len(summary["frontier"]),
        "frontier_sha256": hashlib.sha256(frontier).hexdigest(),
        "frontier_path": str(Path(args.dir) / "frontier.json"),
        "program": program,
    }


def run_serve(args) -> dict:
    program = _setup()
    import repro.cli

    tracer, counts = _start_trace(args.trace)
    code = repro.cli.main(["serve", *args.serve_args])
    _finish_trace(tracer, counts, program, args.trace)
    _store_program_counts(program, counts.stores)
    return {"exit_code": code, "program": program}


def run_oracle(args) -> dict:
    """Recompute every distinct ``serve`` reply and compare digests.

    ``/simulate`` replies must equal ``encode_json(result_to_payload(r))``
    for ``r`` a direct ``StagedEngine(ResultStore()).run``; ``/sweep``
    replies must equal the same response shape built from
    ``repro.sim.sweeps.sweep``.
    """
    import loadgen
    from repro.service import codec
    from repro.sim.config import SystemConfig
    from repro.sim.engine import StagedEngine
    from repro.sim.store import ResultStore
    from repro.sim.sweeps import sweep
    from repro.workloads.profiles import profile

    with open(args.rows, encoding="utf-8") as handle:
        passes = json.load(handle)
    mismatches, checked, distinct = [], 0, 0
    for pass_index, rows in passes:
        # A fresh engine per pass, as each pass has a fresh server: the
        # store keeps every new seed's sample, so memory stays at one pass.
        engine = StagedEngine(ResultStore())
        expected: dict[str, str] = {}
        sequence = loadgen.request_sequence(args.seed, pass_index, args.requests)
        for index, (item, row) in enumerate(zip(sequence, rows, strict=True)):
            kind, status, digest = row[0], row[1], row[3]
            if status != 200:
                continue
            text = json.dumps([item["path"], item["payload"]], sort_keys=True)
            if text not in expected:
                payload = item["payload"]
                if item["path"] == "/simulate":
                    job = codec.job_from_payload(payload)
                    body = codec.result_to_payload(
                        engine.run(job.app, job.scheme, job.system)
                    )
                else:
                    body = _sweep_reply(codec, sweep, profile, SystemConfig, payload)
                expected[text] = hashlib.sha256(codec.encode_json(body)).hexdigest()
            checked += 1
            if expected[text] != digest:
                mismatches.append(f"pass {pass_index} request {index} ({kind})")
        distinct += len(expected)
    return {"checked": checked, "distinct": distinct, "mismatches": mismatches}


def _sweep_reply(codec, sweep, profile, system_cls, payload: dict) -> dict:
    """The ``/sweep`` response shape, from the library's ``sweep``."""
    scheme = codec.scheme_from_payload(payload["scheme"])
    base = codec.system_from_payload(payload["system"])
    apps = [profile(name) for name in payload["apps"]]
    points = sweep(scheme, base, apps, **payload["fields"])
    return {
        "scheme": scheme.label(),
        "apps": [app.name for app in apps],
        "points": [
            {"params": p.params, "cycles": p.cycles, "l2_energy_j": p.l2_energy_j,
             "processor_energy_j": p.processor_energy_j,
             "hit_latency": p.hit_latency, "edp": p.edp}
            for p in points
        ],
        "failed_points": [
            {"params": f.params, "app": f.app, "reason": f.reason,
             "attempts": f.attempts}
            for f in points.failed_points
        ],
    }


def _write_bytes(result_path: str, suffix: str, data: bytes) -> str:
    path = result_path + suffix
    Path(path).write_bytes(data)
    return path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--out", required=True)
    for mode in ("figures", "explore"):
        p = sub.add_parser(mode)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--trace", default=None)
        if mode == "explore":
            p.add_argument("--dir", required=True)
    p = sub.add_parser("serve")
    p.add_argument("--trace", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("serve_args", nargs=argparse.REMAINDER)
    p = sub.add_parser("oracle")
    for flag in ("--seed", "--requests"):
        p.add_argument(flag, type=int, required=True)
    p.add_argument("--rows", required=True)
    p.add_argument("--out", required=True)
    args = parser.parse_args()
    if args.mode == "serve" and args.serve_args[:1] == ["--"]:
        args.serve_args = args.serve_args[1:]
    run = {"setup": run_setup, "figures": run_figures, "explore": run_explore,
           "serve": run_serve, "oracle": run_oracle}[args.mode]
    try:
        result = run(args)
    except Exception:
        result = {"error": traceback.format_exc()}
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 1 if "error" in result else 0


if __name__ == "__main__":
    sys.exit(main())
