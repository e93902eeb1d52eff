"""The three workloads: one *pass* each, and a run of several passes.

A pass starts the program fresh, so every pass pays (and measures)
set-up; a run reports the median of its passes.

* ``figures``: every figure harness at the ``results/figures.json``
  configuration, cold result store, in one process.
* ``explore``: ``repro explore --preset frontier --seed S`` on the local
  backend, journaled into a fresh directory.  Pass ``i`` uses seed
  ``S + i * EXPLORE_SEED_STRIDE``, so a run spans several studies
  (their failure counts differ); pass 0 is the study at seed ``S``.
* ``serve``: ``repro serve --warehouse`` on a fresh copy of a warehouse
  the program filled with the hot set, driven closed-loop by one
  load-generator process over two keep-alive connections.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
from pathlib import Path
from typing import Any

import loadgen
import procs
from spans import load_spans

#: Nominal cost of one pass, used to size a run to ``--seconds``.
PASS_SECONDS = {"figures": 7.0, "explore": 9.5, "serve": 9.0}
EXPLORE_SEED_STRIDE = 1_000_003
SERVE_REQUESTS = 2000
SERVE_CONNECTIONS = 2
#: Requests per slice of a serve pass (see :func:`wall_samples`).
SLICE_REQUESTS = 250
#: No single program process may take longer (a pass takes 5-15 s).
CHILD_DEADLINE_S = 60.0
#: Set-up samples per run: passes plus set-up-only starts.
SETUP_SAMPLES = 7

REFERENCE = procs.BENCH / "reference"


class PassFailed(RuntimeError):
    """The program did not complete a pass."""


def _read_result(path: Path) -> dict:
    try:
        result = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise PassFailed(f"no result at {path}: {exc}") from exc
    if "error" in result:
        raise PassFailed(result["error"])
    return result


def _program_pass(mode: str, args: list[str], tmp: Path, trace: bool) -> dict:
    """One figures/explore pass in a fresh program process."""
    out = tmp / f"{mode}.json"
    spans = tmp / f"{mode}.spans.json"
    cmd = procs.bench_script(
        "child.py", mode, *args, "--out", str(out),
        *(["--trace", str(spans)] if trace else []),
    )
    steal = procs.host_steal_ticks()
    child = procs.Child(cmd, CHILD_DEADLINE_S, stdout=subprocess.PIPE,
                        stderr_path=tmp / f"{mode}.stderr")
    line = child.proc.stdout.readline().split()
    ready = float(line[1]) if line[:1] == [b"READY"] else None
    reaped = child.reap()
    steal = procs.host_steal_ticks() - steal
    if ready is None or reaped.returncode != 0:
        stderr = (tmp / f"{mode}.stderr").read_text(errors="replace")[-3000:]
        detail = _read_result(out) if out.exists() else {}
        raise PassFailed(f"{mode} exited {reaped.returncode}: {detail or stderr}")
    result = _read_result(out)
    result.update(
        setup_s=ready - child.spawned,
        peak_rss_mb=reaped.peak_rss_mb,
        steal_ticks=steal,
        stderr_bytes=(tmp / f"{mode}.stderr").stat().st_size,
    )
    if trace:
        result["spans"] = load_spans(str(spans))
    return result


def program_setup(seed: int, tmp: Path, **kwargs: Any) -> float:
    """One set-up sample: a program process that stops once ready."""
    return _program_pass("setup", [], tmp, trace=False)["setup_s"]


def figures_pass(seed: int, index: int, tmp: Path, trace: bool = False) -> dict:
    return _program_pass("figures", ["--seed", str(seed)], tmp, trace)


def explore_seed(seed: int, index: int) -> int:
    return seed + index * EXPLORE_SEED_STRIDE


def explore_pass(seed: int, index: int, tmp: Path, trace: bool = False) -> dict:
    journal = tmp / "journal"  # fresh: a reused journal is a replay
    shutil.rmtree(journal, ignore_errors=True)
    result = _program_pass(
        "explore",
        ["--seed", str(explore_seed(seed, index)), "--dir", str(journal)],
        tmp, trace,
    )
    result["frontier_bytes"] = Path(result["frontier_path"]).read_bytes()
    return result


# -- serve -------------------------------------------------------------


def _start_server(warehouse: Path, tmp: Path, trace: bool) -> tuple:
    serve_args = ["--host", "127.0.0.1", "--port", "0", "--warehouse", str(warehouse)]
    stderr = tmp / "serve.stderr"
    if trace:
        cmd = procs.bench_script(
            "child.py", "serve", "--trace", str(tmp / "serve.spans.json"),
            "--out", str(tmp / "serve.json"), "--", *serve_args,
        )
    else:
        cmd = procs.python_cmd("-m", "repro", "serve", *serve_args)
    child = procs.Child(cmd, CHILD_DEADLINE_S, stderr_path=stderr)
    try:
        port = procs.wait_listening(child, stderr, timeout_s=60)
        ready = procs.wait_healthy(port, timeout_s=60)
    except RuntimeError:
        child.kill()
        child.reap()
        raise
    return child, port, ready - child.spawned


def _stop_server(child: procs.Child) -> procs.Reaped:
    child.interrupt()
    reaped = child.reap()
    if reaped.returncode != 0:
        raise PassFailed(f"repro serve exited {reaped.returncode}")
    return reaped


def prepare_warehouse(seed: int, tmp: Path) -> Path:
    """Have the program fill a warehouse with the hot set (untimed)."""
    template = tmp / "warehouse-template"
    shutil.rmtree(template, ignore_errors=True)
    child, port, _ = _start_server(template, tmp, trace=False)
    try:
        for payload in loadgen.hot_set(seed):
            status, _ = procs.http_json(port, "POST", "/simulate", payload)
            if status != 200:
                raise PassFailed(f"hot-set request failed with {status}: {payload}")
    finally:
        _stop_server(child)
    return template


def _fresh_warehouse(template: Path, tmp: Path) -> Path:
    """A private copy of the prepared warehouse, written back to disk
    before the server starts so the copy's write-back stays untimed."""
    warehouse = tmp / "warehouse"
    shutil.rmtree(warehouse, ignore_errors=True)
    shutil.copytree(template, warehouse)
    os.sync()
    return warehouse


def serve_setup(seed: int, tmp: Path, template: Path, **kwargs: Any) -> float:
    """One set-up sample: start a server on a fresh warehouse copy, stop it."""
    warehouse = _fresh_warehouse(template, tmp)
    child, _, setup_s = _start_server(warehouse, tmp, trace=False)
    _stop_server(child)
    return setup_s


def serve_pass(seed: int, index: int, tmp: Path, trace: bool = False,
               template: Path | None = None) -> dict:
    warehouse = _fresh_warehouse(template, tmp)
    child, port, setup_s = _start_server(warehouse, tmp, trace)
    rows_path = tmp / "loadgen.json"
    try:
        steal, cpu = procs.host_steal_ticks(), procs.process_cpu_s(child.pid)
        generator = procs.Child(
            procs.bench_script(
                "loadgen.py", "--port", str(port), "--seed", str(seed),
                "--pass-index", str(index), "--requests", str(SERVE_REQUESTS),
                "--connections", str(SERVE_CONNECTIONS), "--out", str(rows_path),
            ),
            CHILD_DEADLINE_S, stderr_path=tmp / "loadgen.stderr",
        )
        if generator.reap().returncode != 0:
            raise PassFailed((tmp / "loadgen.stderr").read_text(errors="replace")[-3000:])
        cpu = procs.process_cpu_s(child.pid) - cpu
        steal = procs.host_steal_ticks() - steal
        status, snapshot = procs.http_json(port, "GET", "/metrics")
    finally:
        reaped = _stop_server(child)
    load = json.loads(rows_path.read_text())
    result = {
        "setup_s": setup_s,
        "wall_s": load["wall_s"],
        "wall_samples": wall_samples([row[4] for row in load["rows"]]),
        "cpu_s": cpu,
        "peak_rss_mb": reaped.peak_rss_mb,
        "operations": len(load["rows"]),
        "rows": load["rows"],
        "loadgen_cpu_s": load["cpu_s"],
        "loadgen_late_p50_ms": load["late_p50_ms"],
        "loadgen_late_max_ms": load["late_max_ms"],
        "steal_ticks": steal,
        "service_metrics": snapshot if status == 200 else {},
    }
    if trace:
        result["program"] = _read_result(tmp / "serve.json")["program"]
        result["spans"] = load_spans(str(tmp / "serve.spans.json"))
    return result


def wall_samples(completed_at: list[float]) -> list[float]:
    """The pass's wall time as paced by each slice of its requests.

    Slice *k* is the time from the (k*SLICE)-th to the ((k+1)*SLICE)-th
    completion, scaled to the whole pass.  The run's ``wall_s`` is the
    median over every slice of every pass, so a burst of host CPU steal
    that stalls a few seconds of one pass moves a few slices, not the
    median.
    """
    done = sorted(completed_at)
    marks = [0.0] + done[SLICE_REQUESTS - 1::SLICE_REQUESTS]
    return [(b - a) * len(done) / SLICE_REQUESTS for a, b in zip(marks, marks[1:])]


def serve_oracle(seed: int, passes: list[tuple[int, dict]], tmp: Path) -> dict:
    """Recompute every 200 reply of the run directly (see child.oracle).

    ``passes`` pairs each pass's index (its request sequence) with its
    result.
    """
    rows = tmp / "oracle-rows.json"
    rows.write_text(json.dumps([[index, p["rows"]] for index, p in passes]))
    out = tmp / "oracle.json"
    child = procs.Child(
        procs.bench_script(
            "child.py", "oracle", "--seed", str(seed),
            "--requests", str(SERVE_REQUESTS), "--rows", str(rows), "--out", str(out),
        ),
        CHILD_DEADLINE_S, stderr_path=tmp / "oracle.stderr",
    )
    child.reap()
    return _read_result(out)


def digest(parts: list[Any]) -> str:
    return hashlib.sha256(json.dumps(parts, sort_keys=True).encode()).hexdigest()[:16]

