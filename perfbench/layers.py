"""The repository's layers: where spans are recorded and what they sum to.

:func:`install` wraps the public boundary of every layer the benchmark
reports, in the process that runs the program (the figures or explore
process, or the ``repro serve`` launcher).  :func:`layer_metrics` turns
the recorded spans, plus the counters the program reports itself, into
the per-layer metrics, every one of them for every workload: a layer a
workload never enters reads zero.

Boundaries, by layer:

* ``sim``: the five stages (``stages.sample_workload``, the transfer
  model's ``transfer_stats``, ``stages.design_cache``,
  ``stages.solve_timing``, ``stages.account_energy``), one engine
  job (``StagedEngine.run``) and the batch front-end
  (``StagedEngine.run_many``).
* ``encoding``: not a separate span; each transfer span is tagged with
  its scheme family, and a family's self time is the transfer self
  time of its schemes (kernel calls excluded).
* ``kernels``: the pipeline dispatchers in ``repro.kernels.pipeline``.
* ``explore``: ``HaltonSampler.draw``, ``ParetoFrontier.add``, the
  ``StudyJournal`` writers, ``LocalBackend.submit``.
* ``service``: ``ServiceServer._route`` (one request, the root of its
  spans), ``SimulationService.submit``, the codec functions and
  ``Executor.execute``; the executor's worker thread adopts the
  ``execute`` span so engine spans nest under it.
* ``warehouse``: ``SegmentWarehouse.__init__`` (open and scan).
"""

from __future__ import annotations

import threading
from typing import Any

from spans import Span, Tracer, layer_totals, self_times

__all__ = ["PER_LAYER", "install", "layer_metrics"]

SIM_STAGES = ("workload", "transfer", "cache_design", "timing", "energy")
FAMILIES = ("binary", "bus_invert", "zero_compression", "desc", "ecc")
KERNELS = (
    "desc_stream_arrays",
    "binary_flips",
    "dzc_flips",
    "bus_invert_flips",
    "block_assemble",
    "group_rank",
)


def _per_layer() -> dict[str, str]:
    units: dict[str, str] = {
        "cli.import_s": "s",
        "kernels.native_load_s": "s",
        "warehouse.open_s": "s",
    }
    for stage in SIM_STAGES:
        units[f"sim.{stage}.self_s"] = "s"
        units[f"sim.{stage}.calls"] = "count"
    units.update({
        "sim.transfer.total_s": "s",
        "sim.run.self_s": "s",
        "sim.run_many.self_s": "s",
        "sim.failed_jobs": "count",
        "sim.attempts": "count",
        "sim.store.hit_ratio": "ratio",
        "sim.store.entries": "count",
    })
    for family in FAMILIES:
        units[f"encoding.{family}.self_s"] = "s"
    for kernel in KERNELS:
        units[f"kernels.{kernel}.self_s"] = "s"
        units[f"kernels.{kernel}.calls"] = "count"
    units["kernels.native"] = "bool"
    for part in ("sample", "frontier", "journal", "backend"):
        units[f"explore.{part}.self_s"] = "s"
    units.update({
        "explore.journal.records": "count",
        "explore.evals": "count",
        "explore.failed_evals": "count",
        "explore.frontier_size": "count",
        "service.server_p50_ms": "ms",
        "service.http_overhead_ms": "ms",
        "service.submit.self_s": "s",
        "service.codec.self_s": "s",
        "service.execute.self_s": "s",
        "service.batches": "count",
        "service.batch_size_mean": "count",
        "service.store_hit_ratio": "ratio",
        "service.coalesce_ratio": "ratio",
        "service.rejected": "count",
        "warehouse.disk_hits": "count",
        "warehouse.promotions": "count",
        "trace.wall_s": "s",
        "trace.overhead_s": "s",
        "trace.spans": "count",
    })
    return units


#: Every per-layer metric name -> unit, in report order.
PER_LAYER: dict[str, str] = _per_layer()

#: Metrics where more is better; for the rest, less is better (less
#: time, fewer calls, fewer failures).
HIGHER_IS_BETTER = {
    "sim.store.hit_ratio",
    "kernels.native",
    "explore.evals",
    "explore.frontier_size",
    "service.batch_size_mean",
    "service.store_hit_ratio",
    "service.coalesce_ratio",
    "warehouse.disk_hits",
    "warehouse.promotions",
}


def _family(scheme: Any) -> str:
    """The encoding family a scheme's transfer belongs to."""
    if scheme.ecc_segment_bits:
        return "ecc"
    if scheme.is_desc:
        return "desc"
    if scheme.name.startswith("bus-invert"):
        return "bus_invert"
    if scheme.name == "zero-compression":
        return "zero_compression"
    return "binary"  # binary and its one-wire variant, serial


class _Counts:
    """Counters taken from return values at the boundaries."""

    def __init__(self) -> None:
        self.failed_jobs = 0
        self.stores: list[Any] = []

    def run_many_result(self, results: list) -> None:
        from repro.sim.engine import FailedJob

        self.failed_jobs += sum(isinstance(r, FailedJob) for r in results)


def install(tracer: Tracer) -> _Counts:
    """Wrap every layer boundary; call after the program is imported."""
    import repro.sim.stages as stages
    from repro.explore.backends import LocalBackend
    from repro.explore.frontier import ParetoFrontier
    from repro.explore.sampling import HaltonSampler
    from repro.explore.study import StudyJournal
    from repro.kernels import pipeline
    from repro.service import codec
    from repro.service.pipeline import SimulationService
    from repro.service.server import ServiceServer
    from repro.service.stages import Executor
    from repro.sim.engine import StagedEngine
    from repro.sim.store import ResultStore
    from repro.sim.transfer import BaselineTransferModel, DescTransferModel
    from repro.sim.warehouse import SegmentWarehouse

    counts = _Counts()
    fn, meth = tracer.patch_function, tracer.patch_method

    fn(stages, "sample_workload", "sim.workload")
    fn(stages, "design_cache", "sim.cache_design")
    fn(stages, "solve_timing", "sim.timing")
    fn(stages, "account_energy", "sim.energy")
    for model in (DescTransferModel, BaselineTransferModel):
        meth(model, "transfer_stats", "sim.transfer",
             tag=lambda self, *a, **k: _family(self.scheme))
    meth(StagedEngine, "run", "sim.run")
    meth(StagedEngine, "run_many", "sim.run_many",
         on_result=counts.run_many_result)
    for kernel in KERNELS:
        fn(pipeline, kernel, f"kernels.{kernel}")

    meth(HaltonSampler, "draw", "explore.sample")
    meth(ParetoFrontier, "add", "explore.frontier")
    meth(StudyJournal, "load", "explore.journal")
    meth(StudyJournal, "write_meta", "explore.journal", tag=lambda *a, **k: "record")
    meth(StudyJournal, "write_eval", "explore.journal", tag=lambda *a, **k: "record")
    meth(StudyJournal, "write_frontier", "explore.journal")
    meth(LocalBackend, "submit", "explore.backend")

    meth(ServiceServer, "_route", "service.request")
    meth(SimulationService, "submit", "service.submit")
    for name in ("job_from_payload", "result_to_payload", "encode_json"):
        fn(codec, name, "service.codec")
    _install_executor(tracer, Executor)

    meth(SegmentWarehouse, "__init__", "warehouse.open")
    original_init = ResultStore.__init__

    def tracked_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        counts.stores.append(self)

    tracer.replace(ResultStore, "__init__", tracked_init)
    return counts


def _install_executor(tracer: Tracer, executor_cls: type) -> None:
    """Span ``Executor.execute`` and hand it to the worker thread.

    ``execute`` runs the engine through ``run_in_executor``, which does
    not carry context variables into the thread; the batch list is the
    one object both sides see, so it keys the hand-off.
    """
    handoff: dict[int, tuple[int, int] | None] = {}
    lock = threading.Lock()
    execute = executor_cls.__dict__["execute"]
    run_many = executor_cls.__dict__["_run_many"]

    async def execute_with_handoff(self, jobs):
        with lock:
            handoff[id(jobs)] = tracer.current()
        try:
            return await execute(self, jobs)
        finally:
            with lock:
                handoff.pop(id(jobs), None)

    def run_many_adopting(self, jobs):
        with lock:
            parent = handoff.get(id(jobs))
        token = tracer.adopt(parent)
        try:
            return run_many(self, jobs)
        finally:
            tracer.release(token)

    tracer.replace(executor_cls, "execute",
                tracer.wrap(execute_with_handoff, "service.execute",
                            tag=lambda self, jobs: str(len(jobs))))
    tracer.replace(executor_cls, "_run_many", run_many_adopting)


def layer_metrics(
    spans: list[Span], program: dict[str, Any]
) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from spans plus program counters.

    ``program`` carries what the program reports about itself: setup
    timings, store statistics, the native flag, the study summary and
    the service's ``/metrics`` numbers (whichever apply).
    """
    totals = layer_totals(spans)
    by_id = {span.id: span for span in spans}

    def row(name: str) -> dict[str, float]:
        return totals.get(
            name, {"self_s": 0.0, "total_s": 0.0, "calls": 0, "failed": 0}
        )

    own = self_times(spans)
    family_self = dict.fromkeys(FAMILIES, 0.0)
    attempts = 0
    journal_records = 0
    batch_sizes = []
    for span in spans:
        if span.name == "sim.transfer":
            family_self[span.tag] += own[span.id]
        elif span.name == "sim.run":
            parent = by_id.get(span.parent)
            attempts += parent is not None and parent.name == "sim.run_many"
        elif span.name == "explore.journal":
            journal_records += span.tag == "record"
        elif span.name == "service.execute":
            batch_sizes.append(int(span.tag))

    metrics: dict[str, float] = dict.fromkeys(PER_LAYER, 0.0)
    for key in ("cli.import_s", "kernels.native_load_s"):
        metrics[key] = program.get(key, 0.0)
    metrics["warehouse.open_s"] = row("warehouse.open")["total_s"]
    for stage in SIM_STAGES:
        metrics[f"sim.{stage}.self_s"] = row(f"sim.{stage}")["self_s"]
        metrics[f"sim.{stage}.calls"] = row(f"sim.{stage}")["calls"]
    metrics["sim.transfer.total_s"] = row("sim.transfer")["total_s"]
    metrics["sim.run.self_s"] = row("sim.run")["self_s"]
    metrics["sim.run_many.self_s"] = row("sim.run_many")["self_s"]
    metrics["sim.failed_jobs"] = program.get("failed_jobs", 0)
    metrics["sim.attempts"] = attempts
    hits, misses = program.get("store_hits", 0), program.get("store_misses", 0)
    metrics["sim.store.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["sim.store.entries"] = program.get("store_entries", 0)
    for family in FAMILIES:
        metrics[f"encoding.{family}.self_s"] = family_self[family]
    for kernel in KERNELS:
        metrics[f"kernels.{kernel}.self_s"] = row(f"kernels.{kernel}")["self_s"]
        metrics[f"kernels.{kernel}.calls"] = row(f"kernels.{kernel}")["calls"]
    metrics["kernels.native"] = float(program.get("native", False))
    for part in ("sample", "frontier", "journal", "backend"):
        metrics[f"explore.{part}.self_s"] = row(f"explore.{part}")["self_s"]
    metrics["explore.journal.records"] = journal_records
    metrics["explore.evals"] = row("explore.backend")["calls"]
    metrics["explore.failed_evals"] = row("explore.backend")["failed"]
    metrics["explore.frontier_size"] = program.get("frontier_size", 0)
    for part in ("submit", "codec", "execute"):
        metrics[f"service.{part}.self_s"] = row(f"service.{part}")["self_s"]
    metrics["service.batches"] = len(batch_sizes)
    metrics["service.batch_size_mean"] = (
        sum(batch_sizes) / len(batch_sizes) if batch_sizes else 0.0
    )
    for key in (
        "service.server_p50_ms",
        "service.http_overhead_ms",
        "service.store_hit_ratio",
        "service.coalesce_ratio",
        "service.rejected",
        "warehouse.disk_hits",
        "warehouse.promotions",
    ):
        metrics[key] = program.get(key, 0.0)
    metrics["trace.spans"] = len(spans)
    return metrics
