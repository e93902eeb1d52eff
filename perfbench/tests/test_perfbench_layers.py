import sys

import pytest

import layers
import procs
from spans import Span, Tracer


def span(id, parent, name, start, end, tag=None, failed=False):
    return Span(id, parent, 1, name, start, end, tag, failed)


def test_layer_metrics_split_transfer_by_family_and_count_attempts():
    spans = [
        span(1, None, "sim.run_many", 0.0, 10.0),
        span(2, 1, "sim.run", 0.0, 4.0),
        span(3, 2, "sim.transfer", 0.5, 3.5, tag="ecc"),
        span(4, 3, "kernels.desc_stream_arrays", 1.0, 2.0),
        span(5, 1, "sim.run", 5.0, 6.0),
        span(6, 5, "sim.transfer", 5.0, 5.5, tag="desc"),
        span(7, None, "explore.backend", 11.0, 12.0, failed=True),
        span(8, None, "explore.journal", 12.0, 12.5, tag="record"),
        span(9, None, "service.execute", 13.0, 14.0, tag="3"),
    ]
    metrics = layers.layer_metrics(spans, {"store_hits": 3, "store_misses": 1})
    assert list(metrics) == list(layers.PER_LAYER)
    assert metrics["encoding.ecc.self_s"] == pytest.approx(2.0)
    assert metrics["encoding.desc.self_s"] == pytest.approx(0.5)
    assert metrics["sim.transfer.self_s"] == pytest.approx(2.5)
    assert metrics["sim.transfer.total_s"] == pytest.approx(3.5)
    assert metrics["sim.run_many.self_s"] == pytest.approx(5.0)
    assert metrics["sim.attempts"] == 2
    assert metrics["explore.evals"] == 1 and metrics["explore.failed_evals"] == 1
    assert metrics["explore.journal.records"] == 1
    assert metrics["service.batches"] == 1 and metrics["service.batch_size_mean"] == 3
    assert metrics["sim.store.hit_ratio"] == pytest.approx(0.75)
    assert metrics["service.server_p50_ms"] == 0.0  # not exercised: reads 0


@pytest.fixture
def program_on_path(monkeypatch):
    src = str(procs.ROOT / "src")
    if not (procs.ROOT / "src" / "repro").is_dir():
        pytest.skip("program source not present")
    monkeypatch.syspath_prepend(src)
    monkeypatch.setenv("REPRO_NATIVE", "0")  # the NumPy tier: no compiler needed
    yield
    for name in [n for n in sys.modules if n == "repro" or n.startswith("repro.")]:
        del sys.modules[name]


def test_install_wraps_the_live_boundaries(program_on_path):
    """The wrappers find every boundary in the current program, and
    spans nest as the layer table says."""
    import repro.cli  # noqa: F401 - import everything, as a real run does
    from repro.sim.config import SystemConfig, desc_scheme
    from repro.sim.engine import SimJob, StagedEngine
    from repro.sim.store import ResultStore

    tracer = Tracer()
    counts = layers.install(tracer)
    try:
        engine = StagedEngine(ResultStore())
        engine.run_many([SimJob.of("FFT", desc_scheme("zero"),
                                   SystemConfig(sample_blocks=200))])
    finally:
        tracer.restore()
    names = {s.name for s in tracer.spans}
    assert {"sim.run_many", "sim.run", "sim.workload", "sim.transfer",
            "sim.cache_design", "sim.timing", "sim.energy",
            "kernels.desc_stream_arrays"} <= names
    by_id = {s.id: s for s in tracer.spans}
    transfer = next(s for s in tracer.spans if s.name == "sim.transfer")
    assert transfer.tag == "desc"
    assert by_id[by_id[transfer.parent].parent].name == "sim.run_many"
    assert counts.stores and counts.failed_jobs == 0
    # Restored: a second run records nothing.
    before = len(tracer.spans)
    StagedEngine(ResultStore()).run("FFT", desc_scheme("zero"), SystemConfig(sample_blocks=100))
    assert len(tracer.spans) == before
