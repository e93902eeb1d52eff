import asyncio
import sys
import threading
import types

import pytest

from spans import Span, Tracer, layer_totals, self_times, union_length


def span(id, parent, start, end, name="x"):
    return Span(id=id, parent=parent, request=1, name=name, start=start, end=end)


def test_union_length_merges_overlaps_and_gaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 3)]) == 2.0
    assert union_length([(0, 2), (1, 3)]) == 3.0
    assert union_length([(0, 5), (1, 2), (3, 4)]) == 5.0


def test_self_time_subtracts_nested_children():
    spans = [
        span(1, None, 0.0, 10.0),
        span(2, 1, 1.0, 4.0),
        span(3, 2, 2.0, 3.0),  # grandchild: counts against 2, not 1
        span(4, 1, 6.0, 7.0),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 3.0 - 1.0)
    assert own[2] == pytest.approx(3.0 - 1.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(1.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        span(1, None, 0.0, 10.0),
        span(2, 1, 1.0, 5.0),
        span(3, 1, 3.0, 6.0),  # overlaps 2 (concurrent awaits)
    ]
    assert self_times(spans)[1] == pytest.approx(10.0 - 5.0)


def test_self_time_clips_children_that_outlive_the_parent():
    spans = [span(1, None, 0.0, 4.0), span(2, 1, 3.0, 9.0)]
    assert self_times(spans)[1] == pytest.approx(3.0)


def test_layer_totals_sum_by_name():
    spans = [
        span(1, None, 0.0, 4.0, "a"),
        span(2, 1, 1.0, 2.0, "b"),
        span(3, None, 5.0, 6.0, "a"),
    ]
    totals = layer_totals(spans)
    assert totals["a"]["calls"] == 2
    assert totals["a"]["self_s"] == pytest.approx(3.0 + 1.0)
    assert totals["a"]["total_s"] == pytest.approx(5.0)
    assert totals["b"]["self_s"] == pytest.approx(1.0)


def test_wrapped_calls_nest_and_share_the_request_id():
    tracer = Tracer()
    inner = tracer.wrap(lambda: None, "inner")
    outer = tracer.wrap(lambda: inner(), "outer")
    outer()
    outer()
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    first_outer, second_outer = by_name["outer"]
    first_inner = by_name["inner"][0]
    assert first_inner.parent == first_outer.id
    assert first_inner.request == first_outer.request == first_outer.id
    assert second_outer.request != first_outer.request
    assert first_outer.parent is None


def test_failed_calls_are_marked_and_reraised():
    tracer = Tracer()

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "boom")()
    assert tracer.spans[0].failed


def test_async_spans_nest_per_task():
    tracer = Tracer()

    async def leaf():
        await asyncio.sleep(0)

    wrapped_leaf = tracer.wrap(leaf, "leaf")

    async def request():
        await asyncio.gather(wrapped_leaf(), wrapped_leaf())

    wrapped_request = tracer.wrap(request, "request")

    async def main():
        await asyncio.gather(wrapped_request(), wrapped_request())

    asyncio.run(main())
    requests = {s.id for s in tracer.spans if s.name == "request"}
    leaves = [s for s in tracer.spans if s.name == "leaf"]
    assert len(leaves) == 4
    assert all(s.parent in requests and s.request == s.parent for s in leaves)


def test_thread_adopts_a_parent_span():
    tracer = Tracer()
    work = tracer.wrap(lambda: None, "work")
    seen = {}

    def outer():
        parent = tracer.current()

        def in_thread():
            token = tracer.adopt(parent)
            try:
                work()
            finally:
                tracer.release(token)

        thread = threading.Thread(target=in_thread)
        thread.start()
        thread.join(timeout=5)
        seen["alive"] = thread.is_alive()

    tracer.wrap(outer, "outer")()
    assert not seen["alive"]
    outer_span = next(s for s in tracer.spans if s.name == "outer")
    work_span = next(s for s in tracer.spans if s.name == "work")
    assert work_span.parent == outer_span.id


def test_patch_function_reaches_names_imported_elsewhere():
    defining = types.ModuleType("pbfake.defining")

    def target():
        return 7

    defining.target = target
    user = types.ModuleType("pbfake.user")
    user.target = target  # as after ``from pbfake.defining import target``
    sys.modules.update({"pbfake.defining": defining, "pbfake.user": user})
    try:
        tracer = Tracer()
        tracer.patch_function(defining, "target", "t")
        assert user.target() == 7 and defining.target() == 7
        assert [s.name for s in tracer.spans] == ["t", "t"]
        tracer.restore()
        assert user.target is target and defining.target is target
    finally:
        del sys.modules["pbfake.defining"], sys.modules["pbfake.user"]


def test_dump_and_load_round_trip(tmp_path):
    from spans import load_spans

    tracer = Tracer()
    tracer.wrap(lambda: None, "a", tag=lambda: "t")()
    path = tmp_path / "spans.json"
    tracer.dump(str(path))
    assert load_spans(str(path)) == tracer.spans
