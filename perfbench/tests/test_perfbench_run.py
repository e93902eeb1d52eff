import json
import re
from pathlib import Path

import pytest

import layers
import procs
import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_every_metric_name_and_unit_is_well_formed():
    names = list(run.END_TO_END) + list(layers.PER_LAYER)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for unit, better in run.END_TO_END.values():
        assert UNIT.match(unit) and better in ("lower", "higher")
    for unit in layers.PER_LAYER.values():
        assert UNIT.match(unit)


def test_benchmark_json_lists_the_same_metrics():
    spec = json.loads((procs.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (unit, _) in run.END_TO_END.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.fixture
def fake_program(monkeypatch, tmp_path):
    """Replace the program with passes that report fixed numbers."""
    calls = []

    def fake_pass(seed, index, tmp, trace=False, **kwargs):
        calls.append(trace)
        base = 1000.0 if trace else 1.0 + index
        return {"setup_s": base, "wall_s": base * 2, "cpu_s": base * 3,
                "peak_rss_mb": base * 4, "steal_ticks": 0, "operations": 1,
                "spans": [], "program": {}}

    def fake_traced_metrics(r, untraced, traced):
        metrics = dict.fromkeys(layers.PER_LAYER, 0.0)
        metrics["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
        return metrics

    def fake_finish(r, checked):
        r.attempted = len(checked)
        r.check("fake", True)

    monkeypatch.setattr(procs, "WORK", tmp_path / "work")
    monkeypatch.setattr(run, "warm_caches", lambda tmp: True)
    monkeypatch.setattr(run, "preflight", lambda: [])
    monkeypatch.setattr(run, "traced_metrics", fake_traced_metrics)
    monkeypatch.setitem(run.PASS, "figures", fake_pass)
    monkeypatch.setitem(run.FINISH, "figures", fake_finish)
    monkeypatch.setitem(run.SETUP, "figures", lambda seed, tmp, **kw: 0.5)
    return calls


def _last_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_untraced_run_reports_medians_of_untraced_passes(fake_program, capsys):
    code = run.main(["--workload", "figures", "--seed", "3", "--seconds", "24",
                     "--trace", "0"])
    assert code == 0
    result = _last_line(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert fake_program == [False, False, False]
    metrics = result["metrics"]
    assert list(metrics) == list(run.END_TO_END)
    assert metrics["wall_s"] == {"value": 4.0, "unit": "s"}  # median of 2, 4, 6
    assert result["correct"] is True and result["attempted"] == 3


def test_end_to_end_numbers_never_come_from_a_traced_run(fake_program, capsys):
    code = run.main(["--workload", "figures", "--seed", "3", "--seconds", "24",
                     "--trace", "1"])
    assert code == 0
    result = _last_line(capsys)
    assert fake_program == [False, True]
    assert result["attempted"] == 2  # outputs of both passes are checked
    metrics = result["metrics"]
    assert list(metrics) == list(layers.PER_LAYER)
    assert not set(metrics) & set(run.END_TO_END)
    assert metrics["trace.overhead_s"]["value"] == 2000.0 - 2.0
    # And the end-to-end summary of a traced run only sees untraced passes.
    r = run.Run("figures", 3, Path("."))
    r.passes = [(0, {"setup_s": 1, "wall_s": 2, "cpu_s": 3, "peak_rss_mb": 4})]
    assert run.end_to_end(r) == {"setup_s": 1, "wall_s": 2, "cpu_s": 3, "peak_rss_mb": 4}


def test_missing_program_exits_nonzero_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(procs, "ROOT", tmp_path)
    assert run.main(["--workload", "serve", "--trace", "0"]) == 2
    assert capsys.readouterr().out == ""


def test_run_length_follows_seconds():
    assert run.passes_for("figures", 24) == 3
    assert run.passes_for("explore", 1) == 1
    assert run.passes_for("serve", 60) > run.passes_for("serve", 30)
