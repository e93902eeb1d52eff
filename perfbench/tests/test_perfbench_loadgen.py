import collections
import json

import loadgen


def test_sequence_is_a_function_of_seed_and_pass():
    first = loadgen.request_sequence(1, 0, 500)
    assert first == loadgen.request_sequence(1, 0, 500)
    assert first != loadgen.request_sequence(2, 0, 500)
    assert first != loadgen.request_sequence(1, 1, 500)


def test_mix_proportions():
    for length in (2400, 1001):
        kinds = [item["kind"] for item in loadgen.request_sequence(3, 0, length)]
        assert len(kinds) == length
        assert abs(kinds.count("hit") - 0.70 * length) <= 1
        assert abs(kinds.count("miss") - 0.25 * length) <= 1
        assert abs(kinds.count("sweep") - 0.05 * length) <= 1
    # Shuffled, not blocked: every tenth of the sequence holds each kind.
    kinds = [item["kind"] for item in loadgen.request_sequence(3, 0, 2400)]
    for start in range(0, 2400, 240):
        assert set(kinds[start:start + 240]) == {"hit", "miss", "sweep"}


def _jobs(item):
    """The (app, scheme, system) configurations a request asks for."""
    payload = item["payload"]
    if item["path"] == "/simulate":
        system = dict(payload["system"])
        system.setdefault("num_banks", 8)
        return [json.dumps([payload["app"], payload["scheme"], system], sort_keys=True)]
    return [
        json.dumps([app, payload["scheme"], {**payload["system"], "num_banks": banks}],
                   sort_keys=True)
        for banks in payload["fields"]["num_banks"] for app in payload["apps"]
    ]


def test_hits_are_hot_and_misses_are_new():
    seed = 5
    hot = {json.dumps([p["app"], p["scheme"], {**p["system"], "num_banks": 8}],
                      sort_keys=True) for p in loadgen.hot_set(seed)}
    assert len(hot) == 96
    seen = set(hot)
    for item in loadgen.request_sequence(seed, 2, 4000):
        jobs = _jobs(item)
        if item["kind"] == "hit":
            assert jobs[0] in hot
        else:
            assert not seen.intersection(jobs), item
            seen.update(jobs)


def test_misses_split_between_new_banks_and_new_seeds():
    seed = 7
    misses = [i["payload"]["system"] for i in loadgen.request_sequence(seed, 0, 2400)
              if i["kind"] == "miss"]
    new_banks = sum(1 for s in misses if s["seed"] == seed and "num_banks" in s)
    new_seed = sum(1 for s in misses if s["seed"] != seed)
    assert new_banks + new_seed == len(misses) == 600
    assert new_banks == new_seed


def test_every_new_seed_miss_and_sweep_has_a_seed_of_its_own():
    seed = 9
    sequence = loadgen.request_sequence(seed, 1, 2400)
    seeds = [i["payload"]["system"]["seed"] for i in sequence
             if i["kind"] == "sweep" or i["payload"]["system"]["seed"] != seed]
    assert len(seeds) == 300 + 120  # half the misses, every sweep
    assert len(set(seeds)) == len(seeds)


def test_misses_and_sweeps_deal_apps_evenly():
    seed = 4
    sequence = loadgen.request_sequence(seed, 0, 2000)
    new_seed = collections.Counter(
        i["payload"]["app"] for i in sequence
        if i["kind"] == "miss" and i["payload"]["system"]["seed"] != seed)
    swept = collections.Counter(
        app for i in sequence if i["kind"] == "sweep" for app in i["payload"]["apps"])
    for counts in (new_seed, swept):
        assert set(counts) == set(loadgen.APPS)
        assert max(counts.values()) - min(counts.values()) <= 1
    assert all(len(set(i["payload"]["apps"])) == 2 for i in sequence if i["kind"] == "sweep")


def test_hits_follow_a_skewed_popularity():
    items = [i for i in loadgen.request_sequence(11, 0, 4000) if i["kind"] == "hit"]
    counts = {}
    for item in items:
        key = json.dumps(item["payload"], sort_keys=True)
        counts[key] = counts.get(key, 0) + 1
    ordered = sorted(counts.values(), reverse=True)
    # Zipf(1) over 96 configs: the top config draws ~19 %.
    assert ordered[0] > 0.1 * len(items)
    assert ordered[0] > 10 * ordered[len(ordered) // 2]
