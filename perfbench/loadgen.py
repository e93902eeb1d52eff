"""The ``serve`` workload's seeded request sequence and closed-loop client.

The sequence is a pure function of ``(seed, pass index, length)``:

* 70 % ``/simulate`` requests for the **hot set** (16 apps x 6
  schemes at 1200 sample blocks and the workload seed), Zipf-distributed
  over the 96 hot configurations; the prepared warehouse holds them, so
  they are store hits;
* 25 % ``/simulate`` **misses**, each a configuration not asked
  for before in the pass: half reuse a hot application's block sample
  with another ``num_banks``, half use a seed of their own, so each
  of those draws (and the server's store keeps) a new block sample;
* 5 % ``/sweep`` requests: three ``num_banks`` values x two apps on
  a seed of their own.

Hit popularity follows Zipf's law with exponent 1 (the classic
rank-frequency law).  No caller of the repository states a popularity
skew, and the exponent barely matters here: every hot configuration is
a store hit whatever its rank.

Run as a script, the module drives a running server closed-loop over
``--connections`` keep-alive connections (each sends its next request
only after the previous reply) and writes one result row per request,
plus its own CPU use and how late its threads woke, to ``--out``.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import itertools
import json
import os
import random
import threading
import time
from typing import Any, Iterator

__all__ = ["APPS", "HOT_SAMPLE_BLOCKS", "SCHEMES", "hot_set", "request_sequence"]

APPS = (
    "Art", "Barnes", "CG", "Cholesky", "Equake", "FFT", "FT", "Linear",
    "LU", "MG", "Ocean", "Radix", "RayTrace", "Swim", "Water-NSquared",
    "Water-Spacial",
)
SCHEMES = (
    {"name": "binary", "data_wires": 64},
    {"name": "zero-compression", "data_wires": 64},
    {"name": "bus-invert", "data_wires": 64},
    {"name": "desc", "data_wires": 128},
    {"name": "desc+zero-skip", "data_wires": 128},
    {"name": "desc+last-value-skip", "data_wires": 128},
)
HOT_SAMPLE_BLOCKS = 1200
#: ``num_banks`` values for misses; the hot set uses the default (8).
#: 16 apps x 6 schemes x 6 values bound a pass to 576 such misses.
MISS_BANKS = (1, 2, 4, 16, 32, 64)
SWEEP_BANKS = (2, 4, 8, 16, 32)
ZIPF_S = 1.0
#: Shares of the sequence: hits, misses, sweeps.
MIX = {"hit": 0.70, "miss": 0.25, "sweep": 0.05}


def _simulate(app: str, scheme: dict, system: dict) -> dict:
    return {"app": app, "scheme": dict(scheme), "system": dict(system)}


def hot_set(seed: int) -> list[dict]:
    """The 96 hot ``/simulate`` payloads for workload seed ``seed``."""
    system = {"sample_blocks": HOT_SAMPLE_BLOCKS, "seed": seed}
    return [_simulate(app, scheme, system) for app in APPS for scheme in SCHEMES]


def _dealer(rng: random.Random, items: list) -> Iterator:
    """Deal ``items`` in rounds, each round a fresh shuffle, so every
    item comes up equally often."""
    while True:
        deck = list(items)
        rng.shuffle(deck)
        yield from deck


def request_sequence(seed: int, pass_index: int, length: int) -> list[dict]:
    """``length`` requests: ``{"kind", "path", "payload"}`` each.

    The mix is exact (the kinds are a shuffled multiset), and misses
    and sweeps deal their apps and schemes evenly, so passes differ in
    which configurations they ask for, not in how much work they carry.
    """
    rng = random.Random(f"perfbench-serve:{seed}:{pass_index}")
    hot = hot_set(seed)
    order = list(range(len(hot)))
    rng.shuffle(order)  # which configs are the most popular
    popularity = list(itertools.accumulate(
        1.0 / (rank + 1) ** ZIPF_S for rank in range(len(hot))))
    counts = {kind: round(share * length) for kind, share in MIX.items()}
    counts["hit"] = length - counts["miss"] - counts["sweep"]
    new_banks = [i % 2 == 0 for i in range(counts["miss"])]
    rng.shuffle(new_banks)
    bank_configs = list(itertools.product(APPS, SCHEMES, MISS_BANKS))
    if new_banks.count(True) > len(bank_configs):
        raise ValueError(f"{length} requests need more than {len(bank_configs)} "
                         "new-num_banks configurations")
    rng.shuffle(bank_configs)
    bank_configs.reverse()  # popped from the end
    # One seed of its own for every new-seed miss and every sweep.
    wanted = new_banks.count(False) + counts["sweep"]
    fresh = [s for s in rng.sample(range(2, 1 << 30), wanted + 1) if s != seed][:wanted]
    miss_apps, miss_schemes = _dealer(rng, APPS), _dealer(rng, SCHEMES)
    sweep_apps = _dealer(rng, APPS)  # drawn in pairs: 16 apps, so from one deck
    sweep_schemes = _dealer(rng, SCHEMES)

    def miss(new_banks: bool) -> dict:
        if new_banks:
            app, scheme, banks = bank_configs.pop()
            system = {"sample_blocks": HOT_SAMPLE_BLOCKS, "seed": seed, "num_banks": banks}
        else:
            app, scheme = next(miss_apps), next(miss_schemes)
            system = {"sample_blocks": HOT_SAMPLE_BLOCKS, "seed": fresh.pop()}
        return _simulate(app, scheme, system)

    def sweep() -> dict:
        system = {"sample_blocks": HOT_SAMPLE_BLOCKS, "seed": fresh.pop()}
        return {"scheme": dict(next(sweep_schemes)),
                "fields": {"num_banks": sorted(rng.sample(SWEEP_BANKS, 3))},
                "system": system, "apps": [next(sweep_apps), next(sweep_apps)]}

    kinds = [kind for kind, count in counts.items() for _ in range(count)]
    rng.shuffle(kinds)
    sequence = []
    for kind in kinds:
        if kind == "hit":
            rank = rng.choices(range(len(hot)), cum_weights=popularity)[0]
            sequence.append({"kind": "hit", "path": "/simulate",
                             "payload": hot[order[rank]]})
        elif kind == "miss":
            sequence.append({"kind": "miss", "path": "/simulate",
                             "payload": miss(new_banks.pop())})
        else:
            sequence.append({"kind": "sweep", "path": "/sweep", "payload": sweep()})
    return sequence


class _Lateness:
    """A thread that asks to sleep 5 ms and records how late it woke."""

    def __init__(self, period_s: float = 0.005) -> None:
        self.period_s = period_s
        self.late_s: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.is_set():
            start = time.perf_counter()
            time.sleep(self.period_s)
            self.late_s.append(time.perf_counter() - start - self.period_s)

    def __enter__(self) -> "_Lateness":
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join(timeout=5)


def drive(
    port: int, sequence: list[dict], connections: int, timeout_s: float = 60.0
) -> dict[str, Any]:
    """Send ``sequence`` closed-loop; one result row per request:
    ``[kind, status, latency_s, sha256 of body, completed_at_s]``."""
    rows: list[Any] = [None] * len(sequence)
    bodies = [
        json.dumps(item["payload"], separators=(",", ":")).encode() for item in sequence
    ]
    cursor = iter(range(len(sequence)))
    lock = threading.Lock()

    def worker() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout_s)
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                item = sequence[index]
                start = time.perf_counter()
                try:
                    conn.request("POST", item["path"], body=bodies[index],
                                 headers={"Content-Type": "application/json"})
                    reply = conn.getresponse()
                    body = reply.read()
                    status = reply.status
                except (OSError, http.client.HTTPException) as exc:
                    conn.close()
                    conn = http.client.HTTPConnection(
                        "127.0.0.1", port, timeout=timeout_s
                    )
                    body, status = repr(exc).encode(), 0
                done = time.perf_counter()
                rows[index] = [item["kind"], status, done - start,
                               hashlib.sha256(body).hexdigest(), done - began]
        finally:
            conn.close()

    cpu_start = os.times()
    with _Lateness() as lateness:
        began = time.perf_counter()
        threads = [threading.Thread(target=worker) for _ in range(connections)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - began
    cpu_end = os.times()
    late = sorted(lateness.late_s) or [0.0]
    return {
        "wall_s": wall,
        "rows": rows,
        "cpu_s": (cpu_end.user - cpu_start.user) + (cpu_end.system - cpu_start.system),
        "late_p50_ms": late[len(late) // 2] * 1e3,
        "late_max_ms": late[-1] * 1e3,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, required=True)
    parser.add_argument("--requests", type=int, required=True)
    parser.add_argument("--connections", type=int, default=2)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    sequence = request_sequence(args.seed, args.pass_index, args.requests)
    result = drive(args.port, sequence, args.connections)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
