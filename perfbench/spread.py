"""Run the benchmark over several seeds and print each metric's spread.

Usage::

    python3 perfbench/spread.py --workload figures --seeds 1-10 [--seconds 30]

The spread is the distance between the first and third quartile of the
runs' values, as ``statistics.quantiles(values, n=4)`` gives them, as a
share of their median: the figure a metric's bound in
``BENCHMARK.json`` has to cover.  Run it before changing a bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import procs
import stats


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args()
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(procs.BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=procs.ROOT,
        )
        if done.returncode != 0:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        row = {name: m["value"] for name, m in result["metrics"].items()}
        print(f"seed {seed}: " + "  ".join(f"{k}={v:.4g}" for k, v in row.items()), flush=True)
        for name, value in row.items():
            values.setdefault(name, []).append(value)
    bounds = {m["name"]: m["bound"] for m in
              json.loads((procs.ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    for name, runs in values.items():
        spread = stats.relative_iqr(runs)
        print(f"{name:14s} median {stats.median(runs):10.4g}  spread {spread:.3f}  "
              f"bound {bounds[name]}  ({spread / bounds[name]:.0%} of bound)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
