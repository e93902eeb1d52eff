"""Byte-identity of the ECC and narrow-chunk transfer paths.

The 24 configurations of ``golden_runs.json`` are all 4-bit chunks
without ECC, so they pin neither the SECDED layouts (Figures 28/29) nor
the zero-skipped DESC chunk-size sweep (Figure 26's 1-, 2- and 8-bit
chunks).  ``transfer_golden.json`` holds the :class:`TransferStats` of
those configurations on three applications, with and without the null
directory, captured before either path was rewritten to read the packed
bit stream.  Every entry must reproduce exactly on the native pipeline
and with ``REPRO_NATIVE=0``.

Regenerate (only when a deliberate numerics change is intended) with
``PYTHONPATH=src python tests/sim/test_transfer_golden.py``.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.encoding.registry import make_transfer_model
from repro.experiments.fig26_chunk_size import WIRE_COUNTS
from repro.experiments.fig28_ecc_time import ECC_CONFIGS
from repro.kernels import native
from repro.sim.config import SchemeConfig, desc_scheme
from repro.sim.stages import sample_workload
from repro.workloads import profile

GOLDEN_PATH = Path(__file__).parent / "transfer_golden.json"
APPS = ("Ocean", "CG", "mcf")
SAMPLE_BLOCKS = 1200
SEED = 1


def _schemes() -> list[SchemeConfig]:
    schemes = [scheme for _, scheme in ECC_CONFIGS]
    for chunk in (1, 2, 8):
        for wires in WIRE_COUNTS:
            if (512 // chunk) % wires == 0:
                schemes.append(
                    desc_scheme("zero", data_wires=wires, chunk_bits=chunk)
                )
    return schemes


def _stats(app: str, scheme: SchemeConfig, exclude_null: bool) -> dict:
    sample = sample_workload(profile(app), SAMPLE_BLOCKS, SEED)
    model = make_transfer_model(scheme)
    return asdict(model.transfer_stats(sample, exclude_null))


def _capture() -> dict:
    return {
        "sample_blocks": SAMPLE_BLOCKS,
        "seed": SEED,
        "runs": [
            {
                "app": app,
                "scheme_config": asdict(scheme),
                "exclude_null": exclude_null,
                "transfer_stats": _stats(app, scheme, exclude_null),
            }
            for scheme in _schemes()
            for app in APPS
            for exclude_null in (False, True)
        ],
    }


def _golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.fixture(params=["native", "numpy"])
def tier(request, monkeypatch):
    """Run once on the default tier and once with ``REPRO_NATIVE=0``."""
    if request.param == "numpy":
        monkeypatch.setenv("REPRO_NATIVE", "0")
    native.reset_native_kernel_cache()
    yield request.param
    monkeypatch.undo()
    native.reset_native_kernel_cache()


def test_golden_covers_ecc_and_narrow_chunk_configs():
    golden = _golden()
    covered = {
        (e["app"], json.dumps(e["scheme_config"], sort_keys=True), e["exclude_null"])
        for e in golden["runs"]
    }
    for scheme in _schemes():
        key = json.dumps(asdict(scheme), sort_keys=True)
        for app in APPS:
            for exclude_null in (False, True):
                assert (app, key, exclude_null) in covered
    chunk_sizes = {e["scheme_config"]["chunk_bits"] for e in golden["runs"]}
    assert chunk_sizes == {1, 2, 4, 8}
    assert any(e["scheme_config"]["ecc_segment_bits"] for e in golden["runs"])


def test_transfer_stats_byte_identical(tier):
    golden = _golden()
    mismatches = []
    for entry in golden["runs"]:
        scheme = SchemeConfig(**entry["scheme_config"])
        stats = _stats(entry["app"], scheme, entry["exclude_null"])
        if stats != entry["transfer_stats"]:
            mismatches.append((entry["app"], scheme, entry["exclude_null"]))
    assert mismatches == []
    if tier == "numpy":
        assert not native.native_available()


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(_capture(), fh, indent=1)
        fh.write("\n")
