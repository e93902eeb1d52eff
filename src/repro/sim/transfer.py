"""Stock :class:`~repro.encoding.registry.TransferModel` implementations.

Two families cover the paper's whole scheme zoo:

* :class:`DescTransferModel` — the DESC variants (basic, zero-skipped,
  last-value-skipped), optionally wrapped in the chunk-interleaved
  SECDED layout of Figure 9.  Uses the closed-form
  :class:`~repro.core.analysis.DescCostModel`, charges the synthesized
  TX/RX round-trip delay (Figure 17) on every hit, and — under
  last-value skipping — the controller's write-data broadcast
  (Section 5.2).
* :class:`BaselineTransferModel` — every
  :class:`~repro.encoding.base.BusEncoder` baseline (binary, serial,
  bus-invert variants, dynamic zero compression), optionally widened
  per-beat by SECDED parity (the paper's W-S configurations).

Importing this module registers both families with
:func:`repro.encoding.registry.register_transfer_model`; the engine
only ever calls :func:`~repro.encoding.registry.make_transfer_model`.
"""

from __future__ import annotations

import numpy as np

from repro.core.analysis import DescCostModel
from repro.core.chunking import ChunkLayout
from repro.ecc.layout import DescEccLayout, secded_extend_stream
from repro.encoding.registry import make_encoder, register_transfer_model
from repro.energy.synthesis import DescSynthesisModel
from repro.sim.config import SchemeConfig, SystemConfig
from repro.sim.metrics import TransferStats
from repro.sim.stages import WorkloadSample
from repro.util.bitops import bit_matrix_to_chunks

__all__ = [
    "BaselineTransferModel",
    "DescTransferModel",
    "DESC_SCHEME_NAMES",
    "BASELINE_SCHEME_NAMES",
]

DESC_SCHEME_NAMES = ("desc", "desc+zero-skip", "desc+last-value-skip")
BASELINE_SCHEME_NAMES = (
    "binary",
    "serial",
    "zero-compression",
    "bus-invert",
    "bus-invert+zero-skip",
    "bus-invert+encoded-zero-skip",
)

# Effective switching activity of the write-data broadcast that
# last-value tracking requires at the cache controller (Section 5.2).
_LAST_VALUE_BROADCAST_ACTIVITY = 0.16


def _sample_bits(sample: WorkloadSample) -> np.ndarray:
    """The sample's unpacked bit matrix, whichever field carries it."""
    if sample.bits is not None:
        return sample.bits
    return sample.packed.bits


def _sample_chunks(sample: WorkloadSample, chunk_bits: int) -> np.ndarray:
    """The sample's chunk matrix at ``chunk_bits``, from the cheapest view.

    4-bit chunks are the sample's own ``chunks``; other widths are cut
    from the packed words when the sample carries them.
    """
    if chunk_bits == 4:
        return sample.chunks
    if sample.packed is not None:
        return sample.packed.chunks(chunk_bits)
    return bit_matrix_to_chunks(sample.bits, chunk_bits)


def _drop_null_rows(blocks: np.ndarray) -> np.ndarray:
    """Remove all-zero rows (blocks served by the null directory)."""
    keep = blocks.any(axis=1)
    filtered = blocks[keep]
    if len(filtered) == 0:
        # Degenerate stream of pure null blocks: keep one so the
        # downstream statistics stay well-defined.
        return blocks[:1]
    return filtered


class DescTransferModel:
    """System-level behaviour of the DESC variants."""

    def __init__(self, scheme: SchemeConfig) -> None:
        self.scheme = scheme

    def transfer_stats(
        self, sample: WorkloadSample, exclude_null: bool = False
    ) -> TransferStats:
        """Closed-form DESC costs, with the Figure 9 layout under ECC."""
        scheme = self.scheme
        if scheme.ecc_segment_bits:
            bits = _sample_bits(sample)
            if exclude_null:
                bits = _drop_null_rows(bits)
            ecc = DescEccLayout(
                block_bits=bits.shape[1],
                segment_bits=scheme.ecc_segment_bits,
                chunk_bits=scheme.chunk_bits,
            )
            chunks = ecc.encode_stream(bits)
            layout = ChunkLayout(
                block_bits=ecc.codeword_bits_total,
                chunk_bits=scheme.chunk_bits,
                num_wires=ecc.num_chunks,
            )
        else:
            chunks = _sample_chunks(sample, scheme.chunk_bits)
            if exclude_null:
                chunks = _drop_null_rows(chunks)
            layout = ChunkLayout(
                block_bits=chunks.shape[1] * scheme.chunk_bits,
                chunk_bits=scheme.chunk_bits,
                num_wires=scheme.data_wires,
            )
        model = DescCostModel(layout, skip_policy=scheme.skip_policy)
        stream = model.stream_cost(chunks)
        n = stream.num_blocks
        return TransferStats(
            data_flips=float(stream.data_flips.sum()) / n,
            overhead_flips=float(stream.overhead_flips.sum()) / n,
            sync_flips=float(stream.sync_flips.sum()) / n,
            transfer_cycles=float(stream.cycles.sum()) / n,
            latency_cycles=float(stream.delivery_latency.sum()) / n,
            data_wires=layout.num_wires,
            overhead_wires=2,
        )

    def scheme_delay_cycles(
        self, stats: TransferStats, system: SystemConfig
    ) -> float:
        """Synthesized TX/RX logic delay on the round trip (Figure 17)."""
        synthesis = DescSynthesisModel(
            num_chunks=stats.data_wires,
            chunk_bits=self.scheme.chunk_bits,
            clock_hz=system.clock_hz,
        )
        return synthesis.round_trip_delay_cycles()

    def controller_write_flips(self, system: SystemConfig) -> float:
        """Write-data broadcast switching under last-value skipping.

        Last-value skipping makes the cache controller track the last
        value exchanged with every mat and broadcast write data across
        the subbank H-trees (Section 5.2); other skip policies charge
        nothing.
        """
        if self.scheme.skip_policy != "last-value":
            return 0.0
        return _LAST_VALUE_BROADCAST_ACTIVITY * system.block_bytes * 8


class BaselineTransferModel:
    """System-level behaviour of the binary-style baseline encoders."""

    def __init__(self, scheme: SchemeConfig) -> None:
        self.scheme = scheme

    def transfer_stats(
        self, sample: WorkloadSample, exclude_null: bool = False
    ) -> TransferStats:
        """Stream the sample through the configured ``BusEncoder``."""
        scheme = self.scheme
        if not exclude_null and not scheme.ecc_segment_bits and (
            sample.packed is not None
        ):
            # Fast path: the unmodified full sample streams as its
            # pre-packed word form — the encoder kernels then skip
            # re-validating and re-packing the bit matrix per scheme,
            # and the unpacked matrix never materializes.
            encoder = make_encoder(
                scheme.name,
                block_bits=sample.packed.block_bits,
                data_wires=scheme.data_wires,
                segment_bits=scheme.segment_bits,
            )
            return self._stats_from_stream(
                encoder, encoder.stream_cost(sample.packed)
            )
        bits = _sample_bits(sample)
        if exclude_null:
            bits = _drop_null_rows(bits)
        if scheme.ecc_segment_bits:
            if scheme.ecc_segment_bits != scheme.data_wires:
                raise ValueError(
                    "binary-style ECC configurations require the Hamming "
                    "segment to equal the bus width (the paper's W-S configs "
                    f"have W == S); got {scheme.data_wires}-{scheme.ecc_segment_bits}"
                )
            beats = bits.shape[1] // scheme.data_wires  # before extension: 512/W
            bits = secded_extend_stream(bits, scheme.ecc_segment_bits)
            # Each beat now carries one segment codeword: W data + p parity.
            widened_bus = bits.shape[1] // beats
            encoder = make_encoder(
                scheme.name,
                block_bits=bits.shape[1],
                data_wires=widened_bus,
                segment_bits=scheme.segment_bits,
            )
        else:
            encoder = make_encoder(
                scheme.name,
                block_bits=bits.shape[1],
                data_wires=scheme.data_wires,
                segment_bits=scheme.segment_bits,
            )
        return self._stats_from_stream(encoder, encoder.stream_cost(bits))

    @staticmethod
    def _stats_from_stream(encoder, stream) -> TransferStats:
        n = stream.num_blocks
        return TransferStats(
            data_flips=float(stream.data_flips.sum()) / n,
            overhead_flips=float(stream.overhead_flips.sum()) / n,
            sync_flips=0.0,
            transfer_cycles=float(stream.cycles.sum()) / n,
            latency_cycles=float(stream.cycles.sum()) / n,
            data_wires=encoder.data_wires,
            overhead_wires=encoder.overhead_wires,
        )

    def scheme_delay_cycles(
        self, stats: TransferStats, system: SystemConfig
    ) -> float:
        """One encode/decode pipeline stage for schemes that add
        control wires; raw binary adds nothing."""
        return 1 if stats.overhead_wires else 0

    def controller_write_flips(self, system: SystemConfig) -> float:
        """Baselines charge no controller-side switching."""
        return 0.0


register_transfer_model(DESC_SCHEME_NAMES, DescTransferModel)
register_transfer_model(BASELINE_SCHEME_NAMES, BaselineTransferModel)
