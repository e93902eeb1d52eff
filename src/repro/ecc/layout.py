"""DESC's chunk-interleaved ECC data layout (Figure 9, Section 3.2.3).

DESC transfers a whole chunk with a single wire transition, so one wire
error can corrupt up to ``chunk_bits`` bits at once.  To keep
conventional SECDED usable, the cache block is cut into ``segments``
(e.g. four 128-bit segments protected by (137, 128) codes) and the bits
are interleaved so that **every chunk carries at most one bit of each
segment** — a corrupted chunk then costs each segment at most a single
bit, which SECDED corrects; two corrupted chunks cost at most two bits
per segment, which SECDED detects.

Mapping: data bit ``p`` of segment ``s`` rides in lane ``s % chunk_bits``
of data chunk ``p * (num_segments // chunk_bits) + s // chunk_bits``;
the per-segment parity bits are interleaved into parity chunks the same
way.  For the paper's default — 512-bit blocks, four 128-bit segments,
4-bit chunks — this gives 128 data chunks plus 9 parity chunks, i.e.
nine additional wires, exactly as Section 3.2.3 states.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.ecc.hamming import DecodeStatus, HammingSecded
from repro.util.bitops import bit_matrix_to_chunks
from repro.util.validation import require_multiple, require_positive

__all__ = ["EccBlockResult", "DescEccLayout", "secded_extend_stream"]


def secded_extend_stream(blocks_bits: np.ndarray, segment_bits: int) -> np.ndarray:
    """Append SECDED check bits for a *binary* bus (Figures 28/29).

    Under binary encoding each bus beat carries one ``segment_bits``
    data segment plus its check bits on dedicated parity wires (the
    ``W-S`` configurations with ``W == S``).  This helper widens a
    ``(n, block_bits)`` stream to ``(n, nseg * (segment_bits + p))``
    with each segment's bits followed by its check bits, ready for
    :class:`~repro.encoding.binary.BinaryEncoder` at width
    ``segment_bits + p``.
    """
    blocks_bits = np.asarray(blocks_bits, dtype=np.uint8)
    if blocks_bits.ndim != 2 or blocks_bits.shape[1] % segment_bits:
        raise ValueError(
            f"blocks of shape {blocks_bits.shape} cannot be cut into "
            f"{segment_bits}-bit segments"
        )
    n, block_bits = blocks_bits.shape
    nseg = block_bits // segment_bits
    code = HammingSecded(segment_bits)
    segments = blocks_bits.reshape(n * nseg, segment_bits)
    beats = np.concatenate([segments, code.check_bits(segments)], axis=1)
    return beats.reshape(n, nseg * (segment_bits + code.parity_bits))


@dataclass(frozen=True)
class EccBlockResult:
    """Outcome of decoding one protected block.

    Attributes:
        data_bits: ``(block_bits,)`` corrected data bits.
        status: Per-segment :class:`DecodeStatus` values.
    """

    data_bits: np.ndarray
    status: tuple[DecodeStatus, ...]

    @property
    def ok(self) -> bool:
        """True when every segment decoded without an uncorrectable error."""
        return all(s != DecodeStatus.DETECTED for s in self.status)


class DescEccLayout:
    """Interleaves data + SECDED parity into DESC chunks."""

    def __init__(
        self, block_bits: int = 512, segment_bits: int = 128, chunk_bits: int = 4
    ) -> None:
        require_positive("block_bits", block_bits)
        require_positive("segment_bits", segment_bits)
        require_positive("chunk_bits", chunk_bits)
        require_multiple("block_bits", block_bits, segment_bits)
        self.block_bits = block_bits
        self.segment_bits = segment_bits
        self.chunk_bits = chunk_bits
        self.num_segments = block_bits // segment_bits
        if self.num_segments % chunk_bits:
            raise ValueError(
                f"{self.num_segments} segments cannot interleave evenly into "
                f"{chunk_bits}-bit chunks"
            )
        self.code = HammingSecded(segment_bits)

    @property
    def parity_bits_per_segment(self) -> int:
        """SECDED check bits protecting each segment."""
        return self.code.parity_bits

    @property
    def num_data_chunks(self) -> int:
        """Chunks carrying data bits (128 in the default layout)."""
        return self.block_bits // self.chunk_bits

    @property
    def num_parity_chunks(self) -> int:
        """Chunks carrying parity bits (the "additional wires")."""
        return (
            self.parity_bits_per_segment * self.num_segments // self.chunk_bits
        )

    @property
    def num_chunks(self) -> int:
        """All chunks of a protected block transfer."""
        return self.num_data_chunks + self.num_parity_chunks

    @property
    def codeword_bits_total(self) -> int:
        """Bits on the wires per protected block."""
        return self.num_chunks * self.chunk_bits

    @cached_property
    def _groups_per_lane(self) -> int:
        return self.num_segments // self.chunk_bits

    def _deinterleave(self, chunks: np.ndarray, bits: int) -> np.ndarray:
        """Inverse of :meth:`_interleave_stream` for one block."""
        g = self._groups_per_lane
        shifts = np.arange(self.chunk_bits, dtype=np.int64)
        lanes = ((np.asarray(chunks, dtype=np.int64)[:, None] >> shifts) & 1).astype(
            np.uint8
        )
        per_segment = np.zeros((self.num_segments, bits), dtype=np.uint8)
        for s in range(self.num_segments):
            lane = s % self.chunk_bits
            group = s // self.chunk_bits
            chunk_index = np.arange(bits) * g + group
            per_segment[s] = lanes[chunk_index, lane]
        return per_segment

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def encode_block(self, data_bits: np.ndarray) -> np.ndarray:
        """Protect a block: returns the chunk values put on the wires.

        The first :attr:`num_data_chunks` values are data chunks, the
        rest parity chunks.
        """
        data_bits = np.asarray(data_bits, dtype=np.uint8)
        if data_bits.shape != (self.block_bits,):
            raise ValueError(
                f"expected {self.block_bits} data bits, got {data_bits.shape}"
            )
        return self.encode_stream(data_bits[None, :])[0]

    def encode_stream(self, blocks_bits: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`encode_block` over ``(n, block_bits)`` blocks.

        Returns ``(n, num_chunks)`` chunk values (data chunks first,
        then parity chunks) — the wire stream the ECC benchmarks feed
        to the DESC cost model.
        """
        blocks_bits = np.asarray(blocks_bits, dtype=np.uint8)
        if blocks_bits.ndim != 2 or blocks_bits.shape[1] != self.block_bits:
            raise ValueError(
                f"expected blocks of shape (n, {self.block_bits}), "
                f"got {blocks_bits.shape}"
            )
        n = blocks_bits.shape[0]
        segments = blocks_bits.reshape(n * self.num_segments, self.segment_bits)
        # The Hamming construction scatters data bits over the
        # non-power-of-two codeword positions; on the wires the segments
        # stay in natural order and the check bits (Hamming parities +
        # overall parity) ride separately, re-assembled into
        # position-ordered codewords at decode.
        parity = self.code.check_bits(segments)
        data3 = segments.reshape(n, self.num_segments, self.segment_bits)
        parity3 = parity.reshape(n, self.num_segments, self.parity_bits_per_segment)
        return np.concatenate(
            [self._interleave_stream(data3), self._interleave_stream(parity3)],
            axis=1,
        )

    def _interleave_stream(self, per_segment: np.ndarray) -> np.ndarray:
        """``(n, num_segments, bits)`` → ``(n, bits * groups)`` chunk values.

        Segment ``s = group * chunk_bits + lane`` contributes its bit
        ``p`` to lane ``lane`` of chunk ``p * groups + group`` — the same
        mapping :meth:`_deinterleave` inverts.
        """
        n, _, bits = per_segment.shape
        g = self._groups_per_lane
        lanes = per_segment.reshape(n, g, self.chunk_bits, bits)
        # (n, bit, group, lane): each chunk's lanes are consecutive bits.
        lanes = lanes.transpose(0, 3, 1, 2).reshape(n, bits * g * self.chunk_bits)
        return bit_matrix_to_chunks(lanes, self.chunk_bits)

    def decode_block(self, chunks: np.ndarray) -> EccBlockResult:
        """Recover (and correct) a block from possibly corrupted chunks."""
        chunks = np.asarray(chunks, dtype=np.int64)
        if chunks.shape != (self.num_chunks,):
            raise ValueError(
                f"expected {self.num_chunks} chunk values, got {chunks.shape}"
            )
        data_chunks = chunks[: self.num_data_chunks]
        parity_chunks = chunks[self.num_data_chunks:]
        segments = self._deinterleave(data_chunks, self.segment_bits)
        parity = self._deinterleave(parity_chunks, self.parity_bits_per_segment)
        codewords = self.code.assemble(segments, parity)
        result = self.code.decode(codewords)
        return EccBlockResult(
            data_bits=result.data.reshape(-1),
            status=tuple(result.status),
        )

    def __repr__(self) -> str:
        return (
            f"DescEccLayout(({self.code.codeword_bits}, {self.segment_bits}) x "
            f"{self.num_segments}, chunk_bits={self.chunk_bits})"
        )
