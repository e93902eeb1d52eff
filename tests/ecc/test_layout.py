"""Tests for DESC's chunk-interleaved ECC layout (Figure 9)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ecc.hamming import DecodeStatus
from repro.ecc.injection import inject_chunk_errors
from repro.ecc.layout import DescEccLayout, secded_extend_stream


class TestLayoutGeometry:
    def test_paper_default_nine_parity_chunks(self):
        """Section 3.2.3: the (137, 128) scheme adds nine wires."""
        layout = DescEccLayout(512, 128, 4)
        assert layout.num_data_chunks == 128
        assert layout.num_parity_chunks == 9

    def test_72_64_configuration(self):
        layout = DescEccLayout(512, 64, 4)
        assert layout.num_parity_chunks == 16  # 8 segments x 8 bits / 4

    def test_rejects_uneven_interleave(self):
        with pytest.raises(ValueError, match="interleave"):
            DescEccLayout(512, 256, 4)  # 2 segments cannot fill 4 lanes


class TestInterleaveGuarantee:
    @pytest.mark.parametrize("segment_bits", [64, 128])
    def test_chunk_touches_each_segment_once(self, segment_bits):
        """The Figure 9 property: every chunk carries at most one bit of
        each segment, so a chunk error costs each segment <= 1 bit."""
        layout = DescEccLayout(512, segment_bits, 4)
        # Encode blocks that isolate one segment at a time.
        for seg in range(layout.num_segments):
            bits = np.zeros(512, dtype=np.uint8)
            bits[seg * segment_bits:(seg + 1) * segment_bits] = 1
            chunks = layout.encode_block(bits)[: layout.num_data_chunks]
            lanes = (chunks[:, None] >> np.arange(4)) & 1
            # Each data chunk holds at most one bit of this segment.
            assert lanes.sum(axis=1).max() <= 1


class TestRoundTrip:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), segment_bits=st.sampled_from([64, 128]))
    def test_clean(self, seed, segment_bits):
        rng = np.random.default_rng(seed)
        layout = DescEccLayout(512, segment_bits, 4)
        data = rng.integers(0, 2, size=512).astype(np.uint8)
        result = layout.decode_block(layout.encode_block(data))
        assert result.ok
        assert np.array_equal(result.data_bits, data)

    def test_encode_stream_matches_per_block(self, rng):
        layout = DescEccLayout(512, 128, 4)
        blocks = rng.integers(0, 2, size=(10, 512)).astype(np.uint8)
        stream = layout.encode_stream(blocks)
        for i in range(10):
            assert np.array_equal(stream[i], layout.encode_block(blocks[i]))


class TestErrorCorrection:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), segment_bits=st.sampled_from([64, 128]))
    def test_any_single_chunk_error_corrected(self, seed, segment_bits):
        """A whole corrupted chunk (any wrong value, data or parity) is
        always fully corrected — the paper's SECDED claim."""
        rng = np.random.default_rng(seed)
        layout = DescEccLayout(512, segment_bits, 4)
        data = rng.integers(0, 2, size=512).astype(np.uint8)
        chunks = layout.encode_block(data)
        corrupted, _ = inject_chunk_errors(chunks, 1, rng)
        result = layout.decode_block(corrupted)
        assert result.ok
        assert np.array_equal(result.data_bits, data)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_double_chunk_errors_never_silent(self, seed):
        """Two corrupted chunks: every segment either still decodes
        correctly or flags DETECTED — never silent corruption."""
        rng = np.random.default_rng(seed)
        layout = DescEccLayout(512, 128, 4)
        data = rng.integers(0, 2, size=512).astype(np.uint8)
        chunks = layout.encode_block(data)
        corrupted, _ = inject_chunk_errors(chunks, 2, rng)
        result = layout.decode_block(corrupted)
        recovered = result.data_bits.reshape(layout.num_segments, -1)
        original = data.reshape(layout.num_segments, -1)
        for idx, status in enumerate(result.status):
            if status is not DecodeStatus.DETECTED:
                assert np.array_equal(recovered[idx], original[idx])


class TestBinaryExtension:
    def test_widths(self):
        bits = np.zeros((2, 512), dtype=np.uint8)
        ext64 = secded_extend_stream(bits, 64)
        assert ext64.shape == (2, 8 * 72)
        ext128 = secded_extend_stream(bits, 128)
        assert ext128.shape == (2, 4 * 137)

    def test_beats_decode_to_valid_codewords(self, rng):
        from repro.ecc.hamming import HammingSecded

        bits = rng.integers(0, 2, size=(3, 512)).astype(np.uint8)
        ext = secded_extend_stream(bits, 64)
        code = HammingSecded(64)
        beats = ext.reshape(-1, 72)
        for beat in beats:
            data, parity = beat[:64], beat[64:]
            result = code.decode(code.assemble(data, parity[None, :]))
            assert result.status[0] is DecodeStatus.OK

    def test_extended_stream_is_uint8(self, rng):
        bits = rng.integers(0, 2, size=(3, 512)).astype(np.uint8)
        for segment_bits in (64, 128):
            assert secded_extend_stream(bits, segment_bits).dtype == np.uint8

    def test_rejects_bad_segment(self):
        with pytest.raises(ValueError, match="segments"):
            secded_extend_stream(np.zeros((1, 512), dtype=np.uint8), 100)
