"""Tests for the SECDED Hamming codes, including the paper's two codes."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ecc.hamming import DecodeStatus, HammingSecded


class TestCodeGeometry:
    def test_72_64(self):
        code = HammingSecded(64)
        assert (code.codeword_bits, code.data_bits) == (72, 64)
        assert code.parity_bits == 8

    def test_137_128(self):
        """The code of Figure 9: nine parity bits per 128-bit segment."""
        code = HammingSecded(128)
        assert (code.codeword_bits, code.data_bits) == (137, 128)
        assert code.parity_bits == 9

    @pytest.mark.parametrize("data,expected", [(8, 13), (16, 22), (32, 39)])
    def test_smaller_codes(self, data, expected):
        assert HammingSecded(data).codeword_bits == expected


class TestCleanDecode:
    @pytest.mark.parametrize("data_bits", [8, 64, 128])
    def test_roundtrip(self, data_bits, rng):
        code = HammingSecded(data_bits)
        data = rng.integers(0, 2, size=(20, data_bits)).astype(np.uint8)
        result = code.decode(code.encode(data))
        assert np.array_equal(result.data, data)
        assert all(s is DecodeStatus.OK for s in result.status)

    def test_single_word_shapes(self):
        code = HammingSecded(8)
        cw = code.encode(np.zeros(8, dtype=np.uint8))
        assert cw.shape == (1, 13)

    def test_wrong_width_rejected(self):
        with pytest.raises(ValueError, match="data bits"):
            HammingSecded(8).encode(np.zeros((1, 9), dtype=np.uint8))


class TestSingleErrorCorrection:
    @pytest.mark.parametrize("data_bits", [8, 64, 128])
    def test_every_position_corrected(self, data_bits, rng):
        code = HammingSecded(data_bits)
        data = rng.integers(0, 2, size=(3, data_bits)).astype(np.uint8)
        clean = code.encode(data)
        for pos in range(code.codeword_bits):
            corrupted = clean.copy()
            corrupted[:, pos] ^= 1
            result = code.decode(corrupted)
            assert np.array_equal(result.data, data), f"position {pos}"
            assert all(s is DecodeStatus.CORRECTED for s in result.status)

    def test_corrected_position_reported(self, rng):
        code = HammingSecded(64)
        data = rng.integers(0, 2, size=(1, 64)).astype(np.uint8)
        cw = code.encode(data)
        cw[0, 10] ^= 1
        result = code.decode(cw)
        assert result.corrected_position[0] == 10


class TestDoubleErrorDetection:
    @pytest.mark.parametrize("data_bits", [8, 64, 128])
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_random_pairs_detected(self, data_bits, seed):
        rng = np.random.default_rng(seed)
        code = HammingSecded(data_bits)
        data = rng.integers(0, 2, size=(1, data_bits)).astype(np.uint8)
        cw = code.encode(data)
        i, j = rng.choice(code.codeword_bits, size=2, replace=False)
        cw[0, i] ^= 1
        cw[0, j] ^= 1
        result = code.decode(cw)
        assert result.status[0] is DecodeStatus.DETECTED

    def test_exhaustive_pairs_small_code(self, rng):
        """Every possible double error in the (13, 8) code is detected."""
        code = HammingSecded(8)
        data = rng.integers(0, 2, size=(1, 8)).astype(np.uint8)
        clean = code.encode(data)
        for i in range(code.codeword_bits):
            for j in range(i + 1, code.codeword_bits):
                corrupted = clean.copy()
                corrupted[0, i] ^= 1
                corrupted[0, j] ^= 1
                result = code.decode(corrupted)
                assert result.status[0] is DecodeStatus.DETECTED, (i, j)


def _reference_codewords(code: HammingSecded, data: np.ndarray) -> np.ndarray:
    """The per-parity coverage-loop encoder, kept as an executable spec.

    Parity bit ``2**i`` makes the XOR of every codeword position whose
    1-indexed number has bit ``i`` set zero; the overall parity makes
    the XOR of the whole codeword zero.
    """
    length = code.data_bits + code.hamming_parity_bits
    positions = np.arange(1, length + 1)
    codeword = np.zeros((data.shape[0], length), dtype=np.int64)
    codeword[:, code._data_positions - 1] = data
    for i in range(code.hamming_parity_bits):
        coverage = (positions >> i) & 1
        codeword[:, (1 << i) - 1] = (codeword * coverage).sum(axis=1) & 1
    overall = codeword.sum(axis=1) & 1
    return np.concatenate([codeword, overall[:, None]], axis=1)


class TestCheckBits:
    @pytest.mark.parametrize("data_bits", [8, 11, 26, 57, 64, 128])
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), words=st.integers(0, 40))
    def test_matches_coverage_loop(self, data_bits, seed, words):
        rng = np.random.default_rng(seed)
        code = HammingSecded(data_bits)
        density = rng.random()
        data = (rng.random((words, data_bits)) < density).astype(np.uint8)
        reference = _reference_codewords(code, data)
        expected = np.concatenate(
            [reference[:, code._parity_positions - 1], reference[:, -1:]], axis=1
        )
        check = code.check_bits(data)
        assert check.shape == (words, code.parity_bits)
        np.testing.assert_array_equal(check, expected)
        np.testing.assert_array_equal(code.encode(data), reference)

    @pytest.mark.parametrize("data_bits", [8, 64, 128])
    def test_outputs_are_uint8(self, data_bits, rng):
        code = HammingSecded(data_bits)
        data = rng.integers(0, 2, size=(5, data_bits)).astype(np.uint8)
        assert code.check_bits(data).dtype == np.uint8
        assert code.encode(data).dtype == np.uint8
