"""SECDED extended Hamming codes — (72, 64) and (137, 128) and friends.

Single-error-correcting, double-error-detecting codes built the
classical way: data bits occupy the non-power-of-two positions of the
codeword (1-indexed), each Hamming parity bit at position ``2**i``
covers the positions whose index has bit ``i`` set, and one extra
overall-parity bit extends the code to double-error detection
(Slayman [22] in the paper).

For 64 data bits this yields 7 + 1 = 8 check bits — the (72, 64) code —
and for 128 data bits 8 + 1 = 9 — the (137, 128) code the DESC ECC
layout of Figure 9 uses.

Encode/decode are vectorized over whole matrices of words, which the
fault-injection campaigns in the tests and the ECC figure harnesses
rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from repro.util.validation import require_positive

__all__ = ["DecodeStatus", "DecodeResult", "HammingSecded"]

#: Parity (0 or 1) of every byte value.
_BYTE_PARITY = (
    np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(axis=1) & 1
).astype(np.uint8)


class DecodeStatus(Enum):
    """Outcome of decoding one codeword."""

    OK = "ok"
    CORRECTED = "corrected"
    DETECTED = "detected"  # uncorrectable double error


@dataclass(frozen=True)
class DecodeResult:
    """Decoded data plus the per-word error status.

    Attributes:
        data: ``(words, data_bits)`` corrected data bits.
        status: ``(words,)`` array of :class:`DecodeStatus` values.
        corrected_position: ``(words,)`` 0-based corrected codeword
            position, or -1 where nothing was corrected.
    """

    data: np.ndarray
    status: np.ndarray
    corrected_position: np.ndarray


class HammingSecded:
    """A SECDED extended Hamming code over ``data_bits`` bits."""

    def __init__(self, data_bits: int) -> None:
        require_positive("data_bits", data_bits)
        self.data_bits = data_bits
        self.hamming_parity_bits = self._required_parity_bits(data_bits)
        # +1 for the overall parity bit that upgrades SEC to SECDED.
        self.parity_bits = self.hamming_parity_bits + 1
        self.codeword_bits = data_bits + self.parity_bits

    @staticmethod
    def _required_parity_bits(data_bits: int) -> int:
        r = 1
        while (1 << r) < data_bits + r + 1:
            r += 1
        return r

    # ------------------------------------------------------------------
    # Code geometry
    # ------------------------------------------------------------------

    @cached_property
    def _data_positions(self) -> np.ndarray:
        """1-indexed Hamming positions holding data bits."""
        positions = [
            p
            for p in range(1, self.data_bits + self.hamming_parity_bits + 1)
            if p & (p - 1)  # skip powers of two (parity positions)
        ]
        return np.asarray(positions, dtype=np.int64)

    @cached_property
    def _parity_positions(self) -> np.ndarray:
        """1-indexed Hamming positions holding Hamming parity bits."""
        return np.asarray(
            [1 << i for i in range(self.hamming_parity_bits)], dtype=np.int64
        )

    @cached_property
    def _check_masks(self) -> np.ndarray:
        """``(parity_bits, data_bytes, 1)`` little-endian data-bit masks.

        Row ``i < hamming_parity_bits`` marks the data bits whose
        codeword position has bit ``i`` set — the data parity ``2**i``
        checks (no other parity position has bit ``i`` set).  The last
        row marks every data bit, for the overall parity.
        """
        shifts = np.arange(self.hamming_parity_bits, dtype=np.int64)[:, None]
        covered = (self._data_positions[None, :] >> shifts) & 1
        rows = np.vstack([covered, np.ones((1, self.data_bits), dtype=np.int64)])
        masks = np.packbits(rows.astype(np.uint8), axis=1, bitorder="little")
        return masks[:, :, None]

    # ------------------------------------------------------------------
    # Encode / decode
    # ------------------------------------------------------------------

    def _words(self, data: np.ndarray) -> np.ndarray:
        data = np.atleast_2d(np.asarray(data, dtype=np.uint8))
        if data.shape[1] != self.data_bits:
            raise ValueError(
                f"expected {self.data_bits} data bits per word, got {data.shape[1]}"
            )
        return data

    def check_bits(self, data: np.ndarray) -> np.ndarray:
        """``(words, parity_bits)`` uint8 check bits of ``(words, data_bits)``.

        Columns are the Hamming parities (position ``2**i`` in column
        ``i``) followed by the overall parity of the extended codeword.
        Each word is packed to little-endian bytes once; parity ``i`` is
        the XOR-fold of the word's bytes under mask ``i``, reduced to
        one bit by a 256-entry byte-parity table.
        """
        data = self._words(data)
        packed = np.packbits(data, axis=1, bitorder="little")
        # Fold over the bytes of a (parity, byte, word) layout so the
        # XOR reduction runs over contiguous rows of words.
        folded = np.bitwise_xor.reduce(
            self._check_masks & np.ascontiguousarray(packed.T)[None], axis=1
        )
        check = _BYTE_PARITY[folded]
        # The overall parity covers the Hamming parities too.
        check[-1] ^= np.bitwise_xor.reduce(check[:-1], axis=0)
        return np.ascontiguousarray(check.T)

    def assemble(self, data: np.ndarray, check: np.ndarray) -> np.ndarray:
        """Position-ordered codewords from data bits and their check bits.

        Codeword layout: the Hamming codeword in position order
        (1-indexed positions 1..n map to columns 0..n-1), followed by
        the overall parity bit in the last column.
        """
        data = self._words(data)
        codewords = np.zeros((data.shape[0], self.codeword_bits), dtype=np.uint8)
        codewords[:, self._data_positions - 1] = data
        codewords[:, self._parity_positions - 1] = check[:, :-1]
        codewords[:, -1] = check[:, -1]
        return codewords

    def encode(self, data: np.ndarray) -> np.ndarray:
        """Encode ``(words, data_bits)`` (or a single word) to uint8
        codewords in the :meth:`assemble` layout."""
        data = self._words(data)
        return self.assemble(data, self.check_bits(data))

    def decode(self, codewords: np.ndarray) -> DecodeResult:
        """Decode ``(words, codeword_bits)`` (or one codeword)."""
        codewords = np.atleast_2d(np.asarray(codewords, dtype=np.uint8))
        if codewords.shape[1] != self.codeword_bits:
            raise ValueError(
                f"expected {self.codeword_bits} bits per codeword, "
                f"got {codewords.shape[1]}"
            )
        hamming = codewords[:, :-1].copy()
        stored = np.concatenate(
            [hamming[:, self._parity_positions - 1], codewords[:, -1:]], axis=1
        )
        # Syndrome bit i: stored parity 2**i against the one recomputed
        # from the received data.  The overall check is the parity of
        # the whole mismatch, stored overall bit included.
        mismatch = self.check_bits(hamming[:, self._data_positions - 1]) ^ stored
        weights = 1 << np.arange(self.hamming_parity_bits, dtype=np.int64)
        syndrome = mismatch[:, :-1].astype(np.int64) @ weights
        overall_calc = np.bitwise_xor.reduce(mismatch, axis=1)

        status = np.full(codewords.shape[0], DecodeStatus.OK, dtype=object)
        corrected = np.full(codewords.shape[0], -1, dtype=np.int64)

        length = self.data_bits + self.hamming_parity_bits
        # Single error somewhere in the Hamming part: syndrome names it
        # and the overall parity disagrees.
        single = (syndrome != 0) & (overall_calc == 1) & (syndrome <= length)
        # Single error on the overall parity bit itself.
        overall_err = (syndrome == 0) & (overall_calc == 1)
        # Double error: syndrome fires but overall parity balances — or
        # the syndrome points past the end of the codeword.
        double = ((syndrome != 0) & (overall_calc == 0)) | (syndrome > length)

        for row in np.flatnonzero(single):
            position = int(syndrome[row])
            hamming[row, position - 1] ^= 1
            status[row] = DecodeStatus.CORRECTED
            corrected[row] = position - 1
        for row in np.flatnonzero(overall_err):
            status[row] = DecodeStatus.CORRECTED
            corrected[row] = self.codeword_bits - 1
        for row in np.flatnonzero(double):
            status[row] = DecodeStatus.DETECTED

        data = hamming[:, self._data_positions - 1]
        return DecodeResult(data=data, status=status, corrected_position=corrected)

    def __repr__(self) -> str:
        return f"HammingSecded(({self.codeword_bits}, {self.data_bits}))"
