"""Extended-Hamming SECDED code (paper Sections 4.1 and 5.3).

Single Error Correction, Double Error Detection via a Hamming code plus
one overall (global) parity bit.  For Killi's 512-bit cache line this
yields 10 Hamming checkbits + 1 global parity = 11 checkbits and a
523-bit codeword — exactly the paper's "11 ECC checkbits protect
523 bits (512 data + 11 checkbits)".

The decoder exposes the two signals the Killi DFH state machine keys
on independently (paper Table 2):

- **syndrome** — zero / non-zero (``DecodeResult.syndrome_zero``);
- **global parity** — match / mismatch (``DecodeResult.global_parity_ok``).

Classification of (syndrome, parity):

=========  ========  =====================================================
syndrome   parity    meaning
=========  ========  =====================================================
zero       match     clean codeword
zero       mismatch  the global parity bit itself flipped (corrected)
non-zero   mismatch  odd number of errors; decoded as a single-bit error
non-zero   match     even number of errors ≥ 2; detected, uncorrectable
=========  ========  =====================================================
"""

from __future__ import annotations

import numpy as np

from repro.ecc.base import BlockCode, DecodeResult, DecodeStatus

__all__ = ["SecDedCode", "secded_checkbits"]


def secded_checkbits(k: int) -> int:
    """Checkbits needed for SECDED over ``k`` data bits (incl. global parity).

    >>> secded_checkbits(512)
    11
    >>> secded_checkbits(64)
    8
    """
    r = 1
    while (1 << r) < k + r + 1:
        r += 1
    return r + 1


class SecDedCode(BlockCode):
    """Systematic extended-Hamming SECDED code for ``k`` data bits.

    Codeword layout: ``[data (k) | hamming checkbits (r) | global parity (1)]``.
    The Hamming code covers the first ``k + r`` bits; the global parity
    bit covers the whole codeword, so errors in checkbits (which also
    sit in LV SRAM) are handled identically to data-bit errors.
    """

    def __init__(self, k: int = 512):
        if k < 1:
            raise ValueError("k must be positive")
        self.k = k
        self.r = secded_checkbits(k) - 1
        self.n = k + self.r + 1

        # Column code for each of the first k + r codeword positions.
        # Checkbit j uses the unit column 1 << j; data bits take the
        # non-power-of-two values in increasing order.
        data_codes = []
        value = 3
        while len(data_codes) < k:
            if value & (value - 1):  # skip powers of two (checkbit columns)
                data_codes.append(value)
            value += 1
        check_codes = [1 << j for j in range(self.r)]
        self._codes = np.array(data_codes + check_codes, dtype=np.int64)
        self._position_of_code = {int(c): i for i, c in enumerate(self._codes)}

    def encode(self, data: np.ndarray) -> np.ndarray:
        self._check_data_length(data)
        word = np.zeros(self.n, dtype=np.uint8)
        word[: self.k] = data
        data_positions = np.nonzero(word[: self.k])[0]
        syndrome = int(np.bitwise_xor.reduce(self._codes[data_positions], initial=0))
        for j in range(self.r):
            word[self.k + j] = (syndrome >> j) & 1
        word[self.n - 1] = np.count_nonzero(word[: self.n - 1]) & 1
        return word

    @property
    def column_codes(self) -> np.ndarray:
        """Column code per codeword position 0..n-2 (global parity has none)."""
        return self._codes

    def syndrome_of_error_positions(self, positions) -> int:
        """Syndrome produced by flipping the given codeword positions.

        Because the code is linear, the syndrome of ``codeword + e``
        equals the syndrome of ``e`` alone; the simulator exploits this
        to classify faulty lines from their sparse error vectors
        without materialising 523-bit words.  The global parity
        position (``n - 1``) contributes nothing to the syndrome.
        """
        syndrome = 0
        for pos in positions:
            if not 0 <= pos < self.n:
                raise IndexError(f"position {pos} out of codeword range")
            if pos < self.n - 1:
                syndrome ^= int(self._codes[pos])
        return syndrome

    def _syndrome(self, word: np.ndarray) -> int:
        positions = np.nonzero(word[: self.n - 1])[0]
        return int(np.bitwise_xor.reduce(self._codes[positions], initial=0))

    def decode(self, received: np.ndarray) -> DecodeResult:
        self._check_codeword_length(received)
        syndrome = self._syndrome(received)
        parity_ok = (np.count_nonzero(received) & 1) == 0
        syndrome_zero = syndrome == 0

        if syndrome_zero and parity_ok:
            return DecodeResult(
                data=received[: self.k].copy(),
                status=DecodeStatus.CLEAN,
                syndrome_zero=True,
                global_parity_ok=True,
            )

        if syndrome_zero and not parity_ok:
            # Only the global parity bit itself flipped.
            return DecodeResult(
                data=received[: self.k].copy(),
                status=DecodeStatus.CORRECTED,
                corrected_positions=(self.n - 1,),
                syndrome_zero=True,
                global_parity_ok=False,
            )

        if not parity_ok:
            # Odd error count: decode as a single-bit error at the
            # position whose column matches the syndrome.
            position = self._position_of_code.get(syndrome)
            if position is None:
                # Syndrome aliases to an unused column: >= 3 errors.
                return DecodeResult(
                    data=received[: self.k].copy(),
                    status=DecodeStatus.DETECTED,
                    syndrome_zero=False,
                    global_parity_ok=False,
                )
            corrected = received.copy()
            corrected[position] ^= 1
            return DecodeResult(
                data=corrected[: self.k],
                status=DecodeStatus.CORRECTED,
                corrected_positions=(position,),
                syndrome_zero=False,
                global_parity_ok=False,
            )

        # Non-zero syndrome with matching parity: even (>= 2) errors.
        return DecodeResult(
            data=received[: self.k].copy(),
            status=DecodeStatus.DETECTED,
            syndrome_zero=False,
            global_parity_ok=True,
        )
