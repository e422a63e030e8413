"""Native GF(2^8) matrix product (``_gfkern.c``) behind the shared loader.

:meth:`repro.gf.field.BinaryField.matmul` routes every GF(2^8) table
field product here when the library is available.  The kernel reads the
canonical ``uint32`` symbol arrays in place and narrows each column tile
of ``B`` to bytes inside the kernel, so it *trusts* its operands to be
valid field elements (``< 256``); out-of-range symbols must be rejected
where they enter the program (:class:`repro.rlnc.message.EncodedMessage`
does so for payloads).

The library is accepted only after :func:`_self_check` shows zero bit
differences against both numpy engines, the bit-packed
:func:`repro.gf.bitmatmul.bit_matmul` and the fused-gather loop, over
ragged widths, sparse and all-zero coefficients and single-row and
single-column shapes.  The C file compiles only where AVX2 is enabled
(the host-tuned ``-march=native`` build on an AVX2 machine); without it
the compile stops with ``#error``.  Then, as on any other failure,
:func:`load` returns ``None`` and the field keeps its numpy paths
(``REPRO_NO_NATIVE=1`` forces that).
"""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np

from ..native import NativeLoader

__all__ = ["GF8Kernel", "load"]

_SOURCE = Path(__file__).with_name("_gfkern.c")

_c_uint8_p = ctypes.POINTER(ctypes.c_uint8)
_c_uint32_p = ctypes.POINTER(ctypes.c_uint32)


class GF8Kernel:
    """ctypes facade over ``repro_gf8_matmul``."""

    def __init__(self, lib: ctypes.CDLL):
        self._lib = lib
        lib.repro_gf8_matmul.restype = ctypes.c_int
        lib.repro_gf8_matmul.argtypes = [
            _c_uint8_p, _c_uint32_p, _c_uint32_p, _c_uint32_p,
            ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        ]

    def matmul(self, table: np.ndarray, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """``A @ B`` over GF(2^8) with ``table`` the ``(256, 256)`` uint8
        product table; ``A`` is ``(r, n)``, ``B`` ``(n, m)``, both uint32
        of elements ``< 256`` (trusted)."""
        if table.shape != (256, 256) or table.dtype != np.uint8:
            raise ValueError("table must be the (256, 256) uint8 product table")
        A = np.ascontiguousarray(A, dtype=np.uint32)
        B = np.ascontiguousarray(B, dtype=np.uint32)
        if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:
            raise ValueError(f"shape mismatch for matmul: {A.shape} x {B.shape}")
        table = np.ascontiguousarray(table)
        r, n = A.shape
        m = B.shape[1]
        out = np.empty((r, m), dtype=np.uint32)
        status = self._lib.repro_gf8_matmul(
            table.ctypes.data_as(_c_uint8_p),
            A.ctypes.data_as(_c_uint32_p),
            B.ctypes.data_as(_c_uint32_p),
            out.ctypes.data_as(_c_uint32_p),
            r, n, m,
        )
        if status != 0:
            raise MemoryError("GF(2^8) kernel could not allocate its scratch tiles")
        return out


def _self_check(k: GF8Kernel) -> bool:
    """Fuzz the kernel against both numpy engines; zero bit differences."""
    from .bitmatmul import bit_matmul
    from .field import GF

    field = GF(8)
    table = field._mul_table8
    rng = np.random.default_rng(0x6F8CE11)
    shapes = [
        (1, 1, 1), (1, 1, 33), (1, 32, 4099), (32, 1, 129), (3, 5, 0),
        (0, 4, 16), (4, 0, 16),
        (2, 8, 64), (17, 9, 31), (32, 32, 1000), (40, 33, 5000),
        (9, 600, 257), (256, 32, 300),
    ]
    shapes += [
        (int(rng.integers(1, 48)), int(rng.integers(1, 48)),
         int(rng.integers(1, 3000)))
        for _ in range(12)
    ]
    for trial, (r, n, m) in enumerate(shapes):
        A = field.random((r, n), rng)
        density = (1.0, 0.5, 0.05, 0.0)[trial % 4]
        A[rng.random((r, n)) >= density] = 0
        B = field.random((n, m), rng)
        if n and m and trial % 3 == 0:
            B[rng.integers(0, n)] = 0  # an all-zero source row
            B[:, rng.integers(0, m)] = 255
        got = k.matmul(table, A, B)
        if got.dtype != np.uint32 or got.shape != (r, m):
            return False
        want = field._gather_matmul(A, B)
        if got.tobytes() != want.tobytes():
            return False
        if r and n and m and bit_matmul(field, A, B).tobytes() != want.tobytes():
            return False
    # Strided operands (views of a wider matrix) go through the same path.
    W = field.random((6, 70), rng)
    got = k.matmul(table, W[:, :6], W[:, 6:])
    return got.tobytes() == field._gather_matmul(W[:, :6], W[:, 6:]).tobytes()


_LOADER = NativeLoader(_SOURCE, GF8Kernel, _self_check)


def load() -> GF8Kernel | None:
    """Compile/load/verify the kernel once; ``None`` means use numpy."""
    return _LOADER.load()
