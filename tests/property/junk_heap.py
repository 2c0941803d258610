"""Compute twice, each time right after filling the freed heap with a
different junk byte: the expression, tiling and lattice property suites
assert that both runs give the same bytes.

With the heap policy of :mod:`repro.gdk.storage`, a kernel's
``np.empty`` buffer is memory a freed temporary left behind, not a
fresh zero page.  :func:`fill_freed` allocates buffers of every size the
suites' small data asks for (NumPy caches blocks under 1 KiB by exact
size; larger ones come from malloc's free lists), fills them with one
byte and frees them all, so the next kernel's buffers hold that byte.
A kernel that reads a byte it never wrote then answers differently
under the two fills.  This is the in-suite twin of CI's
``MALLOC_PERTURB_`` run.
"""

import numpy as np

#: two fills that differ in every bit.
JUNK = (0xA5, 0x5A)
#: every size NumPy's small-block cache keys on, then geometric steps to 1 MiB.
SIZES = list(range(1, 1024)) + [int(1024 * 1.25**k) for k in range(32)]


def fill_freed(byte: int) -> None:
    """Leave the heap's free blocks filled with *byte*."""
    held = [np.full(size, byte, dtype=np.uint8) for size in SIZES for _ in range(4)]
    del held


def under_two_junks(compute):
    """``(compute() after one fill, compute() after the other)``."""
    results = []
    for byte in JUNK:
        fill_freed(byte)
        results.append(compute())
    return results


def column_bytes(column) -> tuple:
    """A kernel's result: atom, NULL mask and payload, as bytes."""
    values = column.values
    return column.atom, column.effective_mask().tobytes(), values.dtype.str, values.tobytes()


def result_bytes(result) -> list:
    """A statement's result: every column's dtype and bytes (object
    columns: their values)."""
    return [
        (name, array.dtype.str, array.tolist() if array.dtype == object else array.tobytes())
        for name, array in result.to_numpy().items()
    ]
