"""Compute with the buffer recycler of :mod:`repro.gdk.storage` drawing
every buffer, and again with it emptied: the expression, tiling,
lattice and fragment property suites assert that both give the same
bytes.  The test data is small, so the drawing run lowers the floor to
take buffers of any size; the emptied run patches the capacity to 0.
Each run has a recycler of its own, so no test leaves buffers behind.
"""

import pytest

from repro.gdk import storage


def _own_recycler(patch) -> None:
    patch.setattr(storage, "_held", {})
    patch.setattr(storage, "_wanted", set())
    patch.setattr(storage, "_held_bytes", 0)


def drawn_and_emptied(compute):
    """``(compute() through a warm recycler, compute() with none)``."""
    with pytest.MonkeyPatch.context() as patch:
        _own_recycler(patch)
        patch.setattr(storage, "RECYCLE_MIN_BYTES", 0)
        compute()  # warms the recycler
        drawn = compute()
    with pytest.MonkeyPatch.context() as patch:
        _own_recycler(patch)
        patch.setattr(storage, "RECYCLE_CAP_BYTES", 0)
        emptied = compute()
    return drawn, emptied


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
