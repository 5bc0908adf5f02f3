"""The byte grids of grid.py against the references in tests/oracles.py: rows
joined by concatenating their parts' columns, and digits written one decimal
digit at a time."""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qinterleave.grid
from qinterleave.grid import PAD, digit_cells, grid_blocks
from oracles import digit_cells_reference, grid_text_reference

_TEXT = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E) | st.just("\n"),
                max_size=5)


@st.composite
def grid_parts(draw):
    """A row count and parts for that many rows: shared bytes, and uint8 arrays
    of printable cells, some PAD-led, held C-contiguous, with strided rows, or
    with a strided last axis."""
    rows = draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = []
    for _ in range(draw(st.integers(1, 6))):
        layout = draw(st.sampled_from(["bytes", "contiguous", "rows", "columns"]))
        if layout == "bytes":
            parts.append(draw(_TEXT).encode())
            continue
        width = draw(st.integers(0, 6))
        cells = rng.integers(0x20, 0x7F, (rows, width), dtype=np.uint8)
        if draw(st.booleans()):  # right-aligned, as digit cells are; some all PAD
            cells[np.arange(width) < rng.integers(0, width + 1, (rows, 1))] = PAD
        if layout == "rows":
            step, skip = draw(st.integers(2, 4)), draw(st.integers(0, 3))
            held = rng.integers(0, 256, (rows * step, width + 3), dtype=np.uint8)
            held[::step, skip:skip + width] = cells
            cells = held[::step, skip:skip + width]
        elif layout == "columns":
            held = rng.integers(0, 256, (rows, 2 * width), dtype=np.uint8)
            held[:, ::2] = cells
            cells = held[:, ::2]
        parts.append(cells)
    return rows, parts


@settings(max_examples=300, deadline=None)
@given(rows_parts=grid_parts(), head=_TEXT, tail=_TEXT, cut=st.integers(0, 3),
       grid_bytes=st.integers(1, 400))
def test_grid_blocks_equal_concatenated_rows(rows_parts, head, tail, cut, grid_bytes):
    rows, parts = rows_parts
    # small blocks split the rows mid-table, down to one row a block
    with mock.patch.object(qinterleave.grid, "GRID_BYTES", grid_bytes):
        blocks = list(grid_blocks(parts, rows, head, tail, cut))
        assert "".join(blocks) == grid_text_reference(parts, rows, head, tail, cut)
    width = sum(p.shape[1] if isinstance(p, np.ndarray) else len(p) for p in parts)
    step = max(1, grid_bytes // max(1, width))
    assert len(blocks) == 2 + -(-rows // step)


def assert_digits_read_as_str(values, dtype):
    cells = digit_cells(np.array(values, dtype))
    width = len(str(max(values, default=0)))
    assert cells.shape == (len(values), width)
    assert [row.tobytes() for row in cells] == [str(v).encode().rjust(width, bytes([PAD]))
                                                for v in values]
    assert np.array_equal(cells, digit_cells_reference(np.array(values, dtype)))


@pytest.mark.parametrize("values,dtype", [
    ([0], np.int64), ([9999], np.int64), ([10**4], np.int64), ([10**8 - 1], np.int64),
    ([10**8], np.int64), ([2**63 - 1], np.int64), ([2**64 - 1], np.uint64), ([], np.int64),
    ([0, 9999, 10**4, 10**8 - 1, 10**8, 2**63 - 1], np.int64),
    ([2**64 - 1, 0, 10**16, 10**16 - 1, 10**12 + 7], np.uint64), ([0, 7, 255], np.uint8)])
def test_digit_cells_edges(values, dtype):
    assert_digits_read_as_str(values, dtype)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.integers(0, 2**64 - 1) | st.integers(0, 10**9), max_size=30),
       signed=st.booleans())
def test_digit_cells_read_as_str(values, signed):
    if signed:
        values = [v >> 1 for v in values]
    assert_digits_read_as_str(values, np.int64 if signed else np.uint64)
