"""Text rendered from byte grids: row i joins one cell from each part, bytes
shared by every row or row i of an (N, w) uint8 array.  A block of rows at a
time (grid_blocks) is filled from one template row of the shared bytes, then
each array part is written into its columns as one void item a row.  Cells are
padded with PAD, a byte no UTF-8 text holds, which is dropped when a block is
read.  Decimal digits are looked up a 4-digit group at a time (digit_cells)."""
from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

PAD = 0xFF
# Rows are rendered this many grid bytes at a time: a whole-table grid and its
# mask would push enumerate past the 600 + 4n bytes a burst of pauli's budget.
GRID_BYTES = 8 << 20
# Decimal digits a 4-digit group at a time, as uint32 cells indexed by the
# group's value: zero-padded ("0042"), PAD-led for a value's units group
# ("PP42", 0 is "PPP0") and PAD-led above it (0 is "PPPP"); built in place
# from uint8 digit indices, since wider temporaries raise the peak RSS.
_CELLS = np.empty((3, 10**4, 4), np.uint8)
_CELLS[:] = np.add(np.indices((10,) * 4, np.uint8).reshape(4, 10**4).T, ord("0"), order="C")
# a group below 1000, 100, 10 or 1 has no thousands, hundreds, tens or units digit
_CELLS[1:, :1000, 0] = _CELLS[1:, :100, 1] = _CELLS[1:, :10, 2] = _CELLS[1:, :1, 3] = PAD
_CELLS[1, 0, 3] = ord("0")  # but a value of 0 has its units digit
_ZEROED, _UNITS, _ABOVE = _CELLS.view(np.uint32)[..., 0]


def cells(*texts: bytes) -> np.ndarray:
    """One padded cell per text, as rows of a uint8 array to index by code."""
    width = max(map(len, texts), default=0)
    return np.frombuffer(b"".join(t.ljust(width, bytes([PAD])) for t in texts),
                         np.uint8).reshape(len(texts), width)


def digit_cells(values: np.ndarray) -> np.ndarray:
    """Right-aligned decimal digits of non-negative ints, padded to the widest:
    one uint32 cell a 4-digit group, viewed as bytes and cut to the width."""
    rest = np.asarray(values).astype(np.uint64)
    width = len(str(int(rest.max(initial=0))))
    groups, base = -(-width // 4), np.uint64(10**4)
    out = np.empty((len(rest), groups), np.uint32)
    for g in range(groups - 1, 0, -1):  # the units group first
        # numpy divides by a scalar quickly, but not so its remainder
        quotient = rest // base
        group = rest - quotient * base
        out[:, g] = np.where(quotient > 0, _ZEROED.take(group),
                             (_UNITS if g == groups - 1 else _ABOVE).take(group))
        rest = quotient
    out[:, 0] = (_UNITS if groups == 1 else _ABOVE).take(rest)
    return out.view(np.uint8)[:, 4 * groups - width:]


def float_cells(values: np.ndarray) -> np.ndarray:
    """repr of finite floats, as json.dumps and str write them, padded to the
    widest; each distinct value (by its bits) is written once."""
    distinct, inverse = np.unique(np.asarray(values, np.float64).view(np.uint64),
                                  return_inverse=True)
    texts = map(repr, distinct.view(np.float64).tolist())
    return np.take(cells(*(t.encode() for t in texts)), inverse, axis=0)


def grid_blocks(parts: Sequence[bytes | np.ndarray], rows: int, head: str = "",
                tail: str = "", cut: int = 0) -> Iterator[str]:
    """head, the rows' cells a block of rows at a time, then tail; the last
    `cut` bytes of the last row are left out."""
    template, fields = bytearray(), []
    for p in parts:
        # shared bytes go into one template row; each array fills its columns
        if isinstance(p, bytes):
            template += p
        elif p.shape[1]:
            fields.append((len(template), p if p.strides[1] == 1 else np.ascontiguousarray(p)))
            template += bytes(p.shape[1])
    width, template = len(template), np.frombuffer(template, np.uint8)
    step = max(1, GRID_BYTES // max(1, width))
    yield head
    for start in range(0, rows, step):
        grid = np.empty((min(step, rows - start), width), np.uint8)
        grid[:] = template
        for o, p in fields:
            # one void item a row: its w bytes are copied as one element
            w = p.shape[1]
            grid[:, o:o + w].view(f"V{w}")[:, 0] = p[start:start + step].view(f"V{w}")[:, 0]
        grid = grid.ravel()
        if grid.max(initial=0) == PAD:  # a block with no padded cell is left as it is
            grid = grid[grid != PAD]
        if start + step >= rows:
            grid = grid[:len(grid) - cut]
        yield str(grid.data, "utf-8")
    yield tail

