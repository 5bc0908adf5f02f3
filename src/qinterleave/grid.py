"""Text rendered from byte grids: row i joins one cell from each part, bytes
shared by every row or row i of an (N, w) uint8 array.  Cells are padded with
PAD, a byte no UTF-8 text holds, which is dropped when the grid is read, a
block of rows at a time (grid_blocks)."""
from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

PAD = 0xFF
# Rows are rendered this many grid bytes at a time: a whole-table grid and its
# mask would push enumerate past the 600 + 4n bytes a burst of pauli's budget.
GRID_BYTES = 8 << 20


def cells(*texts: bytes) -> np.ndarray:
    """One padded cell per text, as rows of a uint8 array to index by code."""
    width = max(map(len, texts), default=0)
    return np.frombuffer(b"".join(t.ljust(width, bytes([PAD])) for t in texts),
                         np.uint8).reshape(len(texts), width)


def digit_cells(values: np.ndarray) -> np.ndarray:
    """Right-aligned decimal digits of non-negative ints, padded to the widest."""
    rest = np.asarray(values).astype(np.uint64)
    top = int(rest.max(initial=0))
    if top + 1 < len(rest):
        # a table of 0..top is shorter than the values: look them up in it
        return np.take(digit_cells(np.arange(top + 1)), rest, axis=0)
    width, ten = len(str(top)), np.uint64(10)
    digits = np.empty((len(rest), width), np.uint8)
    for k in range(width - 1, -1, -1):
        # numpy divides by a scalar quickly, but not so its remainder
        quotient = rest // ten
        digits[:, k] = np.where((rest > 0) | (k == width - 1), rest - quotient * ten + 48, PAD)
        rest = quotient
    return digits


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
    merged = []
    for p in parts:
        # runs of shared bytes become one part
        if isinstance(p, bytes) and merged and isinstance(merged[-1], bytes):
            merged[-1] += p
        else:
            merged.append(p)
    parts = [np.broadcast_to(np.frombuffer(p, np.uint8), (rows, len(p)))
             if isinstance(p, bytes) else p for p in merged]
    step = max(1, GRID_BYTES // max(1, sum(p.shape[1] for p in parts)))
    yield head
    for start in range(0, rows, step):
        grid = np.concatenate([p[start:start + step] for p in parts], axis=1).ravel()
        if grid.max(initial=0) == PAD:  # a block with no padded cell is left as it is
            grid = grid[grid != PAD]
        if start + step >= rows:
            grid = grid[:len(grid) - cut]
        yield str(grid.data, "utf-8")
    yield tail


def grid_text(parts: Sequence[bytes | np.ndarray], rows: int, head: str = "",
              tail: str = "") -> str:
    """grid_blocks joined into one str."""
    return "".join(grid_blocks(parts, rows, head, tail))
