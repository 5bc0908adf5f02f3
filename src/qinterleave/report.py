"""Reports: per-item results, an aggregate verdict, and their JSON and text.

A report's items are an ItemTable of columns, one row per item, each row
standing for the dict of its values.  The rows render as json.dumps(indent=2)
and str would write those dicts, through the byte grids of grid.py and with
no dict built; JSON is made a block of items at a time, text one line per item
(Report.blocks).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterator, TextIO

import numpy as np

from .grid import GRID_BYTES, PAD, cells, digit_cells, float_cells, grid_blocks

# Texts of a bool column in JSON and in text, and of the text status, False first.
_JSON_BOOLS = (b"false", b"true")
_TEXT_BOOLS = (b"False", b"True")
_STATUS = (b"FAIL", b"pass")
# The end of a JSON item; the last item's is cut before its comma.
_JSON_END = b"\n    },\n"
# The indent level of an item's keys in a report's JSON.
_KEY_LEVEL = 3


def _is_text(rows: np.ndarray, refused: bytes) -> bool:
    """Whether uint8 rows are printable ASCII but `refused`, each PAD-padded after its text."""
    if rows.min(initial=0x20) < 0x20 or any((rows == b).any() for b in refused):
        return False
    if rows.max(initial=0) <= 0x7E:  # no PAD, as in every row of a burst label column
        return True
    pad = rows == PAD
    return not (((rows > 0x7E) & ~pad).any() or (pad[:, :-1] & ~pad[:, 1:]).any())


def _column_kind(col: np.ndarray) -> str | None:
    """The kind of a valid item column, else None."""
    if col.ndim == 1:
        if col.dtype == bool:
            return "bool"
        if col.dtype.kind in "iu" and not (col < 0).any():
            return "int"
        if col.dtype.kind == "f" and np.isfinite(col).all():
            return "float"
    elif col.dtype == np.uint8:
        if col.ndim in (2, 3) and col.shape[-1] > 0:
            # a block of rows at a time: no bool temporary as large as the column;
            # a list entry holding ' is refused: str would quote it with "
            rows = col.reshape(-1, col.shape[-1])
            step, refused = max(1, GRID_BYTES // rows.shape[1]), b'"\\' + b"'" * (col.ndim - 2)
            if all(_is_text(rows[i:i + step], refused) for i in range(0, len(rows), step)):
                return "text" if col.ndim == 2 else "lists"
    elif col.ndim >= 2 and col.dtype.kind == "i":
        pad = col < 0
        # -1 pads the lists of the last axis, after their entries
        if not ((col < -1).any() or (pad[..., :-1] & ~pad[..., 1:]).any()):
            return "lists"
    return None


def _list_parts(col: np.ndarray, level: int | None) -> list:
    """Parts rendering the lists of a list column as json.dumps(indent=2) writes
    them at indent level `level`, or as str when `level` is None."""
    if col.dtype == np.uint8:  # text lists: entries quoted '"' in JSON, "'" as str has them
        shape, present, entries = col.shape[1:-1], None, col
        quote = b"'" if level is None else b'"'
    else:
        shape, present = col.shape[1:], (col >= 0).reshape(len(col), math.prod(col.shape[1:]))
        entries, quote = digit_cells(np.maximum(col, 0).ravel()), b""
    entries = entries.reshape(len(col), math.prod(shape), entries.shape[-1])
    padded = present is not None and not present.all()

    def lists(shape: tuple, level: int | None, base: int) -> list:
        # the lists of the given shape whose entries start at slot `base`
        if level is None:
            first, later, close = b"[", b", ", b"]"
        else:
            inner = "\n" + "  " * (level + 1)
            first, later = f"[{inner}".encode(), f",{inner}".encode()
            close = f"\n{'  ' * level}]".encode()
        if shape[0] == 0:
            return [b"[]"]
        if len(shape) == 1:
            first, later, close = first + quote, quote + later + quote, quote + close
        deeper, size, parts = None if level is None else level + 1, math.prod(shape[1:]), []
        for s in range(shape[0]):
            sep = first if s == 0 else later
            if len(shape) > 1:
                parts += [sep, *lists(shape[1:], deeper, base + s * size)]
            elif padded:
                here = present[:, base + s, None]
                parts += [np.where(here, np.frombuffer(sep, np.uint8), PAD),
                          np.where(here, entries[:, base + s], PAD)]
            else:
                parts += [sep, entries[:, base + s]]
        if len(shape) == 1 and padded:
            close = np.take(cells(b"[]", close), present[:, base].view(np.uint8), axis=0)
        return parts + [close]

    return lists(shape, level, 0)


def _bool_parts(col: np.ndarray, texts: tuple[bytes, bytes]) -> list:
    """The cells of a bool column, or one shared part when every row agrees."""
    if col.all() or not col.any():
        return [texts[bool(col.any())]]
    return [np.take(cells(*texts), col.view(np.uint8), axis=0)]


def _value_parts(col: np.ndarray, kind: str, level: int | None) -> list:
    """Parts rendering a column's values as JSON at indent level `level`, or
    as str when `level` is None; text without its JSON quotes."""
    if kind == "bool":
        return _bool_parts(col, _TEXT_BOOLS if level is None else _JSON_BOOLS)
    if kind == "lists":
        return _list_parts(col, level)
    if kind == "int":
        return [digit_cells(col)]
    return [float_cells(col)] if kind == "float" else [col]


class ItemTable:
    """Report items held as columns of one length N: 1-d bool, 1-d
    non-negative int, 1-d finite float, text: (N, w) uint8 rows of printable
    ASCII without '"' or '\\', padded after their text with PAD, text lists:
    (N, k, w) uint8, k such texts a row and no "'" in them, or int lists: an
    int array (N, d1, ..., dk) of lists of length dk and entries >= 0, each
    padded after its entries with -1 to dk.  A table with rows has a text
    "label" and a bool "passed" column, as the report schema asks.  json_rows
    and text_rows render the rows as the dicts of their values render."""

    def __init__(self, **columns: np.ndarray) -> None:
        self._kinds = {}
        for name, col in columns.items():
            self._kinds[name] = _column_kind(col)
            if self._kinds[name] is None:
                raise ValueError(f"column {name!r} is not bool, non-negative int, "
                                 "finite float, text, text lists or padded int lists")
        if len(sizes := {len(col) for col in columns.values()}) > 1:
            raise ValueError(f"ragged columns of lengths {sorted(sizes)}")
        self.columns, self._len = columns, sizes.pop() if sizes else 0
        if self._len and (self._kinds.get("label"), self._kinds.get("passed")) != ("text", "bool"):
            raise ValueError("items need a text 'label' column and a bool 'passed' column")

    def __len__(self) -> int:
        return self._len

    def json_rows(self, head: str = "", tail: str = "") -> Iterator[str]:
        """head, the rows of a non-empty table as json.dumps(indent=2) writes
        them inside a report's items list, then tail, in blocks."""
        parts = []
        for j, (name, col) in enumerate(self.columns.items()):
            kind = self._kinds[name]
            key = (("    {\n" if j == 0 else ",\n") + f"      {json.dumps(name)}: ").encode()
            quote = b'"' if kind == "text" else b""
            parts += [key + quote, *_value_parts(col, kind, _KEY_LEVEL), quote]
        return grid_blocks(parts + [_JSON_END], len(self), head, tail, cut=len(b",\n"))

    def text_rows(self, head: str = "", tail: str = "") -> Iterator[str]:
        """head, the rows as a report's text lists items, then tail, in blocks."""
        parts = [b"  [", *_bool_parts(self.columns["passed"], _STATUS), b"] ",
                 *_value_parts(self.columns["label"], self._kinds["label"], None)]
        sep = b" | "
        for name, col in self.columns.items():
            if name not in ("label", "passed"):
                parts += [sep + f"{name}=".encode(), *_value_parts(col, self._kinds[name], None)]
                sep = b" "
        return grid_blocks(parts + [b"\n"], len(self), head, tail)


@dataclass
class Report:
    """Per-item results plus an aggregate verdict; renders as text or JSON."""

    command: str
    parameters: dict
    items: ItemTable = field(default_factory=ItemTable)
    elapsed_seconds: float = 0.0

    @property
    def verdict(self) -> str:
        """Pass only when there are items and every one of them passed."""
        return "pass" if len(self.items) and self.items.columns["passed"].all() else "fail"

    def blocks(self, fmt: str) -> Iterator[str]:
        """The report as JSON or as text, ending in a newline: head, item
        blocks and tail, each made when it is asked for."""
        if fmt == "json":
            text = json.dumps({"command": self.command, "parameters": self.parameters,
                               "items": [], "verdict": self.verdict,
                               "elapsed_seconds": self.elapsed_seconds}, indent=2) + "\n"
            if not len(self.items):
                return iter([text])
            head, tail = text.split('\n  "items": []', 1)
            return self.items.json_rows(f'{head}\n  "items": [\n', f"\n  ]{tail}")
        lines = [f"command: {self.command}"]
        for key, value in self.parameters.items():
            if isinstance(value, list) and len(str(value)) > 80:
                lines += [f"  {key} =", *(f"    {element}" for element in value)]
            elif isinstance(value, str) and "\n" in value:
                lines += [f"  {key} =", *(f"    {ln}" for ln in value.rstrip().splitlines())]
            else:
                lines.append(f"  {key} = {value}")
        lines.append(f"items: {len(self.items)}\n")
        head = "\n".join(lines)
        tail = f"verdict: {self.verdict}\nelapsed_seconds: {self.elapsed_seconds:.3f}\n"
        return self.items.text_rows(head, tail) if len(self.items) else iter([head + tail])

    def write(self, stream: TextIO, fmt: str) -> None:
        """Write render(fmt) to stream a block at a time, each as it is made."""
        for block in self.blocks(fmt):
            stream.write(block)

    def render(self, fmt: str) -> str:
        return "".join(self.blocks(fmt))


def report_schema() -> dict:
    """The published JSON schema for CLI reports."""
    text = resources.files("qinterleave").joinpath("report_schema.json").read_text()
    return json.loads(text)
