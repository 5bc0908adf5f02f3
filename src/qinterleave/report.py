"""Reports: per-item results, an aggregate verdict, and their JSON and text.

A report's items are a list of dicts, or an ItemTable of columns that renders
the bytes those dicts would render as, through the byte grids of grid.py and with
no dict built.  JSON is json.dumps(report, indent=2) either way, text one line
per item; both are made a block of items at a time (Report.blocks).
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
        if col.ndim == 2 and col.shape[1] > 0:
            # a block of rows at a time: no bool temporary as large as the column
            step = max(1, GRID_BYTES // col.shape[1])
            blocks = (col[i:i + step] for i in range(0, len(col), step))
            if not any(b.min() < 0x20 or b.max() > 0x7E or (b == ord('"')).any()
                       or (b == ord("\\")).any() for b in blocks):
                return "text"
    elif col.ndim >= 2 and col.dtype.kind == "i":
        pad = col < 0
        # -1 pads the lists of the last axis, after their entries
        if not ((col < -1).any() or (pad[..., :-1] & ~pad[..., 1:]).any()):
            return "lists"
    return None


def _list_parts(col: np.ndarray, level: int | None) -> list:
    """Parts rendering the lists of an int-list column as json.dumps(indent=2)
    writes them at indent level `level`, or as str when `level` is None."""
    present = (col >= 0).reshape(len(col), math.prod(col.shape[1:]))
    digits = digit_cells(np.maximum(col, 0).ravel())
    digits = digits.reshape(*present.shape, digits.shape[1])
    padded = not present.all()

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
        deeper, size, parts = None if level is None else level + 1, math.prod(shape[1:]), []
        for s in range(shape[0]):
            sep = first if s == 0 else later
            if len(shape) > 1:
                parts += [sep, *lists(shape[1:], deeper, base + s * size)]
            elif padded:
                here = present[:, base + s, None]
                parts += [np.where(here, np.frombuffer(sep, np.uint8), PAD),
                          np.where(here, digits[:, base + s], PAD)]
            else:
                parts += [sep, digits[:, base + s]]
        if len(shape) == 1 and padded:
            close = np.take(cells(b"[]", close), present[:, base].view(np.uint8), axis=0)
        return parts + [close]

    return lists(col.shape[1:], level, 0)


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
    non-negative int, 1-d finite float, (N, w) uint8 text of printable ASCII
    without '"' or '\\', or int lists: an int array (N, d1, ..., dk) of
    lists of length dk and entries >= 0, each padded after its entries with
    -1 to dk.  A row stands for a dict of str, bool, int, float and nested
    lists of int; json_rows and text_rows render the rows as those dicts
    render, through byte grids."""

    def __init__(self, **columns: np.ndarray) -> None:
        self._kinds = {}
        for name, col in columns.items():
            self._kinds[name] = _column_kind(col)
            if self._kinds[name] is None:
                raise ValueError(f"column {name!r} is not bool, non-negative int, "
                                 "finite float, text or padded int lists")
        if len(sizes := {len(col) for col in columns.values()}) > 1:
            raise ValueError(f"ragged columns of lengths {sorted(sizes)}")
        self.columns, self._len = columns, sizes.pop() if sizes else 0

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
        parts = [b"  [", *_bool_parts(self.columns["passed"].astype(bool), _STATUS), b"] ",
                 *_value_parts(self.columns["label"], self._kinds["label"], None)]
        sep = b" | "
        for name, col in self.columns.items():
            if name not in ("label", "passed"):
                parts += [sep + f"{name}=".encode(), *_value_parts(col, self._kinds[name], None)]
                sep = b" "
        return grid_blocks(parts + [b"\n"], len(self), head, tail)


def _text_row(item: dict) -> str:
    status = "pass" if item["passed"] else "FAIL"
    extras = " ".join(f"{k}={v}" for k, v in item.items() if k not in ("label", "passed"))
    return f"  [{status}] {item['label']}" + (f" | {extras}" if extras else "") + "\n"


@dataclass
class Report:
    """Per-item results plus an aggregate verdict; renders as text or JSON."""

    command: str
    parameters: dict
    items: list[dict] | ItemTable = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def verdict(self) -> str:
        """Pass only when there are items and every one of them passed."""
        items = self.items
        if isinstance(items, ItemTable):
            return "pass" if len(items) and items.columns["passed"].all() else "fail"
        passed = items and all(item["passed"] for item in items)
        return "pass" if passed else "fail"

    def to_dict(self, items: list | None = None) -> dict:
        """The report as a dict, `items` in place of its own items when given."""
        return {
            "command": self.command,
            "parameters": self.parameters,
            "items": self.items if items is None else items,
            "verdict": self.verdict,
            "elapsed_seconds": self.elapsed_seconds,
        }

    def blocks(self, fmt: str) -> Iterator[str]:
        """The report as JSON or as text, ending in a newline: head, item
        blocks and tail, each made when it is asked for."""
        table = isinstance(self.items, ItemTable)
        if fmt == "json" and not (table and len(self.items)):
            return iter([json.dumps(self.to_dict([] if table else None), indent=2) + "\n"])
        if fmt == "json":
            head, tail = json.dumps(self.to_dict(items=[]), indent=2).split('\n  "items": []', 1)
            return self.items.json_rows(f'{head}\n  "items": [\n', f"\n  ]{tail}\n")
        lines = [f"command: {self.command}"]
        for key, value in self.parameters.items():
            if isinstance(value, list) and len(str(value)) > 80:
                lines.append(f"  {key} =")
                lines.extend(f"    {element}" for element in value)
                continue
            if isinstance(value, str) and "\n" in value:
                lines.append(f"  {key} =")
                lines.extend(f"    {ln}" for ln in value.rstrip().splitlines())
                continue
            lines.append(f"  {key} = {value}")
        lines.append(f"items: {len(self.items)}\n")
        head = "\n".join(lines)
        tail = f"verdict: {self.verdict}\nelapsed_seconds: {self.elapsed_seconds:.3f}\n"
        if table:
            return self.items.text_rows(head, tail)
        return iter([head + "".join(map(_text_row, self.items)) + tail])

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
