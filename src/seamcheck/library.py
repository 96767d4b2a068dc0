"""Standard-cell library parsing and profiling.

The library file is a small LEF-like subset: a LIBRARY header, one SITE
statement carrying the row/site grid, then MACRO blocks with SIZE, PIN/PORT
and OBS geometry. Dimensions are microns with at most three decimal places
and convert exactly to integer DBU (1000 per micron).

Pre-assigned mask colors are encoded in layer names: ``M1_E1`` and ``M1_E2``
are the two masks of layer M1, a bare ``M1`` is uncolored. Checkable cell
geometry lives in OBS blocks; PIN/PORT rectangles are parsed, checked
for duplicate pin names and kept on the profile, but no check reads them.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator

from .errors import (DuplicateCellError, NonIntegerHeightError, ParseError,
                     ShapeOutOfBoundsError)
from .geometry import Mask, Rect

DBU_PER_MICRON = 1000


@dataclass(frozen=True)
class ColoredRect:
    """One rectangle of cell geometry with its mask pre-color."""

    layer: str
    mask: Mask
    rect: Rect


@dataclass(frozen=True)
class PinDef:
    name: str
    shapes: tuple[ColoredRect, ...]


@dataclass(frozen=True)
class CellProfile:
    """Physical profile of one library cell, all dimensions in DBU."""

    name: str
    width: int
    height: int
    height_rows: int
    pins: tuple[PinDef, ...] = ()
    shapes: tuple[ColoredRect, ...] = ()

    @property
    def is_multi(self) -> bool:
        return self.height_rows > 1


@dataclass(frozen=True)
class CellLibrary:
    name: str
    row_height: int
    site_width: int
    cells: tuple[CellProfile, ...]
    _by_name: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "_by_name", {c.name: c for c in self.cells})

    def cell(self, name: str) -> CellProfile:
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self.cells)


@dataclass(frozen=True)
class LibraryStats:
    """Histograms over the cell population."""

    width_hist: dict[int, int]
    height_rows_hist: dict[int, int]
    n_single: int
    n_multi: int

    @property
    def total(self) -> int:
        return self.n_single + self.n_multi


def split_mask_suffix(layer_name: str) -> tuple[str, Mask]:
    """M1_E1 -> ("M1", Mask.E1); bare names are uncolored."""
    if layer_name.endswith("_E1"):
        return layer_name[:-3], Mask.E1
    if layer_name.endswith("_E2"):
        return layer_name[:-3], Mask.E2
    return layer_name, Mask.NONE


class _Tok:
    __slots__ = ("text", "line", "col")

    def __init__(self, text: str, line: int, col: int):
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str) -> list[_Tok]:
    toks = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        for m in re.finditer(r"\S+", body):
            toks.append(_Tok(m.group(), lineno, m.start() + 1))
    return toks


def micron_to_dbu(text: str, line: int | None = None,
                  col: int | None = None) -> int:
    """Exact micron-to-DBU conversion. At most 3 decimal places; finer
    precision is rejected rather than silently rounded."""
    m = re.fullmatch(r"(-?)([0-9]+)(?:\.([0-9]*))?", text)
    if m is None or (m.group(3) == "" and text.endswith(".")):
        raise ParseError(f"malformed coordinate {text!r}", line, col)
    sign, whole, frac = m.group(1), m.group(2), m.group(3) or ""
    if len(frac) > 3:
        raise ParseError(
            f"coordinate {text!r} finer than 1 DBU (max 3 decimal places)",
            line, col)
    value = int(whole) * DBU_PER_MICRON + int(frac.ljust(3, "0") or "0")
    return -value if sign else value


class _Parser:
    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.pos = 0

    def peek(self) -> _Tok | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self, what: str = "token") -> _Tok:
        tok = self.peek()
        if tok is None:
            last = self.toks[-1] if self.toks else None
            raise ParseError(f"unexpected end of file, expected {what}",
                             last.line if last else 1,
                             last.col if last else 1)
        self.pos += 1
        return tok

    def expect(self, *literals: str) -> _Tok:
        """Take one token per literal in turn; return the last one."""
        for literal in literals:
            tok = self.take(repr(literal))
            if tok.text != literal:
                raise ParseError(f"expected {literal!r}, found {tok.text!r}",
                                 tok.line, tok.col)
        return tok

    def number(self) -> int:
        tok = self.take("number")
        return micron_to_dbu(tok.text, tok.line, tok.col)


def _parse_rect(p: _Parser) -> Rect:
    tok = p.expect("RECT")
    x1, y1, x2, y2 = (p.number() for _ in range(4))
    p.expect(";")
    if x1 >= x2 or y1 >= y2:
        raise ParseError(f"degenerate RECT {x1} {y1} {x2} {y2} (DBU)",
                         tok.line, tok.col)
    return Rect(x1, y1, x2, y2)


def _parse_layer_shapes(p: _Parser, end_words: set[str]) -> Iterator[ColoredRect]:
    """LAYER <name> ; followed by RECT lines, repeated until an end word."""
    while True:
        tok = p.peek()
        if tok is None or tok.text in end_words:
            return
        p.expect("LAYER")
        lname = p.take("layer name").text
        p.expect(";")
        layer, mask = split_mask_suffix(lname)
        saw_rect = False
        while p.peek() is not None and p.peek().text == "RECT":
            yield ColoredRect(layer, mask, _parse_rect(p))
            saw_rect = True
        if not saw_rect:
            nxt = p.peek()
            raise ParseError(f"LAYER {lname} has no RECT statements",
                             nxt.line if nxt else tok.line,
                             nxt.col if nxt else tok.col)


def _parse_pin(p: _Parser, cell_name: str) -> PinDef:
    p.expect("PIN")
    name_tok = p.take("pin name")
    shapes: list[ColoredRect] = []
    while True:
        tok = p.peek()
        if tok is None:
            p.take(f"END {name_tok.text}")
        if tok.text == "PORT":
            p.expect("PORT")
            shapes.extend(_parse_layer_shapes(p, {"END"}))
            p.expect("END")
        elif tok.text == "END":
            p.expect("END")
            p.expect(name_tok.text)
            return PinDef(name_tok.text, tuple(shapes))
        else:
            raise ParseError(
                f"unexpected {tok.text!r} in PIN {name_tok.text} of {cell_name}",
                tok.line, tok.col)


def _check_bounds(cell_name: str, kind: str, shape: ColoredRect,
                  width: int, height: int):
    r = shape.rect
    if r.x1 < 0 or r.y1 < 0 or r.x2 > width or r.y2 > height:
        raise ShapeOutOfBoundsError(
            f"{kind} rect {tuple(r)} of cell {cell_name} leaves the "
            f"outline 0 0 {width} {height}")


def _parse_macro(p: _Parser, row_height: int,
                 site_width: int) -> CellProfile:
    p.expect("MACRO")
    name_tok = p.take("macro name")
    name = name_tok.text
    width = height = None
    pins: list[PinDef] = []
    shapes: list[ColoredRect] = []
    while True:
        tok = p.peek()
        if tok is None:
            p.take(f"END {name}")
        if tok.text == "SIZE":
            p.expect("SIZE")
            width = p.number()
            p.expect("BY")
            height = p.number()
            p.expect(";")
        elif tok.text == "PIN":
            pins.append(_parse_pin(p, name))
        elif tok.text == "OBS":
            p.expect("OBS")
            shapes.extend(_parse_layer_shapes(p, {"END"}))
            p.expect("END")
        elif tok.text == "END":
            p.expect("END")
            p.expect(name)
            break
        else:
            raise ParseError(f"unexpected {tok.text!r} in MACRO {name}",
                             tok.line, tok.col)
    if width is None:
        raise ParseError(f"MACRO {name} has no SIZE statement",
                         name_tok.line, name_tok.col)
    if width <= 0 or height <= 0:
        raise ParseError(f"MACRO {name} has non-positive SIZE",
                         name_tok.line, name_tok.col)
    if width % site_width != 0:
        raise ParseError(f"MACRO {name} width {width} DBU is not a multiple "
                         f"of the site width {site_width} DBU",
                         name_tok.line, name_tok.col)
    if height % row_height != 0:
        raise NonIntegerHeightError(
            f"cell {name} height {height} DBU is not a multiple of the row "
            f"height {row_height} DBU")
    seen_pins = set()
    for pin in pins:
        if pin.name in seen_pins:
            raise ParseError(f"duplicate pin {pin.name} in MACRO {name}",
                             name_tok.line, name_tok.col)
        seen_pins.add(pin.name)
        for s in pin.shapes:
            _check_bounds(name, f"pin {pin.name}", s, width, height)
    for s in shapes:
        _check_bounds(name, "OBS", s, width, height)
    return CellProfile(name, width, height, height // row_height,
                       tuple(pins), tuple(shapes))


def parse_library(text: str) -> CellLibrary:
    """Parse a library file. Total: returns a fully validated CellLibrary
    or raises a located error; never a partial library."""
    p = _Parser(_tokenize(text))
    p.expect("LIBRARY")
    lib_name = p.take("library name").text
    p.expect(";")

    site_width = row_height = None
    cells: list[CellProfile] = []
    names: set[str] = set()
    while True:
        tok = p.peek()
        if tok is None:
            p.take("END LIBRARY")
        if tok.text == "SITE":
            if row_height is not None:
                raise ParseError("duplicate SITE statement", tok.line, tok.col)
            p.expect("SITE")
            p.take("site name")
            p.expect("SIZE")
            site_width = p.number()
            p.expect("BY")
            row_height = p.number()
            p.expect(";")
            if site_width <= 0 or row_height <= 0:
                raise ParseError("SITE dimensions must be positive",
                                 tok.line, tok.col)
        elif tok.text == "MACRO":
            if row_height is None:
                raise ParseError("MACRO before SITE statement (row height "
                                 "unknown)", tok.line, tok.col)
            cell = _parse_macro(p, row_height, site_width)
            if cell.name in names:
                raise DuplicateCellError(f"duplicate MACRO {cell.name}")
            names.add(cell.name)
            cells.append(cell)
        elif tok.text == "END":
            p.expect("END")
            p.expect("LIBRARY")
            break
        else:
            raise ParseError(f"unexpected {tok.text!r} at library scope",
                             tok.line, tok.col)
    tok = p.peek()
    if tok is not None:
        raise ParseError(f"trailing input {tok.text!r} after END LIBRARY",
                         tok.line, tok.col)
    if row_height is None:
        raise ParseError("library has no SITE statement", 1, 1)
    return CellLibrary(lib_name, row_height, site_width, tuple(cells))


def profile(library: CellLibrary) -> LibraryStats:
    """Width and height histograms plus the single/multi split."""
    widths = Counter(c.width for c in library.cells)
    rows = Counter(c.height_rows for c in library.cells)
    n_single = sum(1 for c in library.cells if c.height_rows == 1)
    return LibraryStats(dict(sorted(widths.items())),
                        dict(sorted(rows.items())),
                        n_single, len(library.cells) - n_single)
