"""Standard-cell library parsing and profiling.

The library file is a small LEF-like subset: a LIBRARY header, one SITE
statement carrying the row/site grid, then MACRO blocks that open with
SIZE, as in LEF, followed by PIN/PORT and OBS geometry. Dimensions are
microns with at most three decimal places and convert exactly to integer
DBU (1000 per micron). Every error parse_library raises is a ParseError
located at a token.

Pre-assigned mask colors are encoded in layer names: ``M1_E1`` and ``M1_E2``
are the two masks of layer M1, a bare ``M1`` is uncolored. Any other
``_E<digits>`` suffix is an error. A cell's checked shapes are its OBS
rectangles, then its PIN/PORT rectangles; a port rect that repeats the
base layer and rect of a kept shape is that shape. No two rects on one
base layer and rect may name both masks.
"""

from __future__ import annotations

import functools
import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterator

from .geometry import Mask, Orientation, Rect, transform_rect

DBU_PER_MICRON = 1000


class ParseError(ValueError):
    """Malformed input text: the one input-error type of the library,
    rule deck and DEF parsers. Carries a 1-based line and column when the
    failing token is known."""

    def __init__(self, message: str, line: int | None = None,
                 col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class ColoredRect:
    """One rectangle of cell geometry with its mask pre-color."""

    layer: str
    mask: Mask
    rect: Rect


@dataclass(frozen=True)
class CellProfile:
    """Physical profile of one library cell, all dimensions in DBU.

    ``oriented`` holds the cell's shapes transformed once per orientation
    (built on first use), so placing an instance only adds its origin.
    The table is not a field: it takes no part in ``==`` or ``hash``,
    and ``dataclasses.replace`` starts a fresh one."""

    name: str
    width: int
    height: int
    height_rows: int
    shapes: tuple[ColoredRect, ...] = ()

    @property
    def is_multi(self) -> bool:
        return self.height_rows > 1

    @functools.cached_property
    def oriented(self) -> dict[Orientation,
                               tuple[tuple[str, Mask, Rect], ...]]:
        """Orientation -> (layer, mask, rect) per shape, in shape order,
        with each rect in cell-local coordinates after
        ``transform_rect``."""
        return {o: tuple((s.layer, s.mask,
                          transform_rect(s.rect, self.width, self.height, o))
                         for s in self.shapes)
                for o in Orientation}


@dataclass(frozen=True)
class CellLibrary:
    name: str
    row_height: int
    site_width: int
    cells: tuple[CellProfile, ...]


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
    """M1_E1 -> ("M1", Mask.E1); bare names are uncolored. Any other
    ``_E<digits>`` suffix is a mistyped mask and raises ParseError, so
    its metal cannot land on a layer that no rule names."""
    if layer_name.endswith("_E1"):
        return layer_name[:-3], Mask.E1
    if layer_name.endswith("_E2"):
        return layer_name[:-3], Mask.E2
    if re.search(r"_E[0-9]+$", layer_name):
        raise ParseError(f"layer {layer_name}: unknown mask suffix, "
                         f"expected _E1 or _E2")
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


def _parse_layer_shapes(p: _Parser, outline: Rect, owner: str,
                        cell_name: str) -> Iterator[tuple[_Tok, ColoredRect]]:
    """LAYER <name> ; followed by RECT lines, repeated until END. Yields
    each rect with its RECT token; a rect that leaves ``outline`` is an
    error located at that token, naming its ``owner``."""
    while (tok := p.peek()) is not None and tok.text != "END":
        p.expect("LAYER")
        name_tok = p.take("layer name")
        lname = name_tok.text
        p.expect(";")
        try:
            layer, mask = split_mask_suffix(lname)
        except ParseError as exc:
            raise ParseError(str(exc), name_tok.line, name_tok.col) from None
        saw_rect = False
        while (rect_tok := p.peek()) is not None and rect_tok.text == "RECT":
            rect = _parse_rect(p)
            if not outline.contains(rect):
                raise ParseError(
                    f"{owner} rect {tuple(rect)} of cell {cell_name} leaves "
                    f"the outline 0 0 {outline.x2} {outline.y2}",
                    rect_tok.line, rect_tok.col)
            yield rect_tok, ColoredRect(layer, mask, rect)
            saw_rect = True
        if not saw_rect:
            nxt = p.peek()
            raise ParseError(f"LAYER {lname} has no RECT statements",
                             nxt.line if nxt else tok.line,
                             nxt.col if nxt else tok.col)


def _name_mask(masks: dict, tok: _Tok, shape: ColoredRect, what: str):
    """Record the mask ``shape`` names at its base layer and rect. The
    first mask named there stays; naming the other one is an error
    located at ``tok``."""
    key = (shape.layer, shape.rect)
    mask = masks.setdefault(key, shape.mask)
    if mask is Mask.NONE:
        masks[key] = shape.mask
    elif shape.mask not in (mask, Mask.NONE):
        raise ParseError(f"{what} on {shape.layer}_{shape.mask.value} twins "
                         f"a shape on {shape.layer}_{mask.value}",
                         tok.line, tok.col)


def _parse_macro(p: _Parser, row_height: int,
                 site_width: int) -> CellProfile:
    """One MACRO, read in one pass. SIZE comes first, as in LEF, so the
    grid checks run before any geometry and every rect is checked against
    the outline as it is read; the first error in file order is reported.
    OBS rects are kept, and checked against ``masks``, as they are read.
    Port rects wait for END, because a port may repeat an OBS rect written
    below it: then, in pin order, a port that repeats a kept rect is that
    shape, and every port is checked against ``masks``. ``masks`` holds
    the first mask named at each base layer and rect, so no rect may name
    both, whether a bare copy sits between them or not."""
    p.expect("MACRO")
    name_tok = p.take("macro name")
    name = name_tok.text
    p.expect("SIZE")
    width = p.number()
    p.expect("BY")
    height = p.number()
    p.expect(";")
    if width <= 0 or height <= 0:
        raise ParseError(f"MACRO {name} has non-positive SIZE",
                         name_tok.line, name_tok.col)
    if width % site_width != 0:
        raise ParseError(f"MACRO {name} width {width} DBU is not a multiple "
                         f"of the site width {site_width} DBU",
                         name_tok.line, name_tok.col)
    if height % row_height != 0:
        raise ParseError(
            f"cell {name} height {height} DBU is not a multiple of the row "
            f"height {row_height} DBU", name_tok.line, name_tok.col)
    outline = Rect(0, 0, width, height)
    shapes: list[ColoredRect] = []
    masks: dict = {}  # (layer, rect) -> the first mask named there
    ports: list[tuple[str, _Tok, ColoredRect]] = []  # in file order
    pins: set[str] = set()
    while (tok := p.take(f"END {name}")).text != "END":
        if tok.text == "PIN":
            pin_tok = p.take("pin name")
            pin = pin_tok.text
            if pin in pins:
                raise ParseError(f"duplicate pin {pin} in MACRO {name}",
                                 pin_tok.line, pin_tok.col)
            pins.add(pin)
            while (tok := p.take(f"END {pin}")).text == "PORT":
                ports.extend((pin, *port) for port in _parse_layer_shapes(
                    p, outline, f"pin {pin}", name))
                p.expect("END")
            if tok.text != "END":
                raise ParseError(f"unexpected {tok.text!r} in PIN {pin} of "
                                 f"{name}", tok.line, tok.col)
            p.expect(pin)
        elif tok.text == "OBS":
            for rect_tok, s in _parse_layer_shapes(p, outline, "OBS", name):
                _name_mask(masks, rect_tok, s, f"OBS of MACRO {name}: rect")
                shapes.append(s)
            p.expect("END")
        else:
            raise ParseError(f"unexpected {tok.text!r} in MACRO {name}",
                             tok.line, tok.col)
    p.expect(name)
    for pin, rect_tok, s in ports:
        if (s.layer, s.rect) not in masks:
            shapes.append(s)
        _name_mask(masks, rect_tok, s,
                   f"pin {pin} of MACRO {name}: port rect")
    return CellProfile(name, width, height, height // row_height,
                       tuple(shapes))


def parse_library(text: str) -> CellLibrary:
    """Parse a library file. Total: returns a fully validated CellLibrary
    or raises a located error; never a partial library."""
    p = _Parser(_tokenize(text))
    p.expect("LIBRARY")
    lib_name = p.take("library name").text
    p.expect(";")

    site_width = row_height = None
    cells: dict[str, CellProfile] = {}
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
            if cells.setdefault(cell.name, cell) is not cell:
                raise ParseError(f"duplicate MACRO {cell.name}", tok.line,
                                 tok.col)
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
    return CellLibrary(lib_name, row_height, site_width,
                       tuple(cells.values()))


def profile(library: CellLibrary) -> LibraryStats:
    """Width and height histograms plus the single/multi split."""
    widths = Counter(c.width for c in library.cells)
    rows = Counter(c.height_rows for c in library.cells)
    n_single = sum(1 for c in library.cells if c.height_rows == 1)
    return LibraryStats(dict(sorted(widths.items())),
                        dict(sorted(rows.items())),
                        n_single, len(library.cells) - n_single)
