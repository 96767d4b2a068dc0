"""DEF 5.6 subset emission and parsing.

Emitted files carry exactly the placement data the testcases need:

    VERSION 5.6 ;
    DESIGN TOP ;
    UNITS DISTANCE MICRONS 1000 ;
    DIEAREA ( 0 0 ) ( <w> <h> ) ;
    COMPONENTS <n> ;
    - <inst> <CELL> + PLACED ( <x> <y> ) <orient> ;
    END COMPONENTS
    END DESIGN

write_def() streams a case list's DEF to a file, one case at a time,
formatting each line from the case's placed instances, with the count
taken from the patterns up front; emit_def() returns the same text as a
string, and render_def() formats any placements. Emission checks
nothing: a case carries its cells, ``enumerate_library`` makes module
names unique, and ``plan_floorplan`` places every case inside the die.
parse_def() inverts emission exactly: integers are canonical (no leading
zeros, no ``-0``), so re-emitting a parsed design reproduces the original
bytes.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass
from typing import TextIO

from .abutment import (AbutmentCase, Placement, instance_path,
                       placement_count)
from .floorplan import Floorplan
from .geometry import Orientation, Rect
from .library import ParseError, _Parser, _tokenize

_INTEGER = re.compile(r"0|-?[1-9][0-9]*")
# The DEF code of each orientation, and its inverse.
_DEF_CODE = {
    Orientation.R0: "N",
    Orientation.R180: "S",
    Orientation.MX: "FS",
    Orientation.MY: "FN",
}
_ORIENTATION = {code: o for o, code in _DEF_CODE.items()}


@dataclass(frozen=True)
class DefDesign:
    name: str
    placements: tuple[Placement, ...]
    die_area: Rect


def _header(count: int, die_area: Rect, design: str) -> str:
    return (f"VERSION 5.6 ;\nDESIGN {design} ;\n"
            f"UNITS DISTANCE MICRONS 1000 ;\n"
            f"DIEAREA ( {die_area.x1} {die_area.y1} ) "
            f"( {die_area.x2} {die_area.y2} ) ;\n"
            f"COMPONENTS {count} ;\n")


_TRAILER = "END COMPONENTS\nEND DESIGN\n"


def render_def(placements, die_area: Rect, design: str = "TOP") -> str:
    """DEF text for an iterable of (instance, cell, (x, y), orientation)
    tuples, e.g. ``Placement``s, in the given order."""
    lines = [f"- {name} {cell_ref} + PLACED ( {x} {y} ) "
             f"{_DEF_CODE[orientation]} ;\n"
             for name, cell_ref, (x, y), orientation in placements]
    return _header(len(lines), die_area, design) + "".join(lines) + _TRAILER


def write_def(out: TextIO, cases: list[AbutmentCase],
              floorplan: Floorplan) -> None:
    """Write the placed-design DEF of the case list under the given
    floorplan to ``out``, one case at a time. Each component line is
    formatted from an instance of the case placed at its die origin
    (``AbutmentCase.instances``) and gives its ``instance_path`` and its
    cell's name."""
    out.write(_header(placement_count(cases), floorplan.die_area, "TOP"))
    for idx, case in enumerate(cases):
        out.write("".join([
            f"- {instance_path(case.module_name, instance)} {cell.name} "
            f"+ PLACED ( {x} {y} ) {_DEF_CODE[o]} ;\n"
            for instance, cell, x, y, o
            in case.instances(floorplan.origin_of(idx))]))
    out.write(_TRAILER)


def emit_def(cases: list[AbutmentCase], floorplan: Floorplan) -> str:
    """Placed-design DEF text for the case list under the given
    floorplan: what write_def() writes."""
    out = io.StringIO()
    write_def(out, cases, floorplan)
    return out.getvalue()


class _DefParser(_Parser):
    def integer(self) -> int:
        tok = self.take("integer")
        if not _INTEGER.fullmatch(tok.text):
            raise ParseError(f"expected integer, found {tok.text!r}",
                             tok.line, tok.col)
        return int(tok.text)


def parse_def(text: str) -> DefDesign:
    """Parse the DEF subset back into placements and die area."""
    p = _DefParser(_tokenize(text))
    p.expect("VERSION", "5.6", ";")
    p.expect("DESIGN")
    design = p.take("design name").text
    p.expect(";")
    p.expect("UNITS", "DISTANCE", "MICRONS", "1000", ";")
    p.expect("DIEAREA", "(")
    x1, y1 = p.integer(), p.integer()
    p.expect(")", "(")
    x2, y2 = p.integer(), p.integer()
    p.expect(")", ";")
    die = Rect(x1, y1, x2, y2)

    p.expect("COMPONENTS")
    count_tok = p.peek()
    count = p.integer()
    p.expect(";")
    placements = []
    while True:
        tok = p.take("component or END COMPONENTS")
        if tok.text == "END":
            p.expect("COMPONENTS")
            break
        if tok.text != "-":
            raise ParseError(f"expected component line, found {tok.text!r}",
                             tok.line, tok.col)
        inst = p.take("instance name").text
        cell = p.take("cell name").text
        p.expect("+", "PLACED", "(")
        x, y = p.integer(), p.integer()
        p.expect(")")
        orient_tok = p.take("orientation code")
        orient = _ORIENTATION.get(orient_tok.text)
        if orient is None:
            raise ParseError(f"unsupported DEF orientation code "
                             f"{orient_tok.text!r}", orient_tok.line,
                             orient_tok.col)
        p.expect(";")
        placements.append(Placement(inst, cell, (x, y), orient))
    if count != len(placements):
        raise ParseError(
            f"COMPONENTS declares {count} but {len(placements)} follow",
            count_tok.line, count_tok.col)
    p.expect("END", "DESIGN")
    tok = p.peek()
    if tok is not None:
        raise ParseError(f"trailing input {tok.text!r} after END DESIGN",
                         tok.line, tok.col)
    return DefDesign(design, tuple(placements), die)
