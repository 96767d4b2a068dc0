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

parse_def() inverts emission exactly: re-emitting a parsed design
reproduces the original bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abutment import AbutmentCase, Placement, instance_path
from .errors import ParseError
from .floorplan import Floorplan
from .geometry import Orientation, Rect, UnknownCellRefError
from .library import CellLibrary, _Parser, _tokenize
from .netlist import module_names


@dataclass(frozen=True)
class DefDesign:
    name: str
    placements: tuple[Placement, ...]
    die_area: Rect


def render_def(placements, die_area: Rect, design: str = "TOP") -> str:
    """DEF text for an iterable of (instance, cell, (x, y), orientation)
    tuples, e.g. ``Placement``s, in the given order."""
    components = [f"- {name} {cell_ref} + PLACED ( {x} {y} ) "
                  f"{orientation.def_code} ;"
                  for name, cell_ref, (x, y), orientation in placements]
    return "\n".join([
        "VERSION 5.6 ;",
        f"DESIGN {design} ;",
        "UNITS DISTANCE MICRONS 1000 ;",
        f"DIEAREA ( {die_area.x1} {die_area.y1} ) "
        f"( {die_area.x2} {die_area.y2} ) ;",
        f"COMPONENTS {len(components)} ;",
        *components,
        "END COMPONENTS",
        "END DESIGN",
    ]) + "\n"


def emit_def(cases: list[AbutmentCase], library: CellLibrary,
             floorplan: Floorplan) -> str:
    """Placed-design DEF for the case list under the given floorplan. Each
    component line is written from the case-local placement shifted by
    the case's die origin."""
    module_names(cases)  # surface NameCollision before writing anything

    def placed():
        for idx, case in enumerate(cases):
            ox, oy = floorplan.origin_of(idx)
            module = case.module_name
            for name, cell_ref, (x, y), orientation in case.placements:
                if cell_ref not in library:
                    raise UnknownCellRefError(cell_ref)
                yield (instance_path(module, name), cell_ref,
                       (x + ox, y + oy), orientation)

    return render_def(placed(), floorplan.die_area)


class _DefParser(_Parser):
    def integer(self) -> int:
        tok = self.take("integer")
        try:
            return int(tok.text)
        except ValueError:
            raise ParseError(f"expected integer, found {tok.text!r}",
                             tok.line, tok.col) from None


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
        orient = Orientation.from_def_code(orient_tok.text)
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
