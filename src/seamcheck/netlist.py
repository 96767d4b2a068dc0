"""Structural Verilog emission for abutment testcases.

One module per case containing its unconnected cell instances, plus a TOP
module instantiating every case module once. The cases carry no nets, so
instances are emitted unconnected: ``<CELL> U1 ();``. A cell name that
is not a simple Verilog identifier, or is a reserved word, is written
escaped: ``\\AND2-X1 U1 ();``, ``\\module U1 ();``. write_verilog()
streams the text to a file one module at a time; emit_verilog() returns
it as a string. Module names are the cases' own: ``enumerate_library``
makes them unique.
"""

from __future__ import annotations

import io
import re
from typing import TextIO

from .abutment import AbutmentCase

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_$]*")
# Reserved words of IEEE 1364-2005 (Annex B).
_KEYWORDS = frozenset("""
always and assign automatic begin buf bufif0 bufif1 case casex casez cell
cmos config deassign default defparam design disable edge else end endcase
endconfig endfunction endgenerate endmodule endprimitive endspecify
endtable endtask event for force forever fork function generate genvar
highz0 highz1 if ifnone incdir include initial inout input instance
integer join large liblist library localparam macromodule medium module
nand negedge nmos nor noshowcancelled not notif0 notif1 or output
parameter pmos posedge primitive pull0 pull1 pulldown pullup
pulsestyle_ondetect pulsestyle_onevent rcmos real realtime reg release
repeat rnmos rpmos rtran rtranif0 rtranif1 scalared showcancelled signed
small specify specparam strong0 strong1 supply0 supply1 table task time
tran tranif0 tranif1 tri tri0 tri1 triand trior trireg unsigned use uwire
vectored wait wand weak0 weak1 while wire wor xnor xor
""".split())


def write_verilog(out: TextIO, cases: list[AbutmentCase]) -> None:
    """Write the netlist of the case list to ``out``, one module at a
    time, each module body from its case's instance pattern."""
    refs: dict[str, str] = {}  # cell name -> its Verilog reference
    for case in cases:
        cell_refs = []
        for cell in case.cells:
            ref = refs.get(cell.name)
            if ref is None:
                ref = refs[cell.name] = (
                    cell.name if _IDENTIFIER.fullmatch(cell.name)
                    and cell.name not in _KEYWORDS else "\\" + cell.name)
            cell_refs.append(ref)
        out.write(f"module {case.module_name} ();\n")
        out.write("".join([f"  {cell_refs[slot]} {instance} ();\n"
                           for instance, slot, _, _, _ in case.pattern]))
        out.write("endmodule\n\n")
    out.write("module TOP ();\n")
    for case in cases:
        out.write(f"  {case.module_name} {case.module_name} ();\n")
    out.write("endmodule\n")


def emit_verilog(cases: list[AbutmentCase]) -> str:
    """Deterministic netlist text for the case list (LF line endings)."""
    out = io.StringIO()
    write_verilog(out, cases)
    return out.getvalue()
