"""Structural Verilog emission for abutment testcases.

One module per case containing its unconnected cell instances, plus a TOP
module instantiating every case module once. The cases carry no nets, so
instances are emitted unconnected: ``<CELL> U1 ();``. A cell name that
is not a simple Verilog identifier is written escaped: ``\\AND2-X1 U1 ();``.
"""

from __future__ import annotations

import re

from .abutment import AbutmentCase
from .errors import NameCollisionError

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_$]*")


def module_names(cases) -> list[str]:
    """Module name per case; raises on collisions."""
    names = [case.module_name for case in cases]
    if len(set(names)) < len(names):
        seen: dict[str, int] = {}
        for idx, name in enumerate(names):
            if name in seen:
                raise NameCollisionError(
                    f"cases #{seen[name]} and #{idx} both sanitize to module "
                    f"{name!r}")
            seen[name] = idx
    return names


def emit_verilog(cases: list[AbutmentCase]) -> str:
    """Deterministic netlist text for the case list (LF line endings)."""
    names = module_names(cases)
    refs: dict[str, str] = {}  # cell name -> its Verilog reference
    out = []
    for case, name in zip(cases, names):
        out.append(f"module {name} ();")
        for p in case.placements:
            ref = refs.get(p.cell_ref)
            if ref is None:
                ref = refs[p.cell_ref] = (
                    p.cell_ref if _IDENTIFIER.fullmatch(p.cell_ref)
                    else "\\" + p.cell_ref)
            out.append(f"  {ref} {p.instance_name} ();")
        out.append("endmodule")
        out.append("")
    out.append("module TOP ();")
    for name in names:
        out.append(f"  {name} {name} ();")
    out.append("endmodule")
    return "\n".join(out) + "\n"
