"""Structural Verilog emission for abutment testcases.

One module per case containing its unconnected cell instances, plus a TOP
module instantiating every case module once. The cases carry no nets, so
instances are emitted unconnected: ``<CELL> U1 ();``.
"""

from __future__ import annotations

from .abutment import AbutmentCase
from .errors import NameCollisionError


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
    out = []
    for case, name in zip(cases, names):
        out.append(f"module {name} ();")
        for p in case.placements:
            out.append(f"  {p.cell_ref} {p.instance_name} ();")
        out.append("endmodule")
        out.append("")
    out.append("module TOP ();")
    for name in names:
        out.append(f"  {name} {name} ();")
    out.append("endmodule")
    return "\n".join(out) + "\n"
