"""Batch verification of standard-cell abutment: reduced testcase
enumeration, Verilog/DEF emission, and seam-level DRC / double-patterning
/ hotspot checking."""

from .abutment import (AbutmentCase, CaseKind, CoverageReport, Placement,
                       Seam, coverage_check, enumerate_library,
                       expected_count)
from .checks import (ConflictGraph, DecomposeResult, DptOption,
                     LayerNeighbours, VerificationResult, Violation,
                     ViolationKind, apply_colors, build_conflict_graph,
                     case_layout, check_spacing, check_width,
                     color_decompose, match_hotspots, run_all,
                     sweep_neighbours)
from .defio import DefDesign, emit_def, parse_def, render_def, write_def
from .floorplan import Floorplan, plan_floorplan, plan_library
from .geometry import (FlatLayout, FlatShape, Mask, Orientation, ParallelRun,
                       Rect, connected_components, flatten, parallel_runs,
                       rects_touch, run_between, transform_rect, union_all)
from .library import (CellLibrary, CellProfile, ColoredRect, DBU_PER_MICRON,
                      LibraryStats, ParseError, micron_to_dbu, parse_library,
                      profile, split_mask_suffix)
from .netlist import emit_verilog, write_verilog
from .report import (SeamReport, attribute_to_seams, global_seams,
                     read_results, render_jsonl, render_summary, render_svg,
                     seams_per_violation, summary_table, violation_record)
from .rules import HotspotPattern, LayerRule, RuleDeck, parse_rules

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
