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
from .defio import DefDesign, emit_def, parse_def, render_def
from .errors import (CaseTooWideError, DuplicateCellError,
                     IncompleteAssignmentError, InconsistentSpacingError,
                     MissingLayerRuleError, NameCollisionError,
                     NonIntegerHeightError, ParseError,
                     ShapeOutOfBoundsError)
from .floorplan import Floorplan, plan_floorplan, plan_library
from .geometry import (FlatLayout, FlatShape, Mask, Orientation, ParallelRun,
                       Rect, UnknownCellRefError, UnknownOrientationCodeError,
                       connected_components, flatten, parallel_runs,
                       rects_touch, run_between, transform_rect, union_all)
from .library import (CellLibrary, CellProfile, ColoredRect, DBU_PER_MICRON,
                      LibraryStats, PinDef, micron_to_dbu, parse_library,
                      profile, split_mask_suffix)
from .netlist import emit_verilog
from .report import (GlobalSeam, SeamReport, SummaryRow, SummaryTable,
                     attribute_to_seams, case_seams, global_seams,
                     render_jsonl, render_svg, seams_per_violation,
                     summary_table, violation_record)
from .rules import HotspotPattern, LayerRule, RuleDeck, parse_rules

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
