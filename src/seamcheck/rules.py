"""Rule deck parsing and validation.

The deck is a YAML document with per-layer width and spacing rules (DBU)
and hotspot pattern definitions. A layer is double-patterned (DPT)
exactly when its entry gives ``min_spacing_same_mask``. The deck states
only rules: the row/site grid is each library's own (its SITE statement).
A key that no check reads is an error at every level, so a mistyped key
cannot turn a check off; the one exception is the top-level ``name``
label:

    name: demo14
    interaction_distance: 200
    layers:
      M1: {min_width: 32, min_spacing_any_mask: 32,
           min_spacing_same_mask: 64}
    hotspot_patterns:
      - {name: quad_alternating, layer: M1, masks: [E1, E2, E1, E2],
         max_gap: 80, min_run_length: 100}
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import yaml

from .geometry import Mask
from .library import ParseError, split_mask_suffix


@dataclass(frozen=True)
class LayerRule:
    min_width: int
    min_spacing_any_mask: int
    # Given exactly for double-patterned layers.
    min_spacing_same_mask: int | None = None

    @property
    def dpt(self) -> bool:
        return self.min_spacing_same_mask is not None


@dataclass(frozen=True)
class HotspotPattern:
    """A fab-learned weak configuration: track_count parallel tracks with a
    fixed mask sequence, each adjacent gap at most max_gap and a common
    parallel run of at least min_run_length."""

    name: str
    layer: str
    masks: tuple[Mask, ...]
    max_gap: int
    min_run_length: int

    @property
    def track_count(self) -> int:
        return len(self.masks)

    @cached_property
    def targets(self) -> frozenset[tuple[Mask, ...]]:
        """The mask sequences a match may show: the pattern and its
        mirror."""
        return frozenset({self.masks, tuple(reversed(self.masks))})

    @cached_property
    def prefixes(self) -> frozenset[tuple[Mask, ...]]:
        """Every non-empty prefix of a target, for pruning partial
        chains."""
        return frozenset(t[:k] for t in self.targets
                         for k in range(1, len(t) + 1))


@dataclass(frozen=True)
class RuleDeck:
    interaction_distance: int
    layers: dict[str, LayerRule]
    hotspot_patterns: tuple[HotspotPattern, ...] = ()

    def layer_rule(self, layer: str) -> LayerRule | None:
        return self.layers.get(layer)

    def reach(self, layer: str) -> int | None:
        """The largest distance any check looks across on ``layer``: its
        spacing minimums (the same-mask one also bounds the conflict
        graph) and the ``max_gap`` of its hotspot patterns. None when no
        check reads the layer's neighbours."""
        reaches = [p.max_gap for p in self.hotspot_patterns
                   if p.layer == layer]
        rule = self.layers.get(layer)
        if rule is not None:
            reaches.append(rule.min_spacing_any_mask)
            if rule.min_spacing_same_mask is not None:
                reaches.append(rule.min_spacing_same_mask)
        return max(reaches, default=None)

    @property
    def dpt_layers(self) -> list[str]:
        return [name for name, r in sorted(self.layers.items()) if r.dpt]


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ParseError(f"{where}: missing required key {key!r}")
    return mapping[key]


def _mapping(value, keys: tuple[str, ...], where: str):
    """Reject ``value`` unless it is a mapping with no key outside
    ``keys``."""
    if not isinstance(value, dict):
        raise ParseError(f"{where}: must be a mapping")
    for key in value:
        if key not in keys:
            raise ParseError(f"{where}: unknown key {key!r}")


def _positive_int(value, key: str, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
        raise ParseError(f"{where}: {key} must be a positive integer DBU, "
                         f"got {value!r}")
    return value


def _parse_mask(token, where: str) -> Mask:
    try:
        mask = Mask(str(token))
    except ValueError:
        raise ParseError(f"{where}: unknown mask {token!r}, expected E1 or "
                         f"E2") from None
    if mask is Mask.NONE:
        raise ParseError(f"{where}: pattern masks must be E1 or E2")
    return mask


def parse_rules(text: str) -> RuleDeck:
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ParseError(f"rule deck is not valid YAML: {exc}") from None
    _mapping(doc, ("name", "interaction_distance", "layers",
                   "hotspot_patterns"), "deck")
    interaction = _positive_int(_require(doc, "interaction_distance", "deck"),
                                "interaction_distance", "deck")

    raw_layers = _require(doc, "layers", "deck")
    if not isinstance(raw_layers, dict) or not raw_layers:
        raise ParseError("deck: layers must be a non-empty mapping")
    layers: dict[str, LayerRule] = {}
    for lname, raw in raw_layers.items():
        where = f"layer {lname}"
        base, mask = split_mask_suffix(str(lname))
        if mask is not Mask.NONE:
            raise ParseError(f"{where}: the library folds {lname} shapes onto "
                             f"layer {base}, so the rule must be keyed {base}")
        _mapping(raw, ("min_width", "min_spacing_any_mask",
                       "min_spacing_same_mask"), where)
        same_mask = None
        if "min_spacing_same_mask" in raw:
            same_mask = _positive_int(raw["min_spacing_same_mask"],
                                      "min_spacing_same_mask", where)
        rule = LayerRule(
            min_width=_positive_int(_require(raw, "min_width", where),
                                    "min_width", where),
            min_spacing_any_mask=_positive_int(
                _require(raw, "min_spacing_any_mask", where),
                "min_spacing_any_mask", where),
            min_spacing_same_mask=same_mask,
        )
        if same_mask is not None and same_mask < rule.min_spacing_any_mask:
            raise ParseError(
                f"{where}: min_spacing_same_mask {same_mask}"
                f" < min_spacing_any_mask {rule.min_spacing_any_mask}")
        layers[str(lname)] = rule

    raw_patterns = doc.get("hotspot_patterns")
    if raw_patterns is None:
        raw_patterns = []
    elif not isinstance(raw_patterns, list):
        raise ParseError(f"deck: hotspot_patterns must be a list of "
                         f"mappings, got {raw_patterns!r}")
    patterns: list[HotspotPattern] = []
    for i, raw in enumerate(raw_patterns):
        where = f"hotspot pattern #{i + 1}"
        _mapping(raw, ("name", "layer", "masks", "max_gap",
                       "min_run_length"), where)
        pname = _require(raw, "name", where)
        if not isinstance(pname, str):
            raise ParseError(f"{where}: name must be a string, got {pname!r}")
        layer = str(_require(raw, "layer", where))
        if layer not in layers:
            raise ParseError(f"{where}: layer {layer} has no rule entry")
        raw_masks = _require(raw, "masks", where)
        if not isinstance(raw_masks, list) or len(raw_masks) < 2:
            raise ParseError(f"{where}: masks must list at least 2 tracks")
        masks = tuple(_parse_mask(tok, where) for tok in raw_masks)
        patterns.append(HotspotPattern(
            name=pname, layer=layer, masks=masks,
            max_gap=_positive_int(_require(raw, "max_gap", where),
                                  "max_gap", where),
            min_run_length=_positive_int(
                _require(raw, "min_run_length", where),
                "min_run_length", where)))

    deck = RuleDeck(interaction_distance=interaction, layers=layers,
                    hotspot_patterns=tuple(patterns))
    reach = max(deck.reach(layer) for layer in layers)
    if interaction < reach:
        raise ParseError(
            f"interaction_distance {interaction} is below the largest rule "
            f"reach {reach}")
    return deck
