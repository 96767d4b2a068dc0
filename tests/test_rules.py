"""Rule-deck parsing and validation tests."""

import re

import pytest

from seamcheck import (
    InconsistentSpacingError,
    MissingLayerRuleError,
    ParseError,
    parse_rules,
)

VALID = """\
name: demo14
row_height: 576
site_width: 8
interaction_distance: 200
layers:
  M1:
    min_width: 32
    min_spacing_any_mask: 32
    min_spacing_same_mask: 64
    dpt: true
  M2:
    min_width: 40
    min_spacing_any_mask: 48
hotspot_patterns:
  - name: quad_alternating
    layer: M1
    masks: [E1, E2, E1, E2]
    max_gap: 80
    min_run_length: 100
"""


class TestParseRules:
    def test_valid_deck(self):
        deck = parse_rules(VALID)
        assert deck.row_height == 576
        assert deck.site_width == 8
        assert deck.interaction_distance == 200
        m1 = deck.layer_rule("M1")
        assert (m1.min_width, m1.min_spacing_any_mask, m1.min_spacing_same_mask) == \
            (32, 32, 64)
        assert m1.dpt
        m2 = deck.layer_rule("M2")
        assert not m2.dpt and m2.min_spacing_same_mask is None
        assert deck.dpt_layers == ["M1"]
        pat = deck.hotspot_patterns[0]
        assert pat.track_count == 4
        assert pat.max_gap == 80 and pat.min_run_length == 100

    @pytest.mark.parametrize("value", ['"false"', '"no"', "[1]", "maybe",
                                       "2", "null"])
    def test_dpt_must_be_a_boolean(self, value):
        bad = VALID.replace("dpt: true", f"dpt: {value}")
        with pytest.raises(ParseError, match=r"layer M1: dpt must be true "
                           r"or false, got "):
            parse_rules(bad)

    @pytest.mark.parametrize("value", ["5", "true", "false", "{a: 1}"])
    def test_hotspot_patterns_must_be_a_list(self, value):
        head, _ = VALID.split("hotspot_patterns:")
        with pytest.raises(ParseError, match=r"^deck: hotspot_patterns must "
                           r"be a list"):
            parse_rules(f"{head}hotspot_patterns: {value}\n")

    @pytest.mark.parametrize("tail", ["", "hotspot_patterns:\n",
                                      "hotspot_patterns: []\n"])
    def test_hotspot_patterns_absent_null_or_empty(self, tail):
        head, _ = VALID.split("hotspot_patterns:")
        assert parse_rules(head + tail).hotspot_patterns == ()

    def test_dpt_false_or_absent_is_not_a_dpt_layer(self):
        for text in (VALID.replace("dpt: true", "dpt: false"),
                     VALID.replace("    dpt: true\n", "")):
            assert parse_rules(text).dpt_layers == []

    def test_fixture_deck(self, demo_rules):
        assert demo_rules.layer_rule("M1").dpt
        assert demo_rules.hotspot_patterns[0].name == "quad_alternating"

    def test_same_mask_below_any_mask_rejected(self):
        bad = VALID.replace("min_spacing_same_mask: 64", "min_spacing_same_mask: 20")
        with pytest.raises(InconsistentSpacingError):
            parse_rules(bad)

    def test_same_mask_equal_any_mask_allowed(self):
        deck = parse_rules(VALID.replace("min_spacing_same_mask: 64",
                                         "min_spacing_same_mask: 32"))
        assert deck.layer_rule("M1").min_spacing_same_mask == 32

    def test_interaction_distance_must_cover_checks(self):
        bad = VALID.replace("interaction_distance: 200", "interaction_distance: 60")
        with pytest.raises(InconsistentSpacingError):
            parse_rules(bad)

    def test_missing_row_height_rejected(self):
        with pytest.raises(MissingLayerRuleError):
            parse_rules(VALID.replace("row_height: 576\n", ""))

    def test_missing_layer_key_rejected(self):
        with pytest.raises(MissingLayerRuleError):
            parse_rules(VALID.replace("    min_width: 32\n", ""))

    def test_nonpositive_value_rejected(self):
        with pytest.raises(ParseError):
            parse_rules(VALID.replace("min_width: 32", "min_width: 0"))

    def test_dpt_layer_without_same_mask_spacing_rejected(self):
        bad = VALID.replace("    min_spacing_same_mask: 64\n", "")
        with pytest.raises(MissingLayerRuleError):
            parse_rules(bad)

    def test_pattern_on_unknown_layer_rejected(self):
        with pytest.raises(MissingLayerRuleError):
            parse_rules(VALID.replace("    layer: M1", "    layer: M9"))

    def test_bad_mask_name_rejected(self):
        with pytest.raises(ParseError):
            parse_rules(VALID.replace("[E1, E2, E1, E2]", "[E1, E3, E1, E2]"))

    @pytest.mark.parametrize("suffix", ["_E1", "_E2"])
    def test_mask_suffixed_layer_key_rejected(self, suffix):
        bad = VALID.replace("  M1:", f"  M1{suffix}:").replace(
            "layer: M1", f"layer: M1{suffix}")
        with pytest.raises(ParseError, match=rf"^layer M1{suffix}: the "
                           rf"library folds M1{suffix} shapes onto layer M1, "
                           r"so the rule must be keyed M1$"):
            parse_rules(bad)

    @pytest.mark.parametrize("value, shown", [("NO", "False"),
                                              ("{q: 1}", "{'q': 1}"),
                                              ("7", "7"), ("null", "None")])
    def test_pattern_name_must_be_a_string(self, value, shown):
        bad = VALID.replace("name: quad_alternating", f"name: {value}")
        with pytest.raises(ParseError, match=r"^hotspot pattern #1: name must "
                           r"be a string, got " + re.escape(shown) + "$"):
            parse_rules(bad)

    def test_quoted_pattern_name_kept(self):
        deck = parse_rules(VALID.replace("name: quad_alternating",
                                         'name: "NO"'))
        assert deck.hotspot_patterns[0].name == "NO"

    def test_deck_name_is_an_unread_label(self):
        unnamed = parse_rules(VALID.replace("name: demo14\n", ""))
        assert parse_rules(VALID) == unnamed
        assert not hasattr(unnamed, "name")

    def test_single_entry_mask_list_rejected(self):
        with pytest.raises(ParseError):
            parse_rules(VALID.replace("[E1, E2, E1, E2]", "[E1]"))
