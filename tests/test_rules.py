"""Rule-deck parsing and validation tests."""

import re

import pytest

from seamcheck import ParseError, parse_rules

VALID = """\
name: demo14
interaction_distance: 200
layers:
  M1:
    min_width: 32
    min_spacing_any_mask: 32
    min_spacing_same_mask: 64
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

    def test_layer_without_same_mask_spacing_is_not_dpt(self):
        deck = parse_rules(VALID.replace("    min_spacing_same_mask: 64\n",
                                         ""))
        m1 = deck.layer_rule("M1")
        assert not m1.dpt and m1.min_spacing_same_mask is None
        assert deck.dpt_layers == []

    @pytest.mark.parametrize("text, outcome", [
        (VALID.replace("    min_spacing_same_mask: 64\n",
                       "    min_spacing_same_mask: 64\n    dpt: false\n"),
         "layer M1: unknown key 'dpt'"),
        (VALID, ["M1"]),
        # Within the interaction distance the spacing makes M2 DPT; above
        # it, it is a rule reach like any other and widens the deck's reach.
        (VALID.replace("    min_spacing_any_mask: 48\n",
                       "    min_spacing_any_mask: 48\n"
                       "    min_spacing_same_mask: 150\n"),
         ["M1", "M2"]),
        (VALID.replace("    min_spacing_any_mask: 48\n",
                       "    min_spacing_any_mask: 48\n"
                       "    min_spacing_same_mask: 300\n"),
         "interaction_distance 200 is below the largest rule reach 300"),
    ], ids=["M1-dpt-false", "M1-dpt-absent", "M2-150", "M2-300"])
    def test_same_mask_spacing_on_non_dpt_layer_rejected(self, text, outcome):
        """A same-mask spacing on a layer with no `dpt: true` makes that
        layer DPT; only a `dpt` key, or a reach beyond interaction_distance,
        is rejected."""
        if isinstance(outcome, str):
            with pytest.raises(ParseError, match=rf"^{re.escape(outcome)}$"):
                parse_rules(text)
        else:
            assert parse_rules(text).dpt_layers == outcome

    def test_fixture_deck(self, demo_rules):
        assert demo_rules.layer_rule("M1").dpt
        assert demo_rules.hotspot_patterns[0].name == "quad_alternating"

    def test_same_mask_below_any_mask_rejected(self):
        bad = VALID.replace("min_spacing_same_mask: 64", "min_spacing_same_mask: 20")
        with pytest.raises(ParseError, match=(
                r"^layer M1: min_spacing_same_mask 20 < "
                r"min_spacing_any_mask 32$")):
            parse_rules(bad)

    def test_same_mask_equal_any_mask_allowed(self):
        deck = parse_rules(VALID.replace("min_spacing_same_mask: 64",
                                         "min_spacing_same_mask: 32"))
        assert deck.layer_rule("M1").min_spacing_same_mask == 32

    def test_interaction_distance_must_cover_checks(self):
        bad = VALID.replace("interaction_distance: 200", "interaction_distance: 60")
        with pytest.raises(ParseError, match=(
                r"^interaction_distance 60 is below the largest rule "
                r"reach 80$")):
            parse_rules(bad)

    @pytest.mark.parametrize("old, new, where, key", [
        ("hotspot_patterns:", "hotspot_pattern:", "deck", "hotspot_pattern"),
        # The grid is the library's SITE, so a deck that states it is
        # refused rather than read as if it took effect.
        ("name: demo14\n", "name: demo14\nrow_height: 576\n", "deck",
         "row_height"),
        ("    min_width: 32", "    min_widht: 32", "layer M1", "min_widht"),
        # A layer is DPT by its same-mask spacing; a dpt flag states
        # nothing more, so it is refused like any other unread key.
        ("    min_spacing_same_mask: 64",
         "    min_spacing_same_mask: 64\n    dpt: true", "layer M1", "dpt"),
        ("    max_gap: 80", "    max_gap: 80\n    track_count: 4",
         "hotspot pattern #1", "track_count"),
    ], ids=["deck", "deck-grid", "layer", "layer-dpt", "pattern"])
    def test_unread_key_rejected(self, old, new, where, key):
        assert old in VALID
        with pytest.raises(ParseError, match=(
                rf"^{where}: unknown key '{key}'$")):
            parse_rules(VALID.replace(old, new))

    def test_missing_layer_key_rejected(self):
        with pytest.raises(ParseError, match=(
                r"^layer M1: missing required key 'min_width'$")):
            parse_rules(VALID.replace("    min_width: 32\n", ""))

    def test_nonpositive_value_rejected(self):
        with pytest.raises(ParseError):
            parse_rules(VALID.replace("min_width: 32", "min_width: 0"))

    def test_pattern_on_unknown_layer_rejected(self):
        with pytest.raises(ParseError, match=(
                r"^hotspot pattern #1: layer M9 has no rule entry$")):
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

    def test_other_mask_suffixed_layer_key_rejected(self):
        bad = VALID.replace("  M2:", "  M2_E3:")
        with pytest.raises(ParseError, match=r"^layer M2_E3: unknown mask "
                           r"suffix, expected _E1 or _E2$"):
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
