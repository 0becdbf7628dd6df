"""Tests for the look-up-rule classifier."""

import pytest

from repro.net.classifier import ClassifierRule, FlowClassifier
from repro.net.packet import Packet


def _packet(src=0, dst=1, size=1500, flow_id=0, priority=0):
    return Packet(src=src, dst=dst, size=size, created_ps=0,
                  flow_id=flow_id, priority=priority)


class TestRuleValidation:
    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown classifier action"):
            ClassifierRule(action="teleport")

    @pytest.mark.parametrize("action", ["voq", "eps", "drop"])
    def test_known_actions(self, action):
        assert ClassifierRule(action=action).action == action


class TestRuleMatching:
    def test_wildcard_rule_matches_everything(self):
        rule = ClassifierRule(action="eps")
        assert rule.matches(_packet())
        assert rule.matches(_packet(src=5, dst=2, size=64))

    def test_src_filter(self):
        rule = ClassifierRule(action="eps", src=3)
        assert rule.matches(_packet(src=3))
        assert not rule.matches(_packet(src=4))

    def test_dst_filter(self):
        rule = ClassifierRule(action="eps", dst=2)
        assert rule.matches(_packet(dst=2))
        assert not rule.matches(_packet(dst=1))

    def test_flow_filter(self):
        rule = ClassifierRule(action="drop", flow_id=9)
        assert rule.matches(_packet(flow_id=9))
        assert not rule.matches(_packet(flow_id=8))

    def test_priority_filter(self):
        rule = ClassifierRule(action="eps", priority_class=1)
        assert rule.matches(_packet(priority=1))
        assert not rule.matches(_packet(priority=0))

    def test_min_size_filter(self):
        rule = ClassifierRule(action="voq", min_size=1000)
        assert rule.matches(_packet(size=1500))
        assert not rule.matches(_packet(size=64))

    def test_conjunction_of_fields(self):
        rule = ClassifierRule(action="eps", src=1, dst=2, min_size=100)
        assert rule.matches(_packet(src=1, dst=2, size=200))
        assert not rule.matches(_packet(src=1, dst=3, size=200))


class TestClassifier:
    def test_default_is_voq_to_packet_dst(self):
        decision = FlowClassifier().classify(_packet(dst=4))
        assert decision.action == "voq"
        assert decision.dst == 4

    def test_first_match_wins(self):
        classifier = FlowClassifier([
            ClassifierRule(action="drop", src=0),
            ClassifierRule(action="eps", src=0),
        ])
        assert classifier.classify(_packet(src=0)).action == "drop"

    def test_insert_rule_priority(self):
        classifier = FlowClassifier([ClassifierRule(action="drop", src=0)])
        classifier.insert_rule(0, ClassifierRule(action="eps", src=0))
        assert classifier.classify(_packet(src=0)).action == "eps"

    def test_add_rule_appends(self):
        classifier = FlowClassifier()
        classifier.add_rule(ClassifierRule(action="eps", priority_class=1))
        assert classifier.classify(_packet(priority=1)).action == "eps"
        assert classifier.classify(_packet(priority=0)).action == "voq"

    def test_redirect_dst(self):
        classifier = FlowClassifier([
            ClassifierRule(action="voq", src=0, redirect_dst=7)])
        decision = classifier.classify(_packet(src=0, dst=1))
        assert decision.dst == 7

    def test_clear_restores_default(self):
        classifier = FlowClassifier([ClassifierRule(action="drop")])
        classifier.clear()
        assert classifier.classify(_packet()).action == "voq"
        assert len(classifier) == 0

    def test_is_default_tracks_every_mutator(self):
        # The ingress fast path skips rule matching on this attribute,
        # so every mutator must keep it in step with the rule table.
        assert FlowClassifier().is_default
        assert not FlowClassifier([ClassifierRule(action="drop")]).is_default
        classifier = FlowClassifier()
        classifier.add_rule(ClassifierRule(action="drop", src=9))
        assert not classifier.is_default
        classifier.clear()
        assert classifier.is_default
        classifier.insert_rule(0, ClassifierRule(action="eps"))
        assert not classifier.is_default
        assert classifier.classify(_packet()).action == "eps"

    def test_non_matching_rules_fall_through(self):
        classifier = FlowClassifier([
            ClassifierRule(action="drop", src=9)])
        assert classifier.classify(_packet(src=0)).action == "voq"
