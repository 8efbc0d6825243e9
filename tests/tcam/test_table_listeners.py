"""Tests for TcamTable change notifications and the O(1) accessors."""

from repro.tcam import Action, Rule, TcamTable, pica8_p3290


def rule(prefix, priority, port=1):
    return Rule.from_prefix(prefix, priority, Action.output(port))


class RecordingListener:
    def __init__(self):
        self.events = []

    def rule_installed(self, rule):
        self.events.append(("install", rule.rule_id))

    def rule_removed(self, rule):
        self.events.append(("remove", rule.rule_id))

    def rule_modified(self, old, new):
        self.events.append(("modify", old.rule_id, new.action.kind))


class PartialListener:
    """Only cares about installs; other events must be skipped silently."""

    def __init__(self):
        self.installs = 0

    def rule_installed(self, rule):
        self.installs += 1


class TestListeners:
    def test_all_events_delivered(self):
        table = TcamTable(pica8_p3290(), capacity=8)
        listener = RecordingListener()
        table.add_listener(listener)
        r = rule("10.0.0.0/8", 5)
        table.insert(r)
        table.modify(r.rule_id, action=Action.drop())
        table.delete(r.rule_id)
        assert listener.events == [
            ("install", r.rule_id),
            ("modify", r.rule_id, "drop"),
            ("remove", r.rule_id),
        ]

    def test_partial_listener_tolerated(self):
        table = TcamTable(pica8_p3290(), capacity=8)
        listener = PartialListener()
        table.add_listener(listener)
        r = rule("10.0.0.0/8", 5)
        table.insert(r)
        table.delete(r.rule_id)  # no rule_removed handler: must not raise
        assert listener.installs == 1

    def test_multiple_listeners(self):
        table = TcamTable(pica8_p3290(), capacity=8)
        first, second = RecordingListener(), RecordingListener()
        table.add_listener(first)
        table.add_listener(second)
        table.insert(rule("10.0.0.0/8", 5))
        assert len(first.events) == 1
        assert len(second.events) == 1

    def test_clear_notifies_per_rule(self):
        table = TcamTable(pica8_p3290(), capacity=8)
        listener = RecordingListener()
        table.add_listener(listener)
        for index in range(3):
            table.insert(rule(f"{10 + index}.0.0.0/8", 5))
        table.clear()
        removes = [event for event in listener.events if event[0] == "remove"]
        assert len(removes) == 3


class TestLowestPriority:
    def test_empty_table(self):
        assert TcamTable(pica8_p3290(), capacity=8).lowest_priority is None

    def test_tracks_bottom_entry(self):
        table = TcamTable(pica8_p3290(), capacity=8)
        table.insert(rule("10.0.0.0/8", 50))
        table.insert(rule("11.0.0.0/8", 5))
        assert table.lowest_priority == 5
        table.delete_where(lambda r: r.priority == 5)
        assert table.lowest_priority == 50
