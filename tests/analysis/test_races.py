"""SimRace: the schedule-order race sanitizer and its CLI.

Covers the happens-before model (same-``(time, tier)`` conflicts race,
anything else does not), witness content, pragma suppression, the
instrumentation taps (table listener, RNG proxy value-identity), the
planted-race fixture, and — the acceptance-critical one — that a
sanitizer-on run's metrics are byte-identical to sanitizer-off for the
canonical chaos scenario and for reactive same-instant arrivals
(observation must not perturb the simulation).
"""

import os
import subprocess
import sys

import numpy as np

from repro.analysis.races import (
    SCHEDULE_ORDER_RACE,
    RaceSanitizer,
    run_fixture,
)
from repro.engine.scheduler import TIER_COMPLETION, EventScheduler

from ..engine.test_parity import CHAOS_RESULT_DIGEST

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
PLANTED_RACE = os.path.join(FIXTURES, "planted_race.py")


def _drive(schedule_plan, access_plan):
    """Run a scheduler over ``schedule_plan`` = [(time, kind, tier)] with
    ``access_plan`` = {kind: [(mode, key)]} applied after each pop."""
    scheduler = EventScheduler()
    sanitizer = RaceSanitizer()
    sanitizer.watch_scheduler(scheduler)
    for time, kind, tier in schedule_plan:
        scheduler.schedule(time, kind, tier=tier)
    while scheduler:
        event = scheduler.pop()
        scheduler.clock.advance_to(event.time)
        for mode, key in access_plan.get(event.kind, ()):
            if mode == "read":
                sanitizer.record_read(key)
            else:
                sanitizer.record_write(key)
    sanitizer.finish()
    return sanitizer


class TestHappensBefore:
    def test_same_instant_write_write_conflict_is_a_race(self):
        sanitizer = _drive(
            [(1.0, "a", 1), (1.0, "b", 1)],
            {"a": [("write", "k")], "b": [("write", "k")]},
        )
        assert len(sanitizer.races) == 1
        race = sanitizer.races[0]
        assert race.key == "k"
        assert race.time == 1.0 and race.tier == 1
        assert {race.first.kind, race.second.kind} == {"a", "b"}

    def test_write_read_conflict_is_a_race(self):
        sanitizer = _drive(
            [(1.0, "a", 1), (1.0, "b", 1)],
            {"a": [("write", "k")], "b": [("read", "k")]},
        )
        assert len(sanitizer.races) == 1
        accesses = {
            sanitizer.races[0].first.access,
            sanitizer.races[0].second.access,
        }
        assert accesses == {"write", "read"}

    def test_read_read_is_not_a_race(self):
        sanitizer = _drive(
            [(1.0, "a", 1), (1.0, "b", 1)],
            {"a": [("read", "k")], "b": [("read", "k")]},
        )
        assert sanitizer.races == []

    def test_different_tiers_are_ordered_not_racing(self):
        sanitizer = _drive(
            [(1.0, "a", TIER_COMPLETION), (1.0, "b", 1)],
            {"a": [("write", "k")], "b": [("write", "k")]},
        )
        assert sanitizer.races == []

    def test_different_instants_are_ordered_not_racing(self):
        sanitizer = _drive(
            [(1.0, "a", 1), (2.0, "b", 1)],
            {"a": [("write", "k")], "b": [("write", "k")]},
        )
        assert sanitizer.races == []

    def test_disjoint_keys_do_not_race(self):
        sanitizer = _drive(
            [(1.0, "a", 1), (1.0, "b", 1)],
            {"a": [("write", "k1")], "b": [("write", "k2")]},
        )
        assert sanitizer.races == []

    def test_clock_attribution_never_races(self):
        # The instant-opening event records the clock write; its
        # same-instant peers must not conflict with it on 'clock'.
        sanitizer = _drive([(1.0, "a", 1), (1.0, "b", 1), (1.0, "c", 1)], {})
        assert sanitizer.races == []

    def test_witnesses_name_sites_and_seq(self):
        sanitizer = _drive(
            [(3.0, "early", 1), (3.0, "late", 1)],
            {"early": [("write", "k")], "late": [("write", "k")]},
        )
        race = sanitizer.races[0]
        assert race.first.seq < race.second.seq
        assert __file__.rstrip("c") in race.first.site
        rendered = str(race)
        assert "'early'" in rendered and "'late'" in rendered and "'k'" in rendered


class TestSuppression:
    def test_race_pragma_at_call_site_suppresses(self):
        scheduler = EventScheduler()
        sanitizer = RaceSanitizer()
        sanitizer.watch_scheduler(scheduler)
        # race: allow(schedule-order-race) -- deliberate: this test verifies suppression
        scheduler.schedule(1.0, "a")
        scheduler.schedule(1.0, "b")
        for _ in range(2):
            event = scheduler.pop()
            scheduler.clock.advance_to(event.time)
            sanitizer.record_write("k")
        sanitizer.finish()
        assert sanitizer.races == []
        assert len(sanitizer.suppressed) == 1
        assert sanitizer.suppressed[0].key == "k"

    def test_unsuppressed_site_still_reports(self):
        scheduler = EventScheduler()
        sanitizer = RaceSanitizer()
        sanitizer.watch_scheduler(scheduler)
        scheduler.schedule(1.0, "a")
        scheduler.schedule(1.0, "b")
        for _ in range(2):
            event = scheduler.pop()
            scheduler.clock.advance_to(event.time)
            sanitizer.record_write("k")
        sanitizer.finish()
        assert len(sanitizer.races) == 1


def _watched_scheduler(sanitizer, kinds):
    """A watched scheduler holding one event per kind, at distinct times."""
    scheduler = EventScheduler()
    sanitizer.watch_scheduler(scheduler)
    for time, kind in enumerate(kinds, start=1):
        scheduler.schedule(float(time), kind)
    return scheduler


class TestTaps:
    def test_table_tap_records_mutations_through_listener_seam(self):
        from repro.tcam.prefix import Prefix
        from repro.tcam.rule import Action, Rule
        from repro.tcam.switch_models import pica8_p3290
        from repro.tcam.table import TcamTable

        sanitizer = RaceSanitizer()
        table = TcamTable(pica8_p3290(), name="s1")
        sanitizer.watch_table(table, "table:s1")
        scheduler = _watched_scheduler(sanitizer, ("setup", "reader"))
        scheduler.pop()
        rule = Rule.from_prefix(Prefix(10 << 24, 8), 5, Action.output(1))
        table.insert(rule)
        assert "table:s1" in sanitizer._current.writes
        scheduler.pop()
        table.lookup(10 << 24)
        assert "table:s1" in sanitizer._current.reads

    def test_rng_tap_is_value_identical(self):
        from repro.tcam.switch_models import pica8_p3290
        from repro.tcam.table import TcamTable

        plain = np.random.default_rng(42)
        table = TcamTable(pica8_p3290(), name="s1", rng=np.random.default_rng(42))
        sanitizer = RaceSanitizer()
        sanitizer.watch_table(table, "table:s1")
        _watched_scheduler(sanitizer, ("draws",)).pop()
        assert list(plain.integers(0, 100, size=16)) == list(
            table.rng.integers(0, 100, size=16)
        )
        assert plain.normal() == table.rng.normal()
        assert "table:s1:rng" in sanitizer._current.writes

    def test_sanitizer_repr_counts(self):
        sanitizer = _drive(
            [(1.0, "a", 1), (1.0, "b", 1)],
            {"a": [("write", "k")], "b": [("write", "k")]},
        )
        assert "races=1" in repr(sanitizer)


class TestPlantedFixture:
    def test_planted_race_is_detected_with_witness_pair(self):
        sanitizer = run_fixture(PLANTED_RACE)
        assert len(sanitizer.races) == 1
        race = sanitizer.races[0]
        assert race.key == "table:s1"
        assert {race.first.kind, race.second.kind} == {
            "install-left",
            "install-right",
        }
        assert "planted_race.py" in race.first.site
        assert "planted_race.py" in race.second.site

    def test_rule_name_constant(self):
        assert SCHEDULE_ORDER_RACE == "schedule-order-race"


# ----------------------------------------------------------------------
# Cross-process: observation must not perturb the simulation
# ----------------------------------------------------------------------
_CHAOS_SCRIPT = r"""
import hashlib
import json
import sys

from repro.analysis.races import RaceSanitizer
from repro.experiments.common import canned_scenario

simulation, _meta = canned_scenario("chaos")
races = -1
if sys.argv[1] == "on":
    sanitizer = RaceSanitizer()
    sanitizer.watch_simulation(simulation)
metrics = simulation.run()
if sys.argv[1] == "on":
    races = len(sanitizer.finish())
payload = json.dumps(
    [metrics.rits(), metrics.fcts(), sorted(metrics.jcts().items())]
).encode()
print(json.dumps(
    {"digest": hashlib.sha256(payload).hexdigest(), "races": races}
))
"""


def _run_watched(mode: str, script: str = _CHAOS_SCRIPT) -> dict:
    import json

    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    env["PYTHONPATH"] = (
        os.path.join(root, "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    result = subprocess.run(
        [sys.executable, "-c", script, mode],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(result.stdout.strip())


class TestObservationDoesNotPerturb:
    def test_sanitizer_on_metrics_equal_sanitizer_off(self):
        on = _run_watched("on")
        off = _run_watched("off")
        assert on["digest"] == off["digest"] == CHAOS_RESULT_DIGEST
        assert on["races"] == 0
        assert off["races"] == -1  # sanitizer never constructed


_REACTIVE_SCRIPT = r"""
import hashlib
import json
import sys

from repro.analysis.races import RaceSanitizer
from repro.baselines import make_installer
from repro.simulator import Simulation, SimulationConfig, TeAppConfig
from repro.tcam import pica8_p3290
from repro.topology import FatTreeSpec, build_fat_tree, hosts
from repro.traffic import FlowSpec

graph = build_fat_tree(FatTreeSpec(k=4, link_capacity=1e9))
names = hosts(graph)
# Two same-instant bursts, every flow from one host: all paths share its
# edge switch, so each burst's packet-ins write the same agent state.
flows = [
    FlowSpec(
        source=names[0],
        destination=names[1 + index],
        size=1e6,
        start_time=0.01 * (index // 4),
        flow_id=index,
    )
    for index in range(8)
]
config = SimulationConfig(
    te=TeAppConfig(epoch=10.0),
    baseline_occupancy=100,
    max_time=1e3,
    routing_mode="reactive",
)
simulation = Simulation(
    graph, flows, lambda name: make_installer("naive", pica8_p3290()), config
)
races = suppressed = -1
if sys.argv[1] == "on":
    sanitizer = RaceSanitizer()
    sanitizer.watch_simulation(simulation)
metrics = simulation.run()
if sys.argv[1] == "on":
    races = len(sanitizer.finish())
    suppressed = len(sanitizer.suppressed)
payload = json.dumps([metrics.rits(), metrics.fcts()]).encode()
print(json.dumps({
    "digest": hashlib.sha256(payload).hexdigest(),
    "flows": len(metrics.fcts()),
    "races": races,
    "suppressed": suppressed,
}))
"""


class TestReactiveArrivals:
    def test_same_instant_packet_ins_are_suppressed_and_unperturbed(self):
        # Reactive arrivals install rules from the arrival event itself, so
        # a same-instant burst through one switch conflicts on its agent;
        # the arrival site's pragma covers that (start-time order is the
        # workload's), and watching must not move any metric.
        on = _run_watched("on", _REACTIVE_SCRIPT)
        off = _run_watched("off", _REACTIVE_SCRIPT)
        assert on["flows"] == off["flows"] == 8
        assert on["digest"] == off["digest"]
        assert on["races"] == 0
        assert on["suppressed"] > 0
        assert off["suppressed"] == -1  # sanitizer never constructed


class TestRacesCli:
    def _cli(self, *args):
        env = dict(os.environ)
        root = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        env["PYTHONPATH"] = (
            os.path.join(root, "src") + os.pathsep + env.get("PYTHONPATH", "")
        )
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis", "races", *args],
            capture_output=True,
            text=True,
            env=env,
        )

    def test_planted_fixture_fails_with_witnesses(self):
        result = self._cli(PLANTED_RACE)
        assert result.returncode == 1
        assert "schedule-order race" in result.stdout
        assert "table:s1" in result.stdout
        assert "install-left" in result.stdout
        assert "install-right" in result.stdout

    def test_chaos_scenario_is_race_free(self):
        result = self._cli("chaos")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "0 race(s)" in result.stdout

    def test_unknown_scenario_is_usage_error(self):
        result = self._cli("no-such-scenario")
        assert result.returncode == 2

    def test_missing_fixture_is_usage_error(self):
        # Exit 1 means "races found"; a mistyped path must not read as one.
        result = self._cli("MISSING.py")
        assert result.returncode == 2, result.stdout + result.stderr
        assert "MISSING.py" in result.stderr
        assert "Traceback" not in result.stderr
