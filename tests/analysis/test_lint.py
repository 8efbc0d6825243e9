"""Tests for the determinism lint: every rule fires on known-bad code,
pragmas suppress with justification, and the shipped sources lint clean."""

import os
import textwrap

from repro.analysis.lint import (
    ADHOC_EVENT_LOOP,
    BARE_PRAGMA,
    FLOAT_EQ,
    UNORDERED_ITERATION,
    UNSEEDED_RANDOM,
    WALL_CLOCK,
    WALLCLOCK_SEAM,
    format_findings,
    lint_file,
    lint_paths,
    lint_source,
)

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
FIXTURE = os.path.join(HERE, "fixtures", "nondeterminism_bad.py")
LOOP_FIXTURE = os.path.join(HERE, "fixtures", "adhoc_event_loop_bad.py")


def check(code):
    return lint_source(textwrap.dedent(code))


def rules_of(findings):
    return [finding.rule for finding in findings]


class TestUnseededRandom:
    def test_global_random_module_flagged(self):
        assert rules_of(check("import random\nx = random.random()\n")) == [
            UNSEEDED_RANDOM
        ]

    def test_from_import_flagged(self):
        findings = check("from random import choice\nc = choice(options)\n")
        assert rules_of(findings) == [UNSEEDED_RANDOM]

    def test_numpy_legacy_global_rng_flagged(self):
        findings = check("import numpy as np\nx = np.random.rand(3)\n")
        assert rules_of(findings) == [UNSEEDED_RANDOM]

    def test_seeded_generator_is_clean(self):
        assert check("import numpy as np\nrng = np.random.default_rng(7)\n") == []

    def test_seeded_random_instance_is_clean(self):
        assert check("import random\nrng = random.Random(42)\n") == []

    def test_unseeded_random_instance_flagged(self):
        assert rules_of(check("import random\nrng = random.Random()\n")) == [
            UNSEEDED_RANDOM
        ]


class TestWallClock:
    def test_time_time_flagged(self):
        assert rules_of(check("import time\nt = time.time()\n")) == [WALL_CLOCK]

    def test_perf_counter_flagged(self):
        assert rules_of(check("import time\nt = time.perf_counter()\n")) == [
            WALL_CLOCK
        ]

    def test_datetime_now_flagged(self):
        findings = check(
            "from datetime import datetime\nt = datetime.now()\n"
        )
        assert rules_of(findings) == [WALL_CLOCK]

    def test_sleep_is_not_a_clock_read(self):
        assert check("import time\ntime.sleep(1)\n") == []


class TestWallclockSeam:
    CODE = "import time\nt = time.perf_counter()\n"

    def test_direct_read_under_repro_flagged_twice(self):
        findings = lint_source(self.CODE, "src/repro/engine/scheduler.py")
        assert rules_of(findings) == [WALL_CLOCK, WALLCLOCK_SEAM]

    def test_perf_package_owns_the_seam(self):
        findings = lint_source(
            self.CODE, "src/repro/obs/perf/wallclock.py"
        )
        assert rules_of(findings) == [WALL_CLOCK]

    def test_paths_outside_repro_exempt(self):
        assert rules_of(lint_source(self.CODE, "benchmarks/conftest.py")) == [
            WALL_CLOCK
        ]

    def test_wall_clock_pragma_does_not_cover_the_seam(self):
        code = (
            "import time\n"
            "# det: allow(wall-clock) -- measures real cost\n"
            "t = time.perf_counter()\n"
        )
        findings = lint_source(code, "src/repro/experiments/fig15_cpu.py")
        assert rules_of(findings) == [WALLCLOCK_SEAM]

    def test_seam_pragma_suppresses(self):
        code = (
            "import time\n"
            "# det: allow(wall-clock, wallclock-seam) -- the seam itself\n"
            "t = time.perf_counter()\n"
        )
        assert lint_source(code, "src/repro/experiments/fig15_cpu.py") == []


class TestUnorderedIteration:
    def test_for_loop_over_set_flagged(self):
        findings = check("for item in {1, 2, 3}:\n    print(item)\n")
        assert rules_of(findings) == [UNORDERED_ITERATION]

    def test_list_over_set_flagged(self):
        assert rules_of(check("items = list({1, 2, 3})\n")) == [
            UNORDERED_ITERATION
        ]

    def test_list_over_set_algebra_flagged(self):
        assert rules_of(check("items = list(seen | {4})\n")) == [
            UNORDERED_ITERATION
        ]

    def test_comprehension_over_set_flagged(self):
        assert rules_of(check("items = [x for x in {1, 2}]\n")) == [
            UNORDERED_ITERATION
        ]

    def test_sorted_over_set_is_clean(self):
        assert check("items = sorted({3, 1, 2})\n") == []

    def test_for_loop_over_sorted_set_is_clean(self):
        assert check("for item in sorted({1, 2}):\n    print(item)\n") == []

    def test_set_to_set_comprehension_is_clean(self):
        assert check("doubled = {x * 2 for x in {1, 2}}\n") == []

    def test_order_insensitive_builtins_are_clean(self):
        assert check("total = max({1, 2}) + len({3, 4})\n") == []


class TestSetInference:
    """Local set variables and Dict[..., Set[...]] subscripts feed the
    unordered-iteration sinks (the max_min_fair_rates hazard shape)."""

    FLOAT_FIXTURE = os.path.join(HERE, "fixtures", "float_accumulation_bad.py")

    def test_local_set_variable_flagged(self):
        findings = check("chosen = {1, 2}\nfor item in chosen:\n    pass\n")
        assert rules_of(findings) == [UNORDERED_ITERATION]

    def test_setcomp_binding_flagged(self):
        code = "picked = {x for x in items}\ntotal = list(picked)\n"
        assert rules_of(check(code)) == [UNORDERED_ITERATION]

    def test_rebinding_to_list_clears_inference(self):
        code = (
            "chosen = {1, 2}\n"
            "chosen = sorted(chosen)\n"
            "for item in chosen:\n"
            "    pass\n"
        )
        assert check(code) == []

    def test_annotated_set_argument_flagged(self):
        code = (
            "def drain(flows: set) -> None:\n"
            "    for flow in flows:\n"
            "        pass\n"
        )
        assert rules_of(check(code)) == [UNORDERED_ITERATION]

    def test_dict_of_sets_subscript_flagged(self):
        code = (
            "from typing import Dict, Set\n"
            "def freeze(flows_on_link: Dict[str, Set[int]], link: str):\n"
            "    return list(flows_on_link[link])\n"
        )
        assert rules_of(check(code)) == [UNORDERED_ITERATION]

    def test_dict_of_sets_alias_binding_flagged(self):
        code = (
            "from typing import Dict, Set\n"
            "def freeze(flows_on_link: Dict[str, Set[int]], link: str):\n"
            "    frozen = flows_on_link[link]\n"
            "    for flow in frozen:\n"
            "        pass\n"
        )
        assert rules_of(check(code)) == [UNORDERED_ITERATION]

    def test_sorted_subscript_is_clean(self):
        code = (
            "from typing import Dict, Set\n"
            "def freeze(flows_on_link: Dict[str, Set[int]], link: str):\n"
            "    return sorted(flows_on_link[link])\n"
        )
        assert check(code) == []

    def test_inference_scoped_to_function(self):
        code = (
            "def inner(flows: set) -> None:\n"
            "    pass\n"
            "def outer(flows: list) -> None:\n"
            "    for flow in flows:\n"
            "        pass\n"
        )
        assert check(code) == []

    def test_dict_of_plain_values_is_clean(self):
        code = (
            "from typing import Dict, List\n"
            "def read(paths: Dict[str, List[int]], key: str):\n"
            "    return list(paths[key])\n"
        )
        assert check(code) == []

    def test_float_accumulation_fixture_trips_only_this_rule(self):
        findings = lint_file(self.FLOAT_FIXTURE)
        assert rules_of(findings) == [UNORDERED_ITERATION] * 3


class TestFloatEq:
    def test_timestamp_equality_flagged(self):
        findings = check("if now == deadline:\n    pass\n")
        assert rules_of(findings) == [FLOAT_EQ]

    def test_suffixed_names_flagged(self):
        findings = check("done = finish_time != start_time\n")
        assert rules_of(findings) == [FLOAT_EQ]

    def test_none_sentinel_comparison_is_clean(self):
        assert check("if deadline == None:\n    pass\n") == []

    def test_ordering_comparison_is_clean(self):
        assert check("if now >= deadline:\n    pass\n") == []

    def test_untimey_names_are_clean(self):
        assert check("if count == total:\n    pass\n") == []


class TestTracerWallClock:
    """Trace timestamps must be sim time: a wall-clock read handed to a
    tracer or span is an ordinary ``wall-clock`` finding (plus
    ``wallclock-seam`` under ``repro/``)."""

    def test_tracer_event_with_wall_clock_flagged(self):
        findings = check(
            "import time\ntracer.event('boot', time=time.time())\n"
        )
        assert rules_of(findings) == [WALL_CLOCK]

    def test_get_tracer_chain_flagged(self):
        findings = check(
            "import time\nget_tracer().start_span('x', start=time.monotonic())\n"
        )
        assert rules_of(findings) == [WALL_CLOCK]

    def test_span_finish_with_wall_clock_flagged(self):
        findings = check("import time\nspan.finish(end=time.perf_counter())\n")
        assert rules_of(findings) == [WALL_CLOCK]

    def test_self_tracer_attribute_flagged(self):
        findings = lint_source(
            "import time\nself._tracer.sample('occ', time=time.time(), value=1)\n",
            "src/repro/obs/online.py",
        )
        assert rules_of(findings) == [WALL_CLOCK, WALLCLOCK_SEAM]

    def test_sim_time_is_clean(self):
        assert check("tracer.event('boot', time=self.now)\n") == []

    def test_non_tracer_receiver_is_only_plain_wall_clock(self):
        findings = check("import time\nlogger.event('x', time=time.time())\n")
        assert rules_of(findings) == [WALL_CLOCK]

    def test_pragma_suppresses(self):
        findings = check(
            """\
            import time
            tracer.event('boot', time=time.time())  # det: allow(wall-clock) -- test harness stamps real time
            """
        )
        assert findings == []


class TestAdhocEventLoop:
    def test_now_attribute_assignment_flagged(self):
        assert rules_of(check("self.now = 3.5\n")) == [ADHOC_EVENT_LOOP]

    def test_busy_until_aug_assignment_flagged(self):
        assert rules_of(check("agent._busy_until += stall\n")) == [
            ADHOC_EVENT_LOOP
        ]

    def test_annotated_assignment_flagged(self):
        assert rules_of(check("self._now: float = 0.0\n")) == [
            ADHOC_EVENT_LOOP
        ]

    def test_local_variable_named_now_is_clean(self):
        # Only *attributes* carry state across events; a local cursor is
        # fine (the resilient channel's retry loop uses one).
        assert check("now = start\nnow += backoff\n") == []

    def test_reading_time_attributes_is_clean(self):
        assert check("delay = agent.busy_until - clock.now\n") == []

    def test_engine_files_are_exempt(self):
        source = "self._now = 0.0\nself.busy_until += 1.0\n"
        assert lint_source(source, "src/repro/engine/scheduler.py") == []
        assert rules_of(lint_source(source, "src/repro/other.py")) == [
            ADHOC_EVENT_LOOP,
            ADHOC_EVENT_LOOP,
        ]

    def test_pragma_suppresses(self):
        code = (
            "self.now = 0.0  # det: allow(adhoc-event-loop) -- a test "
            "double's clock\n"
        )
        assert check(code) == []

    def test_fixture_trips_only_this_rule(self):
        findings = lint_file(LOOP_FIXTURE)
        assert set(rules_of(findings)) == {ADHOC_EVENT_LOOP}
        # now= (init), now= (step), _busy_until= (init), _busy_until+=.
        assert len(findings) == 4


class TestPragmas:
    def test_same_line_pragma_suppresses(self):
        code = (
            "import time\n"
            "t = time.time()  # det: allow(wall-clock) -- measures real cost\n"
        )
        assert check(code) == []

    def test_standalone_pragma_covers_next_line(self):
        code = (
            "import time\n"
            "# det: allow(wall-clock) -- measures real cost\n"
            "t = time.time()\n"
        )
        assert check(code) == []

    def test_pragma_does_not_leak_past_next_line(self):
        code = (
            "import time\n"
            "# det: allow(wall-clock) -- only covers the next line\n"
            "x = 1\n"
            "t = time.time()\n"
        )
        assert rules_of(check(code)) == [WALL_CLOCK]

    def test_pragma_text_in_a_string_suppresses_nothing(self):
        code = (
            "import time\n"
            'X = "# det: allow(wall-clock) -- why"; t = time.time()\n'
        )
        assert rules_of(check(code)) == [WALL_CLOCK]

    def test_pragma_text_in_a_docstring_is_not_a_site(self):
        from repro.analysis.pragmas import DET, PragmaIndex

        lines = [
            '"""Quote the grammar: # det: allow(rule, ...)',
            '# det: allow(not-a-rule)',
            '"""',
            "x = 1  # det: allow(wall-clock) -- a real comment",
        ]
        index = PragmaIndex(DET, lines)
        assert [site[0] for site in index.sites] == [4]
        assert index.unjustified == []

    def test_shipped_pragma_counts(self):
        from collections import Counter

        from repro.analysis.lint import iter_python_files
        from repro.analysis.pragmas import DET, PragmaIndex

        counts = Counter()
        for path in iter_python_files([os.path.join(REPO_ROOT, "src")]):
            with open(path, encoding="utf-8") as handle:
                index = PragmaIndex(DET, handle.read().splitlines())
            for _line, _col, _text, rules in index.sites:
                counts.update(rules)
        assert counts == {"wall-clock": 3, "float-eq": 1}

    def test_pragma_only_suppresses_named_rules(self):
        code = (
            "import time\n"
            "t = time.time()  # det: allow(unseeded-random) -- wrong rule\n"
        )
        assert rules_of(check(code)) == [WALL_CLOCK]

    def test_multiple_rules_in_one_pragma(self):
        code = (
            "import time\n"
            "t = list({time.time()})"
            "  # det: allow(wall-clock, unordered-iteration) -- test double\n"
        )
        assert check(code) == []

    def test_bare_pragma_flagged(self):
        code = "import time\nt = time.time()  # det: allow(wall-clock)\n"
        assert rules_of(check(code)) == [BARE_PRAGMA]

    def test_unknown_rule_name_flagged(self):
        code = (
            "import time\n"
            "t = time.time()  # det: allow(wall-clock, no-such-rule) -- typo\n"
        )
        findings = check(code)
        assert rules_of(findings) == [BARE_PRAGMA]
        assert "no-such-rule" in findings[0].message


class TestFixtureAndSources:
    def test_fixture_trips_every_rule(self):
        findings = lint_file(FIXTURE)
        assert set(rules_of(findings)) == {
            UNSEEDED_RANDOM,
            WALL_CLOCK,
            UNORDERED_ITERATION,
            FLOAT_EQ,
        }
        # wall-clock fires three times: time.time(), datetime.now(), and
        # the time.time() inside the tracer call.
        assert rules_of(findings).count(WALL_CLOCK) == 3

    def test_findings_are_line_ordered_and_printable(self):
        findings = lint_file(FIXTURE)
        assert findings == sorted(findings, key=lambda f: (f.line, f.col))
        rendered = format_findings(findings)
        assert "[wall-clock]" in rendered and "nondeterminism_bad.py" in rendered

    def test_shipped_sources_lint_clean(self):
        src = os.path.join(REPO_ROOT, "src", "repro")
        findings = lint_paths([src])
        assert findings == [], format_findings(findings)


class TestEnvironmentOrdering:
    def test_for_over_environ_flagged(self):
        findings = check(
            """
            import os
            for name in os.environ:
                print(name)
            """
        )
        assert rules_of(findings) == [UNORDERED_ITERATION]

    def test_environ_views_flagged(self):
        findings = check(
            """
            import os
            pairs = list(os.environ.items())
            keys = [k for k in os.environ.keys()]
            """
        )
        assert rules_of(findings) == [UNORDERED_ITERATION] * 2

    def test_aliased_environ_import_flagged(self):
        findings = check(
            """
            from os import environ as env
            for name in env:
                print(name)
            """
        )
        assert rules_of(findings) == [UNORDERED_ITERATION]

    def test_listdir_and_scandir_flagged(self):
        findings = check(
            """
            import os
            names = list(os.listdir("."))
            for entry in os.scandir("."):
                print(entry)
            """
        )
        assert rules_of(findings) == [UNORDERED_ITERATION] * 2

    def test_iterdir_flagged(self):
        findings = check(
            """
            from pathlib import Path
            names = [p.name for p in Path(".").iterdir()]
            """
        )
        assert rules_of(findings) == [UNORDERED_ITERATION]

    def test_sorted_sources_are_clean(self):
        findings = check(
            """
            import os
            from pathlib import Path
            for name in sorted(os.environ):
                print(name)
            names = list(sorted(os.listdir(".")))
            paths = [p for p in sorted(Path(".").iterdir())]
            """
        )
        assert findings == []

    def test_environ_pragma_suppresses(self):
        findings = check(
            """
            import os
            for name in os.environ:  # det: allow(unordered-iteration) -- sink is a set union
                print(name)
            """
        )
        assert findings == []


class TestSharedPragmaHelper:
    """The one pragma parser both namespaces share (repro.analysis.pragmas)."""

    def test_race_namespace_parses_independently(self):
        from repro.analysis.pragmas import DET, RACE, PragmaIndex

        lines = [
            "x = 1  # race: allow(schedule-order-race) -- pinned by parity",
            "y = 2  # det: allow(wall-clock) -- measures real cost",
        ]
        races = PragmaIndex(RACE, lines)
        dets = PragmaIndex(DET, lines)
        assert races.allows(1, "schedule-order-race")
        assert not races.allows(2, "wall-clock")
        assert dets.allows(2, "wall-clock")
        assert not dets.allows(1, "schedule-order-race")
        assert races.unjustified == [] and dets.unjustified == []

    def test_unjustified_pragma_reported_per_namespace(self):
        from repro.analysis.pragmas import RACE, PragmaIndex

        index = PragmaIndex(RACE, ["x = 1  # race: allow(schedule-order-race)"])
        assert index.allows(1, "schedule-order-race")
        assert len(index.unjustified) == 1

    def test_file_pragmas_cache_and_clear(self, tmp_path):
        from repro.analysis.pragmas import (
            RACE,
            clear_pragma_cache,
            file_pragmas,
        )

        target = tmp_path / "site.py"
        target.write_text("# race: allow(schedule-order-race) -- test\nx = 1\n")
        clear_pragma_cache()
        first = file_pragmas(str(target), RACE)
        assert first.allows(2, "schedule-order-race")
        assert file_pragmas(str(target), RACE) is first
        clear_pragma_cache()
        assert file_pragmas(str(target), RACE) is not first

    def test_unreadable_file_indexes_empty(self):
        from repro.analysis.pragmas import RACE, file_pragmas

        index = file_pragmas("/no/such/file-anywhere.py", RACE)
        assert index.allowed == {} and index.unjustified == []
