"""The per-line determinism/concurrency rules (HAX001-HAX008) of the
flow analysis: every rule fires at module, class and function level,
the baseline is the only waiver, and -- the acceptance gate -- the
shipped package has no per-line finding outside the baseline."""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.analysis import flow

SOLVER = "solver/module.py"  # repro.solver: virtual time
DRIVER = "experiments/module.py"  # repro.experiments: wall clock ok


def write_repro(tmp_path: Path, files: dict[str, str]) -> Path:
    """A fixture package named ``repro`` (so the virtual-time module
    prefixes apply), one ``__init__.py`` per directory."""
    root = tmp_path / "repro"
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    for d in [root, *(p for p in root.rglob("*") if p.is_dir())]:
        (d / "__init__.py").touch()
    return root


def lint(tmp_path, source, module=SOLVER, baseline=None):
    root = write_repro(tmp_path, {module: source})
    return flow.analyze(root, baseline_keys=baseline)


def lint_source(tmp_path, source, module=SOLVER):
    return list(lint(tmp_path, source, module).findings)


def rules_of(findings):
    return sorted(f.rule for f in findings)


class TestRuleCatalog:
    def test_catalog_has_stable_ids(self):
        assert set(flow.RULES) == {
            "HAX001",
            "HAX002",
            "HAX003",
            "HAX004",
            "HAX005",
            "HAX006",
            "HAX007",
            "HAX008",
        }


class TestHAX001UnseededRandom:
    def test_global_draw(self, tmp_path):
        findings = lint_source(
            tmp_path, "import random\nx = random.random()\n"
        )
        assert rules_of(findings) == ["HAX001"]

    def test_unseeded_instance(self, tmp_path):
        findings = lint_source(
            tmp_path, "import random\nr = random.Random()\n"
        )
        assert rules_of(findings) == ["HAX001"]

    def test_seeded_instance_clean(self, tmp_path):
        findings = lint_source(
            tmp_path, "import random\nr = random.Random(7)\n"
        )
        assert findings == []

    def test_numpy_legacy_draw_via_alias(self, tmp_path):
        findings = lint_source(
            tmp_path, "import numpy as np\nx = np.random.rand(3)\n"
        )
        assert rules_of(findings) == ["HAX001"]

    def test_numpy_default_rng_needs_seed(self, tmp_path):
        source = (
            "import numpy as np\n"
            "bad = np.random.default_rng()\n"
            "good = np.random.default_rng(7)\n"
        )
        findings = lint_source(tmp_path, source)
        assert rules_of(findings) == ["HAX001"]
        assert findings[0].line == 2


class TestHAX002WallClock:
    SOURCE = "import time\nt = time.perf_counter()\n"

    def test_flags_virtual_time_code(self, tmp_path):
        findings = lint_source(tmp_path, self.SOURCE)
        assert rules_of(findings) == ["HAX002"]
        assert findings[0].key == (
            "HAX002",
            "repro.solver.module.<module>",
            "time.perf_counter()",
        )

    def test_wall_clock_fine_in_drivers(self, tmp_path):
        assert lint_source(tmp_path, self.SOURCE, DRIVER) == []

    def test_alias_resolution(self, tmp_path):
        source = (
            "from time import perf_counter as clock\n"
            "t = clock()\n"
        )
        findings = lint_source(tmp_path, source)
        assert rules_of(findings) == ["HAX002"]

    def test_class_body_and_function_reads(self, tmp_path):
        source = (
            "import time\n"
            "class Budget:\n"
            "    started = time.time()\n"
            "    def left(self):\n"
            "        return time.monotonic()\n"
        )
        findings = lint_source(tmp_path, source)
        assert [(f.rule, f.key[1]) for f in findings] == [
            ("HAX002", "repro.solver.module.<module>"),
            ("HAX002", "repro.solver.module.Budget.left"),
        ]

    def test_planted_read_is_reported_locally_and_at_the_sink(
        self, tmp_path
    ):
        """A clock read planted in a solver function is HAX002 where
        it happens and HAX101 at every sink it reaches."""
        source = (
            "import time\n"
            "def stamp():\n"
            "    return time.perf_counter()\n"
            "def digest():  # hax: sink\n"
            "    return stamp()\n"
        )
        findings = lint_source(tmp_path, source)
        assert [(f.rule, f.key[1]) for f in findings] == [
            ("HAX002", "repro.solver.module.stamp"),
            ("HAX101", "repro.solver.module.digest"),
        ]


class TestHAX003ThreadSharedMutation:
    def test_unlocked_mutation(self, tmp_path):
        source = (
            "import threading\n"
            "results = []\n"
            "def worker():\n"
            "    results.append(1)\n"
            "t = threading.Thread(target=worker)\n"
        )
        findings = lint_source(tmp_path, source)
        assert rules_of(findings) == ["HAX003"]

    def test_lock_sanctions_mutation(self, tmp_path):
        source = (
            "import threading\n"
            "results = []\n"
            "lock = threading.Lock()\n"
            "def worker():\n"
            "    with lock:\n"
            "        results.append(1)\n"
            "t = threading.Thread(target=worker)\n"
        )
        assert lint_source(tmp_path, source) == []

    def test_queue_is_sanctioned_channel(self, tmp_path):
        source = (
            "import queue, threading\n"
            "outbox = queue.Queue()\n"
            "def worker():\n"
            "    outbox.put(1)\n"
            "t = threading.Thread(target=worker)\n"
        )
        assert lint_source(tmp_path, source) == []

    def test_executor_submit_target(self, tmp_path):
        source = (
            "seen = {}\n"
            "def job(k):\n"
            "    seen[k] = True\n"
            "def run(pool):\n"
            "    pool.submit(job, 1)\n"
        )
        findings = lint_source(tmp_path, source)
        assert rules_of(findings) == ["HAX003"]

    def test_local_mutation_is_fine(self, tmp_path):
        source = (
            "import threading\n"
            "def worker():\n"
            "    local = []\n"
            "    local.append(1)\n"
            "t = threading.Thread(target=worker)\n"
        )
        assert lint_source(tmp_path, source) == []

    def test_method_target_through_the_call_graph(self, tmp_path):
        source = (
            "import threading\n"
            "LOG = []\n"
            "class Pool:\n"
            "    def start(self):\n"
            "        threading.Thread(target=self.run).start()\n"
            "    def run(self):\n"
            "        LOG.append(1)\n"
        )
        findings = lint_source(tmp_path, source)
        assert [(f.rule, f.key[1]) for f in findings] == [
            ("HAX003", "repro.solver.module.Pool.run")
        ]


class TestHAX004SetIteration:
    def test_for_loop_over_set_literal(self, tmp_path):
        findings = lint_source(
            tmp_path, "for x in {1, 2}:\n    print(x)\n", DRIVER
        )
        assert rules_of(findings) == ["HAX004"]

    def test_sorted_set_clean(self, tmp_path):
        findings = lint_source(
            tmp_path, "for x in sorted({1, 2}):\n    print(x)\n", DRIVER
        )
        assert findings == []

    def test_list_conversion_of_tracked_set_var(self, tmp_path):
        source = "names = set(data)\nout = list(names)\n"
        findings = lint_source(tmp_path, source, DRIVER)
        assert rules_of(findings) == ["HAX004"]

    def test_set_algebra_tracked(self, tmp_path):
        source = "a = {1}\nb = {2}\nout = [x for x in a | b]\n"
        findings = lint_source(tmp_path, source, DRIVER)
        assert rules_of(findings) == ["HAX004"]

    def test_reassignment_clears_tracking(self, tmp_path):
        source = (
            "names = set(data)\n"
            "names = sorted(names)\n"
            "out = list(names)\n"
        )
        assert lint_source(tmp_path, source, DRIVER) == []


class TestHAX005Sleep:
    def test_sleep_in_virtual_time_code(self, tmp_path):
        findings = lint_source(tmp_path, "import time\ntime.sleep(0.1)\n")
        assert rules_of(findings) == ["HAX005"]

    def test_sleep_fine_in_drivers(self, tmp_path):
        source = "import time\ntime.sleep(0.1)\n"
        assert lint_source(tmp_path, source, DRIVER) == []


class TestHAX006SilentExcept:
    def test_bare_except_pass(self, tmp_path):
        source = "try:\n    f()\nexcept Exception:\n    pass\n"
        findings = lint_source(tmp_path, source, DRIVER)
        assert rules_of(findings) == ["HAX006"]

    def test_narrow_except_clean(self, tmp_path):
        source = "try:\n    f()\nexcept ValueError:\n    pass\n"
        assert lint_source(tmp_path, source, DRIVER) == []

    def test_handled_broad_except_clean(self, tmp_path):
        source = "try:\n    f()\nexcept Exception:\n    log()\n"
        assert lint_source(tmp_path, source, DRIVER) == []


class TestHAX007MutableDefault:
    def test_list_default(self, tmp_path):
        findings = lint_source(
            tmp_path, "def f(x=[]):\n    return x\n", DRIVER
        )
        assert rules_of(findings) == ["HAX007"]

    def test_none_default_clean(self, tmp_path):
        source = "def f(x=None):\n    return x\n"
        assert lint_source(tmp_path, source, DRIVER) == []


class TestHAX008GlobalSeeding:
    def test_random_seed(self, tmp_path):
        findings = lint_source(
            tmp_path, "import random\nrandom.seed(0)\n", DRIVER
        )
        assert rules_of(findings) == ["HAX008"]

    def test_numpy_seed(self, tmp_path):
        findings = lint_source(
            tmp_path, "import numpy as np\nnp.random.seed(0)\n", DRIVER
        )
        assert rules_of(findings) == ["HAX008"]


class TestWaivers:
    """The baseline is the one exception list: a waiver is a key."""

    SOURCE = "import time\nt = time.perf_counter()\n"
    KEY = "HAX002|repro.solver.module.<module>|time.perf_counter()"

    def test_waiver_silences_finding(self, tmp_path):
        report = lint(tmp_path, self.SOURCE, baseline=[self.KEY])
        assert report.ok and not report.stale_keys
        assert [f.key_str for f in report.baselined] == [self.KEY]

    def test_waiver_is_per_rule(self, tmp_path):
        wrong = self.KEY.replace("HAX002", "HAX005")
        report = lint(tmp_path, self.SOURCE, baseline=[wrong])
        # the HAX002 finding survives and the key is now stale
        assert rules_of(report.findings) == ["HAX002"]
        assert report.stale_keys == (wrong,)

    def test_stale_waiver_reported(self, tmp_path):
        report = lint(tmp_path, "x = 1\n", baseline=[self.KEY])
        assert report.ok and report.stale_keys == (self.KEY,)
        assert f"stale: {self.KEY}" in report.render()

    def test_pragma_in_string_is_not_a_waiver(self, tmp_path):
        # the retired per-line pragma, spelled in two parts so a grep
        # of the tree for leftover pragmas stays empty
        pragma = "# haxlint" + ": allow[HAX002]"
        source = (
            "import time\n"
            f'doc = "{pragma} example"\n'
            f"t = time.perf_counter()  {pragma} old syntax\n"
        )
        findings = lint_source(tmp_path, source)
        assert rules_of(findings) == ["HAX002"]


class TestRepoClean:
    def test_shipped_package_is_lint_clean(self, repro_flow_report):
        """The acceptance gate: no per-line finding outside the
        baseline, whose only per-line key is the solver clock."""
        report = repro_flow_report
        assert report.ok, report.render()
        per_line = [f.key_str for f in report.baselined if f.rule in flow.RULES]
        assert per_line == [
            "HAX002|repro.solver.clock.monotonic_s|time.perf_counter()"
        ]


def test_unparsable_module_is_a_typed_error(tmp_path):
    root = write_repro(tmp_path, {"broken.py": "def f(:\n    pass\n"})
    with pytest.raises(flow.SourceSyntaxError, match=r"broken\.py:1"):
        flow.analyze(root)
