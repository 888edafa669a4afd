"""Tests for the whole-program determinism-flow analysis.

Fixture packages are synthesized on disk (the analysis is file-based
and never imports its subject), then analyzed with the same driver
the ``haxconn flow`` CLI uses.  The last section runs the pass over
the real ``src/repro`` tree and asserts the checked-in baseline is
exact -- the same gate CI applies.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import flow
from repro.analysis.flow.taint import DEFAULT_SINKS

REPRO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def make_pkg(tmp_path: Path, files: dict[str, str]) -> Path:
    root = tmp_path / "pkgx"
    root.mkdir(exist_ok=True)
    if "__init__.py" not in files:
        (root / "__init__.py").write_text("")
    for rel, src in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(src))
    return root


def analyze(root: Path, baseline: list[str] | None = None) -> flow.FlowReport:
    return flow.analyze(root, baseline_keys=baseline)


# -- interprocedural propagation --------------------------------------


def test_taint_through_three_deep_chain_across_modules(tmp_path):
    """A wall-clock read three calls below a sink is reported with
    the full chain, through a ``from``-import between modules."""
    root = make_pkg(
        tmp_path,
        {
            "deep.py": """
            import time

            def leaf():
                return time.time()

            def middle():
                return leaf()
            """,
            "top.py": """
            from pkgx.deep import middle

            def entry():  # hax: sink
                return middle()
            """,
        },
    )
    report = analyze(root)
    assert [f.rule for f in report.findings] == ["HAX101"]
    finding = report.findings[0]
    assert (
        "pkgx.top.entry -> pkgx.deep.middle -> pkgx.deep.leaf"
        in finding.message
    )
    assert finding.key == (
        "HAX101",
        "pkgx.top.entry",
        "pkgx.deep.leaf",
        "wall-clock",
    )


def test_taint_through_method_and_higher_order_call(tmp_path):
    """Effects propagate through ``self.attr.method()`` resolution and
    through a function handed to a runner as an argument."""
    root = make_pkg(
        tmp_path,
        {
            "mod.py": """
            import random

            class Helper:
                def draw(self):
                    return random.random()

            class Owner:
                def __init__(self):
                    self.helper = Helper()

                def pull(self):  # hax: sink
                    return self.helper.draw()

            def runner(fn):
                return fn

            def job():
                import os
                return os.getpid()

            def launch():  # hax: sink
                return runner(job)
            """,
        },
    )
    report = analyze(root)
    rules = {(f.rule, f.key[1]) for f in report.findings}
    assert ("HAX103", "pkgx.mod.Owner.pull") in rules
    assert ("HAX104", "pkgx.mod.launch") in rules


def test_unordered_iteration_effect(tmp_path):
    root = make_pkg(
        tmp_path,
        {
            "mod.py": """
            def gather(items):
                pool = set(items)
                return [x for x in pool]

            def digest(items):  # hax: sink
                return gather(items)
            """,
        },
    )
    report = analyze(root)
    # the per-line rule flags the site, the taint pass the sink
    assert [f.rule for f in report.findings] == ["HAX004", "HAX102"]


# -- sink registry + pragma parity ------------------------------------


def test_registry_and_pragma_sinks_report_identically(tmp_path):
    """A pragma sink produces the same finding as a registry sink for
    the same flow (only the role label differs)."""
    root = make_pkg(
        tmp_path,
        {
            "mod.py": """
            import time

            def tick():
                return time.time()

            def marked():  # hax: sink
                return tick()

            def unmarked():
                return tick()
            """,
        },
    )
    pkg = flow.load_package(root)
    graph = flow.build_call_graph(pkg)
    sinks = flow.collect_sinks(graph)
    assert sinks == {"pkgx.mod.marked": "pragma sink"}

    taint_marked = flow.run_taint(graph, sinks=sinks)
    taint_registry = flow.run_taint(
        graph, sinks={"pkgx.mod.unmarked": "registry role"}
    )
    assert len(taint_marked) == len(taint_registry) == 1
    a, b = taint_marked[0], taint_registry[0]
    assert (a.rule, a.source, a.effect) == (b.rule, b.source, b.effect)
    assert a.chain[1:] == b.chain[1:]


def test_default_sink_registry_is_not_stale():
    """Every registry entry must name a live function in src/repro --
    a rename that silently drops a sink would hollow out the gate."""
    pkg = flow.load_package(REPRO_SRC, package="repro")
    graph = flow.build_call_graph(pkg)
    assert flow.stale_sinks(graph) == ()
    sinks = flow.collect_sinks(graph)
    for qual in DEFAULT_SINKS:
        assert qual in sinks


# -- gossip merge-order checker (HAX111) ------------------------------


def test_merge_order_rule(tmp_path):
    root = make_pkg(
        tmp_path,
        {
            "gossip.py": """
            def bad(states, deltas):
                live = set(states)
                for s in live:
                    s.merge(deltas)

            def good(states, deltas):
                for s in sorted(states):
                    s.merge(deltas)
            """,
        },
    )
    pkg = flow.load_package(root)
    graph = flow.build_call_graph(pkg)
    findings = flow.run_protocol(graph)
    assert [(f.rule, f.qualname) for f in findings] == [
        ("HAX111", "pkgx.gossip.bad")
    ]


# -- baseline round-trip ----------------------------------------------


def test_baseline_add_remove_round_trip(tmp_path):
    files = {
        "mod.py": """
        import time

        def tick():
            return time.time()

        def entry():  # hax: sink
            return tick()
        """,
    }
    root = make_pkg(tmp_path, files)
    report = analyze(root)
    assert len(report.findings) == 1 and not report.ok

    baseline_path = tmp_path / "baseline.json"
    flow.write_baseline(baseline_path, report.findings)
    keys = flow.load_baseline(baseline_path)
    assert keys == [report.findings[0].key_str]

    # add: the baselined finding no longer fails the gate
    gated = analyze(root, baseline=keys)
    assert gated.ok
    assert len(gated.baselined) == 1 and not gated.stale_keys

    # remove: fixing the flow leaves a stale key, which must be
    # flushed by rewriting the baseline (the shrink-only workflow)
    (root / "mod.py").write_text(
        textwrap.dedent(
            """
            def tick():
                return 0.0

            def entry():  # hax: sink
                return tick()
            """
        )
    )
    fixed = analyze(root, baseline=keys)
    assert fixed.ok and not fixed.findings
    assert fixed.stale_keys == tuple(keys)
    flow.write_baseline(baseline_path, fixed.findings)
    assert flow.load_baseline(baseline_path) == []


def test_baseline_rejects_wrong_version(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"version": 999, "keys": []}))
    with pytest.raises(ValueError, match="version"):
        flow.load_baseline(path)


def test_missing_baseline_is_empty(tmp_path):
    assert flow.load_baseline(tmp_path / "nope.json") == []


# -- stable ordering --------------------------------------------------


def test_finding_order_is_stable_across_runs(tmp_path):
    root = make_pkg(
        tmp_path,
        {
            "a.py": """
            import time, os, random

            def wall():
                return time.time()

            def rng():
                return random.random()

            def env():
                return os.getenv("X")

            def s1():  # hax: sink
                return wall() + rng()

            def s2():  # hax: sink
                pool = {1, 2}
                for x in pool:
                    pass
                return env()
            """,
        },
    )
    first = analyze(root)
    second = analyze(root)
    assert first.findings == second.findings
    assert first.render() == second.render()
    assert len(first.findings) >= 4
    keys = [f.key for f in first.findings]
    assert keys == sorted(keys)


# -- the real tree ----------------------------------------------------


def test_repro_tree_matches_checked_in_baseline(repro_flow_report):
    """The same gate CI runs: no findings outside the baseline, and
    no stale baseline entries (fixed findings must shrink it)."""
    report = repro_flow_report
    assert report.ok, report.render()
    assert not report.stale_keys, report.render()


def test_repro_tree_report_is_deterministic():
    a = flow.analyze(REPRO_SRC, package="repro")
    b = flow.analyze(REPRO_SRC, package="repro")
    assert a.render() == b.render()


# -- CLI verb ---------------------------------------------------------


def test_cli_flow_exit_codes(tmp_path, capsys):
    from repro.cli import main

    root = make_pkg(
        tmp_path,
        {
            "mod.py": """
            import time

            def entry():  # hax: sink
                return time.time()
            """,
        },
    )
    baseline = tmp_path / "b.json"

    assert main(["flow", str(root)]) == 1  # findings, no baseline
    assert main(["flow", str(root), "--write-baseline"]) == 2
    assert (
        main(
            [
                "flow",
                str(root),
                "--baseline",
                str(baseline),
                "--write-baseline",
            ]
        )
        == 0
    )
    assert main(["flow", str(root), "--baseline", str(baseline)]) == 0
    out = capsys.readouterr().out
    assert "1 baselined" in out


def test_cli_flow_clean_tree_exits_zero(tmp_path, capsys):
    from repro.cli import main

    root = make_pkg(tmp_path, {"ok.py": "X = 1\n"})
    assert main(["flow", str(root)]) == 0
    assert "flow: 0 new, 0 baselined" in capsys.readouterr().out


DIRTY = {
    "bad.py": """
    import random

    def f(x=[]):
        return x

    def g():
        return random.random()
    """,
    "ok.py": "def h() -> int:\n    return 1\n",
}


def test_cli_flow_per_line_findings_exit_one(tmp_path, capsys):
    from repro.cli import main

    root = make_pkg(tmp_path, DIRTY)
    assert main(["flow", str(root)]) == 1
    out = capsys.readouterr().out
    assert "HAX001 pkgx.bad.g" in out and "HAX007 pkgx.bad.f" in out
    assert "flow: 2 new, 0 baselined" in out


def test_cli_flow_lists_findings_outside_the_baseline(tmp_path, capsys):
    """A baseline covering one finding still fails on the other."""
    from repro.cli import main

    root = make_pkg(tmp_path, DIRTY)
    baseline = tmp_path / "b.json"
    baseline.write_text(
        json.dumps(
            {
                "keys": ["HAX007|pkgx.bad.f|mutable default argument in f()"],
                "version": 1,
            }
        )
    )
    assert main(["flow", str(root), "--baseline", str(baseline)]) == 1
    out = capsys.readouterr().out
    assert "HAX001 pkgx.bad.g" in out and "HAX007" not in out
    assert "flow: 1 new, 1 baselined, 0 stale" in out


def test_cli_flow_stale_baseline_fails_and_lists_entries(tmp_path, capsys):
    """A baseline holding more than the tree needs fails and lists the
    entries to drop, even when every finding is covered."""
    from repro.cli import main

    root = make_pkg(tmp_path, DIRTY)
    baseline = tmp_path / "b.json"
    assert (
        main(["flow", str(root), "--baseline", str(baseline), "--write-baseline"])
        == 0
    )
    stale = "HAX007|pkgx.ok.h|mutable default argument in h()"
    keys = json.loads(baseline.read_text())["keys"]
    baseline.write_text(json.dumps({"keys": [*keys, stale], "version": 1}))
    capsys.readouterr()
    assert main(["flow", str(root), "--baseline", str(baseline)]) == 1
    out = capsys.readouterr().out
    assert "flow: 0 new, 2 baselined, 1 stale" in out
    assert f"stale: {stale}" in out


def test_cli_flow_default_root_is_the_repro_tree(capsys):
    """No root analyzes the installed package, clean against the
    checked-in baseline."""
    from repro.cli import main

    baseline = REPRO_SRC.parents[1] / "tools" / "flow_baseline.json"
    assert main(["flow", "--baseline", str(baseline)]) == 0
    out = capsys.readouterr().out
    assert "flow: 0 new, 3 baselined, 0 stale" in out


def test_cli_flow_unparsable_module_exits_two(tmp_path, capsys):
    from repro.cli import main

    root = make_pkg(tmp_path, {"broken.py": "def f(:\n    pass\n"})
    assert main(["flow", str(root)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "broken.py:1: cannot parse" in err


def test_write_baseline_reproduces_the_checked_in_file(
    tmp_path, repro_flow_report
):
    """The exception census: regenerating the baseline from the tree
    (what ``--write-baseline`` writes) gives the checked-in file byte
    for byte -- 3 keys, the CI diff step."""
    report = repro_flow_report
    checked_in = REPRO_SRC.parents[1] / "tools" / "flow_baseline.json"
    fresh = tmp_path / "baseline.json"
    flow.write_baseline(fresh, (*report.findings, *report.baselined))
    assert len(flow.load_baseline(fresh)) == 3
    assert fresh.read_bytes() == checked_in.read_bytes()
