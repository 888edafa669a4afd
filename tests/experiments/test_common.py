"""Experiment-suite shared helpers."""

import json

import pytest

from repro.experiments import common
from repro.experiments.common import (
    SCHEDULER_LABELS,
    format_table,
    get_db,
    make_scheduler,
)


class TestFormatTable:
    def test_basic_layout(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": None}]
        text = format_table(rows, ["a", "b"], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert "2.50" in text  # floats get two decimals
        assert "-" in lines[-1]  # None renders as dash

    def test_empty_rows(self):
        text = format_table([], ["x"])
        assert "x" in text

    def test_missing_columns_render_dash(self):
        text = format_table([{"a": 1}], ["a", "missing"])
        assert text.splitlines()[-1].rstrip().endswith("-")

    def test_column_width_grows_with_content(self):
        rows = [{"name": "a-very-long-model-name"}]
        text = format_table(rows, ["name"])
        assert "a-very-long-model-name" in text


class TestSchedulerFactory:
    def test_labels_cover_all_schedulers(self):
        assert set(SCHEDULER_LABELS) == {
            "gpu_only",
            "naive",
            "mensa",
            "herald",
            "h2h",
            "haxconn",
        }

    def test_unknown_scheduler_rejected(self, xavier):
        with pytest.raises(KeyError):
            make_scheduler("magic", xavier)

    @pytest.mark.parametrize(
        "name", ["gpu_only", "naive", "mensa"]
    )
    def test_factories_produce_results(self, name, xavier, xavier_db):
        from repro.core.workload import Workload

        scheduler = make_scheduler(
            name, xavier, db=xavier_db, max_groups=6
        )
        result = scheduler(
            Workload.concurrent("googlenet", "resnet18")
        )
        assert result.predicted.makespan > 0

    def test_get_db_cached(self):
        assert get_db("xavier") is get_db("xavier")
        assert get_db("xavier") is not get_db("orin")


class TestProfilesStayInProcess:
    def test_get_db_ignores_a_persisted_profile_file(
        self, tmp_path, monkeypatch
    ):
        """Profiles derive from the platform model only: a profile file
        in the format older releases persisted (and loaded back when
        ``REPRO_PROFILE_STORE`` named its directory) changes nothing,
        even one whose times were scaled by 1.5."""
        from repro.profiling.database import ProfileDB

        fresh = ProfileDB("xavier").profile("googlenet", max_groups=10)
        stored = {
            "platform": "xavier",
            "profiles": [
                {
                    "dnn": fresh.dnn_name,
                    "platform": "xavier",
                    "max_groups": 10,
                    "groups": [
                        {
                            "label": g.label,
                            "time_s": {
                                a: 1.5 * t for a, t in g.time_s.items()
                            },
                            "req_bw": dict(g.req_bw),
                            "emc_util": dict(g.emc_util),
                            "transition_s": {
                                f"{src}->{dst}": list(v)
                                for (src, dst), v in g.transition_s.items()
                            },
                        }
                        for g in fresh
                    ],
                }
            ],
            "pccs": None,
        }
        (tmp_path / "xavier_profiles.json").write_text(json.dumps(stored))
        monkeypatch.setattr(common, "_DBS", {})
        monkeypatch.setenv("REPRO_PROFILE_STORE", str(tmp_path))

        profile = get_db("xavier").profile("googlenet", max_groups=10)
        assert [g.label for g in profile] == [g.label for g in fresh]
        assert [dict(g.time_s) for g in profile] == [
            dict(g.time_s) for g in fresh
        ]
