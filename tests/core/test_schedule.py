"""Schedule IR: transition derivation and description."""

import pytest

from repro.core.schedule import DNNSchedule, Schedule


class TestDNNSchedule:
    def test_no_transitions(self):
        s = DNNSchedule("net", ("gpu",) * 5)
        assert s.num_transitions == 0
        assert s.transitions == ()

    def test_single_transition(self):
        s = DNNSchedule("net", ("dla", "dla", "gpu", "gpu"))
        assert s.transitions == ((1, "dla", "gpu"),)

    def test_multiple_transitions(self):
        s = DNNSchedule("net", ("gpu", "dla", "dla", "gpu"))
        assert s.transitions == ((0, "gpu", "dla"), (2, "dla", "gpu"))

    def test_describe_matches_paper_style(self):
        s = DNNSchedule("net", ("dla", "dla", "gpu", "gpu", "gpu"))
        assert s.describe() == "dla[0-1] ->gpu[2-4]"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            DNNSchedule("net", ())

    def test_indexing(self):
        s = DNNSchedule("net", ("gpu", "dla"))
        assert s[0] == "gpu"
        assert len(s) == 2
        assert list(s) == ["gpu", "dla"]


class TestSchedule:
    def test_total_transitions(self):
        schedule = Schedule(
            per_dnn=(
                DNNSchedule("a", ("gpu", "dla")),
                DNNSchedule("b", ("dla", "gpu", "dla")),
            )
        )
        assert schedule.total_transitions == 3

    def test_describe_includes_mode(self):
        schedule = Schedule(
            per_dnn=(DNNSchedule("a", ("gpu",)),), serialized=True
        )
        assert "[serial]" in schedule.describe()
        schedule = Schedule(per_dnn=(DNNSchedule("a", ("gpu",)),))
        assert "[concurrent]" in schedule.describe()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Schedule(per_dnn=())

    def test_iteration(self):
        schedule = Schedule(
            per_dnn=(
                DNNSchedule("a", ("gpu",)),
                DNNSchedule("b", ("dla",)),
            )
        )
        assert len(schedule) == 2
        assert schedule[1].dnn_name == "b"
