"""Profile database: per-platform caching."""

import pytest

from repro.profiling.database import ProfileDB


@pytest.fixture()
def db(xavier):
    return ProfileDB(xavier)


class TestCaching:
    def test_profile_cached(self, db):
        a = db.profile("resnet18", max_groups=6)
        b = db.profile("resnet18", max_groups=6)
        assert a is b

    def test_distinct_groupings_distinct_profiles(self, db):
        a = db.profile("resnet18", max_groups=6)
        b = db.profile("resnet18", max_groups=8)
        assert a is not b
        assert len(db) == 2

    def test_aliases_share_cache(self, db):
        a = db.profile("resnet52", max_groups=6)
        b = db.profile("resnet50", max_groups=6)
        assert a is b

    def test_contains_and_iter(self, db):
        db.profile("googlenet", max_groups=6)
        assert "googlenet" in db
        assert "vgg19" not in db
        assert len(list(db)) == 1

    def test_platform_by_name(self):
        db = ProfileDB("xavier")
        assert db.platform.name == "xavier"

    def test_pccs_lazy_and_cached(self, db):
        model = db.pccs
        assert db.pccs is model
