"""Boundary contract for range reads: start inclusive, stop exclusive.

``Branch.scan``'s docstring pins the contract — keys satisfy
``start <= key < stop`` — and these tests hold every layer that range
reads flow through to it, across all three SIRI index families:
``SIRIIndex.iterate_range`` (including the split-key-pruned override),
``IndexSnapshot.items_range``, ``ServiceSnapshot.items_range``,
``Branch.scan`` with its prefix/bounds interplay, and secondary-index
``Branch.range`` over index keys.
"""

import pytest

from repro.api import Repository
from repro.api.branch import prefix_upper_bound, scan_bounds
from repro.query import IndexDefinition
from tests.conftest import SIRI_INDEXES, build_index


def extract_first_byte(value):
    return [value[:1]] if value else []


@pytest.fixture(params=SIRI_INDEXES, ids=lambda cls: cls.name)
def family_repo(request):
    with Repository.open(
            index_factory=lambda store: build_index(request.param, store),
            num_shards=2) as repo:
        yield repo


KEYS = [b"a", b"ab", b"b", b"ba", b"bb", b"c", b"\xff", b"\xff\xff"]


def seed(repo):
    branch = repo.default_branch
    for key in KEYS:
        branch.put(key, b"v" + key)
    branch.commit("seed")
    return branch


class TestBranchScan:
    def test_start_inclusive_stop_exclusive(self, family_repo):
        branch = seed(family_repo)
        got = [k for k, _ in branch.scan(b"ab", b"bb")]
        assert got == [b"ab", b"b", b"ba"]

    def test_start_equals_existing_key(self, family_repo):
        branch = seed(family_repo)
        assert [k for k, _ in branch.scan(b"b", b"c")] == [b"b", b"ba", b"bb"]

    def test_stop_equals_existing_key_excluded(self, family_repo):
        branch = seed(family_repo)
        assert [k for k, _ in branch.scan(None, b"b")] == [b"a", b"ab"]

    def test_empty_window(self, family_repo):
        branch = seed(family_repo)
        assert list(branch.scan(b"b", b"b")) == []

    def test_unbounded_scan(self, family_repo):
        branch = seed(family_repo)
        assert [k for k, _ in branch.scan()] == sorted(KEYS)

    def test_prefix_folds_into_bounds(self, family_repo):
        branch = seed(family_repo)
        assert [k for k, _ in branch.scan(prefix=b"b")] == [b"b", b"ba", b"bb"]
        # prefix intersected with an explicit window
        assert [k for k, _ in branch.scan(b"ba", b"bb", prefix=b"b")] == [b"ba"]

    def test_all_0xff_prefix_has_no_upper_bound(self, family_repo):
        # the one prefix whose upper bound cannot be expressed by
        # incrementing a byte — the fold must keep the scan open-ended
        branch = seed(family_repo)
        assert prefix_upper_bound(b"\xff") is None
        assert [k for k, _ in branch.scan(prefix=b"\xff")] == [b"\xff", b"\xff\xff"]

    def test_staged_overlay_respects_bounds(self, family_repo):
        branch = seed(family_repo)
        branch.put(b"abc", b"staged")
        branch.remove(b"b")
        assert [k for k, _ in branch.scan(b"ab", b"bb")] == [b"ab", b"abc", b"ba"]
        branch.discard()


class TestScanBounds:
    """The one prefix fold shared by ``Branch.scan`` and the wire SCAN."""

    @pytest.mark.parametrize("start, stop, prefix, expected", [
        (None, None, None, (None, None)),
        (b"a", b"c", None, (b"a", b"c")),
        (None, None, b"b", (b"b", b"c")),
        (b"ba", b"bb", b"b", (b"ba", b"bb")),
        (b"a", b"z", b"b", (b"b", b"c")),
        (None, None, b"\xff", (b"\xff", None)),
        (None, b"\xff\x01", b"\xff", (b"\xff", b"\xff\x01")),
    ], ids=["unbounded", "bounds-only", "prefix-only", "bounds-inside-prefix",
            "prefix-inside-bounds", "0xff-prefix-open-ended", "0xff-prefix-with-stop"])
    def test_prefix_narrows_the_bounds(self, start, stop, prefix, expected):
        assert scan_bounds(start, stop, prefix) == expected


class TestIterateRange:
    def test_snapshot_items_range_matches_filtered_items(self, family_repo):
        branch = seed(family_repo)
        snapshot = branch.snapshot()
        for start, stop in [(None, None), (b"ab", b"bb"), (b"b", b"b"),
                            (None, b"b"), (b"c", None), (b"\xff", None)]:
            expected = [(k, v) for k, v in snapshot.items()
                        if (start is None or k >= start)
                        and (stop is None or k < stop)]
            assert list(snapshot.items_range(start, stop)) == expected

    def test_index_level_iterate_range(self, family_repo):
        # drive the per-shard IndexSnapshot directly (the layer
        # RangedMerkleSearchTree overrides with split-key pruning)
        branch = seed(family_repo)
        for shard in branch.snapshot().shards:
            all_items = list(shard.items())
            for start, stop in [(b"ab", b"bb"), (None, b"b"), (b"b", None)]:
                expected = [(k, v) for k, v in all_items
                            if (start is None or k >= start)
                            and (stop is None or k < stop)]
                assert list(shard.items_range(start, stop)) == expected


class TestSecondaryRange:
    def test_index_range_lo_inclusive_hi_exclusive(self, family_repo):
        repo = family_repo
        first = repo.register_index(IndexDefinition("first", extract_first_byte))
        branch = repo.default_branch
        for key in KEYS:
            branch.put(key, key)  # value == key, so index key == first byte
        branch.commit("seed")
        triples = branch.range(first, b"a", b"b")
        assert {ik for ik, _, _ in triples} == {b"a"}
        assert branch.range(first, b"a", b"a") == []
        everything = branch.range(first)
        assert {ik for ik, _, _ in everything} == {b"a", b"b", b"c", b"\xff"}
        # hi just past a key admits it
        assert {ik for ik, _, _ in branch.range(first, b"b", b"b\x00")} == {b"b"}
