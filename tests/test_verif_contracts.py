"""Tests for linear ownership tokens."""

import pytest

from repro.verif.linear import OwnershipError, OwnershipTable, Region


class TestRegion:
    def test_overlap(self):
        a = Region(0, 10)
        assert a.overlaps(Region(5, 15))
        assert not a.overlaps(Region(10, 20))
        assert Region(5, 15).overlaps(a)

    def test_empty_region_rejected(self):
        with pytest.raises(ValueError):
            Region(5, 5)


class TestOwnership:
    def test_unique_excludes_all(self):
        table = OwnershipTable()
        table.claim_unique(0x1000, 0x100, "syscall-read")
        with pytest.raises(OwnershipError):
            table.claim_unique(0x1080, 0x10, "other-thread")
        with pytest.raises(OwnershipError):
            table.claim_shared(0x1080, 0x10, "other-thread")

    def test_shared_coexists(self):
        table = OwnershipTable()
        table.claim_shared(0, 100, "t1")
        table.claim_shared(50, 100, "t2")
        with pytest.raises(OwnershipError):
            table.claim_unique(0, 10, "t3")

    def test_disjoint_unique_ok(self):
        table = OwnershipTable()
        table.claim_unique(0, 100, "t1")
        table.claim_unique(100, 100, "t2")

    def test_release_allows_reclaim(self):
        table = OwnershipTable()
        token = table.claim_unique(0, 10, "t1")
        table.release(token)
        table.claim_unique(0, 10, "t2")

    def test_double_release(self):
        table = OwnershipTable()
        token = table.claim_unique(0, 10, "t1")
        table.release(token)
        with pytest.raises(OwnershipError):
            table.release(token)

    def test_quiescent_check(self):
        table = OwnershipTable()
        table.assert_quiescent()
        token = table.claim_shared(0, 4, "t1")
        with pytest.raises(OwnershipError, match="leaked"):
            table.assert_quiescent()
        table.release(token)
        table.assert_quiescent()

    def test_outstanding_listing(self):
        table = OwnershipTable()
        table.claim_shared(0, 4, "a")
        table.claim_shared(4, 4, "b")
        owners = sorted(t.owner for t in table.outstanding())
        assert owners == ["a", "b"]
