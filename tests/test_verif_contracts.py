"""Tests for runtime contracts and linear ownership tokens."""

import pytest

from repro.verif.contracts import ContractError, ensures, requires, snapshot
from repro.verif.linear import OwnershipError, OwnershipTable, Region


class TestContracts:
    def test_requires_passes(self):
        @requires(lambda x: x > 0)
        def f(x):
            return x * 2

        assert f(3) == 6

    def test_requires_fails(self):
        @requires(lambda x: x > 0, "x must be positive")
        def f(x):
            return x

        with pytest.raises(ContractError, match="positive"):
            f(-1)

    def test_ensures_checks_result(self):
        @ensures(lambda result, x: result >= x)
        def f(x):
            return x - 1 if x == 42 else x + 1

        assert f(1) == 2
        with pytest.raises(ContractError):
            f(42)

    def test_snapshot_provides_old_state(self):
        class Counter:
            def __init__(self):
                self.n = 0

            @snapshot("old", lambda self: self.n)
            @ensures(lambda result, self, old: self.n == old + 1)
            def bump(self, old=None):
                self.n += 1
                return self.n

        c = Counter()
        assert c.bump() == 1
        assert c.bump() == 2


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
