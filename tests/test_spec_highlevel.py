"""Tests for the high-level abstract specification and FrozenMap."""

import pytest

from repro.core.pt.defs import MAX_VADDR, Flags, PageSize
from repro.core.spec.highlevel import (
    AbstractPte,
    AbstractState,
    canonical_invariant,
    highlevel_machine,
    map_enabled,
    unmap_enabled,
    write_enabled,
)
from repro.immutable import EMPTY_MAP, FrozenMap
from repro.verif.explore import reachable_states


class TestFrozenMap:
    def test_set_is_persistent(self):
        a = FrozenMap()
        b = a.set("x", 1)
        assert "x" not in a
        assert b["x"] == 1

    def test_remove(self):
        m = FrozenMap({"x": 1, "y": 2}).remove("x")
        assert "x" not in m and m["y"] == 2
        with pytest.raises(KeyError):
            m.remove("zz")

    def test_equality_and_hash(self):
        assert FrozenMap({"a": 1}) == FrozenMap({"a": 1})
        assert hash(FrozenMap({"a": 1})) == hash(FrozenMap({"a": 1}))
        assert FrozenMap({"a": 1}) != FrozenMap({"a": 2})

    def test_usable_in_sets(self):
        s = {FrozenMap({"a": 1}), FrozenMap({"a": 1}), FrozenMap()}
        assert len(s) == 2

    def test_merge_and_iteration(self):
        m = FrozenMap({"a": 1}).merge({"b": 2})
        assert sorted(m.keys()) == ["a", "b"]
        assert len(m) == 2
        assert EMPTY_MAP.get("nope") is None


class TestAbstractState:
    def setup_method(self):
        self.state = AbstractState().map_page(
            0x1000, 0x40_0000, PageSize.SIZE_4K, Flags.user_rw()
        )

    def test_lookup_and_translate(self):
        base, pte = self.state.lookup(0x1FF8)
        assert base == 0x1000 and pte.frame == 0x40_0000
        assert self.state.translate(0x1008) == 0x40_0008
        assert self.state.translate(0x3000) is None

    def test_overlaps(self):
        assert self.state.overlaps(0x1000, PageSize.SIZE_4K)
        assert self.state.overlaps(0, PageSize.SIZE_2M)  # covers 0x1000
        assert not self.state.overlaps(0x2000, PageSize.SIZE_4K)

    def test_unmap(self):
        cleared = self.state.unmap_page(0x1FF0)  # interior address
        assert cleared.lookup(0x1000) is None

    def test_read_write_word(self):
        written = self.state.write_word(0x1010, 0xABCD)
        assert written.read_word(0x1010) == 0xABCD
        assert self.state.read_word(0x1010) == 0  # original unchanged

    def test_aliasing_through_shared_frame(self):
        aliased = self.state.map_page(
            0x7000, 0x40_0000, PageSize.SIZE_4K, Flags.user_rw()
        )
        written = aliased.write_word(0x1010, 7)
        assert written.read_word(0x7010) == 7  # same frame, other vaddr

    def test_write_unmapped_raises(self):
        with pytest.raises(ValueError):
            self.state.write_word(0x9000, 1)
        with pytest.raises(ValueError):
            self.state.read_word(0x9000)

    def test_huge_page_lookup(self):
        s = AbstractState().map_page(
            0x20_0000, 0x40_0000, PageSize.SIZE_2M, Flags.kernel_rw()
        )
        assert s.translate(0x20_0000 + 0x12340) == 0x40_0000 + 0x12340


class TestEnablingConditions:
    def test_map_enabled(self):
        s = AbstractState()
        assert map_enabled(s, (0x1000, 0x2000, PageSize.SIZE_4K, Flags()))
        assert not map_enabled(s, (0x1001, 0x2000, PageSize.SIZE_4K, Flags()))
        assert not map_enabled(s, (0x1000, 0x2001, PageSize.SIZE_4K, Flags()))
        assert not map_enabled(s, (1 << 48, 0x2000, PageSize.SIZE_4K, Flags()))
        mapped = s.map_page(0x1000, 0x2000, PageSize.SIZE_4K, Flags())
        assert not map_enabled(mapped, (0x1000, 0x3000, PageSize.SIZE_4K, Flags()))

    def test_unmap_enabled(self):
        s = AbstractState().map_page(0x1000, 0x2000, PageSize.SIZE_4K, Flags())
        assert unmap_enabled(s, (0x1000,))
        assert unmap_enabled(s, (0x1ff8,))
        assert not unmap_enabled(s, (0x3000,))

    def test_write_enabled_needs_writable(self):
        ro = AbstractState().map_page(
            0x1000, 0x2000, PageSize.SIZE_4K, Flags(writable=False)
        )
        assert not write_enabled(ro, (0x1000, 1))
        rw = AbstractState().map_page(
            0x1000, 0x2000, PageSize.SIZE_4K, Flags(writable=True)
        )
        assert write_enabled(rw, (0x1000, 1))


class TestMachineExploration:
    def test_invariants_hold_over_reachable_space(self):
        machine = highlevel_machine(
            vaddrs=(0x1000, 0x2000),
            frames=(0x10_0000, 0x20_0000),
        )
        result = reachable_states(machine, max_states=500)
        assert result.ok
        assert len(result.states) > 4

    def test_mixed_sizes_no_overlap_invariant(self):
        machine = highlevel_machine(
            vaddrs=(0x0, 0x20_0000),
            frames=(0x0, 0x20_0000),
            sizes=(PageSize.SIZE_4K, PageSize.SIZE_2M),
        )
        result = reachable_states(machine, max_states=800)
        assert result.ok
        # overlap prevention: no state maps both 0x0 (2M) and 0x1000-page
        for state in result.states:
            spans = [
                (b, b + int(p.size)) for b, p in state.mappings.items()
            ]
            spans.sort()
            for (a_start, a_end), (b_start, b_end) in zip(spans, spans[1:]):
                assert b_start >= a_end

    def test_canonical_invariant_checks_the_last_byte(self):
        """A 2 MiB page whose base is canonical but whose end runs past
        the lower half is not a well-formed abstract map."""
        size = PageSize.SIZE_2M
        pte = AbstractPte(0x20_0000, size, Flags.user_rw())
        straddling = AbstractState(
            mappings=EMPTY_MAP.set(MAX_VADDR - 0x1000, pte))
        assert not canonical_invariant(straddling)
        last = AbstractState(mappings=EMPTY_MAP.set(MAX_VADDR - int(size), pte))
        assert canonical_invariant(last)
