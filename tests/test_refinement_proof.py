"""Tests of the assembled refinement proof.

Beyond "everything proves", the mutation tests check the proof has teeth:
seeded bugs in the implementation, the walker, and the encoder must be
caught by the corresponding verification conditions.
"""

import dataclasses

import pytest

from repro.core.pt import defs, entry
from repro.core.pt.impl import PageTable
from repro.core.refine import proof as proofmod
from repro.core.refine.interp import IllFormedTree, interpret
from repro.core.refine.lemmas import all_lemma_vcs
from repro.core.refine.proof import build_proof, proof_structure
from repro.core.refine.scenarios import default_vocabulary, generate_scenarios
from repro.hw.mem import PhysicalMemory
from repro.verif.vc import VCStatus


class TestScenarioGeneration:
    def test_scenarios_replayable(self):
        scenarios = generate_scenarios(max_depth=2, max_scenarios=20)
        assert len(scenarios) == 20
        for scenario in scenarios:
            memory, pt = scenario.build()
            rebuilt = interpret(memory, pt.root_paddr)
            assert rebuilt.mappings == scenario.abstract.mappings

    def test_vocabulary_covers_sizes(self):
        sizes = {op.size for op in default_vocabulary()
                 if hasattr(op, "size")}
        assert sizes == set(defs.PageSize)

    def test_scenarios_diverse(self):
        scenarios = generate_scenarios(max_depth=3, max_scenarios=60)
        mapping_counts = {len(s.abstract.mappings) for s in scenarios}
        assert {0, 1, 2} <= mapping_counts


class TestVcPopulation:
    def test_exactly_220_vcs(self):
        engine = build_proof(scenario_cap=5)
        assert engine.vc_count == 220

    def test_group_sizes(self):
        engine = build_proof(scenario_cap=5)
        sizes = {g.name: len(g) for g in engine.groups}
        assert sizes["entry-lemmas"] == 34
        assert sizes["address-lemmas"] == 33
        assert sizes["marshal-lemmas"] == 13
        assert sizes["invariants"] == 60
        assert sizes["simulation"] == 24
        assert sizes["hardware-agreement"] == 12
        assert sizes["tlb"] == 9
        assert sizes["refinement"] == 2
        assert sizes["nr-linearizability"] == 10
        assert sizes["contract"] == 23

    def test_lemmas_all_prove(self):
        for vc in all_lemma_vcs():
            result = vc.discharge()
            assert result.ok, f"{vc.name}: {result.detail}"

    def test_small_structural_slice_proves(self):
        engine = build_proof(include_lemmas=False, include_nr=False,
                             include_contract=False,
                             scenario_depth=2, scenario_cap=12)
        report = engine.run()
        assert report.all_proved, [r.name for r in report.failed]

    def test_proof_structure_mentions_layers(self):
        text = "\n".join(proof_structure())
        assert "High-level specification" in text
        assert "Hardware specification" in text
        assert "refinement proofs" in text


class TestInterpretationStrictness:
    def test_cycle_detected(self):
        memory = PhysicalMemory(1 << 20)
        root = 0x0
        # PML4[0] points to itself: a cycle
        memory.store_u64(root, entry.encode_table(root))
        with pytest.raises(IllFormedTree, match="twice"):
            interpret(memory, root)

    def test_stray_bits_detected(self):
        memory = PhysicalMemory(1 << 20)
        memory.store_u64(0x8, 0xFF0)  # non-present entry with bits set
        with pytest.raises(IllFormedTree, match="stray"):
            interpret(memory, 0x0)

    def test_pt_level_table_detected(self):
        memory = PhysicalMemory(1 << 20)
        memory.store_u64(0x0, entry.encode_table(0x1000))     # PML4 -> PDPT
        memory.store_u64(0x1000, entry.encode_table(0x2000))  # PDPT -> PD
        memory.store_u64(0x2000, entry.encode_table(0x3000))  # PD -> PT
        memory.store_u64(0x3000, entry.encode_table(0x4000))  # PT -> ?!
        # a PT-level present entry always decodes as PAGE; it must then be
        # 4K-aligned, which 0x4000 is, so this interprets as a page — but
        # the no-empty-intermediate check is separate; strict interp is ok
        state = interpret(memory, 0x0, strict=True)
        assert len(state.mappings) == 1


class TestMutations:
    """Seeded bugs must be caught by the right VCs: each test pins the
    VCs that caught its mutant when the sets were first recorded, and a
    later proof may catch it with more VCs, never with fewer."""

    def _structural_failures(self, scenario_cap=10):
        engine = build_proof(include_lemmas=False, include_nr=False,
                             include_contract=False, scenario_depth=2,
                             scenario_cap=scenario_cap)
        report = engine.run()
        return {r.name for r in report.results
                if r.status is not VCStatus.PROVED}

    def test_skipping_gc_caught(self, monkeypatch):
        """Bug: unmap forgets to garbage-collect empty tables."""
        monkeypatch.setattr(
            PageTable, "_collect_empty_tables", lambda self, path: None
        )
        assert {
            "inv_no_empty_intermediate_preserved_by_unmap",
            "refinement_trace_observable",
            "refinement_trace_state",
        } <= self._structural_failures()

    def test_wrong_level_shift_caught(self, monkeypatch):
        """Bug: the implementation walks with a wrong PD shift."""
        original = defs.vaddr_index

        def broken(vaddr, level):
            if level == 2:
                return (vaddr >> 20) & 0x1FF  # off by one bit
            return original(vaddr, level)

        # patch only the implementation's view, not the independent walker
        monkeypatch.setattr(
            "repro.core.pt.impl.defs.vaddr_index", broken
        )
        assert {
            "hw_memops_store_then_load",
            "hw_resolve_matches_walk_2m",
            "hw_walk_agrees_size_2m",
            "hw_walk_agrees_unmapped",
            "tlb_fill_consistent",
            "tlb_flush_consistent",
        } <= self._structural_failures(scenario_cap=8)

    def test_dropped_nx_bit_caught(self, monkeypatch):
        """Bug: the encoder forgets the NX bit."""
        original = entry.encode_page

        def broken(frame_paddr, flags, level):
            raw = original(frame_paddr, flags, level)
            return raw & ~(1 << defs.BIT_NX)

        monkeypatch.setattr("repro.core.pt.impl.entry.encode_page", broken)
        assert {
            "hw_permission_execute_nx",
            "refinement_trace_state",
            "sim_map_2m_success_commutes",
            "sim_map_4k_success_commutes",
        } <= self._structural_failures()

    def test_missing_shootdown_caught(self):
        """The tlb group's stale-entry VC guards against a missing
        invalidation (checked positively: the stale detector works)."""
        stale_entry_detected = proofmod.TLB_OBLIGATIONS["stale_entry_detected"]
        assert stale_entry_detected(lambda: []) is None

    def test_broken_spec_overlap_caught(self, monkeypatch):
        """Bug in the spec direction: overlap check ignores huge pages."""
        from repro.core.spec import highlevel

        def broken_overlaps(self, vaddr, size):
            return vaddr in self.mappings  # ignores ranges

        monkeypatch.setattr(highlevel.AbstractState, "overlaps",
                            broken_overlaps)
        assert {
            "refinement_trace_observable",
            "refinement_trace_state",
            "sim_map_2m_success_commutes",
            "sim_map_4k_success_commutes",
        } <= self._structural_failures()

    def test_user_mode_denied_everywhere_caught(self, monkeypatch):
        """Bug in the hardware model: every user-mode access faults.  The
        permission VCs are two-sided, so a fault-everything rule fails
        them."""
        from repro.hw import mmu

        def deny_user(vaddr, flags, access, user_mode):
            if user_mode:
                raise mmu.TranslationFault(vaddr, "user access denied")

        monkeypatch.setattr(mmu, "check_access", deny_user)
        assert {
            "hw_permission_write_to_readonly",
            "hw_permission_execute_nx",
        } <= self._structural_failures()

    def test_wrong_unmap_return_caught_by_the_traces(self, monkeypatch):
        """Bug: unmap updates the tree right but reports the wrong frame.
        The traces check the whole simulation step, return value
        included."""
        original = PageTable.unmap

        def shifted(self, vaddr):
            removed = original(self, vaddr)
            return dataclasses.replace(removed, paddr=removed.paddr + 0x1000)

        monkeypatch.setattr(PageTable, "unmap", shifted)
        assert {
            "refinement_trace_observable",
            "refinement_trace_state",
            "sim_unmap_success_commutes",
        } <= self._structural_failures()


class TestTimingReport:
    def test_report_quantities(self):
        engine = build_proof(include_lemmas=True, include_structural=False,
                             include_nr=False, include_contract=False)
        report = engine.run()
        assert report.total == 80
        assert report.all_proved
        assert report.total_seconds > 0
        assert report.max_seconds <= report.total_seconds
        # The default downsamples to 50 points; an explicit `points` at or
        # above the population size returns every sample.
        assert len(report.cdf()) == 50
        cdf = report.cdf(points=80)
        assert len(cdf) == 80
        # CDF is monotone and ends at 1.0
        assert cdf[-1][1] == pytest.approx(1.0)
        fractions = [f for _, f in cdf]
        assert fractions == sorted(fractions)
