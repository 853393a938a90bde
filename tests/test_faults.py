"""Tests for repro.faults: plan determinism, each injection site's typed
failure surface, and the campaign runner."""

import pytest

from repro.faults import run_campaign
from repro.faults.campaign import (CAMPAIGNS, CampaignReport, SiteReport,
                                   summary_text)
from repro.faults.plan import FaultPlan, FaultRule
from repro.hw.devices.disk import Disk, DiskCrash, DiskIOError
from repro.nros.drivers.block import BlockDriver, BlockRequest, QueueFull


# ---------------------------------------------------------------------------
# FaultPlan
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_replay_is_identical(self):
        rules = [
            FaultRule(site="disk.write", kind="io-error", probability=0.3),
            FaultRule(site="link.tx", kind="drop", probability=0.5),
        ]
        plan = FaultPlan(seed=7, rules=rules)
        sites = ["disk.write", "link.tx"] * 200
        decisions = [plan.draw(site) is not None for site in sites]
        replay = plan.replayed()
        assert [replay.draw(site) is not None for site in sites] == decisions
        assert replay.trace() == plan.trace()

    def test_streams_are_independent(self):
        """One site's traffic never perturbs another rule's dice: extra
        draws at an unrelated site leave a rule's decisions unchanged."""
        rules = [
            FaultRule(site="disk.write", kind="io-error", probability=0.3),
            FaultRule(site="link.tx", kind="drop", probability=0.5),
        ]
        quiet = FaultPlan(seed=7, rules=rules)
        noisy = FaultPlan(seed=7, rules=rules)
        quiet_decisions = []
        for i in range(100):
            quiet_decisions.append(quiet.draw("disk.write") is not None)
        noisy_decisions = []
        for i in range(100):
            noisy.draw("link.tx")   # interleaved unrelated traffic
            noisy_decisions.append(noisy.draw("disk.write") is not None)
        assert noisy_decisions == quiet_decisions

    def test_at_fires_exactly_once(self):
        plan = FaultPlan(seed=1, rules=[
            FaultRule(site="s", kind="k", at=5),
        ])
        fired = [plan.draw("s") is not None for _ in range(20)]
        assert fired == [i == 4 for i in range(20)]

    def test_every_with_after_and_cap(self):
        plan = FaultPlan(seed=1, rules=[
            FaultRule(site="s", kind="k", every=3, after=6, max_triggers=2),
        ])
        fired = [i for i in range(30) if plan.draw("s") is not None]
        assert fired == [8, 11]  # ops 9 and 12: every-3 past the first 6

    def test_glob_site_matching(self):
        plan = FaultPlan(seed=1, rules=[
            FaultRule(site="disk.*", kind="k", every=1),
        ])
        assert plan.draw("disk.read") is not None
        assert plan.draw("disk.write") is not None
        assert plan.draw("link.tx") is None

    def test_first_firing_rule_wins(self):
        plan = FaultPlan(seed=1, rules=[
            FaultRule(site="s", kind="first", every=1),
            FaultRule(site="s", kind="second", every=1),
        ])
        decision = plan.draw("s")
        assert decision.kind == "first"

    def test_decision_rand_below_is_deterministic(self):
        def values(plan):
            out = []
            for _ in range(10):
                decision = plan.draw("s")
                out.append(decision.rand_below(4096))
            return out

        rules = [FaultRule(site="s", kind="k", every=1)]
        assert values(FaultPlan(3, rules)) == values(FaultPlan(3, rules))

    def test_accounting(self):
        plan = FaultPlan(seed=1, rules=[
            FaultRule(site="a", kind="x", every=2),
            FaultRule(site="b", kind="y", every=5),
        ])
        for _ in range(10):
            plan.draw("a")
            plan.draw("b")
        assert plan.injections == 7
        assert plan.injected_by_site() == {"a": 5, "b": 2}
        assert plan.injected_by_kind() == {"x": 5, "y": 2}


# ---------------------------------------------------------------------------
# Disk + driver sites
# ---------------------------------------------------------------------------


class TestDiskFaults:
    def test_io_error_is_typed_and_transient(self):
        plan = FaultPlan(seed=1, rules=[
            FaultRule(site="disk.write", kind="io-error", at=1),
        ])
        disk = Disk(4, fault_plan=plan)
        payload = b"p" * Disk.SECTOR_SIZE
        with pytest.raises(DiskIOError):
            disk.write_sector(0, payload)
        disk.write_sector(0, payload)  # transient: the retry lands
        assert disk.read_sector(0) == payload

    def test_torn_write_lands_prefix_then_heals_on_retry(self):
        disk = Disk(4)
        old = b"o" * Disk.SECTOR_SIZE
        new = b"n" * Disk.SECTOR_SIZE
        disk.write_sector(0, old)
        plan = FaultPlan(seed=1, rules=[
            FaultRule(site="disk.write", kind="torn", at=1),
        ])
        disk.fault_plan = plan
        with pytest.raises(DiskIOError):
            disk.write_sector(0, new)
        torn = disk.read_sector(0)
        assert torn != old and torn != new  # new head, old tail
        keep = torn.count(b"n"[0])
        assert torn == new[:keep] + old[keep:]
        disk.write_sector(0, new)  # whole-sector rewrite heals
        assert disk.read_sector(0) == new

    def test_read_corruption_is_transient(self):
        plan = FaultPlan(seed=1, rules=[
            FaultRule(site="disk.read", kind="corrupt", at=1),
        ])
        disk = Disk(4)
        payload = b"q" * Disk.SECTOR_SIZE
        disk.write_sector(1, payload)
        disk.fault_plan = plan
        first = disk.read_sector(1)
        assert first != payload           # damaged on the bus...
        assert disk.read_sector(1) == payload   # ...medium intact

    def test_driver_retries_transient_errors(self):
        plan = FaultPlan(seed=1, rules=[
            FaultRule(site="disk.write", kind="io-error", at=1),
        ])
        disk = Disk(4, fault_plan=plan)
        driver = BlockDriver(disk)
        driver.write(0, b"d" * Disk.SECTOR_SIZE)  # absorbed by retry
        assert driver.io_retries == 1
        assert driver.io_failures == 0
        assert disk.read_sector(0) == b"d" * Disk.SECTOR_SIZE

    def test_driver_surfaces_persistent_errors(self):
        plan = FaultPlan(seed=1, rules=[
            FaultRule(site="disk.write", kind="io-error", every=1),
        ])
        disk = Disk(4, fault_plan=plan)
        driver = BlockDriver(disk)
        with pytest.raises(DiskIOError):
            driver.write(0, b"d" * Disk.SECTOR_SIZE)
        assert driver.io_failures == 1

    def test_queue_full_is_typed_backpressure(self):
        plan = FaultPlan(seed=1, rules=[
            FaultRule(site="block.submit", kind="stall", every=1),
        ])
        disk = Disk(64)
        driver = BlockDriver(disk, fault_plan=plan)
        payload = b"s" * Disk.SECTOR_SIZE
        for sector in range(driver.QUEUE_DEPTH):
            driver.submit(BlockRequest("write", sector, data=payload))
        with pytest.raises(QueueFull):
            driver.submit(BlockRequest("write", 40, data=payload))
        # the rejected request displaced nothing; service drains in order
        assert len(driver.pending) == driver.QUEUE_DEPTH
        driver.service()
        for sector in range(driver.QUEUE_DEPTH):
            assert disk.read_sector(sector) == payload

    def test_crash_propagates_and_queue_survives(self):
        plan = FaultPlan(seed=1, rules=[
            FaultRule(site="disk.write", kind="crash", at=1),
        ])
        disk = Disk(4, fault_plan=plan)
        driver = BlockDriver(disk)
        with pytest.raises(DiskCrash):
            driver.write(0, b"c" * Disk.SECTOR_SIZE)
        assert len(driver.pending) == 1  # post-mortem: request still queued


# ---------------------------------------------------------------------------
# Allocator sites
# ---------------------------------------------------------------------------


class TestAllocatorFaults:
    def test_pmem_injected_failure_is_typed(self):
        from repro.hw.mem import PhysicalMemory
        from repro.nros.pmem import BuddyAllocator, OutOfMemory

        plan = FaultPlan(seed=1, rules=[
            FaultRule(site="pmem.alloc", kind="alloc-fail", at=2),
        ])
        allocator = BuddyAllocator(PhysicalMemory(1 << 20), fault_plan=plan)
        first = allocator.alloc_block(0)
        with pytest.raises(OutOfMemory):
            allocator.alloc_block(0)
        third = allocator.alloc_block(0)  # allocator fully usable after
        assert allocator.injected_failures == 1
        allocator.free_block(first)
        allocator.free_block(third)
        assert allocator.check_integrity() is None

    def test_heap_injected_failure_is_typed(self):
        from repro.nros.syscall.abi import Syscall
        from repro.ulib.alloc import AllocFailed, Heap

        def drive(gen, base=[0x100000]):
            try:
                request = next(gen)
                while True:
                    value = None
                    if isinstance(request, Syscall) \
                            and request.name == "vm_map":
                        value = base[0]
                        base[0] += request.args[0] * 4096
                    request = gen.send(value)
            except StopIteration as stop:
                return stop.value

        plan = FaultPlan(seed=1, rules=[
            FaultRule(site="heap.alloc", kind="alloc-fail", at=2),
        ])
        heap = Heap(fault_plan=plan)
        first = drive(heap.alloc(64))
        with pytest.raises(AllocFailed):
            drive(heap.alloc(64))
        second = drive(heap.alloc(64))  # heap stays serviceable
        assert first != second
        assert heap.injected_failures == 1


# ---------------------------------------------------------------------------
# Campaigns
# ---------------------------------------------------------------------------


def _run(scenario, seed: int) -> SiteReport:
    found = SiteReport()
    scenario(seed, found)
    return found


class TestCampaigns:
    def test_all_campaigns_pass_and_replay_identically(self):
        reports = run_campaign("all", seed=1)
        assert [r.name for r in reports] == ["disk", "net", "mem",
                                             "prover", "cluster", "ring"]
        for report in reports:
            assert report.ok, report.violations
            assert report.injections > 0, f"{report.name} injected nothing"
        assert summary_text(run_campaign("all", seed=1)) == \
            summary_text(reports)

    def test_seeds_change_the_campaign(self):
        one = summary_text(run_campaign("mem", seed=1))
        two = summary_text(run_campaign("mem", seed=2))
        assert one != two

    def test_unknown_campaign_rejected(self):
        with pytest.raises(ValueError):
            run_campaign("cosmic-rays")

    def test_ring_sites_are_credited_per_scenario(self):
        """An earlier site's violation must not zero a later site's
        `survived` column."""
        report = CampaignReport("ring", 1)
        report.credit("ring.sqe", SiteReport(
            injected=9, violations=["seeded by the test"]))
        for site, scenario in CAMPAIGNS["ring"][1:]:
            report.credit(site, _run(scenario, 1))
        assert report.sites["ring.sqe"] == {
            "injected": 9, "survived": 0, "degraded": 0, "failed": 1}
        for name in ("ring.cq", "ring.dispatch"):
            row = report.sites[name]
            assert row["survived"] == row["injected"] > 0, name
        assert len(report.violations) == 1

    def test_disk_campaign_survives_seed_6(self):
        """A rename drawn before any file exists runs as a create; when
        that create fails, only the path it touched is re-read."""
        report = run_campaign("disk", seed=6)[0]
        assert report.ok, report.violations

    def test_seed_sweep_is_clean_and_balanced(self):
        """Every scenario that draws from its seed, at many seeds: no
        exception, no violation, and every injection is either survived
        or degraded."""
        seeded = [(site, scenario)
                  for campaign in ("disk", "net", "mem", "ring")
                  for site, scenario in CAMPAIGNS[campaign]
                  if site != "disk.crash"]
        runs = [(seed, site, scenario) for seed in range(1, 31)
                for site, scenario in seeded]
        partition = dict(CAMPAIGNS["cluster"])["cluster.link"]
        runs += [(seed, "cluster.link", partition) for seed in range(1, 21)]
        for seed, site, scenario in runs:
            found = _run(scenario, seed)
            assert not found.violations, (seed, site, found.violations)
            report = CampaignReport("sweep", seed)
            report.credit(site, found)
            row = report.sites[site]
            assert row["survived"] + row["degraded"] == row["injected"], \
                (seed, site, row)

    def test_cli_exit_codes(self):
        from repro.__main__ import main

        assert main(["faults", "--campaign", "mem", "--seed", "1"]) == 0
        assert main(["faults", "--campaign", "mem", "--seed", "3",
                     "--check-determinism"]) == 0

    def test_cli_help_lists_every_campaign(self, capsys):
        """`faults --campaign` takes its choices from `CAMPAIGNS`, which
        the CLI imports only when `faults` is the subcommand."""
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["faults", "--help"])
        assert "{" + ",".join([*CAMPAIGNS, "all"]) + "}" in \
            capsys.readouterr().out
