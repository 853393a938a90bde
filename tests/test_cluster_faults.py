"""The cluster fault campaign: clean, deterministic, and wired in."""

from repro.faults import run_campaign
from repro.faults.campaign import CAMPAIGNS, summary_text


def test_cluster_campaign_is_registered():
    assert "cluster" in CAMPAIGNS
    reports = run_campaign("cluster", seed=1)
    assert [r.name for r in reports] == ["cluster"]


def test_cluster_campaign_survives_seed_1():
    report = run_campaign("cluster", seed=1)[0]
    assert report.ok, report.violations
    # every scenario must actually have injected something
    assert report.sites["cluster.node"].injected >= 1
    assert report.sites["cluster.link"].injected >= 1
    assert report.sites["cluster.repl"].injected >= 1
    # and nothing may be lost to the attack
    assert all(site.failed == 0 for site in report.sites.values())


def test_cluster_campaign_is_deterministic():
    first = summary_text(run_campaign("cluster", seed=3))
    second = summary_text(run_campaign("cluster", seed=3))
    assert first == second


def test_cluster_campaign_rides_along_in_all():
    # `--campaign all` must include the cluster target
    assert "cluster" in CAMPAIGNS
