"""The cluster fault campaign: clean, deterministic, and wired in."""

import pytest

from repro.faults import run_campaign
from repro.faults.campaign import CAMPAIGNS, summary_text


@pytest.fixture(scope="module")
def seed_1_reports():
    return run_campaign("cluster", seed=1)


def test_cluster_campaign_is_registered(seed_1_reports):
    assert "cluster" in CAMPAIGNS
    assert [r.name for r in seed_1_reports] == ["cluster"]


def test_cluster_campaign_survives_seed_1(seed_1_reports):
    report = seed_1_reports[0]
    assert report.ok, report.violations
    # every scenario must actually have injected something
    assert report.sites["cluster.node"]["injected"] >= 1
    assert report.sites["cluster.link"]["injected"] >= 1
    assert report.sites["cluster.repl"]["injected"] >= 1
    # and nothing may be lost to the attack
    assert all(row["failed"] == 0 for row in report.sites.values())


def test_cluster_campaign_is_deterministic():
    first = run_campaign("cluster", seed=3)
    assert first[0].ok, first[0].violations
    assert summary_text(first) == summary_text(run_campaign("cluster", seed=3))


def test_cluster_campaign_rides_along_in_all():
    # `--campaign all` must include the cluster target
    assert "cluster" in CAMPAIGNS
