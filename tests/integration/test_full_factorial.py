"""The paper's complete 84-experiment campaign, run end to end.

The published charts use the reduced design; the paper states the data
"was achieved with a full factorial design of 84 experiments".  We run
all 84 on the simulated J90 and check the global properties the paper
reports from them.
"""

import numpy as np
import pytest

from repro.core.calibration import calibrate, residual_table
from repro.experiments import full_design
from repro.platforms import CRAY_J90
from repro.workloads.campaign import run_workload_design


@pytest.fixture(scope="module")
def records():
    records, _ = run_workload_design(
        full_design(), CRAY_J90, jitter_sigma=0.004, base_seed=11
    )
    return records


def factors(record):
    app = record.cell.app
    return (app.molecule.name, app.servers, app.cutoff, app.update_interval)


def test_all_84_cases_complete(records):
    assert len(records) == 84
    assert all(r.breakdown.total > 0 for r in records)


def test_calibration_on_full_design(records):
    observations = [r.observation() for r in records]
    result = calibrate(observations, name="j90-full-84")
    # the full design is strictly more informative than the fraction
    assert result.mean_relative_error() < 0.06
    assert all(r2 > 0.999 for r2 in result.r2.values())
    rows = residual_table(result, observations)
    rel = np.array([abs(r["relative_error"]) for r in rows])
    assert np.percentile(rel, 90) < 0.10


def test_problem_size_ordering_everywhere(records):
    """Larger complexes never run faster at identical settings."""
    by_key = {factors(r): r.breakdown.total for r in records}
    for servers in range(1, 8):
        for cutoff in (None, 10.0):
            for interval in (1, 10):
                small = by_key[("small", servers, cutoff, interval)]
                medium = by_key[("medium", servers, cutoff, interval)]
                large = by_key[("large", servers, cutoff, interval)]
                assert small < medium < large


def test_cutoff_always_helps(records):
    by_key = {factors(r): r.breakdown.total for r in records}
    for name in ("small", "medium", "large"):
        for servers in range(1, 8):
            for interval in (1, 10):
                with_cut = by_key[(name, servers, 10.0, interval)]
                without = by_key[(name, servers, None, interval)]
                assert with_cut <= without * 1.001


def test_even_p_idle_excess_is_systematic(records):
    """The anomaly holds across the whole campaign, not one chart."""
    idle_by_parity = {0: [], 1: []}
    for r in records:
        app = r.cell.app
        if app.cutoff is None and app.servers >= 2:
            frac = r.breakdown.idle / r.breakdown.total
            idle_by_parity[app.servers % 2].append(frac)
    even = np.mean(idle_by_parity[0])
    odd = np.mean(idle_by_parity[1])
    assert even > 2.5 * odd
