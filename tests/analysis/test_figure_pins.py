"""Figures 1, 2 and 4 reproduce their committed numbers bit for bit.

The measured figures run through the campaign executor with
content-derived per-cell seeds, so every jittered measurement — and the
calibration fitted to them — is a pure function of the cell.  The
literals below are the values committed in ``benchmarks/out``
(``FIG1_breakdown_medium.json``, ``FIG2_breakdown_large.json``,
``FIG4_calibration.json``); any change to cell identity, seeding,
measurement or fitting moves them.  Server subsets of a panel are
measured on their own: a cell's result does not depend on its design
neighbours.
"""

import pytest

from repro.analysis.figures import figure4_calibration, figure_breakdown
from repro.opal.complexes import LARGE, MEDIUM

FIG1 = {
    ("a", 1): 64.07120486473967,
    ("a", 4): 23.19533570237526,
    ("a", 7): 18.876962345389117,
    ("b", 1): 63.09813415435665,
    ("b", 4): 21.00205266914602,
    ("b", 7): 15.564274159966779,
    ("c", 1): 7.731930146141326,
    ("c", 4): 7.511292537664003,
    ("c", 7): 10.705009489916916,
    ("d", 1): 6.726870155180114,
    ("d", 4): 5.421601801778037,
    ("d", 7): 7.378041092934319,
}
FIG1_COMM_SHARE_A7 = 0.48905467403878833

FIG2 = {1: 138.14990685069665, 4: 45.60952007136041, 7: 32.844037731241635}
FIG2_LARGE_VS_MEDIUM = 2.15619336552737

FIG4_MEAN_RELATIVE_ERROR = 0.033087298163742125
FIG4_R2 = {
    "comm": 0.999947299123049,
    "nbint": 0.9999994105392718,
    "seq_comp": 0.9999586668043899,
    "sync": 1.0,
    "update": 0.999999686082648,
}


@pytest.fixture(scope="module")
def medium():
    return figure_breakdown(MEDIUM, servers=(1, 4, 7))


def test_fig1_medium_breakdown_is_pinned(medium):
    got = {(key, p): medium[key][p].total for key, p in FIG1}
    assert got == FIG1
    panel_a_p7 = medium["a"][7]
    assert panel_a_p7.comm / panel_a_p7.total == FIG1_COMM_SHARE_A7


def test_fig2_large_breakdown_is_pinned(medium):
    large = figure_breakdown(LARGE, servers=(1, 4, 7))
    assert {p: large["a"][p].total for p in FIG2} == FIG2
    assert large["a"][1].total / medium["a"][1].total == FIG2_LARGE_VS_MEDIUM


def test_fig4_calibration_is_pinned():
    result, rows = figure4_calibration()
    assert len(rows) == 28
    assert result.mean_relative_error() == FIG4_MEAN_RELATIVE_ERROR
    assert result.r2 == FIG4_R2
