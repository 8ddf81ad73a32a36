"""Unit tests for the paper's parameter space."""


from repro.experiments.cases import (
    CUTOFF_EFFECTIVE,
    breakdown_chart_cases,
    full_design,
    opal_cell,
    paper_factors,
    reduced_design,
)
from repro.opal.complexes import MEDIUM


def factors(cell):
    """(molecule, servers, cutoff, update interval) of one opal cell."""
    app = cell.app
    return (app.molecule.name, app.servers, app.cutoff, app.update_interval)


def test_full_design_is_the_papers_84_experiments():
    cases = full_design()
    assert len(cases) == 84  # 7 servers x 3 sizes x 2 cutoffs x 2 updates


def test_full_design_unique_cells():
    cases = full_design()
    keys = {factors(c) for c in cases}
    assert len(keys) == 84


def test_ineffective_cutoff_maps_to_none():
    cases = full_design()
    cutoffs = {c.app.cutoff for c in cases}
    assert cutoffs == {CUTOFF_EFFECTIVE, None}


def test_reduced_design_is_7_times_half_fraction():
    cases = reduced_design()
    assert len(cases) == 28  # 7 x 2^(3-1)
    for p in range(1, 8):
        assert sum(1 for c in cases if c.servers == p) == 4


def test_reduced_design_subset_of_full():
    # every reduced case (with medium/large sizes) appears in the full design
    full_keys = {factors(c) for c in full_design()}
    for c in reduced_design():
        assert factors(c) in full_keys


def test_reduced_design_balances_factors():
    cases = reduced_design()
    assert sum(1 for c in cases if c.app.molecule is MEDIUM) == 14
    assert sum(1 for c in cases if c.app.cutoff is None) == 14
    assert sum(1 for c in cases if c.app.update_interval == 1) == 14


def test_case_label_and_app():
    case = opal_cell(MEDIUM, 3, cutoff=10.0, update_interval=10)
    assert case.spec.family == "opal"
    assert case.label == "opal:medium/cutoff=10A/update=1/10/p=3"
    app = case.app
    assert app.molecule is MEDIUM
    assert app.servers == 3 and app.cutoff == 10.0 and app.steps == 10


def test_paper_factors_structure():
    factors = paper_factors()
    names = [f.name for f in factors]
    assert names == ["servers", "molecule", "cutoff", "update_interval"]
    assert len(factors[0].levels) == 7


def test_breakdown_chart_cases_four_panels():
    panels = breakdown_chart_cases(MEDIUM, servers=(1, 2, 3))
    assert set(panels) == {"a", "b", "c", "d"}
    assert all(len(v) == 3 for v in panels.values())
    # panel a: no cutoff, full update
    assert panels["a"][0].app.cutoff is None
    assert panels["a"][0].app.update_interval == 1
    # panel d: cutoff + partial update
    assert panels["d"][0].app.cutoff == CUTOFF_EFFECTIVE
    assert panels["d"][0].app.update_interval == 10
