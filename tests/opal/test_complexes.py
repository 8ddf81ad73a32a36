"""Unit tests for molecular complex descriptors."""

import math

import pytest

from repro.errors import WorkloadError
from repro.opal.complexes import (
    LARGE,
    MEDIUM,
    SMALL,
    ComplexSpec,
    get_complex,
)


def test_paper_medium_statistics():
    # Antennapedia/DNA: 1575 atoms + 2714 waters = 4289 mass centers
    assert MEDIUM.protein_atoms == 1575
    assert MEDIUM.waters == 2714
    assert MEDIUM.n == 4289
    assert MEDIUM.gamma == pytest.approx(2714 / 4289)


def test_paper_large_statistics():
    # LFB homeodomain: 1655 atoms + 4634 waters = 6289 mass centers
    assert LARGE.n == 6289
    assert LARGE.gamma == pytest.approx(4634 / 6289)


def test_explicit_water_triples_solvent_sites():
    assert MEDIUM.n_explicit == 1575 + 3 * 2714
    assert MEDIUM.mass_centers(united_water=False) == MEDIUM.n_explicit
    assert MEDIUM.mass_centers(united_water=True) == MEDIUM.n


def test_size_ordering():
    assert SMALL.n < MEDIUM.n < LARGE.n


def test_validation():
    with pytest.raises(WorkloadError):
        ComplexSpec("bad", protein_atoms=1, waters=10)
    with pytest.raises(WorkloadError):
        ComplexSpec("bad", protein_atoms=10, waters=-1)
    with pytest.raises(WorkloadError):
        ComplexSpec("bad", protein_atoms=10, waters=10, density=0.0)


def test_volume_and_box_consistent_with_density():
    assert MEDIUM.volume == pytest.approx(MEDIUM.n / MEDIUM.density)
    assert MEDIUM.box_edge**3 == pytest.approx(MEDIUM.volume)


def test_n_tilde_scales_with_cutoff_cubed():
    assert MEDIUM.n_tilde(20.0) == pytest.approx(8 * MEDIUM.n_tilde(10.0))


def test_n_tilde_no_cutoff_is_infinite():
    assert math.isinf(MEDIUM.n_tilde(None))
    # so is a cutoff whose cube overflows: that sphere holds every pair
    for cutoff in (1e103, 1e200, 1.7976931348623157e308):
        assert math.isinf(MEDIUM.n_tilde(cutoff))


def test_n_tilde_invalid_cutoff():
    with pytest.raises(WorkloadError):
        MEDIUM.n_tilde(-1.0)


def test_effective_vs_ineffective_cutoff():
    # the paper's contrast: 10 A effective, 60 A ineffective
    for spec in (SMALL, MEDIUM, LARGE):
        assert spec.cutoff_effective(10.0)
        assert not spec.cutoff_effective(60.0)


def test_active_pairs_saturate_at_all_pairs():
    all_pairs = MEDIUM.n * (MEDIUM.n - 1) / 2
    assert MEDIUM.active_pairs(None) == all_pairs
    assert MEDIUM.active_pairs(60.0) == all_pairs
    assert MEDIUM.active_pairs(10.0) < all_pairs


def test_named_lookup():
    assert get_complex("medium") is MEDIUM
    with pytest.raises(WorkloadError):
        get_complex("gigantic")
