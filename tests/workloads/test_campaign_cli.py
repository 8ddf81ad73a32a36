"""``python -m repro campaign``: a ``--spec`` picks its study or fails."""

import json

import pytest

from repro.__main__ import main
from repro.errors import WorkloadError


def _spec_file(tmp_path, **data):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_a_spec_file_selects_its_own_family(tmp_path, capsys):
    spec = _spec_file(tmp_path, family="collective", pattern="broadcast")
    assert main(["campaign", "--spec", spec, "--servers", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("=== workload campaign: collective on j90 ===")
    assert "collective:pattern=broadcast/p=2" in out


def test_a_spec_naming_another_family_is_an_error(tmp_path):
    spec = _spec_file(tmp_path, family="collective")
    with pytest.raises(WorkloadError, match="'collective' but 'hpl'"):
        main(["campaign", "--workload", "hpl", "--spec", spec, "--servers", "2"])


@pytest.mark.parametrize(
    "argv, data",
    [([], {"family": "opal"}), (["--workload", "opal"], {"steps": 3})],
)
def test_the_opal_study_takes_no_spec(tmp_path, argv, data):
    spec = _spec_file(tmp_path, **data)
    with pytest.raises(WorkloadError, match="opal study takes no --spec"):
        main(["campaign", *argv, "--spec", spec, "--servers", "2"])
