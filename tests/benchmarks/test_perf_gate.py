"""Tests for the benchmark emission layer and the perf-regression gate.

Covers the two robustness guarantees of ``benchmarks/_emit.py`` (atomic
writes, schema tagging) and the comparison semantics of
``benchmarks/check_regression.py`` (direction inferred from units,
tolerance, advisory vs strict exit codes, structural errors).
"""

import importlib.util
import json
import pathlib
import sys

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, BENCH_DIR / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    # check_regression does `from _emit import ...`; make it resolvable
    sys.path.insert(0, str(BENCH_DIR))
    try:
        spec.loader.exec_module(mod)
    finally:
        sys.path.remove(str(BENCH_DIR))
    return mod


emit_mod = _load("_emit")
gate = _load("check_regression")


def write_payload(path, records, experiment="PERF_x", schema=emit_mod.SCHEMA):
    payload = {"schema": schema, "experiment": experiment, "records": records}
    path.write_text(json.dumps(payload))


def rec(name, metric, value, units):
    return {"name": name, "metric": metric, "value": value, "units": units}


# ----------------------------------------------------------------------
# _emit: atomic write + schema validation
# ----------------------------------------------------------------------
def test_emit_roundtrips_through_load(tmp_path, monkeypatch):
    monkeypatch.setattr(emit_mod, "OUT_DIR", tmp_path)
    path = emit_mod.emit("PERF_demo", [rec("a", "rate", 10.0, "events/s")])
    payload = emit_mod.load(path)
    assert payload["schema"] == emit_mod.SCHEMA
    assert payload["experiment"] == "PERF_demo"
    assert payload["records"] == [rec("a", "rate", 10.0, "events/s")]
    # no temp droppings left behind
    assert list(tmp_path.glob(".*.tmp")) == []


def test_emit_rejects_incomplete_records(tmp_path, monkeypatch):
    monkeypatch.setattr(emit_mod, "OUT_DIR", tmp_path)
    with pytest.raises(ValueError, match="missing"):
        emit_mod.emit("PERF_demo", [{"name": "a", "metric": "m"}])
    with pytest.raises(ValueError, match="at least one"):
        emit_mod.emit("PERF_demo", [])


def test_load_rejects_torn_file(tmp_path):
    torn = tmp_path / "torn.json"
    torn.write_text('{"schema": "repro-bench/1", "experiment": "x", "rec')
    with pytest.raises(ValueError, match="torn or corrupt"):
        emit_mod.load(torn)


def test_load_rejects_wrong_schema(tmp_path):
    p = tmp_path / "old.json"
    write_payload(p, [rec("a", "m", 1.0, "s")], schema="repro-bench/0")
    with pytest.raises(ValueError, match="schema tag"):
        emit_mod.load(p)


def test_load_rejects_untagged_legacy_file(tmp_path):
    p = tmp_path / "legacy.json"
    p.write_text(json.dumps({"experiment": "x", "records": []}))
    with pytest.raises(ValueError, match="schema tag"):
        emit_mod.load(p)


# ----------------------------------------------------------------------
# check_regression: comparison semantics
# ----------------------------------------------------------------------
@pytest.fixture()
def dirs(tmp_path):
    base = tmp_path / "baselines"
    out = tmp_path / "out"
    base.mkdir()
    out.mkdir()
    return base, out


def run_gate(base, out, *extra):
    return gate.main([*extra, "--baselines", str(base), "--out", str(out)])


def test_direction_from_units():
    assert gate.higher_is_better("events/s")
    assert gate.higher_is_better("configs/s")
    assert not gate.higher_is_better("s")
    assert not gate.higher_is_better("bytes")


def test_rate_drop_is_a_regression(dirs, capsys):
    base, out = dirs
    write_payload(base / "PERF_a.json", [rec("x", "rate", 100.0, "events/s")])
    write_payload(out / "PERF_a.json", [rec("x", "rate", 50.0, "events/s")])
    assert run_gate(base, out) == 1
    assert "REGRESSED" in capsys.readouterr().out


def test_time_rise_is_a_regression(dirs):
    base, out = dirs
    write_payload(base / "PERF_a.json", [rec("x", "host", 1.0, "s")])
    write_payload(out / "PERF_a.json", [rec("x", "host", 1.5, "s")])
    assert run_gate(base, out) == 1


def test_faster_in_both_directions_passes(dirs, capsys):
    base, out = dirs
    write_payload(
        base / "PERF_a.json",
        [rec("x", "rate", 100.0, "events/s"), rec("x", "host", 1.0, "s")],
    )
    write_payload(
        out / "PERF_a.json",
        [rec("x", "rate", 250.0, "events/s"), rec("x", "host", 0.5, "s")],
    )
    assert run_gate(base, out) == 0
    assert "improved" in capsys.readouterr().out


def test_within_tolerance_passes(dirs):
    base, out = dirs
    write_payload(base / "PERF_a.json", [rec("x", "host", 1.0, "s")])
    write_payload(out / "PERF_a.json", [rec("x", "host", 1.10, "s")])
    assert run_gate(base, out) == 0  # 10% < 15% default tolerance


def test_tolerance_flag_tightens_gate(dirs):
    base, out = dirs
    write_payload(base / "PERF_a.json", [rec("x", "host", 1.0, "s")])
    write_payload(out / "PERF_a.json", [rec("x", "host", 1.10, "s")])
    assert run_gate(base, out, "--tolerance", "0.05") == 1


def test_advisory_mode_reports_but_passes(dirs, capsys):
    base, out = dirs
    write_payload(base / "PERF_a.json", [rec("x", "host", 1.0, "s")])
    write_payload(out / "PERF_a.json", [rec("x", "host", 9.0, "s")])
    assert run_gate(base, out, "--advisory") == 0
    out_text = capsys.readouterr().out
    assert "REGRESSED" in out_text
    assert "advisory" in out_text


def test_missing_measurement_is_structural(dirs):
    base, out = dirs
    write_payload(base / "PERF_a.json", [rec("x", "host", 1.0, "s")])
    assert run_gate(base, out) == 2


def test_units_change_is_structural(dirs):
    base, out = dirs
    write_payload(base / "PERF_a.json", [rec("x", "host", 1.0, "s")])
    write_payload(out / "PERF_a.json", [rec("x", "host", 1.0, "ms")])
    assert run_gate(base, out) == 2


def test_unknown_experiment_is_structural(dirs):
    base, out = dirs
    write_payload(base / "PERF_a.json", [rec("x", "host", 1.0, "s")])
    write_payload(out / "PERF_a.json", [rec("x", "host", 1.0, "s")])
    assert run_gate(base, out, "PERF_nonexistent") == 2


def test_selecting_one_experiment(dirs):
    base, out = dirs
    write_payload(base / "PERF_ok.json", [rec("x", "host", 1.0, "s")])
    write_payload(out / "PERF_ok.json", [rec("x", "host", 1.0, "s")])
    write_payload(base / "PERF_bad.json", [rec("x", "host", 1.0, "s")])
    write_payload(out / "PERF_bad.json", [rec("x", "host", 9.0, "s")])
    assert run_gate(base, out, "PERF_ok") == 0
    assert run_gate(base, out, "PERF_bad") == 1


def test_committed_baselines_are_schema_tagged():
    # the real committed baselines and outputs must always load cleanly
    baselines = sorted((BENCH_DIR / "baselines").glob("*.json"))
    outputs = sorted((BENCH_DIR / "out").glob("*.json"))
    assert baselines, "no committed baselines found"
    assert outputs, "no committed outputs found"
    for p in baselines + outputs:
        payload = emit_mod.load(p)
        assert payload["records"], p


# ----------------------------------------------------------------------
# check_regression: --store mode
# ----------------------------------------------------------------------
def store_with(tmp_path, experiment, records):
    from repro.obs.ingest import ingest_bench_payload
    from repro.obs.store import TelemetryStore

    root = tmp_path / "telemetry"
    payload = {"schema": emit_mod.SCHEMA, "experiment": experiment,
               "records": records}
    ingest_bench_payload(TelemetryStore(root), payload)
    return root


def test_store_mode_reads_fresh_measurements(dirs, tmp_path):
    base, out = dirs
    write_payload(base / "PERF_a.json", [rec("x", "rate", 100.0, "events/s")])
    store = store_with(tmp_path, "PERF_a", [rec("x", "rate", 101.0, "events/s")])
    # no out/ file at all: the store is the only source, and it passes
    assert run_gate(base, out, "--store", str(store)) == 0


def test_store_mode_detects_regression(dirs, tmp_path):
    base, out = dirs
    write_payload(base / "PERF_a.json", [rec("x", "rate", 100.0, "events/s")])
    store = store_with(tmp_path, "PERF_a", [rec("x", "rate", 50.0, "events/s")])
    assert run_gate(base, out, "--store", str(store)) == 1


def test_store_mode_falls_back_to_files(dirs, tmp_path):
    base, out = dirs
    write_payload(base / "PERF_a.json", [rec("x", "rate", 100.0, "events/s")])
    write_payload(out / "PERF_a.json", [rec("x", "rate", 100.0, "events/s")])
    # a store that exists but has never seen PERF_a -> file fallback
    store = store_with(tmp_path, "PERF_other", [rec("y", "m", 1.0, "s")])
    assert run_gate(base, out, "--store", str(store)) == 0
    # a store directory that does not exist at all -> file fallback too
    assert run_gate(base, out, "--store", str(tmp_path / "nope")) == 0


def test_store_mode_uses_latest_emission(dirs, tmp_path):
    from repro.obs.ingest import ingest_bench_payload
    from repro.obs.store import TelemetryStore

    base, out = dirs
    write_payload(base / "PERF_a.json", [rec("x", "rate", 100.0, "events/s")])
    root = tmp_path / "telemetry"
    store = TelemetryStore(root)
    for value in (40.0, 110.0):  # stale regression, then a fresh pass
        ingest_bench_payload(
            store,
            {"schema": emit_mod.SCHEMA, "experiment": "PERF_a",
             "records": [rec("x", "rate", value, "events/s")]},
        )
    assert run_gate(base, out, "--store", str(root)) == 0
