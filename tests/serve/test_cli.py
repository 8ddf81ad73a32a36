"""The ``python -m repro.serve`` command line."""

import json

import pytest

from repro.serve.cli import main


class TestQuery:
    def test_predict_prints_a_response(self, capsys):
        code = main(["query", "--kind", "predict", "--platform", "j90",
                     "--molecule", "medium", "--servers", "4", "--compact"])
        assert code == 0
        response = json.loads(capsys.readouterr().out)
        assert response["status"] == 200
        assert response["result"]["servers"] == 4

    def test_sweep_returns_the_full_range(self, capsys):
        code = main(["query", "--kind", "sweep", "--servers", "5", "--compact"])
        assert code == 0
        response = json.loads(capsys.readouterr().out)
        assert response["result"]["servers"] == [1, 2, 3, 4, 5]

    def test_platforms_listing(self, capsys):
        code = main(["query", "--kind", "platforms", "--compact"])
        assert code == 0
        response = json.loads(capsys.readouterr().out)
        names = [p["name"] for p in response["result"]["platforms"]]
        assert "j90" in names

    def test_pretty_output_is_the_default(self, capsys):
        assert main(["query", "--kind", "ping"]) == 0
        out = capsys.readouterr().out
        assert "\n  " in out  # indented JSON
        assert json.loads(out)["status"] == 200


class TestQueryFamily:
    """``--spec`` and the opal flags reach the wire; none is dropped."""

    @staticmethod
    def _answer(capsys, *argv):
        code = main(["query", *argv, "--compact"])
        return code, json.loads(capsys.readouterr().out)

    @pytest.fixture
    def collective_spec(self, tmp_path):
        path = tmp_path / "collective.json"
        path.write_text(json.dumps({"family": "collective", "pattern": "broadcast"}))
        return str(path)

    def test_a_spec_file_selects_its_own_family(self, capsys, collective_spec):
        code, response = self._answer(capsys, "--spec", collective_spec, "--servers", "4")
        assert code == 0
        result = response["result"]
        assert result["family"] == "collective" and "molecule" not in result
        assert result["spec"]["pattern"] == "broadcast"
        named = self._answer(capsys, "--family", "collective",
                             "--spec", collective_spec, "--servers", "4")
        assert named == (code, response)

    def test_an_inline_spec_selects_its_own_family(self, capsys):
        code, response = self._answer(
            capsys, "--kind", "sweep", "--servers", "3",
            "--spec", '{"family": "hpl", "matrix_n": 512}')
        assert code == 0
        assert response["result"]["family"] == "hpl"
        assert response["result"]["spec"]["matrix_n"] == 512

    def test_a_spec_naming_another_family_is_an_error(self, collective_spec):
        with pytest.raises(SystemExit) as exc:
            main(["query", "--family", "hpl", "--spec", collective_spec])
        assert "'collective' but 'hpl'" in str(exc.value.code)

    def test_a_spec_naming_no_family_needs_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["query", "--spec", '{"pattern": "broadcast"}'])
        assert "names no workload family" in str(exc.value.code)

    def test_opal_flags_on_another_family_get_the_wire_400(self, capsys):
        code, response = self._answer(
            capsys, "--family", "hpl", "--molecule", "large", "--cutoff", "10")
        assert code == 1
        assert response["status"] == 400
        assert response["error"]["reason"] == "invalid-query"
        assert "['cutoff', 'molecule']" in response["error"]["detail"]

    def test_a_spec_on_the_opal_family_gets_the_wire_400(self, capsys):
        code, response = self._answer(
            capsys, "--family", "opal", "--spec", '{"rounds": 2}')
        assert code == 1
        assert response["status"] == 400
        assert response["error"]["reason"] == "invalid-query"

    def test_unset_opal_flags_take_the_wire_defaults(self, capsys):
        spelled = self._answer(capsys, "--molecule", "medium",
                               "--update-interval", "1", "--steps", "10")
        assert self._answer(capsys) == spelled
        assert spelled[1]["result"]["molecule"] == "medium"


class TestBench:
    def test_nominal_load_passes_assertions(self, capsys):
        code = main(["bench", "--clients", "4", "--requests", "6",
                     "--seed", "0", "--fail-on-shed", "--json"])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["sent"] == 24
        assert result["ok"] == 24
        assert result["shed_rate"] == 0 and result["shed_queue"] == 0

    def test_overload_sheds_and_fails_when_asked(self, capsys):
        args = ["bench", "--clients", "4", "--requests", "30",
                "--load-rate", "500", "--admit-rate", "20", "--burst", "3",
                "--seed", "0", "--json"]
        assert main(args) == 0  # shedding alone is not a failure
        result = json.loads(capsys.readouterr().out)
        assert result["shed_rate"] > 0
        assert main(args + ["--fail-on-shed"]) == 1

    def test_shed_ids_are_reproducible(self, capsys):
        args = ["bench", "--clients", "4", "--requests", "30",
                "--load-rate", "500", "--admit-rate", "20", "--burst", "3",
                "--seed", "9", "--json"]
        main(args)
        first = json.loads(capsys.readouterr().out)
        main(args)
        second = json.loads(capsys.readouterr().out)
        assert first["shed_ids"] == second["shed_ids"]
        assert first["shed_ids"]  # the overload actually shed something

    def test_responses_digest_matches_across_batch_sizes(self, capsys):
        base = ["bench", "--clients", "4", "--requests", "6", "--seed", "3",
                "--family-mix", "collective=0.3,hpl=0.2,opal=0.5", "--json"]

        def digest(*extra):
            assert main(base + list(extra)) == 0
            return json.loads(capsys.readouterr().out)["responses_sha256"]

        batched = digest("--sweep-fraction", "0.5")
        assert len(batched) == 64
        assert digest("--sweep-fraction", "0.5", "--max-batch", "1") == batched
        assert digest("--sweep-fraction", "0") != batched  # it digests the answers

    def test_impossible_p99_budget_fails(self):
        assert main(["bench", "--clients", "2", "--requests", "4",
                     "--p99-budget", "1e-12"]) == 1

    def test_human_readable_report(self, capsys):
        assert main(["bench", "--clients", "2", "--requests", "4"]) == 0
        out = capsys.readouterr().out
        assert "throughput" in out and "p99" in out


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_bench_has_no_trace_export(self, capsys):
        # the flight ring (--store-out, then obs query) is the serve record
        with pytest.raises(SystemExit):
            main(["bench", "--trace-out", "x.json"])
        assert "--trace-out" in capsys.readouterr().err

    def test_main_module_is_importable(self):
        import repro.serve.__main__  # noqa: F401  (must not run the CLI)
