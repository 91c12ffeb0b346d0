"""Tests for the ``python -m repro.bench`` experiment runner."""

import json
import math
from types import SimpleNamespace

import pytest

import repro.bench.__main__ as bench_main
from repro.bench.__main__ import EXPERIMENTS, main
from repro.obs.artifact import load_artifact, validate_artifact


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for key in EXPERIMENTS:
            assert key in out

    def test_unknown_experiment_rejected(self, capsys):
        assert main(["figxx"]) == 2
        err = capsys.readouterr().err
        assert "unknown" in err

    def test_runs_selected_experiment(self, capsys):
        assert main(["a4"]) == 0
        out = capsys.readouterr().out
        assert "fast persistence" in out
        assert "speedup" in out

    def test_experiment_registry_covers_all_figures(self):
        assert {"fig1", "fig2", "fig3", "fig6", "fig7", "fig8",
                "s9"} <= set(EXPERIMENTS)
        assert {"a1", "a2", "a3", "a4", "a5", "a6"} <= set(EXPERIMENTS)


class TestJsonOut:
    def test_writes_valid_artifact(self, tmp_path, capsys):
        path = tmp_path / "BENCH_test.json"
        assert main(["a4", "--json-out", str(path)]) == 0
        out = capsys.readouterr().out
        assert "artifact" in out
        document = load_artifact(str(path))
        assert validate_artifact(document) == []
        assert "a4" in document["experiments"]
        entry = document["experiments"]["a4"]
        assert entry["wall_clock_s"] >= 0
        assert entry["parts"]

    def test_provenance_recorded(self, tmp_path):
        path = tmp_path / "art.json"
        main(["a4", "--json-out", str(path)])
        provenance = load_artifact(str(path))["provenance"]
        assert provenance["argv"][0] == "a4"
        assert provenance["workload_seed"] == 13


class TestCheck:
    def test_pass_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "art.json"
        main(["a4", "fig7", "--json-out", str(path)])
        capsys.readouterr()
        assert main(["--check", str(path)]) == 0
        out = capsys.readouterr().out
        assert "passed" in out and "skipped" in out

    def test_failed_claim_exit_one(self, tmp_path, capsys):
        path = tmp_path / "art.json"
        main(["fig7", "--json-out", str(path)])
        document = json.loads(path.read_text())
        # Invert the host-cycles-saved result so F7 claims fail.
        values = document["experiments"]["fig7"]["parts"]["rdma"][
            "values"]
        for key in list(values):
            values[key] = 0.01
        path.write_text(json.dumps(document))
        capsys.readouterr()
        assert main(["--check", str(path)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_bad_artifact_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{\"schema\": \"nope\"}")
        assert main(["--check", str(path)]) == 2
        assert "artifact" in capsys.readouterr().err


class TestCompare:
    def test_identical_files_no_regressions(self, tmp_path, capsys):
        path = tmp_path / "art.json"
        main(["a4", "--json-out", str(path)])
        capsys.readouterr()
        assert main(["--compare", str(path), str(path)]) == 0
        assert "0 regressions" in capsys.readouterr().out

    def test_regression_exit_one(self, tmp_path, capsys):
        baseline = tmp_path / "base.json"
        main(["a4", "--json-out", str(baseline)])
        candidate = tmp_path / "cand.json"
        document = json.loads(baseline.read_text())
        parts = document["experiments"]["a4"]["parts"]
        part = next(iter(parts.values()))
        metric = next(iter(part["values"]))
        part["values"][metric] *= 10.0
        candidate.write_text(json.dumps(document))
        capsys.readouterr()
        assert main(["--compare", str(baseline), str(candidate)]) == 1
        assert "regression" in capsys.readouterr().out

    def test_too_many_paths_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "art.json"
        main(["a4", "--json-out", str(path)])
        assert main(["--compare", str(path), str(path),
                     str(path)]) == 2

    def test_run_then_compare_against_baseline(self, tmp_path,
                                               capsys):
        baseline = tmp_path / "base.json"
        main(["a4", "--json-out", str(baseline)])
        capsys.readouterr()
        assert main(["a4", "--compare", str(baseline)]) == 0
        assert "0 regressions" in capsys.readouterr().out


class TestExactGate:
    """--compare and --identity judge every simulated value exactly."""

    @pytest.fixture(scope="class")
    def baseline(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("gate") / "base.json"
        assert main(["a4", "a6", "--json-out", str(path)]) == 0
        return path

    @staticmethod
    def _variant(baseline, tmp_path, mutate):
        document = json.loads(baseline.read_text())
        mutate(document)
        path = tmp_path / "variant.json"
        path.write_text(json.dumps(document))
        return path

    @staticmethod
    def _judge(flag, baseline, candidate, capsys):
        capsys.readouterr()
        code = main([flag, str(baseline), str(candidate)])
        return code, capsys.readouterr().out

    def test_one_ulp_drift_fails_and_names_its_path(
            self, baseline, tmp_path, capsys):
        def nudge(document):
            values = document["experiments"]["a4"]["parts"][
                "persistence"]["values"]
            values["speedup"] = math.nextafter(values["speedup"],
                                               math.inf)
        candidate = self._variant(baseline, tmp_path, nudge)
        for flag in ("--compare", "--identity"):
            code, out = self._judge(flag, baseline, candidate, capsys)
            assert code == 1
            assert "a4.persistence.speedup" in out

    def test_changed_string_fails(self, baseline, tmp_path, capsys):
        def relabel(document):
            document["experiments"]["a6"]["parts"]["fusion"][
                "x_label"] += "_renamed"
        candidate = self._variant(baseline, tmp_path, relabel)
        for flag in ("--compare", "--identity"):
            code, out = self._judge(flag, baseline, candidate, capsys)
            assert code == 1
            assert "a6.fusion.x_label" in out

    def test_dropped_experiment_fails(self, baseline, tmp_path,
                                      capsys):
        def drop(document):
            del document["experiments"]["a6"]
        candidate = self._variant(baseline, tmp_path, drop)
        for flag in ("--compare", "--identity"):
            code, out = self._judge(flag, baseline, candidate, capsys)
            assert code == 1
            assert "disappeared" in out

    def test_provenance_only_differences_pass(self, baseline,
                                              tmp_path, capsys):
        def restamp(document):
            document["provenance"].update(
                git_dirty=not document["provenance"]["git_dirty"],
                git_sha="0" * 40, python="0.0.0",
                argv=["--jobs", "4"])
        candidate = self._variant(baseline, tmp_path, restamp)
        for flag in ("--compare", "--identity"):
            code, out = self._judge(flag, baseline, candidate, capsys)
            assert code == 0, out
            assert "0 regressions" in out

    def test_subset_run_judges_only_its_experiments(
            self, baseline, tmp_path, capsys):
        capsys.readouterr()
        assert main(["a6", "--compare", str(baseline)]) == 0
        assert "0 regressions" in capsys.readouterr().out

        def nudge(document):
            row = document["experiments"]["a6"]["parts"]["fusion"][
                "rows"][0]["values"]
            name = next(iter(row))
            row[name] = math.nextafter(row[name], math.inf)
        mutated = self._variant(baseline, tmp_path, nudge)
        assert main(["a6", "--compare", str(mutated)]) == 1


class TestProfile:
    def test_hotspot_table_printed(self, capsys):
        assert main(["a4", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "hotspots" in out
        assert "cumtime" in out


class TestTraceOut:
    def test_fig8_trace_is_valid(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert main(["fig8", "--trace-out", str(path)]) == 0
        capsys.readouterr()
        events = json.loads(path.read_text())["traceEvents"]
        assert events, "trace is empty"
        spans = [e for e in events if e.get("ph") == "X"]
        categories = {e["cat"] for e in spans}
        assert {"compute", "network", "storage"} <= categories
        ids = {e["args"]["span_id"] for e in spans}
        dangling = [e["name"] for e in spans
                    if e["args"].get("parent_id") is not None
                    and e["args"]["parent_id"] not in ids]
        assert dangling == []


class TestAttrOut:
    def test_writes_attribution_report(self, tmp_path, capsys):
        path = tmp_path / "attr.json"
        assert main(["fig8", "--attr-out", str(path)]) == 0
        out = capsys.readouterr().out
        assert "attribution" in out
        assert "top bottlenecks" in out
        document = json.loads(path.read_text())
        assert document["schema"] == "repro.obs/attr-report"
        entry = document["experiments"]["fig8"]
        assert entry["requests"] > 0
        assert entry["max_conservation_error_s"] <= 1e-9
        assert entry["totals_s"]
        assert entry["top_bottlenecks"]

    def test_no_traceable_experiment_exit_three(self, tmp_path,
                                                capsys):
        path = tmp_path / "attr.json"
        assert main(["a4", "--attr-out", str(path)]) == 3
        err = capsys.readouterr().err
        assert "no traceable" in err
        assert not path.exists()    # probe file cleaned up

    def test_incompatible_with_jobs(self, tmp_path, capsys):
        path = tmp_path / "attr.json"
        assert main(["fig8", "--jobs", "2",
                     "--attr-out", str(path)]) == 2
        assert "incompatible" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, message", [
        ("max_conservation_error_s", 1e-6, "fig8: attribution "
                                           "conservation broken"),
        ("requests", 0, "attribution report is empty"),
    ])
    def test_broken_report_exit_one(self, tmp_path, capsys,
                                    monkeypatch, field, value,
                                    message):
        real = bench_main.build_report

        def broken(pairs):
            entry = real(pairs).to_dict()
            entry[field] = value
            return SimpleNamespace(to_dict=lambda: entry)

        monkeypatch.setattr(bench_main, "build_report", broken)
        path = tmp_path / "attr.json"
        assert main(["fig8", "--attr-out", str(path)]) == 1
        assert message in capsys.readouterr().err


class TestProfilePersisted:
    def test_profile_rows_ride_into_the_artifact(self, tmp_path,
                                                 capsys):
        path = tmp_path / "art.json"
        assert main(["a4", "--profile",
                     "--json-out", str(path)]) == 0
        assert "hotspots" in capsys.readouterr().out
        document = load_artifact(str(path))
        assert validate_artifact(document) == []
        rows = document["experiments"]["a4"]["profile"]
        assert rows
        for row in rows:
            assert set(row) == {"ncalls", "tottime_s", "cumtime_s",
                                "function"}

    def test_profile_rows_are_volatile(self, tmp_path):
        from repro.obs.artifact import strip_volatile

        path = tmp_path / "art.json"
        main(["a4", "--profile", "--json-out", str(path)])
        document = load_artifact(str(path))
        stripped = strip_volatile(document)
        assert "profile" not in stripped["experiments"]["a4"]
        # the original document is untouched (deep copy)
        assert "profile" in document["experiments"]["a4"]
