"""Tests for the performance ledger: records, fingerprints, the gate."""

import json

import pytest

from repro.obs.ledger import (
    LEDGER_SCHEMA,
    FingerprintMismatch,
    Ledger,
    LedgerEntry,
    collect_fingerprint,
    compare_entries,
    entry_from_bench_document,
    entry_from_timers,
    fingerprint_digest,
    flatten_metrics,
    gate_run,
    main,
    resolve_ledger,
)

#: A fixed fingerprint so tests never shell out to git per entry.
FP = {
    "git_commit": "deadbeef",
    "code": "cafe",
    "page_size": 512,
    "scale": 100,
    "seed": 1,
    "workers": 1,
}


def make_entry(build=1.0, query=2.0, fingerprint=None, totals=None, label="run"):
    return entry_from_timers(
        label=label,
        source="test",
        kind="pam",
        timers={"GRID/build": build, "GRID/queries": query},
        totals=totals,
        page_size=512,
        scale=100,
        seed=1,
        fingerprint=fingerprint or FP,
    )


class TestEntry:
    def test_round_trip(self):
        entry = make_entry()
        clone = LedgerEntry.from_dict(entry.to_dict())
        assert clone.to_dict() == entry.to_dict()
        assert clone.digest == entry.digest

    def test_rejects_wrong_schema(self):
        data = make_entry().to_dict()
        data["schema"] = "bogus/v9"
        with pytest.raises(ValueError, match="schema"):
            LedgerEntry.from_dict(data)

    def test_rejects_missing_fields(self):
        data = make_entry().to_dict()
        del data["metrics"]
        with pytest.raises(ValueError, match="metrics"):
            LedgerEntry.from_dict(data)

    def test_schema_constant(self):
        assert make_entry().to_dict()["schema"] == LEDGER_SCHEMA


class TestFingerprint:
    def test_digest_ignores_key_order(self):
        reordered = dict(reversed(list(FP.items())))
        assert fingerprint_digest(FP) == fingerprint_digest(reordered)

    def test_digest_separates_configurations(self):
        assert fingerprint_digest(FP) != fingerprint_digest({**FP, "scale": 200})
        assert fingerprint_digest(FP) != fingerprint_digest({**FP, "workers": 4})

    def test_collect_carries_commit_and_code(self):
        fp = collect_fingerprint(page_size=512, scale=10, seed=3, workers=2)
        assert set(fp) == set(FP)
        assert fp["workers"] == 2
        assert fp["code"]  # the build cache's source hash


class TestRecordAndRead:
    def test_record_assigns_distinct_run_ids(self, tmp_path):
        ledger = Ledger(tmp_path / "L.jsonl")
        a = ledger.record(make_entry())
        b = ledger.record(make_entry())
        assert a.run_id and b.run_id and a.run_id != b.run_id
        entries, problems = ledger.read()
        assert [e.run_id for e in entries] == [a.run_id, b.run_id]
        assert problems == []

    def test_records_are_single_lines(self, tmp_path):
        ledger = Ledger(tmp_path / "L.jsonl")
        ledger.record(make_entry())
        ledger.record(make_entry())
        lines = (tmp_path / "L.jsonl").read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            json.loads(line)

    def test_missing_file_reads_empty(self, tmp_path):
        assert Ledger(tmp_path / "absent.jsonl").read() == ([], [])

    def test_torn_trailing_line_skipped_and_reported(self, tmp_path):
        ledger = Ledger(tmp_path / "L.jsonl")
        kept = ledger.record(make_entry())
        with (tmp_path / "L.jsonl").open("a") as fh:
            fh.write('{"schema": "repro.obs/ledger/v1", "label"')  # torn write
        entries, problems = ledger.read()
        assert [e.run_id for e in entries] == [kept.run_id]
        assert len(problems) == 1 and "line 2" in problems[0]

    def test_get_by_prefix(self, tmp_path):
        ledger = Ledger(tmp_path / "L.jsonl")
        entry = ledger.record(make_entry())
        assert ledger.get(entry.run_id[:6]).run_id == entry.run_id
        with pytest.raises(KeyError):
            ledger.get("nope")


class TestFlattenAndCompare:
    def test_flatten_paths(self):
        flat = flatten_metrics({"a": 1, "b": {"c": 2.5, "d": {"e": 3}}, "s": "x"})
        assert flat == {"a": 1.0, "b/c": 2.5, "b/d/e": 3.0}

    def test_compare_same_fingerprint(self):
        rows = compare_entries(make_entry(build=1.0), make_entry(build=1.5))
        by_metric = {row["metric"]: row for row in rows}
        assert by_metric["structures/GRID/build_seconds"]["delta_pct"] == 50.0

    def test_refuses_differing_fingerprints(self):
        other = make_entry(fingerprint={**FP, "scale": 999, "workers": 4})
        with pytest.raises(FingerprintMismatch) as exc:
            compare_entries(make_entry(), other)
        assert "scale" in str(exc.value) and "workers" in str(exc.value)


class TestGate:
    def test_identity_passes(self, tmp_path):
        ledger = Ledger(tmp_path / "L.jsonl")
        ledger.record(make_entry())
        ledger.record(make_entry())
        result = gate_run(ledger, max_regression=10)
        assert result.ok and not result.failures

    def test_regression_fails(self, tmp_path):
        ledger = Ledger(tmp_path / "L.jsonl")
        ledger.record(make_entry(build=1.0))
        ledger.record(make_entry(build=3.0))
        result = gate_run(ledger, max_regression=25)
        assert not result.ok
        assert any("build_seconds" in f for f in result.failures)

    def test_improvement_passes(self, tmp_path):
        ledger = Ledger(tmp_path / "L.jsonl")
        ledger.record(make_entry(build=2.0))
        ledger.record(make_entry(build=0.5))
        assert gate_run(ledger, max_regression=25).ok

    def test_only_seconds_metrics_gate(self, tmp_path):
        ledger = Ledger(tmp_path / "L.jsonl")
        slow = make_entry()
        slow.metrics["speedup"] = 1.0
        fast = make_entry()
        fast.metrics["speedup"] = 99.0  # improved ratio must not "regress"
        ledger.record(slow)
        ledger.record(fast)
        assert gate_run(ledger, max_regression=25).ok

    def test_median_of_window_absorbs_one_outlier(self, tmp_path):
        ledger = Ledger(tmp_path / "L.jsonl")
        for build in (1.0, 1.0, 10.0):  # one noisy spike in the history
            ledger.record(make_entry(build=build))
        ledger.record(make_entry(build=1.1))
        assert gate_run(ledger, max_regression=25, window=3).ok

    def test_never_compares_across_fingerprints(self, tmp_path):
        ledger = Ledger(tmp_path / "L.jsonl")
        ledger.record(make_entry(build=0.001))
        ledger.record(make_entry(build=100.0, fingerprint={**FP, "scale": 9}))
        result = gate_run(ledger, max_regression=25)
        assert result.ok  # different fingerprint: no history, nothing to gate
        assert any("no prior runs" in note for note in result.notes)

    def test_empty_ledger_fails(self, tmp_path):
        result = gate_run(Ledger(tmp_path / "L.jsonl"))
        assert not result.ok

    def test_pinned_baseline_overrides_history(self, tmp_path):
        ledger = Ledger(tmp_path / "L.jsonl")
        base = ledger.record(make_entry(build=1.0))
        ledger.record(make_entry(build=50.0))  # would poison the median
        ledger.set_baseline(base.run_id)
        result = gate_run(ledger, max_regression=25)
        assert not result.ok  # latest (50.0) gated against the 1.0 baseline

    def test_totals_drift_fails_outright(self, tmp_path):
        ledger = Ledger(tmp_path / "L.jsonl")
        ledger.record(make_entry(totals={"GRID": {"data_reads": 10}}))
        ledger.record(make_entry(totals={"GRID": {"data_reads": 11}}))
        result = gate_run(ledger, max_regression=1000)
        assert not result.ok
        assert any("drifted" in f for f in result.failures)


class TestResolve:
    def test_explicit_values(self, tmp_path):
        assert resolve_ledger(None) is None
        assert resolve_ledger(False) is None
        assert resolve_ledger("0") is None
        ledger = Ledger(tmp_path / "L.jsonl")
        assert resolve_ledger(ledger) is ledger
        assert resolve_ledger(str(tmp_path / "x.jsonl")).path.name == "x.jsonl"
        # On means the default file — "true" used to append to ./true.
        assert resolve_ledger("true").path == resolve_ledger(True).path == Ledger().path

    def test_env_default(self, tmp_path, monkeypatch, capsys):
        # resolve_ledger takes values; the CLI is what follows REPRO_LEDGER.
        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "env.jsonl"))
        assert resolve_ledger(None) is None
        assert main(["log"]) == 0
        assert "env.jsonl is empty" in capsys.readouterr().out
        assert main(["--ledger", str(tmp_path / "flag.jsonl"), "log"]) == 0
        assert "flag.jsonl is empty" in capsys.readouterr().out


class TestEntryBuilders:
    def test_from_timers_splits_phases(self):
        entry = make_entry(build=1.5, query=0.5)
        structures = entry.metrics["structures"]
        assert structures["GRID"] == {"build_seconds": 1.5, "query_seconds": 0.5}
        assert entry.metrics["total_seconds"] == 2.0

    def test_from_parallel_bench_document(self):
        doc = {
            "schema": "repro.parallel/bench/v1",
            "scale": 100,
            "page_size": 512,
            "workers": 4,
            "parallel_seconds": 3.0,
            "serial_seconds": 9.0,
        }
        entry = entry_from_bench_document(doc)
        assert entry.source == "repro.parallel.bench"
        assert entry.metrics["total_seconds"] == 3.0
        assert entry.fingerprint["workers"] == 4

    def test_inflate_scales_only_seconds(self):
        doc = {
            "schema": "repro.parallel/bench/v1",
            "scale": 100,
            "page_size": 512,
            "workers": 4,
            "parallel_seconds": 1.0,
            "serial_seconds": 2.0,
            "speedup": 2.0,
        }
        entry = entry_from_bench_document(doc, inflate=2.0)
        assert entry.metrics["parallel_seconds"] == 2.0
        assert entry.meta["speedup"] == 2.0  # ratio untouched
        assert entry.meta["inflate"] == 2.0

    def test_unknown_schema_raises(self):
        with pytest.raises(ValueError, match="unrecognised"):
            entry_from_bench_document({"schema": "nope"})


class TestCli:
    def write_bench(self, tmp_path):
        doc = {
            "schema": "repro.parallel/bench/v1",
            "scale": 100,
            "page_size": 512,
            "workers": 4,
            "parallel_seconds": 1.0,
            "serial_seconds": 2.0,
        }
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(doc))
        return path

    def test_record_log_gate_loop(self, tmp_path, capsys):
        ledger_arg = ["--ledger", str(tmp_path / "L.jsonl")]
        bench = self.write_bench(tmp_path)
        assert main([*ledger_arg, "record", str(bench)]) == 0
        assert main([*ledger_arg, "record", str(bench)]) == 0
        assert main([*ledger_arg, "gate", "--max-regression", "25"]) == 0
        assert main([*ledger_arg, "record", str(bench), "--inflate", "2"]) == 0
        assert main([*ledger_arg, "gate", "--max-regression", "75"]) == 2
        out = capsys.readouterr()
        assert "gate: OK" in out.out
        assert "FAIL" in out.err

    def test_log_markdown(self, tmp_path, capsys):
        ledger_arg = ["--ledger", str(tmp_path / "L.jsonl")]
        main([*ledger_arg, "record", str(self.write_bench(tmp_path))])
        assert main([*ledger_arg, "log", "--format", "markdown"]) == 0
        assert "| run | when |" in capsys.readouterr().out

    def test_compare_refuses_cross_fingerprint(self, tmp_path, capsys):
        ledger = Ledger(tmp_path / "L.jsonl")
        a = ledger.record(make_entry())
        b = ledger.record(make_entry(fingerprint={**FP, "scale": 7}))
        code = main(
            ["--ledger", str(ledger.path), "compare", a.run_id, b.run_id]
        )
        assert code == 2
        assert "refusing to compare" in capsys.readouterr().err

    def test_compare_markdown(self, tmp_path, capsys):
        ledger = Ledger(tmp_path / "L.jsonl")
        a = ledger.record(make_entry(build=1.0))
        b = ledger.record(make_entry(build=2.0))
        code = main(
            [
                "--ledger",
                str(ledger.path),
                "compare",
                a.run_id,
                b.run_id,
                "--format",
                "markdown",
            ]
        )
        assert code == 0
        assert "| `structures/GRID/build_seconds` |" in capsys.readouterr().out

    def test_baseline_set_and_show(self, tmp_path, capsys):
        ledger = Ledger(tmp_path / "L.jsonl")
        entry = ledger.record(make_entry())
        args = ["--ledger", str(ledger.path)]
        assert main([*args, "baseline", "set", entry.run_id]) == 0
        assert main([*args, "baseline", "show"]) == 0
        assert entry.run_id in capsys.readouterr().out

    def test_record_unreadable_bench(self, tmp_path, capsys):
        code = main(
            ["--ledger", str(tmp_path / "L.jsonl"), "record", str(tmp_path / "no.json")]
        )
        assert code == 1
