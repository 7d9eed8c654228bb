"""Tests for result export (JSON / CSV)."""

import csv
import io
import json
import os
import time

import pytest

from repro.core import EngineOptions, reinforce, run_engine
from repro.experiments.export import (
    result_to_dict,
    runs_to_rows,
    write_csv,
    write_json,
)
from repro.experiments.runner import MethodRun


def make_runs():
    return [
        MethodRun("AC", "filver", 3, 2, 5, 5, 12, 0.125, False, None),
        MethodRun("WC", "naive", 3, 2, 5, 5, -1, float("inf"), True, None),
        MethodRun("BX", "filver+", 3, 2, 5, 5, 4, 0.5, False, None,
                  interrupted=True),
        MethodRun("SO", "exact", 3, 2, 5, 5, -1, 0.01, False, None,
                  error="Traceback (most recent call last):\n"
                        "  ...\nValueError: exploded\n"),
    ]


class TestResultToDict:
    def test_round_trips_through_json(self, k34_with_periphery):
        result = reinforce(k34_with_periphery, 4, 3, 1, 1, method="filver")
        data = result_to_dict(result)
        text = json.dumps(data)
        back = json.loads(text)
        assert back["n_followers"] == result.n_followers
        assert sorted(back["followers"]) == sorted(result.followers)
        assert len(back["iterations"]) == len(result.iterations)
        assert back["iterations"][0]["marginal_followers"] == \
            result.iterations[0].marginal_followers


class TestCsv:
    def test_columns_and_timeout_cell(self):
        buffer = io.StringIO()
        write_csv(make_runs(), buffer)
        buffer.seek(0)
        rows = list(csv.DictReader(buffer))
        assert len(rows) == 4
        assert rows[0]["dataset"] == "AC"
        assert rows[0]["elapsed"] == "0.125"
        assert rows[1]["timed_out"] == "True"
        assert rows[1]["elapsed"] == ""  # timeouts have no elapsed value

    def test_interrupted_and_error_columns(self):
        rows = runs_to_rows(make_runs())
        assert rows[2]["interrupted"] is True
        assert rows[3]["error"] == "ValueError: exploded"
        assert rows[0]["error"] == ""
        assert make_runs()[3].display_time == "CRASH"

    def test_write_to_path(self, tmp_path):
        path = tmp_path / "runs.csv"
        write_csv(make_runs(), path)
        content = path.read_text()
        assert content.startswith("dataset,method,alpha")

    def test_rows_are_plain_data(self):
        rows = runs_to_rows(make_runs())
        assert rows[0]["n_followers"] == 12
        assert rows[1]["elapsed"] is None


class TestJson:
    def test_stable_layout(self, tmp_path):
        path = tmp_path / "data.json"
        write_json({"b": 1, "a": [2, 3]}, path)
        text = path.read_text()
        assert text.index('"a"') < text.index('"b"')  # sorted keys
        assert text.endswith("\n")

    def test_stream_target(self):
        buffer = io.StringIO()
        write_json([1, 2], buffer)
        assert json.loads(buffer.getvalue()) == [1, 2]


class TestProvenanceRoundTrip:
    def test_timed_out_flag_survives_export(self, k34_with_periphery,
                                            tmp_path):
        result = run_engine(k34_with_periphery, 4, 3, 1, 1, EngineOptions(),
                            "x", deadline=time.perf_counter() - 1.0)
        assert result.timed_out
        path = tmp_path / "r.json"
        write_json(result_to_dict(result), path)
        back = json.loads(path.read_text())
        assert back["timed_out"] is True
        assert back["interrupted"] is False
        assert back["iterations"] == []

    def test_interrupted_flag_survives_export(self, k34_with_periphery):
        from repro.exceptions import AbortCampaign

        def abort(_record):
            raise AbortCampaign

        result = run_engine(k34_with_periphery, 4, 3, 1, 1, EngineOptions(),
                            "x", on_iteration=abort)
        assert result.interrupted
        back = json.loads(json.dumps(result_to_dict(result)))
        assert back["interrupted"] is True
        assert "INTERRUPTED" in result.summary()


class TestCrashSafety:
    def test_failed_json_write_preserves_previous_artifact(self, tmp_path):
        path = tmp_path / "data.json"
        write_json({"ok": 1}, path)
        with pytest.raises(TypeError):
            write_json({"bad": object()}, path)  # fails mid-serialization
        assert json.loads(path.read_text()) == {"ok": 1}
        assert os.listdir(tmp_path) == ["data.json"]

    def test_failed_csv_write_leaves_no_partial_file(self, tmp_path):
        path = tmp_path / "runs.csv"

        def poisoned_runs():
            yield make_runs()[0]
            raise RuntimeError("sweep crashed mid-export")

        with pytest.raises(RuntimeError):
            write_csv(poisoned_runs(), path)
        assert os.listdir(tmp_path) == []
