"""Tests for the top-level CLI (python -m repro)."""

import json

import pytest

from repro.__main__ import main


class TestGenerateAndStats:
    def test_generate_then_stats(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        assert main(["generate", "--model", "er", "--upper", "50",
                     "--lower", "40", "--edges", "300",
                     "--out", str(path)]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        assert main(["stats", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert "|E| = 300" in out
        assert "delta" in out

    def test_generate_planted(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        assert main(["generate", "--model", "planted", "--alpha", "3",
                     "--beta", "3", "--out", str(path)]) == 0
        capsys.readouterr()

    def test_generate_powerlaw_gz(self, tmp_path, capsys):
        path = tmp_path / "pl.txt.gz"
        assert main(["generate", "--model", "powerlaw", "--upper", "80",
                     "--lower", "60", "--edges", "400",
                     "--out", str(path)]) == 0
        capsys.readouterr()
        assert main(["stats", "--input", str(path)]) == 0
        assert "|U| = 80" in capsys.readouterr().out


class TestReinforce:
    def test_reinforce_dataset(self, capsys):
        assert main(["reinforce", "--dataset", "AC", "--scale", "0.2",
                     "--b1", "2", "--b2", "2", "--method", "filver"]) == 0
        out = capsys.readouterr().out
        assert "constraints:" in out
        assert "anchors" in out

    def test_reinforce_file_with_json(self, tmp_path, capsys):
        graph_path = tmp_path / "g.txt"
        main(["generate", "--model", "planted", "--alpha", "4", "--beta", "3",
              "--out", str(graph_path)])
        capsys.readouterr()
        json_path = tmp_path / "plan.json"
        assert main(["reinforce", "--input", str(graph_path),
                     "--alpha", "4", "--beta", "3", "--b1", "1", "--b2", "1",
                     "--method", "filver", "--json", str(json_path)]) == 0
        capsys.readouterr()
        data = json.loads(json_path.read_text())
        assert data["algorithm"] == "filver"
        assert data["n_followers"] >= 0

    def test_dataset_error_is_reported(self, capsys):
        assert main(["stats", "--dataset", "NOPE"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_zero_anchors_per_iteration_is_a_usage_error(self, tmp_path,
                                                          capsys):
        graph_path = tmp_path / "g.txt"
        main(["generate", "--model", "planted", "--alpha", "4", "--beta", "3",
              "--out", str(graph_path)])
        capsys.readouterr()
        assert main(["reinforce", "--input", str(graph_path),
                     "--alpha", "4", "--beta", "3", "--t", "0"]) == 2
        assert "anchors_per_iteration (t) must be >= 1" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("name,damage", [
        ("g.txt.gz", lambda data: data[:len(data) // 2]),
        ("g.txt", lambda data: data + b"\xff\xfe 9\n"),
    ], ids=["truncated-gz", "non-utf8"])
    @pytest.mark.parametrize("backend", ["list", "csr"])
    def test_damaged_input_file_is_a_usage_error(self, tmp_path, capsys,
                                                 name, damage, backend):
        graph_path = tmp_path / name
        main(["generate", "--model", "planted", "--alpha", "2", "--beta", "2",
              "--out", str(graph_path)])
        capsys.readouterr()
        graph_path.write_bytes(damage(graph_path.read_bytes()))
        assert main(["reinforce", "--input", str(graph_path),
                     "--backend", backend, "--alpha", "2", "--beta", "2",
                     "--b1", "1", "--b2", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(graph_path) in err

    def test_zero_time_limit_is_a_usage_error(self, capsys):
        assert main(["reinforce", "--dataset", "AC", "--scale", "0.2",
                     "--b1", "1", "--b2", "1", "--time-limit", "0"]) == 2
        assert "time_limit must be positive" in capsys.readouterr().err


class TestCheckpointResume:
    def test_checkpoint_then_resume_reproduces_the_run(self, tmp_path,
                                                       capsys):
        graph_path = tmp_path / "g.txt"
        main(["generate", "--model", "planted", "--alpha", "4", "--beta", "3",
              "--out", str(graph_path)])
        capsys.readouterr()
        ckpt = tmp_path / "campaign.json"
        first_json = tmp_path / "first.json"
        assert main(["reinforce", "--input", str(graph_path),
                     "--alpha", "4", "--beta", "3", "--b1", "2", "--b2", "2",
                     "--method", "filver", "--checkpoint", str(ckpt),
                     "--json", str(first_json)]) == 0
        out = capsys.readouterr().out
        assert "checkpointing each iteration to" in out
        assert ckpt.exists()

        resumed_json = tmp_path / "resumed.json"
        assert main(["reinforce", "--input", str(graph_path),
                     "--alpha", "4", "--beta", "3", "--b1", "2", "--b2", "2",
                     "--method", "filver", "--resume", str(ckpt),
                     "--json", str(resumed_json)]) == 0
        out = capsys.readouterr().out
        assert "resuming campaign from" in out
        first = json.loads(first_json.read_text())
        resumed = json.loads(resumed_json.read_text())
        assert resumed["anchors"] == first["anchors"]
        assert resumed["followers"] == first["followers"]

    def test_checkpoint_rejected_for_non_checkpointable_method(
            self, tmp_path, capsys):
        assert main(["reinforce", "--dataset", "AC", "--scale", "0.2",
                     "--b1", "1", "--b2", "1", "--method", "random",
                     "--checkpoint", str(tmp_path / "c.json")]) == 2
        assert "checkpoint/resume" in capsys.readouterr().err

    def test_resume_against_wrong_graph_is_refused(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        main(["generate", "--model", "planted", "--alpha", "4", "--beta", "3",
              "--out", str(a)])
        main(["generate", "--model", "er", "--upper", "30", "--lower", "30",
              "--edges", "200", "--seed", "5", "--out", str(b)])
        capsys.readouterr()
        ckpt = tmp_path / "c.json"
        assert main(["reinforce", "--input", str(a), "--alpha", "4",
                     "--beta", "3", "--b1", "1", "--b2", "1",
                     "--method", "filver", "--checkpoint", str(ckpt)]) == 0
        capsys.readouterr()
        assert main(["reinforce", "--input", str(b), "--alpha", "4",
                     "--beta", "3", "--b1", "1", "--b2", "1",
                     "--method", "filver", "--resume", str(ckpt)]) == 2
        assert "different graph" in capsys.readouterr().err
