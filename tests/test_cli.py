"""End-to-end command-line behavior: happy paths and exit codes."""

import json

import pytest

from fairtopk.cli import build_parser, run
from fairtopk.model import FactorizationScorer


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cli") / "d.csv")
    code = run(["gen-data", "--queries", "12", "--items", "16",
                "--bias", "2.0", "--seed", "1", "--out", path])
    assert code == 0
    return path


class TestGenData:
    def test_deterministic_output(self, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        for out in (a, b):
            assert run(["gen-data", "--queries", "4", "--items", "8",
                        "--seed", "3", "--out", out]) == 0
        assert open(a).read() == open(b).read()

    def test_missing_required_flag(self, capsys):
        assert run(["gen-data", "--queries", "4", "--items", "8"]) == 1

    def test_strict_repro_requires_seed(self, tmp_path):
        out = str(tmp_path / "x.csv")
        assert run(["--strict-repro", "gen-data", "--queries", "4",
                    "--items", "8", "--out", out]) == 1
        assert run(["--strict-repro", "gen-data", "--queries", "4",
                    "--items", "8", "--seed", "0", "--out", out]) == 0


class TestTrainEval:
    def test_happy_path(self, data_csv, tmp_path):
        prefix = str(tmp_path / "run")
        code = run(["train", "--data", data_csv, "--out", prefix,
                    "--K", "3", "--C", "10", "--mode", "top_k",
                    "--epochs", "1", "--batch-pairs", "16",
                    "--batch-items", "6", "--batch-a", "2", "--batch-b", "2",
                    "--dim", "2", "--seed", "0"])
        assert code == 0
        for suffix in (".ckpt", ".best.ckpt", ".trace.csv", ".meta.json"):
            assert (tmp_path / ("run" + suffix.lstrip("/"))).exists()
        report_path = str(tmp_path / "report.json")
        code = run(["eval", "--data", data_csv, "--checkpoint", prefix + ".ckpt",
                    "--k-list", "3", "--relevant", "2", "--irrelevant", "4",
                    "--seed", "0", "--out", report_path])
        assert code == 0
        report = json.loads(open(report_path).read())
        assert "3" in report and "ndcg_mean" in report["3"]

    def test_mode_conflict_exits_one(self, data_csv, tmp_path):
        code = run(["train", "--data", data_csv, "--out", str(tmp_path / "x"),
                    "--mode", "none", "--C", "100", "--epochs", "1"])
        assert code == 1

    def test_config_file_with_flag_override(self, data_csv, tmp_path):
        cfg = tmp_path / "t.cfg"
        cfg.write_text("epochs=1\nbatch_pairs=16\nbatch_items=6\n"
                       "batch_a=2\nbatch_b=2\nk=3\n")
        prefix = str(tmp_path / "run")
        code = run(["train", "--data", data_csv, "--config", str(cfg),
                    "--out", prefix, "--dim", "2", "--fair-weight", "0"])
        assert code == 0

    def test_unknown_config_key_exits_one(self, data_csv, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense=1\n")
        assert run(["train", "--data", data_csv, "--config", str(cfg),
                    "--out", str(tmp_path / "x")]) == 1

    def test_missing_data_file_exits_two(self, tmp_path):
        assert run(["train", "--data", str(tmp_path / "absent.csv"),
                    "--out", str(tmp_path / "x"), "--epochs", "1"]) == 2

    def test_bad_checkpoint_exits_two(self, data_csv, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        assert run(["eval", "--data", data_csv,
                    "--checkpoint", str(bad)]) == 2

    def test_truncated_checkpoint_exits_two(self, data_csv, tmp_path, capsys):
        good = tmp_path / "m.ckpt"
        FactorizationScorer(2, 2, 2).save(str(good))
        bad = tmp_path / "short.ckpt"
        bad.write_bytes(good.read_bytes()[:20])
        assert run(["eval", "--data", data_csv, "--checkpoint", str(bad)]) == 2
        assert "truncated" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--relevant", "--irrelevant"])
    def test_negative_list_count_exits_one(self, data_csv, tmp_path, capsys, flag):
        ckpt = tmp_path / "m.ckpt"
        FactorizationScorer(12, 32, 2).save(str(ckpt))
        assert run(["eval", "--data", data_csv, "--checkpoint", str(ckpt), flag, "-1"]) == 1
        assert "invalid configuration" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--log-every", "--tau1"])
    def test_out_of_range_config_flag_exits_one(self, data_csv, tmp_path, capsys, flag):
        assert run(["train", "--data", data_csv, "--out", str(tmp_path / "x"), flag, "0"]) == 1
        assert "invalid configuration:" in capsys.readouterr().err

    def test_item_in_two_groups_exits_two(self, tmp_path, capsys):
        data = tmp_path / "two.csv"
        data.write_text("q1,1,2,0\nq1,2,0,1\nq2,1,1,1\nq2,3,0,0\n")
        ckpt = tmp_path / "m.ckpt"
        FactorizationScorer(2, 3, 2).save(str(ckpt))
        assert run(["eval", "--data", str(data), "--checkpoint", str(ckpt)]) == 2
        assert "item 1" in capsys.readouterr().err


class TestSweepAndStrips:
    def test_sweep_writes_frontier(self, data_csv, tmp_path):
        prefix = str(tmp_path / "sweep")
        code = run(["sweep", "--data", data_csv, "--c-grid", "0,10",
                    "--k-list", "3", "--out", prefix, "--dim", "2",
                    "--epochs", "1", "--batch-pairs", "16", "--batch-items", "6",
                    "--batch-a", "2", "--batch-b", "2", "--K", "3"])
        assert code == 0
        lines = open(prefix + ".csv").read().strip().splitlines()
        assert len(lines) == 3    # header + 2 C values
        rows = json.loads(open(prefix + ".json").read())
        assert [r["C"] for r in rows] == [0.0, 10.0]

    def test_export_strips(self, data_csv, tmp_path):
        prefix = str(tmp_path / "run")
        assert run(["train", "--data", data_csv, "--out", prefix,
                    "--epochs", "1", "--batch-pairs", "16", "--batch-items", "6",
                    "--batch-a", "2", "--batch-b", "2", "--K", "3",
                    "--dim", "2"]) == 0
        csv_out = str(tmp_path / "strips.csv")
        ppm_out = str(tmp_path / "strips.ppm")
        assert run(["export-strips", "--data", data_csv,
                    "--checkpoint", prefix + ".ckpt", "--num-queries", "3",
                    "--K", "2", "--out-csv", csv_out, "--out-ppm", ppm_out]) == 0
        rows = open(csv_out).read().strip().splitlines()
        assert len(rows) == 3
        assert set("".join(rows).replace(",", "")) <= {"A", "B"}
        assert open(ppm_out, "rb").read().startswith(b"P6\n")


class TestParser:
    def test_unknown_command_exits_one(self):
        assert run(["frobnicate"]) == 1

    def test_unknown_flag_exits_one(self):
        assert run(["gen-data", "--bogus", "1"]) == 1

    @pytest.mark.parametrize("argv", [
        ["sweep", "--data", "d.csv", "--out", "x", "--c-grid", "0,abc"],
        ["eval", "--data", "d.csv", "--checkpoint", "m.ckpt", "--k-list", "5,x"],
        ["train", "--data", "d.csv", "--out", "x", "--fractions", "a,b,c"],
    ])
    def test_bad_list_flag_is_a_usage_error(self, argv, capsys):
        assert run(argv) == 1
        assert "usage error: argument " + argv[-2] in capsys.readouterr().err

    def test_help_mentions_every_config_field(self):
        from dataclasses import fields
        from fairtopk.optimizer import TrainConfig

        parser = build_parser()
        sub = next(a for a in parser._subparsers._group_actions)
        help_text = sub.choices["train"].format_help()
        for f in fields(TrainConfig):
            assert "--" + f.name.replace("_", "-") in help_text
