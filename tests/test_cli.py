"""End-to-end command-line behavior: happy paths and exit codes."""

import json
import re
import shlex
from pathlib import Path

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

    @pytest.mark.parametrize("bias", ["nan", "inf"])
    def test_non_finite_bias_exits_one_before_writing(self, tmp_path, capsys, bias):
        out = tmp_path / "x.csv"
        assert run(["gen-data", "--queries", "4", "--items", "8", "--bias", bias,
                    "--seed", "0", "--out", str(out)]) == 1
        assert "invalid configuration: bias" in capsys.readouterr().err
        assert not out.exists()

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

    def test_header_disagreeing_with_payload_exits_two(self, data_csv, tmp_path, capsys):
        # the header claims a model of about 961 GiB over 16 payload bytes
        header = json.dumps({"num_queries": 10 ** 9, "num_items": 10 ** 9, "dim": 64,
                             "bound": 10.0, "scale": 1.0}).encode()
        bad = tmp_path / "huge.ckpt"
        bad.write_bytes(b"RANKCKP1" + len(header).to_bytes(8, "little") + header + b"\0" * 16)
        assert run(["eval", "--data", data_csv, "--checkpoint", str(bad)]) == 2
        assert "parameter bytes, got 16" in capsys.readouterr().err

    def test_truncated_checkpoint_exits_two(self, data_csv, tmp_path, capsys):
        good = tmp_path / "m.ckpt"
        FactorizationScorer(2, 2, 2).save(str(good))
        bad = tmp_path / "short.ckpt"
        bad.write_bytes(good.read_bytes()[:20])
        assert run(["eval", "--data", data_csv, "--checkpoint", str(bad)]) == 2
        assert "truncated" in capsys.readouterr().err

    def test_boolean_bound_in_checkpoint_exits_two(self, data_csv, tmp_path, capsys):
        path = tmp_path / "m.ckpt"
        FactorizationScorer(12, 32, 2).save(str(path))
        data = path.read_bytes()
        end = 16 + int.from_bytes(data[8:16], "little")
        header = json.dumps({**json.loads(data[16:end]), "bound": True}).encode()
        path.write_bytes(data[:8] + len(header).to_bytes(8, "little") + header + data[end:])
        assert run(["eval", "--data", data_csv, "--checkpoint", str(path)]) == 2
        assert "bound and scale must be JSON numbers" in capsys.readouterr().err

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

    @pytest.mark.parametrize("argv", [["--C", "nan"], ["--fractions", "nan,0.5,0.5"],
                                      ["--bound", "nan"]])
    def test_nan_parameter_exits_one_before_writing(self, data_csv, tmp_path, capsys, argv):
        assert run(["train", "--data", data_csv, "--out", str(tmp_path / "x"),
                    "--epochs", "1", *argv]) == 1
        assert "invalid configuration:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["gen-data", "--queries", "4", "--items", "8", "--seed", "-1", "--out", "{out}/d.csv"],
        ["train", "--data", "{data}", "--out", "{out}/x", "--epochs", "1", "--seed", "-3"],
        ["train", "--data", "{data}", "--out", "{out}/x", "--epochs", "1",
         "--split-seed", "-2"],
    ])
    def test_negative_seed_exits_one_before_writing(self, data_csv, tmp_path, capsys, argv):
        argv = [a.format(data=data_csv, out=tmp_path) for a in argv]
        assert run(argv) == 1
        assert re.search(r"invalid configuration: .*seed must be >= 0", capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    def test_item_in_two_groups_exits_two(self, tmp_path, capsys):
        data = tmp_path / "two.csv"
        data.write_text("q1,1,2,0\nq1,2,0,1\nq2,1,1,1\nq2,3,0,0\n")
        ckpt = tmp_path / "m.ckpt"
        FactorizationScorer(2, 3, 2).save(str(ckpt))
        assert run(["eval", "--data", str(data), "--checkpoint", str(ckpt)]) == 2
        assert "item 1" in capsys.readouterr().err

    def test_item_id_outside_int64_exits_two(self, tmp_path, capsys):
        data = tmp_path / "big_id.csv"
        data.write_text("q0,1,1,0\nq0,99999999999999999999,1,0\nq0,2,0,1\n")
        assert run(["train", "--data", str(data), "--out", str(tmp_path / "x")]) == 2
        assert "line 2: item id" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, code", [
        (["train", "--data", "{data}", "--config", "{bad}", "--out", "{out}/x"], 1),
        (["train", "--data", "{bad}", "--out", "{out}/x", "--epochs", "1"], 2),
        (["eval", "--data", "{bad}", "--checkpoint", "{out}/m.ckpt"], 2),
    ])
    def test_non_utf8_input_is_a_typed_error(self, data_csv, tmp_path, capsys, argv, code):
        bad = tmp_path / "binary.bin"
        bad.write_bytes(b"q0,1,1,0\n\xff\xfe\x81\x00" * 64)
        FactorizationScorer(12, 32, 2).save(str(tmp_path / "m.ckpt"))
        assert run([a.format(data=data_csv, bad=bad, out=tmp_path) for a in argv]) == code
        err = capsys.readouterr().err
        assert f"{bad}: not UTF-8 text" in err and "Traceback" not in err

    def test_oversized_csv_field_exits_two(self, tmp_path, capsys):
        data = tmp_path / "long.csv"
        data.write_text("q0,1,1,0\nq0,2," + "1" * 200_000 + ",1\n")
        assert run(["train", "--data", str(data), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert f"{data}: line 2: field larger than field limit" in err
        assert "Traceback" not in err


class TestStrictJson:
    """Every JSON file or report the CLI writes parses as strict JSON; a value
    that is not finite is written as null."""

    def test_zero_epochs(self, data_csv, tmp_path, strict_json):
        prefix = str(tmp_path / "run")
        assert run(["train", "--data", data_csv, "--out", prefix, "--epochs", "0",
                    "--dim", "2"]) == 0
        meta = strict_json(open(prefix + ".meta.json").read())
        assert meta["best_valid_ndcg"] is None
        assert open(prefix + ".trace.csv").read().splitlines() == [
            "step,epoch,z_norm,train_loss,valid_ndcg,valid_mae,valid_mse,wall_time"]

    def test_report_without_ranked_lists(self, data_csv, tmp_path, capsys, strict_json):
        prefix = str(tmp_path / "run")
        assert run(["train", "--data", data_csv, "--out", prefix, "--epochs", "0",
                    "--dim", "2"]) == 0
        capsys.readouterr()
        assert run(["eval", "--data", data_csv, "--checkpoint", prefix + ".ckpt",
                    "--k-list", "1", "--relevant", "0", "--irrelevant", "1",
                    "--seed", "0"]) == 0
        report = strict_json(capsys.readouterr().out)
        assert report["1"]["ndcg_mean"] is None and report["1"]["mae"] is None


class TestSweepAndStrips:
    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_strict_repro_requires_seed(self, data_csv, tmp_path, capsys, command):
        argv = [command, "--data", data_csv, "--out", str(tmp_path / "x"), "--epochs", "0",
                "--dim", "2"]
        assert run(["--strict-repro"] + argv) == 1
        assert "--strict-repro requires an explicit --seed" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        assert run(["--strict-repro"] + argv + ["--seed", "0"]) == 0

    def test_sweep_writes_frontier(self, data_csv, tmp_path, strict_json):
        prefix = str(tmp_path / "sweep")
        code = run(["sweep", "--data", data_csv, "--c-grid", "0,10",
                    "--k-list", "3", "--out", prefix, "--dim", "2",
                    "--epochs", "1", "--batch-pairs", "16", "--batch-items", "6",
                    "--batch-a", "2", "--batch-b", "2", "--K", "3"])
        assert code == 0
        lines = open(prefix + ".csv").read().strip().splitlines()
        assert len(lines) == 3    # header + 2 C values
        rows = strict_json(open(prefix + ".json").read())
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

    def test_readme_command_lines_parse(self):
        """Every ``fairtopk ...`` line in README.md's code blocks, joined across
        backslash continuations, is accepted by the parser."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"```sh\n(.*?)```", readme, flags=re.S)
        lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
        commands = [shlex.split(line)[1:] for line in lines if line.startswith("fairtopk ")]
        assert len(commands) >= 7
        for argv in commands:
            assert build_parser().parse_args(argv).command == argv[0]
