import json
import os
import shutil
import subprocess
import sys

import pytest

from docrel.cli import main
from docrel.config import (
    Manifest,
    PRESETS,
    parse_config_file,
    resolve,
    train_config_from,
)
from docrel.errors import ConfigError


GEN_ARGS = [
    "--set", "data.num_relations=8",
    "--set", "data.train_docs=10",
    "--set", "data.dev_docs=4",
    "--set", "data.test_docs=4",
    "--set", "data.num_entities=30",
    "--set", "data.kg_pairs=40",
    "--set", "data.pairs_min=4",
    "--set", "data.pairs_max=6",
    "--set", "data.embedding_dim=12",
]
CUTS = ["--set", "eval.head_cut=2", "--set", "eval.tail_cut=3"]
FAST_TRAIN = [
    "--set", "train.epochs=2",
    "--set", "train.hidden_dim=8",
    "--set", "train.group_count=2",
    "--set", "train.learning_rate=0.01",
]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    gold = str(root / "gold")
    regime = str(root / "regime")
    assert main(["gen-data", "--out", gold] + GEN_ARGS) == 0
    assert (
        main(
            ["build-regime", "--data", gold, "--out", regime,
             "--set", "regime.kind=OOG", "--set", "regime.noise_rate=0.3"]
        )
        == 0
    )
    return {"root": root, "gold": gold, "regime": regime}


class TestConfigResolution:
    def test_precedence_flag_over_file_over_default(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("loss.temperature = 0.7\ntrain.epochs = 9\n# comment\n")
        resolved = resolve(
            flag_values={"train.epochs": 3},
            file_values=parse_config_file(cfg_file),
        )
        assert resolved["train.epochs"] == {"value": 3, "source": "flag"}
        assert resolved["loss.temperature"] == {"value": 0.7, "source": "file"}
        assert resolved["loss.contrastive_weight"]["source"] == "default"

    def test_presets_match_published_settings(self):
        assert PRESETS["docred-like"] == {
            "loss.temperature": 2.0,
            "loss.contrastive_weight": 2.0,
            "loss.entropy_norm": "unit",
        }
        assert PRESETS["redocred-like"] == {
            "loss.temperature": 0.2,
            "loss.contrastive_weight": 0.1,
            "loss.entropy_norm": "set_size",
        }

    def test_preset_layer_below_file(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("loss.temperature = 0.9\n")
        resolved = resolve(file_values=parse_config_file(cfg_file), preset="docred-like")
        assert resolved["loss.temperature"]["value"] == 0.9
        assert resolved["loss.contrastive_weight"]["value"] == 2.0
        assert resolved["loss.contrastive_weight"]["source"] == "preset:docred-like"

    def test_unknown_keys_rejected(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("loss.bogus = 1\n")
        with pytest.raises(ConfigError):
            resolve(file_values=parse_config_file(cfg_file))

    def test_train_config_built_from_resolved(self):
        resolved = resolve(flag_values={"train.epochs": 7, "loss.temperature": 0.4})
        cfg = train_config_from(resolved)
        assert cfg.epochs == 7
        assert cfg.loss.temperature == 0.4


class TestCliContract:
    def test_unknown_flag_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["train", "--no-such-flag"])
        assert err.value.code == 2

    def test_invalid_temperature_exit_3(self, workspace, tmp_path, capsys):
        code = main(
            ["train", "--regime", workspace["regime"], "--out", str(tmp_path / "x"),
             "--set", "loss.temperature=-2"]
        )
        assert code == 3
        assert "loss.temperature" in capsys.readouterr().err

    def test_missing_input_exit_3(self, tmp_path):
        assert main(["train", "--out", str(tmp_path / "x")]) == 3

    def test_selftest_smoke(self, capsys):
        # oracle + invariants only would be faster, but the full run stays quick
        assert main(["selftest", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 3


class TestPipelineOutputs:
    def test_train_outputs(self, workspace, tmp_path):
        out = str(tmp_path / "run")
        code = main(
            ["train", "--regime", workspace["regime"], "--out", out] + FAST_TRAIN + CUTS
        )
        assert code == 0
        for name in ("checkpoint.ckpt", "final.ckpt", "history.jsonl", "dev_report.json",
                     "dev_report.csv", "manifest.json"):
            assert os.path.exists(os.path.join(out, name)), name
        manifest = Manifest.load(os.path.join(out, "manifest.json"))
        assert manifest.command == "train"
        assert manifest.config["train.epochs"]["value"] == 2
        assert manifest.runtime_seconds is not None

    def test_eval_csv_header_and_row(self, workspace, tmp_path):
        run = str(tmp_path / "run")
        main(["train", "--regime", workspace["regime"], "--out", run] + FAST_TRAIN + CUTS)
        out = str(tmp_path / "eval")
        code = main(
            ["eval", "--regime", workspace["regime"], "--checkpoint",
             os.path.join(run, "checkpoint.ckpt"), "--split", "test", "--out", out] + CUTS
        )
        assert code == 0
        lines = open(os.path.join(out, "report.csv")).read().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("label,precision,recall,f1,ign_f1")

    def test_manifest_rerun_reproduces_metrics(self, workspace, tmp_path):
        a = str(tmp_path / "a")
        b = str(tmp_path / "b")
        main(["train", "--regime", workspace["regime"], "--out", a] + FAST_TRAIN + CUTS)
        code = main(["train", "--from-manifest", os.path.join(a, "manifest.json"), "--out", b])
        assert code == 0
        assert open(os.path.join(a, "dev_report.json")).read() == open(
            os.path.join(b, "dev_report.json")
        ).read()
        assert open(os.path.join(a, "history.jsonl")).read() == open(
            os.path.join(b, "history.jsonl")
        ).read()
        assert open(os.path.join(a, "dev_report.csv")).read() == open(
            os.path.join(b, "dev_report.csv")
        ).read()

    def test_sweep_ratio_csv_rows(self, workspace, tmp_path):
        out = str(tmp_path / "sweep")
        code = main(
            ["sweep-ratio", "--regime", workspace["regime"], "--out", out,
             "--ratios", "0.2,0.6,1.0", "--set", "experiment.seeds=0"]
            + FAST_TRAIN + CUTS
        )
        assert code == 0
        for split in ("orig_dev", "gold_dev", "gold_test"):
            lines = open(os.path.join(out, f"sweep_{split}.csv")).read().splitlines()
            assert len(lines) == 4  # header + one row per ratio
            assert lines[0] == "ratio,precision,recall,f1,ign_f1"

    def test_ablation_rows_fixed_order(self, workspace, tmp_path):
        out = str(tmp_path / "ablate")
        code = main(
            ["ablate", "--regime", workspace["regime"], "--out", out,
             "--toggles", "em,scl", "--set", "experiment.seeds=0"]
            + FAST_TRAIN + CUTS
        )
        assert code == 0
        lines = open(os.path.join(out, "ablation.csv")).read().splitlines()
        assert [line.split(",")[0] for line in lines] == [
            "variant", "full", "-em", "-scl", "-both",
        ]

    def test_gen_data_writes_regime_bundle(self, workspace):
        manifest = json.load(open(os.path.join(workspace["gold"], "regime.json")))
        assert manifest["kind"] == "GGG"
        for split in ("train", "dev", "test"):
            assert os.path.exists(os.path.join(workspace["gold"], f"{split}.jsonl"))

    def test_byte_identical_csv_for_identical_manifest(self, workspace, tmp_path):
        a = str(tmp_path / "s1")
        b = str(tmp_path / "s2")
        args = ["sweep-ratio", "--regime", workspace["regime"], "--ratios", "0.5",
                "--set", "experiment.seeds=0"] + FAST_TRAIN + CUTS
        main(args + ["--out", a])
        main(["sweep-ratio", "--from-manifest", os.path.join(a, "manifest.json"), "--out", b])
        for split in ("orig_dev", "gold_dev", "gold_test"):
            assert open(os.path.join(a, f"sweep_{split}.csv")).read() == open(
                os.path.join(b, f"sweep_{split}.csv")
            ).read()

    def test_env_var_default_out_dir(self, workspace, tmp_path, monkeypatch):
        monkeypatch.setenv("DOCREL_OUT_DIR", str(tmp_path / "envout"))
        monkeypatch.chdir(tmp_path)
        code = main(["train", "--regime", workspace["regime"]] + FAST_TRAIN + CUTS)
        assert code == 0
        assert os.path.exists(tmp_path / "envout" / "train" / "manifest.json")


def _break_record(regime_dir, out_dir, split, edit):
    """A copy of a regime bundle whose first ``split`` record is changed by ``edit``."""
    shutil.copytree(regime_dir, out_dir)
    path = os.path.join(out_dir, f"{split}.jsonl")
    lines = open(path).read().splitlines()
    record = json.loads(lines[1])
    edit(record)
    lines[1] = json.dumps(record)
    open(path, "w").write("\n".join(lines) + "\n")
    return path


def _train_subprocess(bundle, out):
    """``docrel train`` on ``bundle`` in a fresh interpreter, as a user runs it."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (os.path.abspath(src), os.environ.get("PYTHONPATH")) if p))
    return subprocess.run(
        [sys.executable, "-m", "docrel.cli", "train", "--regime", bundle, "--out", out]
        + FAST_TRAIN + CUTS,
        capture_output=True, text=True, env=env,
    )


class TestInputsFailClosed:
    def test_bad_corpus_label_exits_1_without_traceback(self, workspace, tmp_path):
        bundle = str(tmp_path / "bad")
        dev = _break_record(
            workspace["regime"], bundle, "dev", lambda r: r.update(positive_relations=[99])
        )
        proc = _train_subprocess(bundle, str(tmp_path / "run"))
        assert proc.returncode == 1
        assert f"{dev}:2: relation index 99 out of range" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_non_finite_vector_exits_1_without_traceback(self, workspace, tmp_path):
        bundle = str(tmp_path / "nan")

        def edit(record):
            record["context"][0] = float("nan")

        train = _break_record(workspace["regime"], bundle, "train", edit)
        proc = _train_subprocess(bundle, str(tmp_path / "run"))
        assert proc.returncode == 1
        assert f"{train}:2: non-finite value in the context" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_custom_regime_kind_exits_1(self, workspace, tmp_path, capsys):
        bundle = str(tmp_path / "custom")
        shutil.copytree(workspace["regime"], bundle)
        open(os.path.join(bundle, "regime.json"), "w").write('{"kind": "custom"}')
        code = main(["train", "--regime", bundle, "--out", str(tmp_path / "run")] + FAST_TRAIN)
        assert code == 1
        assert os.path.join(bundle, "regime.json") in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit",
        [None, lambda m: m.pop("command"), lambda m: m.pop("config"),
         lambda m: m["config"]["train.epochs"].pop("value")],
        ids=["garbled", "no-command", "no-config", "entry-without-value"],
    )
    def test_bad_manifest_exits_3(self, workspace, tmp_path, capsys, edit):
        run = str(tmp_path / "run")
        assert main(["train", "--regime", workspace["regime"], "--out", run]
                    + FAST_TRAIN + CUTS) == 0
        path = os.path.join(run, "manifest.json")
        if edit is None:
            text = open(path).read()[:40]
        else:
            manifest = json.load(open(path))
            edit(manifest)
            text = json.dumps(manifest)
        open(path, "w").write(text)
        capsys.readouterr()
        code = main(["train", "--from-manifest", path, "--out", str(tmp_path / "replay")])
        assert code == 3
        assert path in capsys.readouterr().err

    def test_missing_manifest_exits_3(self, tmp_path, capsys):
        path = str(tmp_path / "nope.json")
        assert main(["train", "--from-manifest", path, "--out", str(tmp_path / "x")]) == 3
        assert path in capsys.readouterr().err

    def test_missing_config_file_exits_3(self, workspace, tmp_path, capsys):
        path = str(tmp_path / "nope.cfg")
        code = main(["train", "--regime", workspace["regime"], "--config", path,
                     "--out", str(tmp_path / "x")])
        assert code == 3
        assert path in capsys.readouterr().err
