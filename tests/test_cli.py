import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from docrel.cli import main
from docrel.datagen import Regime, load_regime
from docrel.config import (
    Manifest,
    PRESETS,
    environment,
    parse_config_file,
    resolve,
    train_config_from,
)
from docrel.errors import ConfigError
from docrel.head import init_head_params, save_checkpoint
from docrel.rng import stream

from docrel_cli import BLAS_THREAD_VARIABLES

from conftest import (FORMAT_2_FILE, FORMAT_3_FILE, FORMAT_4_FILE, GEN_ARGS, CorpusFile,
                      counting_pair_examples)


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

    def test_none_flag_overrides_a_file_value(self, workspace, tmp_path):
        """``--set train.grad_clip_norm=none`` trains as if the file did not
        clip, and the manifest records the flag's null."""
        runs = {}
        for name, text in (("flag", "train.grad_clip_norm = 1.5\n"), ("no-line", "")):
            cfg_file = tmp_path / f"{name}.conf"
            cfg_file.write_text(text + "loss.temperature = 0.5\n")
            runs[name] = tmp_path / name
            flag = ["--set", "train.grad_clip_norm=none"] if name == "flag" else []
            assert main(["train", "--regime", workspace["regime"], "--out", str(runs[name]),
                         "--config", str(cfg_file)] + flag + FAST_TRAIN + CUTS) == 0
        recorded = json.loads((runs["flag"] / "manifest.json").read_text())["config"]
        assert recorded["train.grad_clip_norm"] == {"value": None, "source": "flag"}
        assert recorded["loss.temperature"] == {"value": 0.5, "source": "file"}
        for output in ("history.jsonl", "checkpoint.ckpt", "final.ckpt"):
            assert (runs["flag"] / output).read_bytes() == (
                runs["no-line"] / output).read_bytes(), output

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

    def test_bad_bucket_cuts_exit_3_before_training(self, workspace, tmp_path, monkeypatch,
                                                    capsys):
        """The default cuts (10, 20) do not fit the workspace's 8 relations."""
        calls = []
        monkeypatch.setattr("docrel.cli.train_model", lambda *args: calls.append(args))
        out = tmp_path / "run"
        code = main(["train", "--regime", workspace["regime"], "--out", str(out)] + FAST_TRAIN)
        assert code == 3
        assert "bucket cuts (10, 20) invalid for 8 relations" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

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
        assert manifest.environment == environment()

    def test_train_prints_epoch_lines_on_stderr(self, workspace, tmp_path):
        proc = _cli_subprocess("train", "--regime", workspace["regime"],
                               "--out", str(tmp_path / "run"), *FAST_TRAIN, *CUTS)
        assert proc.returncode == 0
        assert "docrel.training: epoch 0: loss=" in proc.stderr
        assert "epoch 1: " in proc.stderr and " pairs/s=" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout.startswith("trained 2 epochs")

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
        recorded = [Manifest.load(os.path.join(run, "manifest.json")) for run in (a, b)]
        assert recorded[0].environment == recorded[1].environment == environment()

    def test_eval_replay_keeps_split(self, workspace, tmp_path):
        run, a, b = (str(tmp_path / name) for name in ("run", "a", "b"))
        main(["train", "--regime", workspace["regime"], "--out", run] + FAST_TRAIN + CUTS)
        assert main(["eval", "--regime", workspace["regime"], "--checkpoint",
                     os.path.join(run, "checkpoint.ckpt"), "--split", "dev", "--out", a]
                    + CUTS) == 0
        assert main(["eval", "--from-manifest", os.path.join(a, "manifest.json"),
                     "--out", b]) == 0
        report = open(os.path.join(b, "report.json")).read()
        assert report == open(os.path.join(a, "report.json")).read()
        assert list(json.loads(report)) == ["dev"]
        assert Manifest.load(os.path.join(b, "manifest.json")).inputs["split"] == "dev"

    def test_sweep_ratio_csv_rows(self, workspace, tmp_path):
        out = str(tmp_path / "sweep")
        code = main(
            ["sweep-ratio", "--regime", workspace["regime"], "--out", out,
             "--set", "experiment.ratios=0.2,0.6,1.0", "--set", "experiment.seeds=0"]
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
             "--set", "experiment.seeds=0"]
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
        args = ["sweep-ratio", "--regime", workspace["regime"],
                "--set", "experiment.ratios=0.5", "--set", "experiment.seeds=0"] + FAST_TRAIN + CUTS
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

    def test_train_and_eval_on_a_bundle_build_no_pair_example(self, workspace, tmp_path,
                                                              monkeypatch):
        """``gen-data`` and ``build-regime`` (in both corruption modes) build
        no ``PairExample``; ``train`` and ``eval`` on a saved bundle build
        none and write what they write from the bundle's corpora held in
        memory."""
        gold = str(tmp_path / "gold")
        with counting_pair_examples() as count:
            assert main(["gen-data", "--out", gold] + GEN_ARGS) == 0
            for corruption in ("example", "fact"):
                assert main(["build-regime", "--data", gold, "--out", str(tmp_path / corruption),
                             "--set", "regime.kind=OOG", "--set", "regime.noise_rate=0.3",
                             "--set", f"regime.corruption={corruption}"]) == 0
        assert count == [0]

        def in_memory(directory):
            loaded = load_regime(directory)
            splits = (loaded.train, loaded.dev, loaded.test)
            return Regime(*(replace(s, examples=tuple(s.examples)) for s in splits),
                          name=loaded.name)

        built = {}
        for name, loader in (("loaded", load_regime), ("in-memory", in_memory)):
            monkeypatch.setattr("docrel.cli.load_regime", loader)
            run, scored = str(tmp_path / name / "run"), str(tmp_path / name / "eval")
            with counting_pair_examples() as count:
                assert main(["train", "--regime", workspace["regime"], "--out", run]
                            + FAST_TRAIN + CUTS) == 0
                assert main(["eval", "--regime", workspace["regime"], "--checkpoint",
                             os.path.join(run, "checkpoint.ckpt"), "--split", "test",
                             "--out", scored] + CUTS) == 0
            built[name] = count[0]
        assert built["loaded"] == 0 < built["in-memory"]
        for name in ("run/checkpoint.ckpt", "run/final.ckpt", "run/history.jsonl",
                     "run/dev_report.json", "run/dev_report.csv", "eval/report.json",
                     "eval/report.csv"):
            assert (tmp_path / "loaded" / name).read_bytes() == (
                tmp_path / "in-memory" / name).read_bytes(), name


def _break_record(regime_dir, out_dir, split, rows=None, **fields):
    """A copy of a regime bundle whose first ``split`` record gets the array
    ``fields`` given and has its vector rows changed by ``rows``."""
    shutil.copytree(regime_dir, out_dir)
    path = os.path.join(out_dir, f"{split}.jsonl")
    CorpusFile(path).edit(0, rows=rows, **fields)
    return path


def _cli_subprocess(*args, module="docrel.cli", environ=os.environ):
    """``python -m <module> <args>`` in a fresh interpreter with ``environ``, as a user runs it."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(environ, PYTHONPATH=os.pathsep.join(
        p for p in (os.path.abspath(src), environ.get("PYTHONPATH")) if p))
    return subprocess.run(
        [sys.executable, "-m", module, *args], capture_output=True, text=True, env=env
    )


class TestBlasThreads:
    """The ``docrel`` command runs BLAS on one thread unless the environment sets a count."""

    @staticmethod
    def environ(**settings):
        unset = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
        return dict(unset, **settings)

    def recorded(self, tmp_path, **settings):
        out = tmp_path / "gold"
        proc = _cli_subprocess("gen-data", "--out", str(out), *GEN_ARGS, module="docrel_cli",
                               environ=self.environ(**settings))
        assert proc.returncode == 0, proc.stderr
        return Manifest.load(out / "manifest.json").environment["blas_threads"]

    def test_one_thread_where_none_is_set(self, tmp_path):
        assert self.recorded(tmp_path) == dict.fromkeys(BLAS_THREAD_VARIABLES, "1")

    def test_a_set_count_is_left_as_it_is(self, tmp_path):
        assert self.recorded(tmp_path, OMP_NUM_THREADS="2") == {
            "OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": None}

    def test_importing_docrel_sets_nothing(self):
        code = ("import os, docrel, docrel.cli; "
                f"print([os.environ.get(name) for name in {BLAS_THREAD_VARIABLES!r}])")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=self.environ(PYTHONPATH=os.pathsep.join(sys.path)))
        assert proc.stdout.strip() == "[None, None, None]", proc.stderr


class TestInputsFailClosed:
    def test_bad_corpus_label_exits_1_without_traceback(self, workspace, tmp_path):
        bundle = str(tmp_path / "bad")
        # 8 relations fill a one-byte bit row, so the bad label is a gold one
        # without the gold flag
        dev = _break_record(workspace["regime"], bundle, "dev", has_gold=0, labels=[[0], [1]])
        proc = _cli_subprocess("train", "--regime", bundle, "--out", str(tmp_path / "run"),
                               *FAST_TRAIN, *CUTS)
        assert proc.returncode == 1
        assert f"{dev}: record 0: gold labels without the gold flag" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_non_finite_vector_exits_1_without_traceback(self, workspace, tmp_path):
        bundle = str(tmp_path / "nan")

        def edit(rows):
            rows[-1, 0] = np.nan

        train = _break_record(workspace["regime"], bundle, "train", rows=edit)
        proc = _cli_subprocess("train", "--regime", bundle, "--out", str(tmp_path / "run"),
                               *FAST_TRAIN, *CUTS)
        assert proc.returncode == 1
        assert f"{train}: record 0: non-finite value in the context" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_format_2_bundle_exits_1_asking_for_a_rebuild(self, workspace, tmp_path):
        """And format-3 and format-4 bundles."""
        checkpoint = str(tmp_path / "head.ckpt")
        save_checkpoint(init_head_params(1, 8, 2, 2, stream(0, "init")), checkpoint)
        for version, data in ((2, FORMAT_2_FILE), (3, FORMAT_3_FILE), (4, FORMAT_4_FILE)):
            bundle = tmp_path / f"format-{version}"
            shutil.copytree(workspace["regime"], bundle)
            for split in ("train", "dev", "test"):
                (bundle / f"{split}.jsonl").write_bytes(data)
            proc = _cli_subprocess("eval", "--regime", str(bundle), "--checkpoint", checkpoint,
                                   "--out", str(tmp_path / f"eval-{version}"))
            assert proc.returncode == 1
            assert (f"{bundle / 'train.jsonl'}:1: corpus format version {version}, expected 5; "
                    "rebuild the bundle with gen-data and build-regime") in proc.stderr
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
         lambda m: m["config"]["train.epochs"].pop("value"),
         lambda m: m["config"]["train.epochs"].update(value="abc"),
         lambda m: m["config"].update({"train.epochz": m["config"].pop("train.epochs")}),
         lambda m: m["inputs"].update(regime=5),
         lambda m: m["environment"].update(heap_top_pad="33554432"),
         lambda m: m["environment"].pop("glibc"),
         lambda m: m.update(environment=["3.11"])],
        ids=["garbled", "no-command", "no-config", "entry-without-value", "string-epochs",
             "renamed-key", "number-input", "string-heap-pad", "environment-without-glibc",
             "environment-list"],
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

    @pytest.mark.parametrize(
        "command, value",
        [("gen-data", "data.kg_pairs=0"),
         ("gen-data", "data.train_docs=0"),
         ("gen-data", "data.dev_docs=0"),
         ("gen-data", "data.test_docs=0"),
         ("train", "train.group_count=0"),
         ("train", "train.hidden_dim=0"),
         ("train", "train.grad_clip_norm=-1"),
         ("train", "train.grad_clip_norm=0"),
         ("train", "train.learning_rate=inf"),
         ("train", "train.eps=nan"),
         ("train", "train.weight_decay=nan"),
         ("train", "loss.contrastive_weight=nan"),
         ("train", "loss.temperature=inf"),
         ("gen-data", "data.zipf_exponent=nan"),
         ("gen-data", "data.zipf_exponent=-1000"),
         ("gen-data", "data.noise_sigma=nan"),
         ("gen-data", "data.noise_sigma=-1"),
         ("ablate", "experiment.seeds="),
         ("sweep-ratio", "experiment.ratios=")],
    )
    def test_invalid_config_value_exits_3(self, workspace, tmp_path, capsys, command, value):
        inputs = [] if command == "gen-data" else ["--regime", workspace["regime"]]
        # the other flags, without the one for the key under test: a key set twice is refused
        flags = GEN_ARGS + FAST_TRAIN + CUTS
        key = value.split("=", 1)[0]
        flags = [part for pair in zip(flags[::2], flags[1::2])
                 if not pair[1].startswith(key + "=") for part in pair]
        code = main([command, "--out", str(tmp_path / "x"), *inputs, *flags, "--set", value])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: invalid configuration: ")
        assert "Traceback" not in err

    def test_rejected_command_removes_the_output_directory_it_made(self, tmp_path):
        out = tmp_path / "z"
        code = main(["gen-data", "--out", str(out), *GEN_ARGS,
                     "--set", "data.zipf_exponent=-1000"])
        assert code == 3
        assert not out.exists()

    def test_rejected_command_removes_the_parents_it_made(self, tmp_path):
        out = tmp_path / "a" / "b" / "c"
        code = main(["gen-data", "--out", str(out), *GEN_ARGS,
                     "--set", "data.zipf_exponent=-1000"])
        assert code == 3
        assert not (tmp_path / "a").exists()
        assert tmp_path.is_dir()

    def test_rejected_command_keeps_an_existing_parent(self, tmp_path):
        out = tmp_path / "a" / "b"
        (tmp_path / "a").mkdir()
        (tmp_path / "a" / "keep").write_text("")
        code = main(["gen-data", "--out", str(out), *GEN_ARGS,
                     "--set", "data.zipf_exponent=-1000"])
        assert code == 3
        assert not out.exists()
        assert (tmp_path / "a" / "keep").is_file()

    def test_rejected_command_keeps_an_existing_output_directory(self, tmp_path):
        out = tmp_path / "z"
        out.mkdir()
        code = main(["gen-data", "--out", str(out), *GEN_ARGS,
                     "--set", "data.zipf_exponent=-1000"])
        assert code == 3
        assert out.is_dir()

    def test_out_naming_a_file_exits_1_without_traceback(self, tmp_path):
        out = tmp_path / "taken"
        out.write_text("")
        proc = _cli_subprocess("gen-data", "--out", str(out), *GEN_ARGS)
        assert proc.returncode == 1
        assert f"{out}: cannot create output directory" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_missing_checkpoint_exits_1_without_traceback(self, workspace, tmp_path):
        checkpoint = str(tmp_path / "nope.ckpt")
        proc = _cli_subprocess("eval", "--regime", workspace["regime"], "--checkpoint",
                               checkpoint, "--out", str(tmp_path / "eval"))
        assert proc.returncode == 1
        assert f"{checkpoint}: cannot read checkpoint file" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("num_logits", [5, 21], ids=["fewer", "more"])
    def test_checkpoint_with_wrong_logit_count_exits_1(self, workspace, tmp_path, num_logits):
        # the workspace regime has 8 relations and the threshold: 9 logits
        checkpoint = str(tmp_path / "other.ckpt")
        save_checkpoint(init_head_params(12, 8, 2, num_logits, stream(0, "init")), checkpoint)
        proc = _cli_subprocess("eval", "--regime", workspace["regime"], "--checkpoint",
                               checkpoint, "--out", str(tmp_path / "eval"), *CUTS)
        assert proc.returncode == 1
        assert f"head has {num_logits} logits, corpus has 9" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_checkpoint_with_a_nan_exits_1(self, workspace, tmp_path):
        checkpoint = tmp_path / "nan.ckpt"
        save_checkpoint(init_head_params(12, 8, 2, 9, stream(0, "init")), checkpoint)
        data = checkpoint.read_bytes()
        checkpoint.write_bytes(data[:-8] + np.array([np.nan], "<f8").tobytes())
        proc = _cli_subprocess("eval", "--regime", workspace["regime"], "--checkpoint",
                               str(checkpoint), "--out", str(tmp_path / "eval"), *CUTS)
        assert proc.returncode == 1
        assert f"{checkpoint}: b_o contains non-finite values" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_checkpoint_with_zero_hidden_dim_exits_1(self, workspace, tmp_path):
        checkpoint = tmp_path / "empty.ckpt"
        shapes = [[0, 12]] * 4 + [[9, 0], [9]]
        meta = {"group_count": 2, "tensors": [
            {"name": name, "shape": shape}
            for name, shape in zip(["W_h", "W_t", "W_c1", "W_c2", "W_o", "b_o"], shapes)
        ]}
        checkpoint.write_bytes(b"DOCREL-CKPT 1\n" + json.dumps(meta).encode() + b"\n" + bytes(72))
        proc = _cli_subprocess("eval", "--regime", workspace["regime"], "--checkpoint",
                               str(checkpoint), "--out", str(tmp_path / "eval"), *CUTS)
        assert proc.returncode == 1
        assert f"{checkpoint}: head dimensions must be >= 1" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_bad_recorded_split_exits_3(self, workspace, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        Manifest("eval", resolve(), {"regime": workspace["regime"], "checkpoint": "x.ckpt",
                                     "split": "bogus"}, {}).save(path)
        code = main(["eval", "--from-manifest", str(path), "--out", str(tmp_path / "x")])
        assert code == 3
        assert str(path) in capsys.readouterr().err

    def test_missing_manifest_exits_3(self, tmp_path, capsys):
        path = str(tmp_path / "nope.json")
        assert main(["train", "--from-manifest", path, "--out", str(tmp_path / "x")]) == 3
        assert path in capsys.readouterr().err

    @pytest.mark.parametrize(
        "lines, lineno, message",
        [(["train.epochz = 2"], 1, "unknown config key 'train.epochz'"),
         (["# a comment", "train.epochs = two"], 2,
          "config key train.epochs: invalid literal for int() with base 10: 'two'"),
         (["train.epochs = 2", "", "train.epochs = 3"], 3, "config key train.epochs is set twice"),
         (["train.epochs 2"], 1, "expected 'key = value'")],
        ids=["unknown-key", "bad-value", "repeated-key", "no-equals"],
    )
    def test_bad_config_file_line_exits_3_naming_it(self, workspace, tmp_path, capsys, lines,
                                                    lineno, message):
        """Refused even where a flag sets the same key."""
        path = tmp_path / "exp.conf"
        path.write_text("\n".join(lines) + "\n")
        code = main(["train", "--regime", workspace["regime"], "--config", str(path),
                     "--out", str(tmp_path / "x"), "--set", "train.epochs=1"] + CUTS)
        assert code == 3
        assert f"{path}:{lineno}: {message}\n" in capsys.readouterr().err

    def test_repeated_set_flag_exits_3_naming_the_key(self, workspace, tmp_path, capsys):
        """As a config file's repeated key is: the last flag does not win."""
        out = tmp_path / "x"
        code = main(["train", "--regime", workspace["regime"], "--out", str(out),
                     "--set", "train.epochs=1", "--set", " train.epochs=2"] + CUTS)
        assert code == 3
        assert "config key train.epochs is set twice by --set\n" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_file_exits_3(self, workspace, tmp_path, capsys):
        path = str(tmp_path / "nope.cfg")
        code = main(["train", "--regime", workspace["regime"], "--config", path,
                     "--out", str(tmp_path / "x")])
        assert code == 3
        assert path in capsys.readouterr().err
