"""Command surface: exit codes, artifact determinism, resume, and hash
validation between pipeline stages."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from semidx import cli
from semidx.autodiff import Optimizer
from semidx.cli import main
from semidx.config import ConfigError, from_dict, load_config
from semidx.data import Vocab
from semidx.index import CodeIndex
from semidx.model import checkpoint_hash, load_checkpoint, save_checkpoint


def mini_config(out_dir, **overrides) -> dict:
    cfg = {
        "seed": 11,
        "out_dir": str(out_dir),
        "data_dir": str(Path(out_dir) / "data"),
        "data": {"depth": 1, "branching": 3, "vocab_per_node": 10, "items_per_leaf": 6,
                 "queries_per_item": 3, "query_noise": 0.1, "tokens_per_level": 5,
                 "holdout_per_item": 1},
        "model": {"hidden_size": 16, "feed_forward_size": 32, "max_text_len": 14,
                  "encoder_layers": 1, "decoder_layers": 1, "attention_heads": 2},
        "pretrain": {"epochs": 2, "batch_size": 8, "lr": 2e-3},
        "train": {"num_steps": 2, "codebook_size": 4, "warmup_batches": 2,
                  "group_size": 4, "batch_size": 16, "queries_per_item": 2,
                  "epochs_per_step": 1, "lr": 1e-3},
        "eval": {"beam_width": 3, "recall_ks": [1, 10], "mrr_k": 10},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, payload, name="config.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def run_pipeline(cfg_path) -> None:
    for command in ("synth", "pretrain", "train", "index", "retrieve", "eval"):
        assert main([command, "--config", str(cfg_path)]) == 0, command


def hash_tree(root: Path, names) -> dict:
    return {n: hashlib.sha256((root / n).read_bytes()).hexdigest() for n in names}


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            from_dict({"seeed": 1})
        with pytest.raises(ConfigError):
            from_dict({"train": {"warmup": 5}})

    def test_load_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_roundtrip(self, tmp_path):
        """The checkpoint header records what the run derives for the model;
        the config written next to it holds only the backbone's shape."""
        out = tmp_path / "run"
        cfg_path = write_config(tmp_path, mini_config(out))
        cfg = load_config(cfg_path)
        assert cfg.train.codebook_size == 4
        for command in ("synth", "pretrain"):
            assert main([command, "--config", str(cfg_path)]) == 0, command
        header = load_checkpoint(out / "pretrain.ckpt").model.config
        assert (header.num_steps, header.codebook_size, header.seed, header.vocab_size) == (
            cfg.train.num_steps, cfg.train.codebook_size, cfg.seed,
            len(Vocab.load(out / "vocab.json")))
        written = json.loads((out / "config.resolved.json").read_text())
        assert set(written["model"]) == {"hidden_size", "encoder_layers", "decoder_layers",
                                         "attention_heads", "feed_forward_size", "max_text_len"}
        assert load_config(out / "config.resolved.json") == cfg

    @pytest.mark.parametrize("section, key, value", [
        ("data", "tokenizer_mode", "word"), ("data", "vocab_max_size", None),
        ("pretrain", "examples_per_epoch", None), ("pretrain", "cloze_target", "full"),
        ("train", "kl_gradient", "both"), ("train", "symmetric_contrastive", False),
        ("train", "pair_weighting", "uniform"), ("pretrain", "optimizer", "adam"),
        ("train", "optimizer", "adam"), ("train", "temperature", 1.0),
        ("train", "alignment_weight", 1.0), ("train", "commitment_weight", 1.0),
        ("train", "mask_same_item", True), ("train", "reinit_pool_size", 512),
        ("train", "laplace_eps", 1e-5), ("data", "vocab_min_freq", 1),
        ("data", "noise_pool_size", 60), ("eval", "consistency_levels", [1, 2])])
    def test_deleted_key_rejected(self, tmp_path, capsys, section, key, value):
        """Each deleted key, even at its old default, is an unknown key: synth
        exits 2 naming it and writes nothing."""
        with pytest.raises(ConfigError, match=key):
            from_dict({section: {key: value}})
        cfg = mini_config(tmp_path / "run")
        cfg[section][key] = value
        capsys.readouterr()
        assert main(["synth", "--config", str(write_config(tmp_path, cfg))]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_resolved_config_reloads_equal(self, tmp_path):
        """The config a stage writes next to its outputs loads back unchanged."""
        out = tmp_path / "run"
        cfg_path = write_config(tmp_path, mini_config(out))
        assert main(["synth", "--config", str(cfg_path)]) == 0
        assert load_config(out / "config.resolved.json") == load_config(cfg_path)


class TestExitCodes:
    def test_missing_corpus_is_config_error(self, tmp_path):
        cfg_path = write_config(tmp_path, mini_config(tmp_path / "run"))
        assert main(["pretrain", "--config", str(cfg_path)]) == 2

    def test_bad_config_key_is_config_error(self, tmp_path):
        cfg = mini_config(tmp_path / "run")
        cfg["typo_key"] = 1
        cfg_path = write_config(tmp_path, cfg)
        assert main(["synth", "--config", str(cfg_path)]) == 2

    def test_invalid_synth_params(self, tmp_path):
        cfg = mini_config(tmp_path / "run")
        cfg["data"]["branching"] = 1
        cfg_path = write_config(tmp_path, cfg)
        assert main(["synth", "--config", str(cfg_path)]) == 2

    def test_vocab_hash_mismatch_rejected(self, tmp_path):
        out = tmp_path / "run"
        cfg_path = write_config(tmp_path, mini_config(out))
        assert main(["synth", "--config", str(cfg_path)]) == 0
        assert main(["pretrain", "--config", str(cfg_path)]) == 0
        # corrupt the stored vocabulary: the checkpoint no longer matches
        vocab_path = out / "vocab.json"
        payload = json.loads(vocab_path.read_text())
        payload["tokens"].append("stray_token")
        vocab_path.write_text(json.dumps(payload))
        assert main(["train", "--config", str(cfg_path)]) == 2

    def test_train_codebook_size_other_than_checkpoint_refused(self, tmp_path, capsys):
        """A schedule whose codebook size differs from the pre-trained model's
        is refused before training, not run at the checkpoint's size."""
        out = tmp_path / "run"
        cfg = mini_config(out)
        cfg_path = write_config(tmp_path, cfg)
        assert main(["synth", "--config", str(cfg_path)]) == 0
        assert main(["pretrain", "--config", str(cfg_path)]) == 0
        cfg["train"]["codebook_size"] = 8
        capsys.readouterr()
        assert main(["train", "--config", str(write_config(tmp_path, cfg, "k8.json"))]) == 2
        assert "8-entry codebooks but the model was built with 4" in capsys.readouterr().err
        assert not (out / "model_step1.ckpt").exists()

    def test_corrupt_vocab_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg_path = write_config(tmp_path, mini_config(out))
        assert main(["synth", "--config", str(cfg_path)]) == 0
        assert main(["pretrain", "--config", str(cfg_path)]) == 0
        vocab_path = out / "vocab.json"
        payload = json.loads(vocab_path.read_text())
        del payload["mode"]
        vocab_path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["train", "--config", str(cfg_path)]) == 2
        assert "corrupt vocabulary file (lacks mode)" in capsys.readouterr().err

    def test_nonfinite_model_is_runtime_error(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg_path = write_config(tmp_path, mini_config(out))
        for command in ("synth", "pretrain", "train"):
            assert main([command, "--config", str(cfg_path)]) == 0, command
        bundle = load_checkpoint(out / "model.ckpt")
        bundle.model.params["tok_emb"].data[:] = np.nan
        save_checkpoint(out / "model.ckpt", bundle.model)
        capsys.readouterr()
        assert main(["index", "--config", str(cfg_path)]) == 3
        assert "softmax input must be finite" in capsys.readouterr().err
        assert not (out / "index.json").exists()

    @pytest.mark.parametrize("key, value", [("num_steps", 3), ("codebook_size", 32),
                                            ("seed", 9), ("vocab_size", 50)])
    def test_derived_model_key_is_config_error(self, tmp_path, capsys, key, value):
        """Keys the pipeline derives for the model are unknown in the model
        section, which holds only the backbone's shape."""
        cfg = mini_config(tmp_path / "run")
        cfg["model"][key] = value
        cfg_path = write_config(tmp_path, cfg)
        capsys.readouterr()
        assert main(["synth", "--config", str(cfg_path)]) == 2
        assert f"unknown config key(s) in model: ['{key}']" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("section, key, value, message", [
        ("model", "hidden_size", "16", "model.hidden_size must be int"),
        ("train", "num_steps", "2", "train.num_steps must be int"),
        ("train", "codebook_size", 4.0, "train.codebook_size must be int"),
        ("train", "warmup_batches", True, "train.warmup_batches must be int"),
        ("train", "lr", "1e-3", "train.lr must be float"),
        ("eval", "kmeans_baseline", 1, "eval.kmeans_baseline must be bool"),
        (None, "out_dir", None, "out_dir must be str"),
        ("eval", "recall_ks", [1, "10"], "eval.recall_ks must be list[int]"),
        ("eval", "recall_ks", 10, "eval.recall_ks must be list[int]"),
        ("train", "gamma", 1.5, "train.gamma must lie in (0, 1]"),
        ("train", "gamma", 0, "train.gamma must lie in (0, 1]"),
        ("train", "laplace_eps", 0, "unknown config key(s) in train: ['laplace_eps']"),
        ("train", "laplace_eps", -1e-5, "unknown config key(s) in train: ['laplace_eps']"),
        ("eval", "retrieve_cutoff", 0, "eval.retrieve_cutoff must be >= 1"),
        ("eval", "retrieve_cutoff", -1, "eval.retrieve_cutoff must be >= 1"),
        ("eval", "beam_width", 0, "eval.beam_width must be >= 1"),
        ("eval", "beam_width", -1, "eval.beam_width must be >= 1"),
        ("eval", "mrr_k", 0, "eval.mrr_k must be >= 1"),
        ("eval", "dense_k", 0, "eval.dense_k must be >= 1"),
        ("eval", "recall_ks", [], "eval.recall_ks must not be empty"),
        ("eval", "recall_ks", [1, 0], "eval.recall_ks entries must be >= 1"),
        ("eval", "consistency_levels", [1, 0],
         "unknown config key(s) in eval: ['consistency_levels']"),
        (None, "seed", "11", "seed must be int"),
        ("model", "attention_heads", 0, "model.attention_heads must be >= 1, not 0"),
        ("model", "attention_heads", -2, "model.attention_heads must be >= 1, not -2"),
        ("model", "hidden_size", 0, "model.hidden_size must be >= 1, not 0"),
        ("model", "max_text_len", 0, "model.max_text_len must be >= 1, not 0"),
        ("model", "feed_forward_size", 0, "model.feed_forward_size must be >= 1, not 0"),
        ("model", "encoder_layers", -1, "model.encoder_layers must be >= 0, not -1"),
        ("model", "decoder_layers", -1, "model.decoder_layers must be >= 0, not -1"),
        ("model", "hidden_size", 15, "model.hidden_size must be divisible by attention_heads"),
        ("train", "batch_size", 0, "train.batch_size must be >= 1, not 0"),
        ("train", "queries_per_item", 0, "train.queries_per_item must be >= 1, not 0"),
        ("train", "group_size", 0, "train.group_size must be >= 1, not 0"),
        ("pretrain", "batch_size", 0, "pretrain.batch_size must be >= 1, not 0"),
        (None, "seed", -1, "seed must be >= 0, not -1"),
        ("pretrain", "epochs", -1, "pretrain.epochs must be >= 0, not -1"),
        ("train", "warmup_batches", -1, "train.warmup_batches must be >= 0, not -1"),
        ("train", "reinit_interval_batches", -1,
         "train.reinit_interval_batches must be >= 0, not -1"),
        ("train", "dead_code_threshold", -0.5, "train.dead_code_threshold must be >= 0, not -0.5"),
        ("data", "holdout_per_item", -1, "data.holdout_per_item must be >= 0, not -1"),
        ("train", "epochs_per_step", 0, "train.epochs_per_step must be >= 1, not 0"),
        ("train", "num_steps", 0, "train.num_steps must be >= 1, not 0"),
        ("data", "depth", 0, "data.depth must be >= 1, not 0"),
        ("data", "vocab_per_node", 0, "data.vocab_per_node must be >= 1, not 0"),
        ("data", "items_per_leaf", 0, "data.items_per_leaf must be >= 1, not 0"),
        ("data", "queries_per_item", 0, "data.queries_per_item must be >= 1, not 0"),
        ("data", "tokens_per_level", 0, "data.tokens_per_level must be >= 1, not 0"),
        ("data", "branching", 1, "data.branching must be >= 2, not 1"),
        ("train", "codebook_size", 1, "train.codebook_size must be >= 2, not 1"),
        ("train", "lr", -1.0, "train.lr must be > 0, not -1.0"),
        ("pretrain", "lr", 0, "pretrain.lr must be > 0, not 0"),
        ("data", "query_noise", 2.0, "data.query_noise must lie in [0, 1], not 2.0"),
        ("data", "query_noise", -0.1, "data.query_noise must lie in [0, 1], not -0.1"),
    ], ids=["int-as-str", "steps-as-str", "int-as-float", "int-as-bool", "float-as-str",
            "bool-as-int", "str-as-null", "list-with-str", "list-as-int", "gamma-above-1",
            "gamma-zero", "eps-zero", "eps-negative", "cutoff-zero", "cutoff-negative",
            "beam-zero", "beam-negative", "mrr-zero", "dense-k-zero", "recall-empty",
            "recall-zero", "level-zero", "top-level-int-as-str", "heads-zero",
            "heads-negative", "hidden-zero", "text-len-zero", "feed-forward-zero",
            "encoder-layers-negative", "decoder-layers-negative", "hidden-indivisible",
            "train-batch-zero", "train-queries-zero", "group-zero", "pretrain-batch-zero",
            "seed-negative", "pretrain-epochs-negative", "warmup-negative",
            "reinit-interval-negative", "dead-threshold-negative", "holdout-negative",
            "epochs-per-step-zero", "num-steps-zero", "depth-zero", "vocab-per-node-zero",
            "items-per-leaf-zero", "data-queries-zero", "tokens-per-level-zero",
            "branching-one", "codebook-one", "train-lr-negative", "pretrain-lr-zero",
            "noise-above-one", "noise-negative"])
    def test_bad_value_is_config_error(self, tmp_path, capsys, section, key, value,
                                       message):
        """A value of the wrong type or out of range fails with exit 2 before
        synth writes anything, naming the key."""
        cfg = mini_config(tmp_path / "run")
        (cfg[section] if section else cfg)[key] = value
        cfg_path = write_config(tmp_path, cfg)
        capsys.readouterr()
        assert main(["synth", "--config", str(cfg_path)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_negative_seed_flag_is_config_error(self, tmp_path, capsys):
        """--seed goes through the config loader's range check like the file's
        seed: exit 2 naming the key, nothing written."""
        capsys.readouterr()
        assert main(["synth", "--out", str(tmp_path / "run"), "--seed", "-1"]) == 2
        assert "seed must be >= 0, not -1" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_int_for_float_key_loads(self, tmp_path):
        cfg = mini_config(tmp_path / "run")
        cfg["train"].update(gamma=1, lr=1)
        cfg = load_config(write_config(tmp_path, cfg))
        assert cfg.train.gamma == 1 and cfg.train.lr == 1

    def test_console_entry_point(self, tmp_path):
        # the child imports semidx from where this process did, installed or not
        src = str(Path(cli.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-m", "semidx.cli", "synth",
                                 "--out", str(tmp_path / "run")],
                                capture_output=True, text=True,
                                env=dict(os.environ, PYTHONPATH=path))
        assert result.returncode == 0


class TestPipelineArtifacts:
    def test_full_pipeline_and_manifests(self, tmp_path):
        out = tmp_path / "run"
        cfg_path = write_config(tmp_path, mini_config(out))
        run_pipeline(cfg_path)
        for artifact in ("vocab.json", "pretrain.ckpt", "model.ckpt", "index.json",
                         "assignments_step1.json", "assignments_step2.json",
                         "runs_dense.json", "runs_generative.json", "metrics.json"):
            assert (out / artifact).exists(), artifact
        manifest = json.loads((out / "retrieve_manifest.json").read_text())
        assert set(manifest["inputs"]) == {"model", "index", "items", "queries"}
        manifest = json.loads((out / "eval_manifest.json").read_text())
        assert set(manifest["inputs"]) == {"model", "index", "items", "queries",
                                           "runs_dense", "runs_generative"}
        report = json.loads((out / "metrics.json").read_text())
        names = {m["name"] for m in report["metrics"]}
        assert {"recall", "mrr", "ami", "code_consistency"} <= names
        for m in report["metrics"]:
            assert 0.0 <= m["value"] <= 1.0 or m["name"] == "ami"

    def test_assignments_checkpoint_hash_matches(self, tmp_path):
        out = tmp_path / "run"
        cfg_path = write_config(tmp_path, mini_config(out))
        for command in ("synth", "pretrain", "train"):
            assert main([command, "--config", str(cfg_path)]) == 0
        for step in (1, 2):
            step_hash = hashlib.sha256((out / f"model_step{step}.ckpt").read_bytes()).hexdigest()
            assigned = CodeIndex.load(out / f"assignments_step{step}.json",
                                      expected_checkpoint_hash=step_hash)
            assert assigned.num_steps == step and assigned.checkpoint_hash == step_hash

    def test_freeze_invariant_across_persisted_steps(self, tmp_path):
        out = tmp_path / "run"
        cfg_path = write_config(tmp_path, mini_config(out))
        for command in ("synth", "pretrain", "train"):
            assert main([command, "--config", str(cfg_path)]) == 0
        a1, a2 = (CodeIndex.load(out / f"assignments_step{step}.json",
                                 expected_checkpoint_hash=checkpoint_hash(
                                     out / f"model_step{step}.ckpt")).by_item
                  for step in (1, 2))
        assert set(a1) == set(a2)
        for iid, sid in a2.items():
            assert sid[:1] == a1[iid]

    def test_pretrain_resume_continues_steps(self, tmp_path):
        """A resume continues the step count and takes the learning rate from
        its config, not from the checkpoint: at lr 1e-300, too small to move
        a float64 parameter, it moves none."""
        out = tmp_path / "run"
        cfg = mini_config(out)
        cfg_path = write_config(tmp_path, cfg)
        assert main(["synth", "--config", str(cfg_path)]) == 0
        assert main(["pretrain", "--config", str(cfg_path)]) == 0
        before = load_checkpoint(out / "pretrain.ckpt")
        cfg["pretrain"].update(epochs=4, lr=1e-300)
        cfg_path = write_config(tmp_path, cfg, name="config4.json")
        assert main(["pretrain", "--config", str(cfg_path),
                     "--from", str(out / "pretrain.ckpt")]) == 0
        after = load_checkpoint(out / "pretrain.ckpt")
        assert (after.optimizer_state["step_count"]
                > before.optimizer_state["step_count"])
        for name, p in after.model.params.items():
            assert p.data.tobytes() == before.model.params[name].data.tobytes(), name

    def test_pretrain_resume_matches_straight_run(self, tmp_path):
        """Two epochs resumed with ``--from`` to four write the same
        pretrain.ckpt, optimizer moments and counters included, as four
        epochs run straight."""
        def pretrain(out, epochs, *resume):
            cfg = mini_config(out)
            cfg["pretrain"]["epochs"] = epochs
            return main(["pretrain", "--config", str(write_config(tmp_path, cfg)), *resume])

        straight, resumed = tmp_path / "straight", tmp_path / "resumed"
        for out in (straight, resumed):
            assert main(["synth", "--config", str(write_config(tmp_path, mini_config(out)))]) == 0
        assert pretrain(straight, 4) == 0
        assert pretrain(resumed, 2) == 0
        assert pretrain(resumed, 4, "--from", str(resumed / "pretrain.ckpt")) == 0
        assert ((straight / "pretrain.ckpt").read_bytes()
                == (resumed / "pretrain.ckpt").read_bytes())

    def test_train_checkpoints_carry_no_optimizer(self, tmp_path):
        """Only pretrain.ckpt is resumed from, so only it keeps optimizer state."""
        out = tmp_path / "run"
        cfg_path = write_config(tmp_path, mini_config(out))
        for command in ("synth", "pretrain", "train"):
            assert main([command, "--config", str(cfg_path)]) == 0
        assert load_checkpoint(out / "pretrain.ckpt").optimizer_state is not None
        for name in ("model_step1.ckpt", "model_step2.ckpt", "model.ckpt"):
            assert load_checkpoint(out / name).optimizer_state is None, name

    def test_pretrain_resume_keeps_epochs_completed(self, tmp_path):
        """Resuming with fewer epochs than already ran makes no update and
        keeps the recorded epoch count, so a later resume does not rerun them."""
        out = tmp_path / "run"
        cfg = mini_config(out)
        cfg["pretrain"]["epochs"] = 4
        cfg_path = write_config(tmp_path, cfg)
        assert main(["synth", "--config", str(cfg_path)]) == 0
        assert main(["pretrain", "--config", str(cfg_path)]) == 0
        before = load_checkpoint(out / "pretrain.ckpt")
        cfg["pretrain"]["epochs"] = 2
        cfg_path = write_config(tmp_path, cfg, name="config2.json")
        assert main(["pretrain", "--config", str(cfg_path),
                     "--from", str(out / "pretrain.ckpt")]) == 0
        after = load_checkpoint(out / "pretrain.ckpt")
        assert (after.optimizer_state["step_count"]
                == before.optimizer_state["step_count"])
        assert after.extra["epochs_completed"] == before.extra["epochs_completed"] == 4

    @pytest.mark.parametrize("epochs_completed", [[1], True, "2", -1],
                             ids=["list", "bool", "string", "negative"])
    def test_pretrain_resume_rejects_bad_epochs_completed(self, tmp_path, capsys,
                                                          epochs_completed):
        """A resume checkpoint whose epoch count is not a non-negative integer
        is refused as corrupt, before any epoch runs."""
        out = tmp_path / "run"
        cfg_path = write_config(tmp_path, mini_config(out))
        assert main(["synth", "--config", str(cfg_path)]) == 0
        assert main(["pretrain", "--config", str(cfg_path)]) == 0
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(bad, load_checkpoint(out / "pretrain.ckpt").model,
                        extra={"epochs_completed": epochs_completed})
        (out / "pretrain_log.jsonl").unlink()
        capsys.readouterr()
        assert main(["pretrain", "--config", str(cfg_path), "--from", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "truncated or corrupt checkpoint (epochs_completed" in err
        assert not (out / "pretrain_log.jsonl").exists()

    def test_code_usage_entropy_logged_positive(self, tmp_path):
        out = tmp_path / "run"
        cfg_path = write_config(tmp_path, mini_config(out))
        for command in ("synth", "pretrain", "train"):
            assert main([command, "--config", str(cfg_path)]) == 0
        summaries = [json.loads(line) for line in
                     (out / "train_log.jsonl").read_text().splitlines()
                     if json.loads(line).get("phase") == "step_summary"]
        assert len(summaries) == 2
        assert all(s["code_usage_entropy"] > 0 for s in summaries)

    @pytest.mark.filterwarnings("ignore:non-finite gradient")
    def test_skipped_update_logged(self, tmp_path, monkeypatch):
        class FirstGradientNonFinite(Optimizer):
            def step(self):
                if self.step_count == 0 and self.skipped_updates == 0:
                    p = next(iter(self.params.values()))
                    p.grad = np.full_like(p.data, np.nan)
                return super().step()

        monkeypatch.setattr(cli, "Optimizer", FirstGradientNonFinite)
        out = tmp_path / "run"
        cfg_path = write_config(tmp_path, mini_config(out))
        for command in ("synth", "pretrain", "train"):
            assert main([command, "--config", str(cfg_path)]) == 0
        pretrain_log = read_jsonl(out / "pretrain_log.jsonl")
        assert [r["skipped_updates"] for r in pretrain_log] == [1] * len(pretrain_log)
        summaries = [r for r in read_jsonl(out / "train_log.jsonl")
                     if r["phase"] == "step_summary"]
        assert [s["skipped_updates"] for s in summaries] == [1, 1]


@pytest.fixture(scope="class")
def retrieved(tmp_path_factory):
    """One mini run through retrieve, shared by the tests of one class."""
    root = tmp_path_factory.mktemp("retrieved")
    cfg = mini_config(root / "run")
    cfg_path = write_config(root, cfg)
    for command in ("synth", "pretrain", "train", "index", "retrieve"):
        assert main([command, "--config", str(cfg_path)]) == 0, command
    return root / "run", cfg, cfg_path


class TestEvalScoresRetrieveRuns:
    @pytest.fixture
    def run(self, retrieved):
        """The shared run; every JSON artifact or corpus file a test alters is put back."""
        out = retrieved[0]
        saved = {p: p.read_bytes() for p in [*out.glob("*.json"), *out.glob("data/*.jsonl")]}
        yield retrieved
        for p in out.glob("*.json"):
            if p not in saved:
                p.unlink()
        for p, data in saved.items():
            p.write_bytes(data)

    @staticmethod
    def eval_refused(cfg_path, capsys, reason) -> bool:
        capsys.readouterr()
        code = main(["eval", "--config", str(cfg_path)])
        return code == 2 and reason in capsys.readouterr().err

    def test_missing_runs_refused(self, run, capsys):
        out, _, cfg_path = run
        for mode in ("dense", "generative"):
            (out / f"runs_{mode}.json").unlink()
        assert self.eval_refused(cfg_path, capsys, "missing retrieval runs")
        assert not (out / "metrics.json").exists()

    def test_missing_heldout_refused(self, run, capsys):
        """Without pairs_heldout.jsonl, retrieve and eval exit 2 naming it and
        write no runs or metrics; they never score the training pairs."""
        out, _, cfg_path = run
        heldout = out / "data" / "pairs_heldout.jsonl"
        heldout.unlink()
        for mode in ("dense", "generative"):
            (out / f"runs_{mode}.json").unlink()
        reason = f"missing held-out query pairs file: {heldout}"
        for command in ("retrieve", "eval"):
            capsys.readouterr()
            assert main([command, "--config", str(cfg_path)]) == 2, command
            assert reason in capsys.readouterr().err, command
        assert not list(out.glob("runs_*.json"))
        assert not (out / "metrics.json").exists()

    def test_missing_retrieve_manifest_refused(self, run, capsys):
        out, _, cfg_path = run
        (out / "retrieve_manifest.json").unlink()
        assert self.eval_refused(cfg_path, capsys, "missing retrieve manifest")

    def test_other_checkpoint_refused(self, run, capsys):
        out, _, cfg_path = run
        path = out / "retrieve_manifest.json"
        manifest = json.loads(path.read_text())
        manifest["inputs"]["model"] = "0" * 64
        path.write_text(json.dumps(manifest))
        assert self.eval_refused(cfg_path, capsys, "another checkpoint or index")

    def test_edited_heldout_refused(self, run, capsys):
        out, _, cfg_path = run
        path = out / "data" / "pairs_heldout.jsonl"
        pairs = read_jsonl(path)
        targets = [p["item_id"] for p in pairs]
        for pair, other in zip(pairs, targets[1:] + targets[:1]):
            pair["item_id"] = other
        path.write_text("".join(json.dumps(p) + "\n" for p in pairs))
        assert self.eval_refused(cfg_path, capsys, "held-out queries; run retrieve again")
        assert not (out / "metrics.json").exists()

    def test_other_config_refused(self, run, tmp_path, capsys):
        _, cfg, _ = run
        cfg = json.loads(json.dumps(cfg))
        cfg["eval"]["beam_width"] += 1
        assert self.eval_refused(write_config(tmp_path, cfg), capsys, "another config")

    @pytest.mark.parametrize("name, edit, reason", [
        ("runs_dense.json", lambda rows: [1], "runs_dense.json: corrupt retrieval runs file"),
        ("runs_generative.json", lambda rows: [dict(rows[0], extra=1), *rows[1:]],
         "runs_generative.json: corrupt retrieval runs file"),
        ("retrieve_manifest.json", lambda manifest: [],
         "retrieve_manifest.json: corrupt retrieve manifest file"),
        ("runs_dense.json", None, "runs_dense.json: corrupt retrieval runs file (not JSON)"),
        ("retrieve_manifest.json", None,
         "retrieve_manifest.json: corrupt retrieve manifest file (not JSON)"),
    ], ids=["runs-not-rows", "runs-row-extra-key", "manifest-not-object", "runs-not-json",
            "manifest-not-json"])
    def test_corrupt_retrieve_file_refused(self, run, capsys, name, edit, reason):
        """A file retrieve wrote that eval cannot read is a corrupt artifact
        (exit 2), not a runtime failure, and no metrics are written. An
        ``edit`` of None leaves text that is not JSON."""
        out, _, cfg_path = run
        path = out / name
        path.write_text("not json" if edit is None else
                        json.dumps(edit(json.loads(path.read_text()))))
        assert self.eval_refused(cfg_path, capsys, reason)
        assert not (out / "metrics.json").exists()

    def test_dropped_query_refused(self, run, capsys):
        out, _, cfg_path = run
        path = out / "runs_dense.json"
        path.write_text(json.dumps(json.loads(path.read_text())[1:]))
        assert self.eval_refused(cfg_path, capsys, "runs_dense.json does not answer")

    def test_dense_k_below_largest_cutoff_refused(self, run, tmp_path, capsys, monkeypatch):
        _, cfg, _ = run
        cfg = json.loads(json.dumps(cfg))
        cfg["eval"]["dense_k"] = cfg["eval"]["mrr_k"] - 1

        def no_model_work(*args, **kwargs):
            raise AssertionError("the dense_k check comes before any model work")

        monkeypatch.setattr(cli, "load_checkpoint", no_model_work)
        assert self.eval_refused(write_config(tmp_path, cfg), capsys, "eval.dense_k")

    def test_baseline_checkpoint_on_other_vocabulary_refused(self, run, tmp_path, capsys):
        """The k-means baseline's pretrain.ckpt is checked against vocab.json
        like every other checkpoint the pipeline loads."""
        out, cfg, _ = run
        cfg = json.loads(json.dumps(cfg))
        cfg["eval"]["kmeans_baseline"] = True
        cfg_path = write_config(tmp_path, cfg)
        assert main(["retrieve", "--config", str(cfg_path)]) == 0
        pre_path = out / "pretrain.ckpt"
        saved = pre_path.read_bytes()
        try:
            bundle = load_checkpoint(pre_path)
            bundle.model.vocab_hash = "0" * 64
            save_checkpoint(pre_path, bundle.model)
            assert self.eval_refused(cfg_path, capsys,
                                     "pretrain.ckpt: vocabulary hash does not match")
        finally:
            pre_path.write_bytes(saved)
        assert not (out / "metrics.json").exists()

    def test_eval_recomputes_no_retrieval(self, run, monkeypatch):
        out, _, cfg_path = run
        assert main(["eval", "--config", str(cfg_path)]) == 0
        first = (out / "metrics.json").read_bytes()
        (out / "metrics.json").unlink()

        def recomputed(*args, **kwargs):
            raise AssertionError("eval must score the runs retrieve wrote")

        for name in ("beam_search_decode_batch", "item_representation_matrix", "dense_rank"):
            monkeypatch.setattr(cli.index_mod, name, recomputed)
        assert main(["eval", "--config", str(cfg_path)]) == 0
        assert (out / "metrics.json").read_bytes() == first


class TestCorpusReads:
    OUTPUTS = ("index.json", "runs_dense.json", "runs_generative.json", "metrics.json",
               "index_manifest.json", "retrieve_manifest.json", "eval_manifest.json")

    def test_later_stages_read_no_train_pairs(self, retrieved):
        """index, retrieve and eval read only items.jsonl and the held-out pairs."""
        out, _, cfg_path = retrieved
        assert main(["eval", "--config", str(cfg_path)]) == 0
        assert (out / "data" / "pairs_heldout.jsonl").exists()
        before = hash_tree(out, self.OUTPUTS)
        (out / "data" / "pairs.jsonl").write_text("not a pair\n" * 5)
        for command in ("index", "retrieve", "eval"):
            assert main([command, "--config", str(cfg_path)]) == 0, command
        assert hash_tree(out, self.OUTPUTS) == before


class TestOneItemCorpus:
    def test_both_modes_return_the_item(self, tmp_path):
        out = tmp_path / "run"
        data_dir = out / "data"
        data_dir.mkdir(parents=True)
        (data_dir / "items.jsonl").write_text(
            json.dumps({"id": "solo", "text": "red fox jumps high"}) + "\n")
        pair = json.dumps({"query": "fox jumps", "item_id": "solo",
                           "weight": 1, "behavior": "click"}) + "\n"
        for name in ("pairs.jsonl", "pairs_heldout.jsonl"):
            (data_dir / name).write_text(pair)
        cfg = mini_config(out)
        cfg["pretrain"]["epochs"] = 1
        cfg_path = write_config(tmp_path, cfg)
        for command in ("pretrain", "train", "index"):
            assert main([command, "--config", str(cfg_path)]) == 0, command
        assert main(["retrieve", "--config", str(cfg_path)]) == 0
        for name in ("runs_dense.json", "runs_generative.json"):
            runs = json.loads((out / name).read_text())
            assert all(r["item_ids"] == ["solo"] for r in runs), name


class TestDeterminism:
    ARTIFACTS = ("metrics.json", "assignments_step1.json", "assignments_step2.json",
                 "index.json", "runs_dense.json", "runs_generative.json")

    def test_identical_runs_hash_equal(self, tmp_path):
        """Same config + seed, run twice into the same location: hash-equal
        metrics, assignments, index, and runs."""
        out = tmp_path / "run"
        cfg_path = write_config(tmp_path, mini_config(out))
        run_pipeline(cfg_path)
        first = hash_tree(out, self.ARTIFACTS)
        shutil.rmtree(out)
        run_pipeline(cfg_path)
        second = hash_tree(out, self.ARTIFACTS)
        assert first == second

    def test_seed_changes_outputs(self, tmp_path):
        out = tmp_path / "run"
        cfg_path = write_config(tmp_path, mini_config(out))
        run_pipeline(cfg_path)
        first = hash_tree(out, ("index.json",))
        shutil.rmtree(out)
        for command in ("synth", "pretrain", "train", "index"):
            assert main([command, "--config", str(cfg_path), "--seed", "99"]) == 0
        second = hash_tree(out, ("index.json",))
        assert first != second
