"""Command surface: exit codes, artifact determinism, resume, and hash
validation between pipeline stages."""

import hashlib
import json
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
from semidx.model import load_checkpoint


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
        cfg_path = write_config(tmp_path, mini_config(tmp_path / "run"))
        cfg = load_config(cfg_path)
        assert cfg.train.codebook_size == 4
        resolved = cfg.resolved()
        assert resolved.model.num_steps == cfg.train.num_steps

    @pytest.mark.parametrize("section, key, value", [
        ("data", "tokenizer_mode", "word"), ("data", "vocab_max_size", None),
        ("pretrain", "examples_per_epoch", None), ("pretrain", "cloze_target", "full"),
        ("train", "kl_gradient", "both"), ("train", "symmetric_contrastive", False),
        ("train", "pair_weighting", "uniform")])
    def test_deleted_key_rejected(self, section, key, value):
        """Each deleted key, even at its old default, is an unknown key."""
        with pytest.raises(ConfigError, match=key):
            from_dict({section: {key: value}})


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

    def test_misspelt_choice_is_config_error(self, tmp_path):
        cfg = mini_config(tmp_path / "run")
        cfg["train"]["optimizer"] = "adma"
        cfg_path = write_config(tmp_path, cfg)
        assert main(["synth", "--config", str(cfg_path)]) == 2
        assert not (tmp_path / "run").exists()

    def test_console_entry_point(self, tmp_path):
        result = subprocess.run([sys.executable, "-m", "semidx.cli", "synth",
                                 "--out", str(tmp_path / "run")],
                                capture_output=True, text=True)
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
        payload = json.loads((out / "assignments_step1.json").read_text())
        step_hash = hashlib.sha256((out / "model_step1.ckpt").read_bytes()).hexdigest()
        assert payload["checkpoint_hash"] == step_hash

    def test_freeze_invariant_across_persisted_steps(self, tmp_path):
        out = tmp_path / "run"
        cfg_path = write_config(tmp_path, mini_config(out))
        for command in ("synth", "pretrain", "train"):
            assert main([command, "--config", str(cfg_path)]) == 0
        a1 = json.loads((out / "assignments_step1.json").read_text())["ids"]
        a2 = json.loads((out / "assignments_step2.json").read_text())["ids"]
        assert set(a1) == set(a2)
        for iid, sid in a2.items():
            assert sid[:1] == a1[iid]

    def test_pretrain_resume_continues_steps(self, tmp_path):
        out = tmp_path / "run"
        cfg = mini_config(out)
        cfg_path = write_config(tmp_path, cfg)
        assert main(["synth", "--config", str(cfg_path)]) == 0
        assert main(["pretrain", "--config", str(cfg_path)]) == 0
        steps_before = load_checkpoint(out / "pretrain.ckpt").optimizer_state["step_count"]
        cfg["pretrain"]["epochs"] = 4
        cfg_path = write_config(tmp_path, cfg, name="config4.json")
        assert main(["pretrain", "--config", str(cfg_path),
                     "--from", str(out / "pretrain.ckpt")]) == 0
        steps_after = load_checkpoint(out / "pretrain.ckpt").optimizer_state["step_count"]
        assert steps_after > steps_before

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
    """One mini run through retrieve, shared by the eval-contract tests."""
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


class TestOneItemCorpus:
    def test_both_modes_return_the_item(self, tmp_path):
        out = tmp_path / "run"
        data_dir = out / "data"
        data_dir.mkdir(parents=True)
        (data_dir / "items.jsonl").write_text(
            json.dumps({"id": "solo", "text": "red fox jumps high"}) + "\n")
        (data_dir / "pairs.jsonl").write_text(
            json.dumps({"query": "fox jumps", "item_id": "solo",
                        "weight": 1, "behavior": "click"}) + "\n")
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
