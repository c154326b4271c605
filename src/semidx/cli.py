"""Command-line pipeline: synth, pretrain, train, index, retrieve, eval.

Each command is deterministic given the same config and seed, writes its
resolved config plus the hashes of every input artifact it consumed, and
exits 0 on success, 2 on usage/config errors, 3 on runtime failures.
Machine-readable errors go to stderr as JSON lines. The only environment
variable honored is SEMIDX_LOG (log verbosity).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from semidx import index as index_mod
from semidx import metrics as metrics_mod
from semidx.autodiff import Optimizer
from semidx.config import (ConfigError, RunConfig, config_hash, dump_config,
                           from_dict, load_config, to_dict)
from semidx.data import (Corpus, Vocab, build_vocab, load_corpus, split_pairs,
                         synth_corpus, write_items, write_pairs)
from semidx.metrics import RankedList
from semidx.model import (TransformerModel, atomic_writer, checkpoint_hash,
                          load_checkpoint, pad_rows, save_checkpoint)
from semidx.pretrain import PretrainData, run_pretraining
from semidx.training import AlignmentData, progressive_train

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _hash_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_text(path: Path, text: str) -> None:
    with atomic_writer(path) as fh:
        fh.write(text.encode("utf-8"))


def _write_manifest(cfg: RunConfig, command: str, inputs: dict[str, Path]) -> None:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": command,
        "config": to_dict(cfg),
        "config_hash": config_hash(cfg),
        "inputs": {name: _hash_file(p) for name, p in sorted(inputs.items())},
    }
    _write_text(out / f"{command}_manifest.json",
                json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    dump_config(cfg, out / "config.resolved.json")


def _require(path: Path, hint: str) -> Path:
    if not path.exists():
        raise ConfigError(f"missing {hint}: {path}")
    return path


def _corpus_paths(cfg: RunConfig) -> tuple[Path, Path, Path]:
    data_dir = Path(cfg.data_dir)
    return data_dir / "items.jsonl", data_dir / "pairs.jsonl", data_dir / "pairs_heldout.jsonl"


def _load_train_corpus(cfg: RunConfig) -> Corpus:
    items_path, pairs_path, _ = _corpus_paths(cfg)
    _require(items_path, "corpus items file")
    _require(pairs_path, "corpus pairs file")
    corpus, _ = load_corpus(items_path, pairs_path)
    return corpus


def _load_vocab(cfg: RunConfig) -> Vocab:
    path = _require(Path(cfg.out_dir) / "vocab.json", "vocabulary file")
    return Vocab.load(path)


def _jsonl_logger(path: Path):
    fh = open(path, "w", encoding="utf-8")

    def log(record: dict) -> None:
        fh.write(json.dumps(record, sort_keys=True) + "\n")

    return log, fh


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_synth(cfg: RunConfig) -> int:
    d = cfg.data
    items, pairs = synth_corpus(
        depth=d.depth, branching=d.branching, vocab_per_node=d.vocab_per_node,
        items_per_leaf=d.items_per_leaf, query_noise=d.query_noise, seed=cfg.seed,
        queries_per_item=d.queries_per_item, tokens_per_level=d.tokens_per_level,
        noise_pool_size=d.noise_pool_size)
    train, heldout = split_pairs(pairs, d.holdout_per_item, seed=cfg.seed)
    data_dir = Path(cfg.data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    items_path, pairs_path, heldout_path = _corpus_paths(cfg)
    write_items(items, items_path)
    write_pairs(train, pairs_path)
    write_pairs(heldout, heldout_path)
    load_corpus(items_path, pairs_path)  # integrity check on what we wrote
    _write_manifest(cfg, "synth", {})
    logger.info("synth: %d items, %d train pairs, %d held-out pairs",
                len(items), len(train), len(heldout))
    return EXIT_OK


def cmd_pretrain(cfg: RunConfig, resume_from: str | None = None) -> int:
    corpus = _load_train_corpus(cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    start_epoch = 0
    if resume_from:
        bundle = load_checkpoint(_require(Path(resume_from), "checkpoint to resume from"))
        model = bundle.model
        vocab = _load_vocab(cfg)
        if vocab.content_hash() != model.vocab_hash:
            raise ConfigError("vocabulary hash does not match the resume checkpoint")
        optimizer = Optimizer(model.parameters(), lr=cfg.pretrain.lr,
                              mode=cfg.pretrain.optimizer)
        if bundle.optimizer_state is not None:
            optimizer.load_state_dict(bundle.optimizer_state)
        start_epoch = int(bundle.extra.get("epochs_completed", 0))
    else:
        texts = [it.text for it in corpus.items.values()] + [p.query for p in corpus.pairs]
        vocab = build_vocab(texts, min_freq=cfg.data.vocab_min_freq)
        vocab.save(out / "vocab.json")
        model_cfg = cfg.resolved().model
        model_cfg.vocab_size = len(vocab)
        model = TransformerModel(model_cfg, vocab_hash=vocab.content_hash())
        optimizer = Optimizer(model.parameters(), lr=cfg.pretrain.lr,
                              mode=cfg.pretrain.optimizer)

    data = PretrainData.from_corpus(corpus, vocab, model.config.max_text_len)
    log, fh = _jsonl_logger(out / "pretrain_log.jsonl")
    try:
        history = run_pretraining(model, optimizer, data, vocab,
                                  epochs=cfg.pretrain.epochs,
                                  batch_size=cfg.pretrain.batch_size,
                                  seed=cfg.seed, log_fn=log,
                                  start_epoch=start_epoch)
    finally:
        fh.close()
    save_checkpoint(out / "pretrain.ckpt", model, optimizer,
                    extra={"epochs_completed": cfg.pretrain.epochs})
    items_path, pairs_path, _ = _corpus_paths(cfg)
    _write_manifest(cfg, "pretrain", {"items": items_path, "pairs": pairs_path})
    if history.losses:
        logger.info("pretrain: first loss %.3f, last loss %.3f",
                    history.losses[0], history.losses[-1])
    return EXIT_OK


def cmd_train(cfg: RunConfig, from_checkpoint: str | None = None) -> int:
    corpus = _load_train_corpus(cfg)
    out = Path(cfg.out_dir)
    ckpt_path = Path(from_checkpoint) if from_checkpoint else out / "pretrain.ckpt"
    bundle = load_checkpoint(_require(ckpt_path, "pre-trained checkpoint"))
    model = bundle.model
    vocab = _load_vocab(cfg)
    if vocab.content_hash() != model.vocab_hash:
        raise ConfigError("vocabulary hash does not match the checkpoint")

    tcfg = cfg.train
    if tcfg.num_steps > model.config.num_steps:
        raise ConfigError(f"schedule asks for {tcfg.num_steps} steps but the model "
                          f"was built with {model.config.num_steps}")
    for cb in model.codebooks:
        cb.decay = tcfg.gamma
        cb.laplace_eps = tcfg.laplace_eps

    data = AlignmentData.from_corpus(corpus, vocab, model.config.max_text_len)
    optimizer = Optimizer(model.parameters(), lr=tcfg.lr, mode=tcfg.optimizer)
    log, fh = _jsonl_logger(out / "train_log.jsonl")
    try:
        for frozen, stats in progressive_train(model, optimizer, data, tcfg, cfg.seed,
                                               log_fn=log):
            step_ckpt = out / f"model_step{frozen.step}.ckpt"
            save_checkpoint(step_ckpt, model, optimizer)
            frozen.checkpoint_hash = checkpoint_hash(step_ckpt)
            frozen.save(out / f"assignments_step{frozen.step}.json")
            log({"phase": "step_summary", "step": frozen.step,
                 "code_usage_entropy": stats.code_usage_entropy,
                 "dead_codes_reinit": stats.dead_codes_reinit,
                 "skipped_updates": optimizer.skipped_updates,
                 "batches": stats.batches})
    finally:
        fh.close()
    save_checkpoint(out / "model.ckpt", model, optimizer)
    items_path, pairs_path, _ = _corpus_paths(cfg)
    _write_manifest(cfg, "train", {"items": items_path, "pairs": pairs_path,
                                   "pretrain_checkpoint": ckpt_path})
    return EXIT_OK


def _load_model_for_inference(cfg: RunConfig, from_checkpoint: str | None):
    out = Path(cfg.out_dir)
    ckpt_path = Path(from_checkpoint) if from_checkpoint else out / "model.ckpt"
    bundle = load_checkpoint(_require(ckpt_path, "trained model checkpoint"))
    vocab = _load_vocab(cfg)
    if vocab.content_hash() != bundle.model.vocab_hash:
        raise ConfigError("vocabulary hash does not match the checkpoint")
    return bundle.model, vocab, ckpt_path


def cmd_index(cfg: RunConfig, from_checkpoint: str | None = None) -> int:
    model, vocab, ckpt_path = _load_model_for_inference(cfg, from_checkpoint)
    corpus = _load_train_corpus(cfg)
    items = {iid: vocab.encode(it.text, model.config.max_text_len)
             for iid, it in sorted(corpus.items.items())}
    depth = model.trained_steps
    if depth < 1:
        raise ConfigError("model has no trained steps; run the train command first")
    idx = index_mod.assign_all_ids(model, items, depth,
                                   checkpoint_hash=checkpoint_hash(ckpt_path))
    out = Path(cfg.out_dir)
    idx.save(out / "index.json")
    items_path, pairs_path, _ = _corpus_paths(cfg)
    _write_manifest(cfg, "index", {"items": items_path, "model": ckpt_path})
    logger.info("index: %d items at depth %d", len(idx), depth)
    return EXIT_OK


def _query_inputs(cfg: RunConfig) -> dict[str, Path]:
    """The corpus files the held-out queries and their judgments come from."""
    items_path, pairs_path, heldout_path = _corpus_paths(cfg)
    return {"items": items_path,
            "queries": heldout_path if heldout_path.exists() else pairs_path}


def _heldout_queries(cfg: RunConfig, vocab: Vocab, model) -> tuple[list[str], list[list[int]], dict[str, set[str]]]:
    source = _query_inputs(cfg)
    corpus, _ = load_corpus(_require(source["items"], "corpus items file"),
                            _require(source["queries"], "query pairs file"))
    query_ids, token_rows = [], []
    judgments: dict[str, set[str]] = {}
    for i, pair in enumerate(corpus.pairs):
        tokens = vocab.encode(pair.query, model.config.max_text_len)
        if not tokens:
            continue
        qid = f"q{i:06d}"
        query_ids.append(qid)
        token_rows.append(tokens)
        judgments[qid] = {pair.item_id}
    return query_ids, token_rows, judgments


def cmd_retrieve(cfg: RunConfig, from_checkpoint: str | None = None) -> int:
    model, vocab, ckpt_path = _load_model_for_inference(cfg, from_checkpoint)
    corpus = _load_train_corpus(cfg)
    out = Path(cfg.out_dir)
    idx_path = _require(out / "index.json", "code index")
    idx = index_mod.CodeIndex.load(idx_path,
                                   expected_checkpoint_hash=checkpoint_hash(ckpt_path))
    query_ids, token_rows, _ = _heldout_queries(cfg, vocab, model)
    depth, beam_width = model.trained_steps, cfg.eval.beam_width
    # dense: every item ranked by its final state's dot product with the query's
    _, query_states = index_mod.greedy_decode_rows(model, token_rows, depth)
    tokenized = {iid: vocab.encode(it.text, model.config.max_text_len)
                 for iid, it in sorted(corpus.items.items())}
    matrix, item_ids = index_mod.item_representation_matrix(model, tokenized, depth)
    dense = [index_mod.dense_rank(q, matrix, item_ids, cfg.eval.dense_k, query_id=qid)
             for qid, q in zip(query_ids, query_states)]
    beams_per_query = index_mod.beam_search_decode_batch(
        model, token_rows, beam_width, depth=idx.num_steps, constrain=True, index=idx)
    generative = [index_mod.generative_retrieve(model, idx, tokens, beam_width,
                                                cfg.eval.retrieve_cutoff, query_id=qid,
                                                beams=beams)
                  for qid, tokens, beams in zip(query_ids, token_rows, beams_per_query)]
    for mode, runs in (("dense", dense), ("generative", generative)):
        _write_text(out / f"runs_{mode}.json",
                    json.dumps([vars(r) for r in runs], sort_keys=True))
    _write_manifest(cfg, "retrieve", {"model": ckpt_path, "index": idx_path,
                                      **_query_inputs(cfg)})
    return EXIT_OK


def cmd_eval(cfg: RunConfig, from_checkpoint: str | None = None) -> int:
    """Score the runs that retrieve wrote with this config, checkpoint and index."""
    max_k = max(max(cfg.eval.recall_ks), cfg.eval.mrr_k)
    if cfg.eval.dense_k < max_k:
        raise ConfigError(f"eval.dense_k ({cfg.eval.dense_k}) is below the largest "
                          f"recall or MRR cutoff ({max_k})")
    model, vocab, ckpt_path = _load_model_for_inference(cfg, from_checkpoint)
    corpus = _load_train_corpus(cfg)
    out = Path(cfg.out_dir)
    idx_path = _require(out / "index.json", "code index")
    model_hash = checkpoint_hash(ckpt_path)
    idx = index_mod.CodeIndex.load(idx_path, expected_checkpoint_hash=model_hash)
    manifest = json.loads(_require(out / "retrieve_manifest.json", "retrieve manifest")
                          .read_text(encoding="utf-8"))
    if manifest.get("config_hash") != config_hash(cfg):
        raise ConfigError("retrieve ran with another config; run retrieve again")
    seen = manifest.get("inputs") or {}
    if [seen.get("model"), seen.get("index")] != [model_hash, _hash_file(idx_path)]:
        raise ConfigError("retrieve ran on another checkpoint or index; run retrieve again")
    query_inputs = _query_inputs(cfg)
    if [seen.get(k) for k in query_inputs] != [_hash_file(p) for p in query_inputs.values()]:
        raise ConfigError("retrieve read other corpus items or held-out queries; "
                          "run retrieve again")
    query_ids, token_rows, judgments = _heldout_queries(cfg, vocab, model)
    if not query_ids:
        raise ConfigError("no evaluation queries available")

    metrics: list[dict] = []
    run_paths = {mode: out / f"runs_{mode}.json" for mode in ("dense", "generative")}
    for mode, path in run_paths.items():
        rows = json.loads(_require(path, "retrieval runs").read_text(encoding="utf-8"))
        runs = [RankedList(**row) for row in rows]
        if [r.query_id for r in runs] != query_ids:
            raise ConfigError(f"{path.name} does not answer the held-out queries in "
                              "order; run retrieve again")
        for k in cfg.eval.recall_ks:
            metrics.append({"name": "recall", "mode": mode, "k": k,
                            "value": metrics_mod.recall_at_k(runs, judgments, k),
                            "query_count": len(runs)})
        metrics.append({"name": "mrr", "mode": mode, "k": cfg.eval.mrr_k,
                        "value": metrics_mod.mrr_at_k(runs, judgments, cfg.eval.mrr_k),
                        "query_count": len(runs)})

    # partition agreement of code prefixes against item labels
    categories = {iid: it.category for iid, it in corpus.items.items()
                  if it.category is not None}
    paths = {iid: it.path for iid, it in corpus.items.items() if it.path is not None}
    for level in cfg.eval.consistency_levels:
        if level > idx.num_steps:
            continue
        code_part = metrics_mod.partition_from_ids(
            {iid: sid for iid, sid in idx.by_item.items()}, level)
        if categories and level == 1:
            cat_part = {iid: c for iid, c in categories.items()}
            common = set(code_part) & set(cat_part)
            value = metrics_mod.ami({i: code_part[i] for i in common},
                                    {i: cat_part[i] for i in common})
            metrics.append({"name": "ami", "compare": "category", "level": 1,
                            "value": value, "item_count": len(common)})
        if paths:
            depth_ok = all(len(p) >= level for p in paths.values())
            if depth_ok:
                path_part = metrics_mod.partition_from_ids(paths, level)
                common = set(code_part) & set(path_part)
                value = metrics_mod.ami({i: code_part[i] for i in common},
                                        {i: path_part[i] for i in common})
                metrics.append({"name": "ami", "compare": "path", "level": level,
                                "value": value, "item_count": len(common)})

    # query-item code consistency on the held-out pairs
    query_codes, _ = index_mod.greedy_decode_rows(model, token_rows, model.trained_steps)
    query_sids = {qid: tuple(int(c) for c in row) for qid, row in zip(query_ids, query_codes)}
    pairs = [(qid, next(iter(judgments[qid]))) for qid in query_ids]
    for level in cfg.eval.consistency_levels:
        if level > idx.num_steps:
            continue
        value = metrics_mod.code_consistency(pairs, query_sids, idx.by_item, level)
        metrics.append({"name": "code_consistency", "level": level, "value": value,
                        "pair_count": len(pairs)})

    inputs = {"model": ckpt_path, "index": idx_path, **query_inputs,
              **{f"runs_{mode}": path for mode, path in run_paths.items()}}
    if cfg.eval.kmeans_baseline:
        pre_path = _require(out / "pretrain.ckpt", "pre-trained checkpoint for the baseline")
        pre_model = load_checkpoint(pre_path).model
        tokenized = {iid: vocab.encode(it.text, pre_model.config.max_text_len)
                     for iid, it in sorted(corpus.items.items())}
        ids = list(tokenized)
        emb = np.zeros((len(ids), pre_model.config.hidden_size))
        for start in range(0, len(ids), 256):
            tok, mask = pad_rows([tokenized[i] for i in ids[start:start + 256]])
            emb[start:start + len(tok)] = pre_model.mean_pooled_encoding(tok, mask)
        baseline_codes = index_mod.hierarchical_kmeans_codes(
            emb, cfg.train.codebook_size, cfg.train.num_steps, seed=cfg.seed)
        sid_map = {iid: code for iid, code in zip(ids, baseline_codes)}
        base_part = metrics_mod.partition_from_ids(sid_map, 1)
        if categories:
            common = set(base_part) & set(categories)
            value = metrics_mod.ami({i: base_part[i] for i in common},
                                    {i: categories[i] for i in common})
            metrics.append({"name": "baseline_kmeans_ami", "compare": "category",
                            "level": 1, "value": value, "item_count": len(common)})
        inputs["pretrain_checkpoint"] = pre_path

    report = {"config_hash": config_hash(cfg), "metrics": metrics}
    _write_text(out / "metrics.json", json.dumps(report, sort_keys=True, indent=2) + "\n")
    _write_manifest(cfg, "eval", inputs)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="semidx",
                                     description="semantic-ID training and retrieval pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("synth", "pretrain", "train", "index", "retrieve", "eval"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="path to a JSON run config")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="override the output directory")
        if name in ("pretrain", "train", "index", "retrieve", "eval"):
            p.add_argument("--from", dest="from_checkpoint",
                           help="checkpoint to resume from / operate on")
    return parser


def _resolve_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else from_dict({})
    raw = json.loads(Path(args.config).read_text(encoding="utf-8")) if args.config else {}
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out_dir = args.out
        # keep the corpus next to the outputs unless the config pinned it
        if "data_dir" not in raw:
            cfg.data_dir = str(Path(args.out) / "data")
    return cfg


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("SEMIDX_LOG", "WARNING").upper(),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        if args.command == "synth":
            return cmd_synth(cfg)
        if args.command == "pretrain":
            return cmd_pretrain(cfg, resume_from=args.from_checkpoint)
        if args.command == "train":
            return cmd_train(cfg, from_checkpoint=args.from_checkpoint)
        if args.command == "index":
            return cmd_index(cfg, from_checkpoint=args.from_checkpoint)
        if args.command == "retrieve":
            return cmd_retrieve(cfg, from_checkpoint=args.from_checkpoint)
        if args.command == "eval":
            return cmd_eval(cfg, from_checkpoint=args.from_checkpoint)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ValueError, FileNotFoundError) as exc:
        # ConfigError and domain parameter errors are usage-class failures
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # runtime failure
        logger.exception("command failed")
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
