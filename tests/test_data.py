"""Vocabulary, corpus IO, and synthetic-corpus generator checks."""

import hashlib
import json

import numpy as np
import pytest

from semidx.data import (CorpusFormatError, PAD, RESERVED_TOKENS, UNK, Vocab,
                         build_vocab, load_corpus, split_pairs, synth_corpus,
                         tokenize, write_items, write_pairs)


class TestVocab:
    def test_build_simple(self):
        vocab = build_vocab(["a b a"])
        content = vocab.tokens[len(RESERVED_TOKENS):]
        assert content == ["a", "b"]

    def test_hash_deterministic(self):
        v1 = build_vocab(["x y z", "x"])
        v2 = build_vocab(["x y z", "x"])
        assert v1.content_hash() == v2.content_hash()
        v3 = build_vocab(["x y z", "y"])
        assert v1.content_hash() != v3.content_hash()

    def test_reserved_prefix_fixed(self):
        vocab = build_vocab(["hello world"])
        assert vocab.tokens[: len(RESERVED_TOKENS)] == list(RESERVED_TOKENS)
        assert vocab.tokens[0] == PAD

    def test_roundtrip_in_vocab(self):
        vocab = build_vocab(["red fox jumps"])
        text = "fox jumps red"
        assert [vocab.tokens[i] for i in vocab.encode(text)] == text.split()

    def test_oov_maps_to_unk(self):
        vocab = build_vocab(["a b"])
        assert vocab.encode("zzz") == [vocab.index[UNK]]

    def test_truncation_preserves_prefix(self):
        vocab = build_vocab(["a b c d e"])
        full = vocab.encode("a b c d e")
        assert vocab.encode("a b c d e", max_len=3) == full[:3]

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            build_vocab([])

    def test_save_load(self, tmp_path):
        vocab = build_vocab(["a b c"])
        vocab.save(tmp_path / "v.json")
        loaded = Vocab.load(tmp_path / "v.json")
        assert loaded.tokens == vocab.tokens
        assert loaded.content_hash() == vocab.content_hash()

    @pytest.mark.parametrize("text, reason", [
        ('{"mode": "word", "tokens": ["<pad>"', "not UTF-8 JSON"),
        (json.dumps([]), "not a JSON object"),
        (json.dumps({"mode": "word"}), "lacks tokens"),
        (json.dumps({"tokens": list(RESERVED_TOKENS)}), "lacks mode"),
        (json.dumps({"mode": "char", "tokens": list(RESERVED_TOKENS)}), "tokenizer 'char'"),
        (json.dumps({"mode": "word", "tokens": list(RESERVED_TOKENS[1:]) + ["a"]}),
         "reserved tokens"),
        (json.dumps({"mode": "word", "tokens": list(RESERVED_TOKENS) + [7]}), "list of strings"),
    ], ids=["truncated", "not-object", "no-tokens", "no-mode", "char-mode", "no-pad",
            "non-string"])
    def test_corrupt_file_rejected(self, tmp_path, text, reason):
        path = tmp_path / "v.json"
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            Vocab.load(path)
        assert f"{path}: corrupt vocabulary file (" in str(exc.value)
        assert reason in str(exc.value)

    def test_tokenize_splits_punctuation(self):
        assert tokenize("a,b c") == ["a", ",", "b", "c"]


class TestLoadCorpus:
    def _write(self, tmp_path, items, pairs):
        (tmp_path / "items.jsonl").write_text(
            "\n".join(json.dumps(r) for r in items), encoding="utf-8")
        (tmp_path / "pairs.jsonl").write_text(
            "\n".join(json.dumps(r) for r in pairs), encoding="utf-8")
        return tmp_path / "items.jsonl", tmp_path / "pairs.jsonl"

    def test_empty_files(self, tmp_path):
        ip, pp = self._write(tmp_path, [], [])
        corpus, report = load_corpus(ip, pp)
        assert not corpus.items and not corpus.pairs

    def test_dangling_pair_rejected_with_line(self, tmp_path):
        ip, pp = self._write(
            tmp_path,
            [{"id": "a", "text": "hello"}] * 1 + [{"id": "b", "text": "world"}],
            [{"query": "q", "item_id": "a", "weight": 1, "behavior": "click"},
             {"query": "q", "item_id": "ghost", "weight": 1, "behavior": "click"}],
        )
        corpus, report = load_corpus(ip, pp, max_malformed_fraction=0.5)
        assert len(corpus.pairs) == 1
        assert any("pairs:2" in line for line in report.rejected_lines)

    def test_malformed_threshold_aborts(self, tmp_path):
        items = [{"id": f"i{n}", "text": "t"} for n in range(5)]
        ip, pp = self._write(tmp_path, items, [])
        (tmp_path / "pairs.jsonl").write_text("not json\n" * 5, encoding="utf-8")
        with pytest.raises(CorpusFormatError):
            load_corpus(ip, pp)

    def test_line_count_oracle(self, tmp_path):
        rng = np.random.default_rng(0)
        items = [{"id": f"i{n}", "text": f"text {n}"} for n in range(100)]
        pairs = [{"query": f"q {int(rng.integers(100))}", "item_id": f"i{int(rng.integers(100))}",
                  "weight": 1, "behavior": "click"} for _ in range(900)]
        ip, pp = self._write(tmp_path, items, pairs)
        corpus, report = load_corpus(ip, pp)
        assert report.item_lines == 100 and report.pair_lines == 900
        assert len(corpus.items) == 100 and len(corpus.pairs) == 900

    def test_unknown_fields_ignored(self, tmp_path):
        ip, pp = self._write(tmp_path,
                             [{"id": "a", "text": "hi", "color": "red"}],
                             [{"query": "q", "item_id": "a", "weight": 1,
                               "behavior": "click", "extra": 1}])
        corpus, report = load_corpus(ip, pp)
        assert report.malformed == 0
        assert corpus.items["a"].text == "hi"


class TestCorpusWrites:
    @pytest.mark.parametrize("write", [write_items, write_pairs])
    def test_failure_mid_write_leaves_no_file(self, tmp_path, write):
        """A corpus write that fails after its first line leaves neither the
        file nor a temp file behind, so no later stage reads a cut corpus."""
        items, pairs = synth_corpus(depth=1, branching=2, vocab_per_node=10,
                                    items_per_leaf=2, query_noise=0.0, seed=0)
        records = items if write is write_items else pairs

        def cut_short():
            yield records[0]
            raise OSError("no space left on device")

        with pytest.raises(OSError, match="no space left"):
            write(cut_short(), tmp_path / "corpus.jsonl")
        assert list(tmp_path.iterdir()) == []


class TestSynthCorpus:
    def test_tree_arithmetic(self):
        items, pairs = synth_corpus(depth=2, branching=8, vocab_per_node=10,
                                    items_per_leaf=25, query_noise=0.0, seed=0,
                                    queries_per_item=1, tokens_per_level=5)
        assert len(items) == 64 * 25 == 1600
        assert len({it.path for it in items}) == 64
        assert len(pairs) == 1600

    def test_no_noise_queries_subsample_item(self):
        items, pairs = synth_corpus(depth=2, branching=2, vocab_per_node=10,
                                    items_per_leaf=5, query_noise=0.0, seed=1,
                                    queries_per_item=2, tokens_per_level=5)
        text_by_id = {it.item_id: set(it.text.split()) for it in items}
        for p in pairs:
            assert set(p.query.split()) <= text_by_id[p.item_id]

    def test_seed_determinism_byte_identical(self, tmp_path):
        digests = []
        for run in range(2):
            items, pairs = synth_corpus(depth=1, branching=3, vocab_per_node=8,
                                        items_per_leaf=4, query_noise=0.2, seed=9,
                                        tokens_per_level=4)
            ip = tmp_path / f"items{run}.jsonl"
            pp = tmp_path / f"pairs{run}.jsonl"
            write_items(items, ip)
            write_pairs(pairs, pp)
            digests.append((hashlib.sha256(ip.read_bytes()).hexdigest(),
                            hashlib.sha256(pp.read_bytes()).hexdigest()))
        assert digests[0] == digests[1]

    def test_true_path_depth(self):
        items, _ = synth_corpus(depth=3, branching=2, vocab_per_node=8,
                                items_per_leaf=2, query_noise=0.1, seed=2,
                                tokens_per_level=3)
        assert all(len(it.path) == 3 for it in items)

    def test_referential_integrity(self):
        items, pairs = synth_corpus(depth=1, branching=2, vocab_per_node=8,
                                    items_per_leaf=3, query_noise=0.1, seed=3,
                                    tokens_per_level=4)
        ids = {it.item_id for it in items}
        assert all(p.item_id in ids for p in pairs)

    def test_pool_too_small_rejected(self):
        with pytest.raises(ValueError):
            synth_corpus(depth=1, branching=2, vocab_per_node=2, items_per_leaf=1,
                         query_noise=0.0, seed=0, tokens_per_level=5)

    def test_separability_oracle(self):
        """Bag-of-words nearest-centroid recovers top-level clusters at
        >= 95% accuracy for noise <= 0.2: the hierarchy is learnable."""
        for noise in (0.0, 0.2):
            items, _ = synth_corpus(depth=2, branching=4, vocab_per_node=15,
                                    items_per_leaf=10, query_noise=noise, seed=11,
                                    tokens_per_level=6)
            vocab = sorted({t for it in items for t in it.text.split()})
            tok_idx = {t: i for i, t in enumerate(vocab)}
            bow = np.zeros((len(items), len(vocab)))
            labels = np.array([it.path[0] for it in items])
            for i, it in enumerate(items):
                for t in it.text.split():
                    bow[i, tok_idx[t]] += 1
            centroids = np.stack([bow[labels == c].mean(axis=0)
                                  for c in range(labels.max() + 1)])
            d2 = ((bow[:, None, :] - centroids[None]) ** 2).sum(axis=2)
            accuracy = (d2.argmin(axis=1) == labels).mean()
            assert accuracy >= 0.95


class TestSplitPairs:
    def test_holdout_respects_minimum(self):
        items, pairs = synth_corpus(depth=1, branching=2, vocab_per_node=10,
                                    items_per_leaf=10, query_noise=0.0, seed=4,
                                    queries_per_item=3, tokens_per_level=4)
        train, heldout = split_pairs(pairs, holdout_per_item=1, seed=4)
        assert len(train) + len(heldout) == len(pairs)
        train_ids = {p.item_id for p in train}
        assert all(p.item_id in train_ids for p in heldout)

    def test_single_query_items_stay_in_train(self):
        items, pairs = synth_corpus(depth=1, branching=2, vocab_per_node=10,
                                    items_per_leaf=5, query_noise=0.0, seed=5,
                                    queries_per_item=1, tokens_per_level=4)
        train, heldout = split_pairs(pairs, holdout_per_item=1, seed=5)
        assert not heldout
        assert len(train) == len(pairs)
