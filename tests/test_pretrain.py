"""Pre-training task construction rules, task-mix statistics, gradient
fidelity, and the loss-halving smoke property."""

import numpy as np
import pytest

from semidx import autodiff as ad
from semidx.autodiff import Optimizer
from semidx.data import (MASK_SENTINELS, TASK_QUERY_GEN, TASK_SUFFIX,
                         build_vocab, Corpus, synth_corpus)
from semidx.model import ModelConfig, TransformerModel
from semidx.pretrain import (PretrainData, batch_loss, build_item_cloze,
                             build_query_generation, build_suffix_completion,
                             pretrain_step, run_pretraining, sample_cloze_spans,
                             sample_examples)

from oracles import grad_check


@pytest.fixture(scope="module")
def vocab():
    return build_vocab([f"tok{i}" for i in range(40)])


def toks(vocab, n, offset=0):
    return [vocab.index[f"tok{i + offset}"] for i in range(n)]


class TestQueryGeneration:
    def test_single_query_forced(self, vocab):
        rng = np.random.default_rng(0)
        item = toks(vocab, 6)
        query = toks(vocab, 3, offset=10)
        ex = build_query_generation(item, [query], vocab, rng)
        assert ex.target_tokens == query
        assert ex.input_tokens == [vocab.index[TASK_QUERY_GEN]] + item

    def test_no_queries_skipped(self, vocab):
        assert build_query_generation(toks(vocab, 4), [], vocab,
                                      np.random.default_rng(0)) is None
        assert build_query_generation(toks(vocab, 4), [[]], vocab,
                                      np.random.default_rng(0)) is None

    def test_uniform_choice_chi_square(self, vocab):
        """5 queries, 10k draws: frequencies consistent with uniform."""
        rng = np.random.default_rng(1)
        item = toks(vocab, 5)
        queries = [toks(vocab, 2, offset=5 * q) for q in range(1, 6)]
        counts = np.zeros(5)
        for _ in range(10_000):
            ex = build_query_generation(item, queries, vocab, rng)
            counts[[ex.target_tokens == q for q in queries].index(True)] += 1
        # each within 3 sigma of 2000; sigma = sqrt(n p (1-p)) = 40
        assert np.abs(counts - 2000).max() < 3 * 40


class TestItemCloze:
    def test_span_rules_hold_over_10k_draws(self):
        rng = np.random.default_rng(2)
        for _ in range(10_000):
            length = int(rng.integers(4, 20))
            spans = sample_cloze_spans(length, rng)
            assert 1 <= len(spans) <= 3
            ends = []
            for start, span_len in spans:
                assert 1 <= span_len <= 3
                assert 0 <= start and start + span_len <= length
                ends.append((start, start + span_len))
            ends.sort()
            for (s1, e1), (s2, e2) in zip(ends, ends[1:]):
                assert e1 <= s2  # never overlap

    def test_short_text_fallback(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            spans = sample_cloze_spans(2, rng)
            assert spans == [(spans[0][0], 1)]

    def test_target_is_complete_text_and_demask_roundtrip(self, vocab):
        # build_item_cloze draws only its spans, so a twin generator replays them
        rng, twin = np.random.default_rng(4), np.random.default_rng(4)
        item = toks(vocab, 10)
        sentinel_ids = {vocab.index[s] for s in MASK_SENTINELS}
        for _ in range(200):
            ex = build_item_cloze(item, vocab, rng)
            spans = sample_cloze_spans(len(item), twin)
            assert ex.target_tokens == item
            # re-insert the masked spans from the target: original restored
            rebuilt = []
            cursor = 0
            for tok in ex.input_tokens[1:]:
                if tok in sentinel_ids:
                    k = spans[[vocab.index[s] for s in MASK_SENTINELS].index(tok)]
                    rebuilt.extend(ex.target_tokens[k[0]:k[0] + k[1]])
                    cursor = k[0] + k[1]
                else:
                    rebuilt.append(tok)
                    cursor += 1
            assert rebuilt == item

    def test_distinct_sentinels(self, vocab):
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        sentinel_ids = {vocab.index[s] for s in MASK_SENTINELS}
        for _ in range(300):
            ex = build_item_cloze(toks(vocab, 12), vocab, rng)
            used = [t for t in ex.input_tokens if t in sentinel_ids]
            assert len(used) == len(set(used)) == len(sample_cloze_spans(12, twin))


class TestSuffixCompletion:
    def test_partition_reconstructs(self, vocab):
        rng = np.random.default_rng(6)
        item = toks(vocab, 9)
        query = toks(vocab, 3, offset=20)
        tag = vocab.index[TASK_SUFFIX]
        for _ in range(100):
            ex = build_suffix_completion(item, query, vocab, rng)
            prefix = ex.input_tokens[1 + len(query):]
            assert ex.input_tokens[0] == tag
            assert ex.input_tokens[1:1 + len(query)] == query
            assert prefix + ex.target_tokens == item

    def test_length_two_forced_split(self, vocab):
        item = toks(vocab, 2)
        ex = build_suffix_completion(item, toks(vocab, 1, offset=5), vocab,
                                     np.random.default_rng(7))
        assert len(ex.target_tokens) == 1
        assert len(ex.input_tokens[2:]) == 1

    def test_length_one_skipped(self, vocab):
        assert build_suffix_completion(toks(vocab, 1), toks(vocab, 1), vocab,
                                       np.random.default_rng(8)) is None

    def test_split_uniform_chi_square(self, vocab):
        rng = np.random.default_rng(9)
        item = toks(vocab, 11)  # 10 valid split points
        counts = np.zeros(10)
        for _ in range(10_000):
            ex = build_suffix_completion(item, [vocab.index["tok20"]], vocab, rng)
            counts[len(item) - len(ex.target_tokens) - 1] += 1
        expected = 1000.0
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 27.88  # 0.999 quantile of chi2 with 9 dof


@pytest.fixture(scope="module")
def small_corpus():
    items, pairs = synth_corpus(depth=1, branching=4, vocab_per_node=12,
                                items_per_leaf=50, query_noise=0.1, seed=21,
                                queries_per_item=2, tokens_per_level=6)
    return Corpus(items={it.item_id: it for it in items}, pairs=pairs)


class TestSampling:
    def test_task_mix_one_to_one_to_one(self, small_corpus):
        """30k draws land within 3 sigma of 10k per task."""
        vocab = build_vocab([it.text for it in small_corpus.items.values()]
                            + [p.query for p in small_corpus.pairs])
        data = PretrainData.from_corpus(small_corpus, vocab, max_text_len=24)
        examples, _ = sample_examples(data, 30_000, vocab, np.random.default_rng(10))
        counts = {t: 0 for t in ("query_generation", "item_cloze", "suffix_completion")}
        for ex in examples:
            counts[ex.task] += 1
        sigma = np.sqrt(30_000 * (1 / 3) * (2 / 3))
        for t, c in counts.items():
            assert abs(c - 10_000) < 3 * sigma, (t, c)


class TestPretrainStep:
    def _tiny(self, vocab):
        cfg = ModelConfig(vocab_size=len(vocab), hidden_size=16, encoder_layers=1,
                          decoder_layers=1, attention_heads=2, feed_forward_size=32,
                          max_text_len=16, num_steps=2, codebook_size=4, seed=13)
        return TransformerModel(cfg)

    def test_gradients_pass_fd_check(self, vocab):
        model = self._tiny(vocab)
        rng = np.random.default_rng(11)
        item = toks(vocab, 8)
        examples = [
            build_query_generation(item, [toks(vocab, 3, offset=9)], vocab, rng),
            build_item_cloze(item, vocab, rng),
            build_suffix_completion(item, toks(vocab, 2, offset=14), vocab, rng),
        ]

        def loss_fn():
            return batch_loss(model, examples, vocab)

        report = grad_check(loss_fn, model.parameters(), eps=1e-5,
                            sample_per_param=3, rng=np.random.default_rng(0))
        assert report.max_rel_error < 1e-3, report.per_param

    def test_nan_loss_skips_step(self, vocab, monkeypatch):
        import semidx.pretrain as pt
        model = self._tiny(vocab)
        optimizer = Optimizer(model.parameters(), lr=1e-3)
        monkeypatch.setattr(pt, "batch_loss",
                            lambda *a, **k: ad.Tensor(np.nan))
        ex = build_item_cloze(toks(vocab, 6), vocab, np.random.default_rng(0))
        assert pt.pretrain_step(model, optimizer, [ex], vocab) is None
        assert optimizer.step_count == 0

    def test_memorization_drives_loss_to_zero(self, vocab):
        """A single repeated example is memorized: loss becomes tiny."""
        model = self._tiny(vocab)
        optimizer = Optimizer(model.parameters(), lr=5e-3)
        rng = np.random.default_rng(12)
        ex = build_query_generation(toks(vocab, 5), [toks(vocab, 2, offset=6)], vocab, rng)
        first = None
        for _ in range(150):
            value = pretrain_step(model, optimizer, [ex], vocab)
            first = first if first is not None else value
        assert value < 0.05 * first

    def test_loss_halves_on_smoke_corpus(self, small_corpus):
        """200-item corpus, desk-scale defaults, 30 epochs: loss on a fixed
        probe batch drops by at least half."""
        vocab = build_vocab([it.text for it in small_corpus.items.values()]
                            + [p.query for p in small_corpus.pairs])
        cfg = ModelConfig(vocab_size=len(vocab), max_text_len=24, seed=0)
        model = TransformerModel(cfg)
        optimizer = Optimizer(model.parameters(), lr=2e-3)
        data = PretrainData.from_corpus(small_corpus, vocab, cfg.max_text_len)
        probe, _ = sample_examples(data, 64, vocab, np.random.default_rng(999))
        before = batch_loss(model, probe, vocab).item()
        run_pretraining(model, optimizer, data, vocab, epochs=30,
                        batch_size=16, seed=0)
        after = batch_loss(model, probe, vocab).item()
        assert after <= 0.5 * before, (before, after)
