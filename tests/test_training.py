"""Progressive-training checks: sampling, prefix batching, hand-evaluated
loss oracles, EMA interplay, gradient flow, and the freeze invariant."""

import numpy as np
import pytest

from semidx import autodiff as ad
from semidx.autodiff import Optimizer, Tensor, grad_check
from semidx.config import ProgressiveConfig
from semidx.data import Corpus, build_vocab, synth_corpus
from semidx.model import ModelConfig, TransformerModel
from semidx.training import (AlignmentData, BatchForward, FrozenAssignments,
                             PairEntry, SampleGroup, TrainPairBatch,
                             alignment_loss, batch_forward,
                             build_epoch_entries, build_prefix_batches,
                             commitment_loss, contrastive_term, kl_term,
                             multi_query_sample, progressive_train,
                             train_code_step)


@pytest.fixture(scope="module")
def corpus():
    items, pairs = synth_corpus(depth=2, branching=2, vocab_per_node=10,
                                items_per_leaf=8, query_noise=0.1, seed=31,
                                queries_per_item=3, tokens_per_level=5)
    return Corpus(items={it.item_id: it for it in items}, pairs=pairs)


@pytest.fixture(scope="module")
def vocab(corpus):
    return build_vocab([it.text for it in corpus.items.values()]
                       + [p.query for p in corpus.pairs])


def make_model(vocab, **overrides):
    kwargs = dict(vocab_size=len(vocab), hidden_size=16, encoder_layers=1,
                  decoder_layers=1, attention_heads=2, feed_forward_size=32,
                  max_text_len=16, num_steps=2, codebook_size=4, seed=17)
    kwargs.update(overrides)
    model = TransformerModel(ModelConfig(**kwargs))
    return model


def make_batch(data, item_ids, step=1, prefixes=None, m=1, rng_seed=0):
    rng = np.random.default_rng(rng_seed)
    entries = []
    for iid in item_ids:
        for q in multi_query_sample(data.item_queries[iid], m, rng):
            prefix = () if prefixes is None else prefixes[iid]
            entries.append(PairEntry(query_tokens=list(q), item_id=iid, prefix=prefix))
    group = SampleGroup(prefix=entries[0].prefix, entries=entries,
                        residual=prefixes is not None and len(set(prefixes.values())) > 1)
    return TrainPairBatch(groups=[group], step=step)


class TestMultiQuerySample:
    def test_single_query_repeats(self):
        out = multi_query_sample(["q"], 2, np.random.default_rng(0))
        assert out == ["q", "q"]

    def test_distinct_when_available(self):
        queries = [f"q{n}" for n in range(10)]
        out = multi_query_sample(queries, 3, np.random.default_rng(1))
        assert len(set(out)) == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            multi_query_sample([], 1, np.random.default_rng(0))


class TestBuildPrefixBatches:
    def test_step_one_single_class(self):
        entries = [PairEntry([1], f"i{n}") for n in range(10)]
        batches = build_prefix_batches(None, entries, step=1, group_size=4,
                                       batch_size=8, rng=np.random.default_rng(3))
        assert sum(b.size for b in batches) == 10
        for b in batches:
            b.check_prefix_property()
            for g in b.groups:
                assert g.prefix == ()

    def test_enumeration_example(self):
        """prefixes [(5,), (5,), (7,)] -> one group of 2, one residual of 1."""
        frozen = FrozenAssignments(step=1, ids={"a": (5,), "b": (5,), "c": (7,)})
        entries = [PairEntry([1], iid) for iid in ("a", "b", "c")]
        batches = build_prefix_batches(frozen, entries, step=2, group_size=8,
                                       batch_size=64, rng=np.random.default_rng(4))
        groups = [g for b in batches for g in b.groups]
        regular = [g for g in groups if not g.residual]
        residual = [g for g in groups if g.residual]
        assert len(regular) == 1 and len(regular[0].entries) == 2
        assert regular[0].prefix == (5,)
        assert len(residual) == 1 and len(residual[0].entries) == 1
        assert residual[0].entries[0].item_id == "c"

    def test_groups_share_identical_prefix(self):
        rng = np.random.default_rng(5)
        ids = {f"i{n}": (int(rng.integers(3)),) for n in range(60)}
        frozen = FrozenAssignments(step=1, ids=ids)
        entries = [PairEntry([1], f"i{n}") for n in range(60) for _ in range(2)]
        batches = build_prefix_batches(frozen, entries, step=2, group_size=4,
                                       batch_size=16, rng=rng)
        assert sum(b.size for b in batches) == 120
        for b in batches:
            b.check_prefix_property()
            for g in b.groups:
                if not g.residual:
                    assert all(e.prefix == g.prefix for e in g.entries)

    def test_missing_assignment_is_hard_error(self):
        frozen = FrozenAssignments(step=1, ids={"a": (0,)})
        entries = [PairEntry([1], "ghost")]
        with pytest.raises(KeyError):
            build_prefix_batches(frozen, entries, step=2, group_size=4,
                                 batch_size=8, rng=np.random.default_rng(0))


class TestContrastiveTerm:
    def _fwd(self, q, d, item_idx):
        q = Tensor(np.asarray(q, dtype=float))
        d = Tensor(np.asarray(d, dtype=float))
        B = q.shape[0]
        return BatchForward(step=1, entry_item_idx=np.asarray(item_idx),
                            unique_item_ids=[f"i{n}" for n in range(int(max(item_idx)) + 1)],
                            unique_prefix=np.zeros((int(max(item_idx)) + 1, 0), dtype=np.int64),
                            q_states=q, d_states=d, q_final=q,
                            d_final_unique=d, d_final_entries=d)

    def test_hand_formula_three_pairs(self):
        rng = np.random.default_rng(6)
        q = rng.normal(size=(3, 4))
        d = rng.normal(size=(3, 4))
        fwd = self._fwd(q, d, [0, 1, 2])
        s = q @ d.T
        expected = np.mean([-(s[i, i] - np.log(np.exp(s[i]).sum())) for i in range(3)])
        got = contrastive_term(fwd).item()
        assert np.isclose(got, expected, atol=1e-12)

    def test_single_pair_is_zero_with_warning(self):
        fwd = self._fwd([[1.0, 2.0]], [[0.5, 0.5]], [0])
        with pytest.warns(UserWarning):
            assert contrastive_term(fwd).item() == pytest.approx(0.0, abs=1e-12)

    def test_same_item_masked_out_of_denominator(self):
        """Two positives of one item: the duplicate never acts as a negative."""
        rng = np.random.default_rng(7)
        q = rng.normal(size=(3, 4))
        d_unique = rng.normal(size=(2, 4))
        d_entries = d_unique[[0, 0, 1]]
        fwd = self._fwd(q, d_entries, [0, 0, 1])
        s = q @ d_entries.T
        expected = 0.0
        for i, keep in enumerate(([0, 2], [1, 2], [0, 1, 2])):
            # anchor's own column always kept, same-item duplicates dropped
            keep = sorted(set(keep) | {i})
            expected += -(s[i, i] - np.log(np.exp(s[i, keep]).sum()))
        expected /= 3
        got = contrastive_term(fwd, mask_same_item=True).item()
        assert np.isclose(got, expected, atol=1e-12)
        unmasked = contrastive_term(fwd, mask_same_item=False).item()
        assert got < unmasked  # removing a competing positive lowers the loss

    def test_temperature_scales_logits(self):
        rng = np.random.default_rng(8)
        q = rng.normal(size=(2, 3))
        d = rng.normal(size=(2, 3))
        fwd = self._fwd(q, d, [0, 1])
        s = (q @ d.T) / 0.5
        expected = np.mean([-(s[i, i] - np.log(np.exp(s[i]).sum())) for i in range(2)])
        assert np.isclose(contrastive_term(fwd, temperature=0.5).item(), expected, atol=1e-12)


class TestAlignmentLoss:
    def test_formula_assembly_oracle(self, corpus, vocab):
        """Full loss against a plain-numpy evaluation of the formula on the
        same forward outputs."""
        model = make_model(vocab)
        data = AlignmentData.from_corpus(corpus, vocab, 16)
        batch = make_batch(data, data.item_ids[:4], step=1)
        fwd = batch_forward(batch, model, data)
        got = alignment_loss(batch, model, data, fwd=fwd).item()

        q = fwd.q_final.data
        d = fwd.d_final_entries.data
        s = q @ d.T
        B = len(q)
        expected = np.mean([-(s[i, i] - np.log(np.exp(s[i]).sum())) for i in range(B)])
        E = model.codebooks[0].embeddings.data
        for i in range(B):
            lq = fwd.q_states.data[i, 0] @ E.T
            ld = fwd.d_states.data[fwd.entry_item_idx[i], 0] @ E.T
            pq = np.exp(lq - lq.max()); pq /= pq.sum()
            pd = np.exp(ld - ld.max()); pd /= pd.sum()
            expected += (pq * (np.log(np.maximum(pq, 1e-9))
                               - np.log(np.maximum(pd, 1e-9)))).sum() / B
        assert np.isclose(got, expected, atol=1e-9)

    def test_identical_query_item_gives_zero_kl(self, corpus, vocab):
        """Queries that tokenize identically to their items produce the same
        states, so every per-step KL vanishes."""
        model = make_model(vocab)
        data = AlignmentData.from_corpus(corpus, vocab, 16)
        ids = data.item_ids[:3]
        entries = [PairEntry(query_tokens=data.item_tokens[iid], item_id=iid)
                   for iid in ids]
        batch = TrainPairBatch(groups=[SampleGroup(prefix=(), entries=entries)], step=1)
        fwd = batch_forward(batch, model, data)
        assert kl_term(fwd, model).item() == pytest.approx(0.0, abs=1e-9)

    def test_gradients_pass_fd_check(self, corpus, vocab):
        model = make_model(vocab)
        data = AlignmentData.from_corpus(corpus, vocab, 16)
        batch = make_batch(data, data.item_ids[:3], step=1)

        def loss_fn():
            return alignment_loss(batch, model, data)

        report = grad_check(loss_fn, model.parameters(), eps=1e-5,
                            sample_per_param=3, rng=np.random.default_rng(0))
        assert report.max_rel_error < 1e-3, report.per_param

    def test_codebooks_receive_zero_gradient(self, corpus, vocab):
        model = make_model(vocab)
        data = AlignmentData.from_corpus(corpus, vocab, 16)
        batch = make_batch(data, data.item_ids[:3], step=1)
        loss = ad.add(alignment_loss(batch, model, data),
                      commitment_loss(batch, model, data))
        loss.backward()
        for cb in model.codebooks:
            assert cb.embeddings.grad is None
        assert any(p.grad is not None for p in model.parameters().values())


class TestCommitmentLoss:
    def test_uniform_distributions_give_t_log_k(self, corpus, vocab):
        model = make_model(vocab)
        for cb in model.codebooks:
            cb.embeddings.data = np.tile(cb.embeddings.data[0], (cb.size, 1))
        data = AlignmentData.from_corpus(corpus, vocab, 16)
        prefixes = {iid: (0,) for iid in data.item_ids[:3]}
        batch = make_batch(data, data.item_ids[:3], step=2, prefixes=prefixes)
        got = commitment_loss(batch, model, data).item()
        assert np.isclose(got, 2 * np.log(model.config.codebook_size), atol=1e-9)

    def test_one_hot_distributions_vanish(self, corpus, vocab):
        """States aligned exactly with the target codebook rows: every code
        distribution is one-hot on its target and the loss is 0."""
        model = make_model(vocab)
        D, K = model.config.hidden_size, model.config.codebook_size
        basis = np.zeros((K, D))
        basis[np.arange(K), np.arange(K)] = 30.0
        for cb in model.codebooks:
            cb.embeddings.data = basis.copy()
        targets1 = np.array([1, 3, 0])
        targets2 = np.array([2, 2, 1])
        d1 = basis[targets1]
        d2 = basis[targets2]
        data = AlignmentData.from_corpus(corpus, vocab, 16)
        ids = data.item_ids[:3]
        prefixes = {iid: (int(c),) for iid, c in zip(ids, targets1)}
        batch = make_batch(data, ids, step=2, prefixes=prefixes)
        fwd = batch_forward(batch, model, data)
        fwd = BatchForward(step=2, entry_item_idx=fwd.entry_item_idx,
                           unique_item_ids=fwd.unique_item_ids,
                           unique_prefix=targets1[:, None],
                           q_states=fwd.q_states,
                           d_states=Tensor(np.stack([d1, d2], axis=1)),
                           q_final=fwd.q_final,
                           d_final_unique=Tensor(d2),
                           d_final_entries=fwd.d_final_entries)
        got = commitment_loss(batch, model, data, fwd=fwd).item()
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_direct_summation_oracle(self, corpus, vocab):
        model = make_model(vocab)
        data = AlignmentData.from_corpus(corpus, vocab, 16)
        ids = data.item_ids[:4]
        prefixes = {iid: (int(np.random.default_rng(n).integers(4)),)
                    for n, iid in enumerate(ids)}
        batch = make_batch(data, ids, step=2, prefixes=prefixes)
        fwd = batch_forward(batch, model, data)
        got = commitment_loss(batch, model, data, fwd=fwd).item()

        E1 = model.codebooks[0].embeddings.data
        E2 = model.codebooks[1].embeddings.data
        expected = 0.0
        for u, iid in enumerate(fwd.unique_item_ids):
            d1 = fwd.d_states.data[u, 0]
            d2 = fwd.d_states.data[u, 1]
            l1 = d1 @ E1.T
            l2 = d2 @ E2.T
            p1 = l1 - (l1.max() + np.log(np.exp(l1 - l1.max()).sum()))
            p2 = l2 - (l2.max() + np.log(np.exp(l2 - l2.max()).sum()))
            expected -= p1[prefixes[iid][0]] + p2[int(np.argmax(l2))]
        expected /= len(fwd.unique_item_ids)
        assert np.isclose(got, expected, atol=1e-9)

    def test_gradients_pass_fd_check(self, corpus, vocab):
        model = make_model(vocab)
        data = AlignmentData.from_corpus(corpus, vocab, 16)
        prefixes = {iid: (1,) for iid in data.item_ids[:3]}
        batch = make_batch(data, data.item_ids[:3], step=2, prefixes=prefixes)

        def loss_fn():
            return commitment_loss(batch, model, data)

        report = grad_check(loss_fn, model.parameters(), eps=1e-5,
                            sample_per_param=3, rng=np.random.default_rng(1))
        assert report.max_rel_error < 1e-3, report.per_param


class TestTrainCodeStep:
    def _cfg(self, **overrides):
        kwargs = dict(num_steps=2, codebook_size=4, warmup_batches=2, group_size=4,
                      batch_size=16, queries_per_item=2, epochs_per_step=1, lr=1e-3)
        kwargs.update(overrides)
        return ProgressiveConfig(**kwargs)

    def test_frozen_prefixes_survive_later_steps(self, corpus, vocab):
        model = make_model(vocab)
        optimizer = Optimizer(model.parameters(), lr=1e-3)
        data = AlignmentData.from_corpus(corpus, vocab, 16)
        cfg = self._cfg()
        per_step = {frozen.step: frozen
                    for frozen, _ in progressive_train(model, optimizer, data, cfg, seed=9)}
        assert set(per_step) == {1, 2}
        for iid, sid in per_step[2].ids.items():
            assert len(sid) == 2
            assert sid[:1] == per_step[1].ids[iid]
        assert model.trained_steps == 2

    def test_step_requires_previous_assignments(self, corpus, vocab):
        model = make_model(vocab)
        optimizer = Optimizer(model.parameters(), lr=1e-3)
        data = AlignmentData.from_corpus(corpus, vocab, 16)
        with pytest.raises(ValueError):
            train_code_step(model, optimizer, data, None, 2, self._cfg(),
                            np.random.default_rng(0))

    def test_ema_statistics_move_during_training(self, corpus, vocab):
        model = make_model(vocab)
        optimizer = Optimizer(model.parameters(), lr=1e-3)
        data = AlignmentData.from_corpus(corpus, vocab, 16)
        cfg = self._cfg(warmup_batches=0)
        before = model.codebooks[0].ema_counts.copy()
        train_code_step(model, optimizer, data, None, 1, cfg, np.random.default_rng(1))
        assert not np.allclose(model.codebooks[0].ema_counts, before)
        assert model.codebooks[0].row_identity_error() < 1e-9

    def test_warmup_batches_skip_ema(self, corpus, vocab):
        model = make_model(vocab)
        optimizer = Optimizer(model.parameters(), lr=1e-3)
        data = AlignmentData.from_corpus(corpus, vocab, 16)
        cfg = self._cfg(warmup_batches=10_000)  # everything stays in phase A
        before = model.codebooks[0].ema_counts.copy()
        _, stats = train_code_step(model, optimizer, data, None, 1, cfg,
                                   np.random.default_rng(2))
        assert np.array_equal(model.codebooks[0].ema_counts, before)
        assert stats.warmup_batches == stats.batches

    def test_divergence_restores_snapshot_and_aborts(self, corpus, vocab, monkeypatch):
        import semidx.training as tr
        model = make_model(vocab)
        optimizer = Optimizer(model.parameters(), lr=1e-3)
        data = AlignmentData.from_corpus(corpus, vocab, 16)
        before = {k: p.data.copy() for k, p in model.params.items()}
        monkeypatch.setattr(tr, "contrastive_term",
                            lambda *a, **k: Tensor(np.nan))
        with pytest.raises(tr.TrainingDiverged):
            train_code_step(model, optimizer, data, None, 1, self._cfg(),
                            np.random.default_rng(4))
        for k, p in model.params.items():
            assert np.array_equal(p.data, before[k])

    def test_schedule_defaults_match_design(self):
        cfg = ProgressiveConfig()
        assert (cfg.gamma, cfg.laplace_eps) == (0.99, 1e-5)
        assert (cfg.warmup_batches, cfg.group_size, cfg.batch_size) == (50, 8, 64)
        assert cfg.temperature == 1.0
        assert (cfg.alignment_weight, cfg.commitment_weight) == (1.0, 1.0)

    def test_epoch_entries_multi_query(self, corpus, vocab):
        data = AlignmentData.from_corpus(corpus, vocab, 16)
        entries = build_epoch_entries(data, 3, np.random.default_rng(3))
        assert len(entries) == 3 * len(data.item_ids)
        per_item = {}
        for e in entries:
            per_item.setdefault(e.item_id, []).append(tuple(e.query_tokens))
        # 3 queries per item in the corpus: sampling without replacement
        assert all(len(set(v)) == 3 for v in per_item.values())
