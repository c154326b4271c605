"""Progressive-training checks: sampling, prefix batching, hand-evaluated
loss oracles, EMA interplay, gradient flow, and the freeze invariant."""

import numpy as np
import pytest

from semidx import autodiff as ad
from semidx.autodiff import Optimizer, Tensor
from semidx.config import ProgressiveConfig
from semidx.data import Corpus, build_vocab, synth_corpus
from semidx.index import CodeIndex, assign_all_ids
from semidx.model import Codebook, ModelConfig, TransformerModel
from semidx.training import (AlignmentData, BatchForward, PairEntry, TrainPairBatch,
                             assign_step_codes, batch_forward,
                             build_epoch_entries, build_prefix_batches,
                             commitment_loss, commitment_targets, contrastive_term,
                             kl_term, multi_query_sample, progressive_train,
                             train_code_step)

from oracles import grad_check, prefix_property_holds, row_identity_error


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


def commitment(fwd, model):
    """The commitment loss against the batch's online targets, as training
    computes it."""
    return commitment_loss(fwd, model, commitment_targets(fwd, model))


def make_model(vocab, **overrides):
    kwargs = dict(vocab_size=len(vocab), hidden_size=16, encoder_layers=1,
                  decoder_layers=1, attention_heads=2, feed_forward_size=32,
                  max_text_len=16, num_steps=2, codebook_size=4, seed=17)
    kwargs.update(overrides)
    model = TransformerModel(ModelConfig(**kwargs))
    return model


def frozen_index(ids: dict, codebook_size: int = 8) -> CodeIndex:
    """The index progressive training freezes: every item's ID at one depth."""
    idx = CodeIndex(num_steps=len(next(iter(ids.values()))), codebook_size=codebook_size)
    for iid, sid in ids.items():
        idx.insert(iid, sid)
    return idx


def root_index(data) -> CodeIndex:
    """The depth-0 index progressive training starts from."""
    return frozen_index({iid: () for iid in data.item_ids}, codebook_size=4)


def make_batch(data, item_ids, prefixes=None, m=1, rng_seed=0):
    """One group of pairs over ``item_ids`` and the frozen index of their
    prefixes (the root ``()`` unless ``prefixes`` are given)."""
    rng = np.random.default_rng(rng_seed)
    entries = [PairEntry(query_tokens=list(q), item_id=iid) for iid in item_ids
               for q in multi_query_sample(data.item_queries[iid], m, rng)]
    frozen = frozen_index(prefixes or {iid: () for iid in item_ids}, codebook_size=4)
    return TrainPairBatch(groups=[entries]), frozen


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
        frozen = frozen_index({f"i{n}": () for n in range(10)})
        batches = build_prefix_batches(frozen, entries, group_size=4, batch_size=8,
                                       rng=np.random.default_rng(3))
        assert sum(b.size for b in batches) == 10
        assert prefix_property_holds(batches, frozen)
        assert all(frozen.by_item[e.item_id] == () for b in batches for e in b.entries())

    def test_enumeration_example(self):
        """prefixes [(5,), (5,), (7,)] -> one group of 2, one residual of 1."""
        frozen = frozen_index({"a": (5,), "b": (5,), "c": (7,)})
        entries = [PairEntry([1], iid) for iid in ("a", "b", "c")]
        batches = build_prefix_batches(frozen, entries, group_size=8, batch_size=64,
                                       rng=np.random.default_rng(4))
        groups = sorted(sorted(e.item_id for e in g) for b in batches for g in b.groups)
        assert groups == [["a", "b"], ["c"]]

    def test_groups_share_identical_prefix(self):
        rng = np.random.default_rng(5)
        ids = {f"i{n}": (int(rng.integers(3)),) for n in range(60)}
        frozen = frozen_index(ids)
        entries = [PairEntry([1], f"i{n}") for n in range(60) for _ in range(2)]
        batches = build_prefix_batches(frozen, entries, group_size=4, batch_size=16, rng=rng)
        assert sum(b.size for b in batches) == 120
        assert prefix_property_holds(batches, frozen)

    def test_missing_assignment_is_hard_error(self):
        frozen = frozen_index({"a": (0,)})
        entries = [PairEntry([1], "ghost")]
        with pytest.raises(KeyError):
            build_prefix_batches(frozen, entries, group_size=4, batch_size=8,
                                 rng=np.random.default_rng(0))


class TestContrastiveTerm:
    def _fwd(self, q, d_unique, item_idx):
        """Step-1 forward pieces: one state per query and per unique item."""
        q = np.asarray(q, dtype=float)
        d = np.asarray(d_unique, dtype=float)
        return BatchForward(entry_item_idx=np.asarray(item_idx),
                            unique_prefix=np.zeros((len(d), 0), dtype=np.int64),
                            q_states=Tensor(q[:, None, :]), d_states=Tensor(d[:, None, :]))

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
        fwd = self._fwd(q, d_unique, [0, 0, 1])
        s = q @ d_entries.T
        expected = 0.0
        for i, keep in enumerate(([0, 2], [1, 2], [0, 1, 2])):
            # anchor's own column always kept, same-item duplicates dropped
            keep = sorted(set(keep) | {i})
            expected += -(s[i, i] - np.log(np.exp(s[i, keep]).sum()))
        expected /= 3
        assert np.isclose(contrastive_term(fwd).item(), expected, atol=1e-12)


class TestAlignmentLoss:
    def test_formula_assembly_oracle(self, corpus, vocab):
        """Full loss against a plain-numpy evaluation of the formula on the
        same forward outputs."""
        model = make_model(vocab)
        data = AlignmentData.from_corpus(corpus, vocab, 16)
        batch, frozen = make_batch(data, data.item_ids[:4])
        fwd = batch_forward(batch, model, data, frozen)
        got = ad.add(contrastive_term(fwd), kl_term(fwd, model)).item()

        q = fwd.q_states.data[:, -1]
        d = fwd.d_states.data[fwd.entry_item_idx, -1]
        s = q @ d.T
        B = len(q)
        expected = np.mean([-(s[i, i] - np.log(np.exp(s[i]).sum())) for i in range(B)])
        E = model.codebooks[0].embeddings
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
        batch = TrainPairBatch(groups=[entries])
        fwd = batch_forward(batch, model, data, root_index(data))
        assert kl_term(fwd, model).item() == pytest.approx(0.0, abs=1e-9)

    def test_gradients_pass_fd_check(self, corpus, vocab):
        model = make_model(vocab)
        data = AlignmentData.from_corpus(corpus, vocab, 16)
        batch, frozen = make_batch(data, data.item_ids[:3])

        def loss_fn():
            fwd = batch_forward(batch, model, data, frozen)
            return ad.add(contrastive_term(fwd), kl_term(fwd, model))

        report = grad_check(loss_fn, model.parameters(), eps=1e-5,
                            sample_per_param=3, rng=np.random.default_rng(0))
        assert report.max_rel_error < 1e-3, report.per_param

    def test_codebooks_receive_zero_gradient(self, corpus, vocab):
        model = make_model(vocab)
        data = AlignmentData.from_corpus(corpus, vocab, 16)
        batch, frozen = make_batch(data, data.item_ids[:3])
        fwd = batch_forward(batch, model, data, frozen)
        loss = ad.add(ad.add(contrastive_term(fwd), kl_term(fwd, model)),
                      commitment(fwd, model))
        optimizer = Optimizer(model.parameters(), lr=1e-3)
        before = [{k: getattr(cb, k).copy() for k in Codebook.STATE} for cb in model.codebooks]
        loss.backward()
        optimizer.step()
        for cb, state in zip(model.codebooks, before):
            for k, arr in state.items():
                assert getattr(cb, k).tobytes() == arr.tobytes(), k
        assert any(p.grad is not None for p in model.parameters().values())


class TestCommitmentLoss:
    def test_uniform_distributions_give_t_log_k(self, corpus, vocab):
        model = make_model(vocab)
        for cb in model.codebooks:
            cb.embeddings = np.tile(cb.embeddings[0], (cb.size, 1))
        data = AlignmentData.from_corpus(corpus, vocab, 16)
        prefixes = {iid: (0,) for iid in data.item_ids[:3]}
        batch, frozen = make_batch(data, data.item_ids[:3], prefixes=prefixes)
        got = commitment(batch_forward(batch, model, data, frozen), model).item()
        assert np.isclose(got, 2 * np.log(model.config.codebook_size), atol=1e-9)

    def test_one_hot_distributions_vanish(self, corpus, vocab):
        """States aligned exactly with the target codebook rows: every code
        distribution is one-hot on its target and the loss is 0."""
        model = make_model(vocab)
        D, K = model.config.hidden_size, model.config.codebook_size
        basis = np.zeros((K, D))
        basis[np.arange(K), np.arange(K)] = 30.0
        for cb in model.codebooks:
            cb.embeddings = basis.copy()
        targets1 = np.array([1, 3, 0])
        targets2 = np.array([2, 2, 1])
        d1 = basis[targets1]
        d2 = basis[targets2]
        data = AlignmentData.from_corpus(corpus, vocab, 16)
        ids = data.item_ids[:3]
        prefixes = {iid: (int(c),) for iid, c in zip(ids, targets1)}
        batch, frozen = make_batch(data, ids, prefixes=prefixes)
        fwd = batch_forward(batch, model, data, frozen)
        fwd = BatchForward(entry_item_idx=fwd.entry_item_idx,
                           unique_prefix=targets1[:, None],
                           q_states=fwd.q_states,
                           d_states=Tensor(np.stack([d1, d2], axis=1)))
        got = commitment(fwd, model).item()
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_direct_summation_oracle(self, corpus, vocab):
        model = make_model(vocab)
        data = AlignmentData.from_corpus(corpus, vocab, 16)
        ids = data.item_ids[:4]
        prefixes = {iid: (int(np.random.default_rng(n).integers(4)),)
                    for n, iid in enumerate(ids)}
        batch, frozen = make_batch(data, ids, prefixes=prefixes)
        fwd = batch_forward(batch, model, data, frozen)
        got = commitment(fwd, model).item()

        E1 = model.codebooks[0].embeddings
        E2 = model.codebooks[1].embeddings
        expected = 0.0
        unique_ids = list(dict.fromkeys(e.item_id for e in batch.entries()))
        for u, iid in enumerate(unique_ids):
            d1 = fwd.d_states.data[u, 0]
            d2 = fwd.d_states.data[u, 1]
            l1 = d1 @ E1.T
            l2 = d2 @ E2.T
            p1 = l1 - (l1.max() + np.log(np.exp(l1 - l1.max()).sum()))
            p2 = l2 - (l2.max() + np.log(np.exp(l2 - l2.max()).sum()))
            expected -= p1[prefixes[iid][0]] + p2[int(np.argmax(l2))]
        expected /= len(unique_ids)
        assert np.isclose(got, expected, atol=1e-9)

    def test_gradients_pass_fd_check(self, corpus, vocab):
        model = make_model(vocab)
        data = AlignmentData.from_corpus(corpus, vocab, 16)
        prefixes = {iid: (1,) for iid in data.item_ids[:3]}
        batch, frozen = make_batch(data, data.item_ids[:3], prefixes=prefixes)

        def loss_fn():
            return commitment(batch_forward(batch, model, data, frozen), model)

        report = grad_check(loss_fn, model.parameters(), eps=1e-5,
                            sample_per_param=3, rng=np.random.default_rng(1))
        assert report.max_rel_error < 1e-3, report.per_param


class TestAssignStepCodes:
    def test_continues_the_greedy_decoder(self, corpus, vocab):
        """From the depth-0 index the pass is the greedy decoder at depth 1;
        from those greedy codes, at depth 2."""
        model = make_model(vocab)
        data = AlignmentData.from_corpus(corpus, vocab, 16)
        items = {iid: data.item_tokens[iid] for iid in data.item_ids}
        model.trained_steps = 1
        step1 = assign_step_codes(model, data, root_index(data))
        assert step1.num_steps == 1
        assert step1.by_item == assign_all_ids(model, items, 1).by_item
        model.trained_steps = 2
        step2 = assign_step_codes(model, data, step1)
        assert step2.by_item == assign_all_ids(model, items, 2).by_item


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
        per_step = {assigned.num_steps: assigned
                    for assigned, _ in progressive_train(model, optimizer, data, cfg, seed=9)}
        assert set(per_step) == {1, 2}
        for iid, sid in per_step[2].by_item.items():
            assert len(sid) == 2
            assert sid[:1] == per_step[1].by_item[iid]
        assert model.trained_steps == 2

    def test_step_requires_previous_assignments(self, corpus, vocab):
        """A frozen index that lacks one of the items fails before any update."""
        model = make_model(vocab)
        optimizer = Optimizer(model.parameters(), lr=1e-3)
        data = AlignmentData.from_corpus(corpus, vocab, 16)
        frozen = frozen_index({iid: (0,) for iid in data.item_ids[1:]}, codebook_size=4)
        before = {k: p.data.copy() for k, p in model.params.items()}
        with pytest.raises(KeyError):
            train_code_step(model, optimizer, data, frozen, self._cfg(),
                            np.random.default_rng(0))
        assert optimizer.step_count == 0
        for k, p in model.params.items():
            assert np.array_equal(p.data, before[k])

    def test_ema_statistics_move_during_training(self, corpus, vocab):
        model = make_model(vocab)
        optimizer = Optimizer(model.parameters(), lr=1e-3)
        data = AlignmentData.from_corpus(corpus, vocab, 16)
        cfg = self._cfg(warmup_batches=0)
        before = model.codebooks[0].ema_counts.copy()
        train_code_step(model, optimizer, data, root_index(data), cfg, np.random.default_rng(1))
        assert not np.allclose(model.codebooks[0].ema_counts, before)
        assert row_identity_error(model.codebooks[0]) < 1e-9

    def test_warmup_batches_skip_ema(self, corpus, vocab):
        model = make_model(vocab)
        optimizer = Optimizer(model.parameters(), lr=1e-3)
        data = AlignmentData.from_corpus(corpus, vocab, 16)
        cfg = self._cfg(warmup_batches=10_000)  # everything stays in phase A
        before = model.codebooks[0].ema_counts.copy()
        _, stats = train_code_step(model, optimizer, data, root_index(data), cfg,
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
            train_code_step(model, optimizer, data, root_index(data), self._cfg(),
                            np.random.default_rng(4))
        for k, p in model.params.items():
            assert np.array_equal(p.data, before[k])

    def test_schedule_defaults_match_design(self):
        cfg = ProgressiveConfig()
        assert cfg.gamma == 0.99
        assert (cfg.warmup_batches, cfg.group_size, cfg.batch_size) == (50, 8, 64)

    def test_epoch_entries_multi_query(self, corpus, vocab):
        data = AlignmentData.from_corpus(corpus, vocab, 16)
        entries = build_epoch_entries(data, 3, np.random.default_rng(3))
        assert len(entries) == 3 * len(data.item_ids)
        per_item = {}
        for e in entries:
            per_item.setdefault(e.item_id, []).append(tuple(e.query_tokens))
        # 3 queries per item in the corpus: sampling without replacement
        assert all(len(set(v)) == 3 for v in per_item.values())
