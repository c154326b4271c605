"""Prefix maps of the code index, beam decoding against exhaustive scoring,
retrieval contracts, and the hierarchical k-means coder."""

import itertools
import json

import numpy as np
import pytest

from semidx import autodiff as ad
from semidx.index import (CodeIndex, assign_all_ids, beam_search_decode,
                          beam_search_decode_batch, dense_rank, dense_retrieve,
                          generative_retrieve, greedy_decode_rows,
                          hierarchical_kmeans_codes, item_representation_matrix,
                          kmeans)
from semidx.model import ModelConfig, TransformerModel

from oracles import decode_step, encode


INDEX_HEADER = {"version": 1, "checkpoint_hash": "", "num_steps": 1, "codebook_size": 2,
                "item_count": 1}


@pytest.fixture
def tiny_model():
    cfg = ModelConfig(vocab_size=40, hidden_size=16, encoder_layers=1,
                      decoder_layers=1, attention_heads=2, feed_forward_size=32,
                      max_text_len=10, num_steps=2, codebook_size=3, seed=23)
    model = TransformerModel(cfg)
    model.trained_steps = 2
    return model


class TestCodeIndex:
    def test_invariants_after_build(self):
        idx = CodeIndex(num_steps=2, codebook_size=4)
        rng = np.random.default_rng(0)
        for n in range(50):
            idx.insert(f"i{n}", tuple(rng.integers(0, 4, size=2)))
        idx.validate()
        # union property: the root covers everything, each child partition sums
        assert sorted(idx.items_under(())) == sorted(idx.by_item)
        total = sum(len(idx.items_under((c,))) for c in idx.children_of(()))
        assert total == len(idx)

    def test_prefix_lookups_match_scan(self):
        """Both lookups agree with a scan of ``by_item`` for IDs of mixed
        lengths, across subtrees, and for prefixes no ID carries."""
        idx = CodeIndex(num_steps=3, codebook_size=3)
        rng = np.random.default_rng(7)
        for n in range(60):
            idx.insert(f"i{n}", tuple(int(c) for c in rng.integers(0, 3, size=rng.integers(0, 4))))
        idx.validate()
        prefixes = {sid[:t] for sid in idx.by_item.values() for t in range(len(sid) + 1)}
        absent = set(itertools.product(range(3), repeat=3)) - prefixes
        assert absent
        for prefix in prefixes | absent | {(0, 0, 0, 0)}:
            under = [iid for iid, sid in idx.by_item.items() if sid[:len(prefix)] == prefix]
            assert idx.items_under(prefix) == under
            assert idx.items_under(list(prefix)) == under
            assert idx.children_of(prefix) == sorted(
                {sid[len(prefix)] for sid in idx.by_item.values()
                 if len(sid) > len(prefix) and sid[:len(prefix)] == prefix})

    def test_duplicate_item_rejected(self):
        idx = CodeIndex(num_steps=1, codebook_size=2)
        idx.insert("a", (0,))
        with pytest.raises(ValueError):
            idx.insert("a", (1,))

    def test_id_collisions_allowed(self):
        idx = CodeIndex(num_steps=1, codebook_size=2)
        idx.insert("a", (0,))
        idx.insert("b", (0,))
        assert idx.items_under((0,)) == ["a", "b"]  # insertion order

    def test_out_of_range_code_rejected(self):
        idx = CodeIndex(num_steps=1, codebook_size=2)
        with pytest.raises(ValueError):
            idx.insert("a", (5,))

    def test_save_load_roundtrip(self, tmp_path):
        idx = CodeIndex(num_steps=2, codebook_size=3, checkpoint_hash="abc")
        rng = np.random.default_rng(1)
        for n in range(20):
            idx.insert(f"i{n}", tuple(rng.integers(0, 3, size=2)))
        path = tmp_path / "index.json"
        idx.save(path)
        loaded = CodeIndex.load(path, expected_checkpoint_hash="abc")
        assert loaded.by_item == idx.by_item
        with pytest.raises(ValueError):
            CodeIndex.load(path, expected_checkpoint_hash="other")

    @pytest.mark.parametrize("text, reason", [
        ('{"version": 1, "assignments": [', "not UTF-8 JSON"),
        (json.dumps([]), "not a JSON object"),
        (json.dumps({"version": 1}), "lacks checkpoint_hash, num_steps, codebook_size, "
                                     "item_count, assignments"),
        (json.dumps(dict(INDEX_HEADER, assignments={"a": [0]})), "assignments is not a list"),
        (json.dumps(dict(INDEX_HEADER, assignments=[[[0], "a", 7]])), "row 0 is not"),
        (json.dumps(dict(INDEX_HEADER, assignments=[[[0], "a"], ["0", "b"]])), "row 1 is not"),
        (json.dumps(dict(INDEX_HEADER, assignments=[[[0.5], "a"]])), "row 0 is not"),
        (json.dumps(dict(INDEX_HEADER, assignments=[[[0], 3]])), "row 0 is not"),
        (json.dumps(dict(INDEX_HEADER, assignments=[[[True], "a"]])), "row 0 is not"),
        (json.dumps(dict(INDEX_HEADER, num_steps=2, assignments=[[[0], "a"]])),
         "row 0 has 1 codes, not 2"),
        (json.dumps(dict(INDEX_HEADER, num_steps=[2], assignments=[])), "num_steps is not"),
        (json.dumps(dict(INDEX_HEADER, num_steps=2.7, assignments=[])), "num_steps is not"),
        (json.dumps(dict(INDEX_HEADER, num_steps=0, assignments=[])), "num_steps is not"),
        (json.dumps(dict(INDEX_HEADER, codebook_size=True, assignments=[])),
         "codebook_size is not"),
        (json.dumps(dict(INDEX_HEADER, codebook_size=1, assignments=[])),
         "codebook_size is not"),
        (json.dumps(dict(INDEX_HEADER, item_count="1", assignments=[])), "item_count is not"),
        (json.dumps(dict(INDEX_HEADER, checkpoint_hash=7, assignments=[])),
         "checkpoint_hash is not"),
        (json.dumps(dict(INDEX_HEADER, assignments=[[[5], "a"]])),
         "assignment row 0: code out of range in (5,)"),
        (json.dumps(dict(INDEX_HEADER, item_count=2, assignments=[[[0], "a"]])),
         "item_count is 2, the rows hold 1"),
    ], ids=["truncated", "not-object", "no-keys", "rows-not-list", "three-element-row",
            "id-not-list", "float-code", "item-not-string", "bool-code", "short-id",
            "depth-list", "depth-float", "depth-zero", "codebook-bool", "codebook-one",
            "count-string", "hash-not-string", "code-out-of-range", "count-mismatch"])
    def test_corrupt_file_rejected(self, tmp_path, text, reason):
        path = tmp_path / "index.json"
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            CodeIndex.load(path)
        assert f"{path}: corrupt index file (" in str(exc.value)
        assert reason in str(exc.value)

    def test_assign_all_ids_deterministic_for_duplicates(self, tiny_model):
        items = {"a": [3, 4, 5], "b": [3, 4, 5], "c": [6, 7]}
        idx = assign_all_ids(tiny_model, items, depth=2)
        assert idx.by_item["a"] == idx.by_item["b"]
        idx.validate()


class TestBatchedInference:
    def test_greedy_rows_match_single_query_calls(self, tiny_model):
        """Rows of 1-9 tokens, decoded 5 at a time, so chunks mix lengths and
        the last chunk is partial."""
        rng = np.random.default_rng(6)
        lengths = rng.permutation(list(range(1, 10)) * 2)
        rows = [list(rng.integers(3, 40, size=n)) for n in lengths]
        codes, finals = greedy_decode_rows(tiny_model, rows, depth=2, chunk=5)
        assert codes.shape == (18, 2) and finals.shape == (18, 16)
        for tokens, sid, final in zip(rows, codes, finals):
            one_codes, one_finals = greedy_decode_rows(tiny_model, [tokens], depth=2)
            assert tuple(int(c) for c in sid) == tuple(int(c) for c in one_codes[0])
            assert np.allclose(final, one_finals[0], rtol=0.0, atol=1e-9)

    def test_greedy_rows_continue_a_prefix(self, tiny_model):
        """Each row keeps its prefix code and gets the step-2 code of the B=1
        oracle state at that prefix; chunks of 3 over 7 rows."""
        rng = np.random.default_rng(8)
        rows = [list(rng.integers(3, 40, size=n)) for n in rng.integers(1, 10, size=7)]
        prefix = rng.integers(0, 3, size=(7, 1))
        codes, _ = greedy_decode_rows(tiny_model, rows, 2, prefix, chunk=3)
        assert codes.shape == (7, 2)
        assert np.array_equal(codes[:, 0], prefix[:, 0])
        for tokens, p, sid in zip(rows, prefix, codes):
            state = decode_step(tiny_model, encode(tiny_model, tokens), p, 2)
            assert sid[1] == tiny_model.codebooks[1].assign(state.data[None])[0]

    def test_empty_row_rejected(self, tiny_model):
        items = {"a": [3, 4], "b": []}
        with pytest.raises(ValueError, match="empty"):
            assign_all_ids(tiny_model, items, depth=2)
        with pytest.raises(ValueError, match="empty"):
            item_representation_matrix(tiny_model, items, depth=2)
        with pytest.raises(ValueError, match="empty"):
            beam_search_decode_batch(tiny_model, [[3, 4], []], beam_width=2, depth=2)


class TestBeamSearch:
    def test_width_one_equals_greedy(self, tiny_model):
        rng = np.random.default_rng(2)
        for _ in range(10):
            tokens = list(rng.integers(3, 40, size=rng.integers(1, 8)))
            beams = beam_search_decode(tiny_model, tokens, beam_width=1, depth=2)
            codes, _ = greedy_decode_rows(tiny_model, [tokens], depth=2)
            assert beams[0][0] == tuple(int(c) for c in codes[0])

    def test_exhaustive_equivalence_bit_for_bit(self, tiny_model):
        """W = K^T enumerates everything: ranking equals brute-force scoring
        of all K^T sequences, including exact score values."""
        rng = np.random.default_rng(3)
        K, T = 3, 2
        for _ in range(5):
            tokens = list(rng.integers(3, 40, size=5))
            beams = beam_search_decode(tiny_model, tokens, beam_width=K ** T, depth=T)
            memory = encode(tiny_model, tokens)
            scored = []
            for sid in itertools.product(range(K), repeat=T):
                score = 0.0
                for t in range(1, T + 1):
                    d_t = ad.reshape(decode_step(tiny_model, memory, sid[:t - 1], t), (1, -1))
                    log_p = ad.log_softmax(tiny_model.codebooks[t - 1].logits(d_t)).data[0]
                    score = score + float(log_p[sid[t - 1]])
                scored.append((sid, score))
            scored.sort(key=lambda pair: (-pair[1], pair[0]))
            assert beams == scored
            assert beam_search_decode_batch(tiny_model, [tokens], beam_width=K ** T,
                                            depth=T) == [scored]

    def test_constrained_returns_only_indexed_ids(self, tiny_model):
        rng = np.random.default_rng(4)
        idx = CodeIndex(num_steps=2, codebook_size=3)
        for n in range(6):
            idx.insert(f"i{n}", tuple(rng.integers(0, 3, size=2)))
        indexed = set(idx.by_item.values())
        for _ in range(10):
            tokens = list(rng.integers(3, 40, size=4))
            beams = beam_search_decode(tiny_model, tokens, beam_width=4, depth=2,
                                       constrain=True, index=idx)
            assert beams
            assert all(sid in indexed for sid, _ in beams)

    def test_constrained_empty_index_gives_empty(self, tiny_model):
        idx = CodeIndex(num_steps=2, codebook_size=3)
        beams = beam_search_decode(tiny_model, [3, 4], beam_width=4, depth=2,
                                   constrain=True, index=idx)
        assert beams == []

    def test_batched_matches_single(self, tiny_model):
        rng = np.random.default_rng(5)
        rows = [list(rng.integers(3, 40, size=rng.integers(2, 8))) for _ in range(7)]
        batched = beam_search_decode_batch(tiny_model, rows, beam_width=3, depth=2)
        for tokens, got in zip(rows, batched):
            single = beam_search_decode(tiny_model, tokens, beam_width=3, depth=2)
            assert [sid for sid, _ in got] == [sid for sid, _ in single]
            assert np.allclose([s for _, s in got], [s for _, s in single], atol=1e-9)

    def test_bad_width_rejected(self, tiny_model):
        with pytest.raises(ValueError):
            beam_search_decode(tiny_model, [3], beam_width=0, depth=1)


class TestGenerativeRetrieve:
    def test_single_item_corpus_always_returned(self, tiny_model):
        items = {"only": [4, 5, 6]}
        idx = assign_all_ids(tiny_model, items, depth=2)
        rng = np.random.default_rng(6)
        for _ in range(5):
            tokens = list(rng.integers(3, 40, size=4))
            run = generative_retrieve(tiny_model, idx, tokens, beam_width=2, cutoff=10)
            assert run.item_ids == ["only"]

    def test_no_duplicates_and_cutoff(self, tiny_model):
        rng = np.random.default_rng(7)
        items = {f"i{n}": list(rng.integers(3, 40, size=5)) for n in range(30)}
        idx = assign_all_ids(tiny_model, items, depth=2)
        run = generative_retrieve(tiny_model, idx, [3, 9], beam_width=9, cutoff=7)
        assert len(run.item_ids) <= 7
        assert len(set(run.item_ids)) == len(run.item_ids)
        assert all(a >= b for a, b in zip(run.scores, run.scores[1:]))
        for cutoff in (0, -1):
            assert generative_retrieve(tiny_model, idx, [3, 9], beam_width=9,
                                       cutoff=cutoff).item_ids == []

    def test_bucket_order_is_insertion_order(self, tiny_model):
        items = {"a": [3, 4, 5], "b": [3, 4, 5]}  # identical: same bucket
        idx = assign_all_ids(tiny_model, items, depth=2)
        run = generative_retrieve(tiny_model, idx, [3, 4], beam_width=9, cutoff=10)
        pos_a, pos_b = run.item_ids.index("a"), run.item_ids.index("b")
        assert pos_a < pos_b


class TestDenseRetrieve:
    def test_brute_force_oracle_100_random(self):
        rng = np.random.default_rng(8)
        matrix = rng.normal(size=(100, 8))
        ids = [f"i{n}" for n in range(100)]
        for _ in range(20):
            q = rng.normal(size=8)
            run = dense_rank(q, matrix, ids, k=10)
            scores = matrix @ q
            expected = [ids[int(i)] for i in np.argsort(-scores, kind="stable")[:10]]
            assert run.item_ids == expected

    def test_self_similarity_ranks_first(self):
        rng = np.random.default_rng(9)
        v = rng.normal(size=6) * 3
        matrix = np.vstack([v, rng.normal(size=(20, 6)) * 0.1])
        run = dense_rank(v, matrix, [f"i{n}" for n in range(21)], k=5)
        assert run.item_ids[0] == "i0"

    def test_k_zero_empty(self):
        run = dense_rank(np.ones(3), np.ones((4, 3)), list("abcd"), k=0)
        assert run.item_ids == []

    def test_k_beyond_corpus_full_ranking(self):
        run = dense_rank(np.ones(3), np.ones((4, 3)), list("abcd"), k=99)
        assert len(run.item_ids) == 4

    def test_model_level_wrapper(self, tiny_model):
        items = {f"i{n}": [3 + n, 4, 5] for n in range(5)}
        matrix, ids = item_representation_matrix(tiny_model, items, depth=2)
        run = dense_retrieve(tiny_model, matrix, ids, [3, 4, 5], depth=2, k=3)
        assert len(run.item_ids) == 3
        # query identical to item i0's text scores exactly its representation
        _, finals = greedy_decode_rows(tiny_model, [[3, 4, 5]], depth=2)
        q = finals[0]
        assert np.isclose(run.scores[0], float((matrix @ q).max()))


class TestHierarchicalKmeans:
    def test_two_blobs_recovered(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=(30, 4)) + 10.0
        b = rng.normal(size=(30, 4)) - 10.0
        emb = np.vstack([a, b])
        codes = hierarchical_kmeans_codes(emb, k=2, depth=1, seed=0)
        first = [c[0] for c in codes]
        assert len(set(first[:30])) == 1
        assert len(set(first[30:])) == 1
        assert first[0] != first[30]

    def test_identical_points_share_full_id(self):
        emb = np.ones((10, 3))
        codes = hierarchical_kmeans_codes(emb, k=3, depth=2, seed=1)
        assert len(set(codes)) == 1
        assert len(codes[0]) == 2

    def test_k_one_all_zero(self):
        rng = np.random.default_rng(11)
        codes = hierarchical_kmeans_codes(rng.normal(size=(12, 3)), k=1, depth=2, seed=2)
        assert all(c == (0, 0) for c in codes)

    def test_small_branch_assigns_distinct_and_stops(self):
        rng = np.random.default_rng(12)
        emb = rng.normal(size=(2, 3))
        codes = hierarchical_kmeans_codes(emb, k=5, depth=3, seed=3)
        assert sorted(c[0] for c in codes) == [0, 1]
        assert all(len(c) == 1 for c in codes)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(13)
        emb = rng.normal(size=(40, 5))
        a = hierarchical_kmeans_codes(emb, k=3, depth=2, seed=7)
        b = hierarchical_kmeans_codes(emb, k=3, depth=2, seed=7)
        assert a == b

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            hierarchical_kmeans_codes(np.array([[np.inf, 0.0]]), k=2, depth=1, seed=0)

    def test_plain_kmeans_separates(self):
        rng = np.random.default_rng(14)
        x = np.vstack([rng.normal(size=(20, 2)) + 5, rng.normal(size=(20, 2)) - 5])
        labels = kmeans(x, 2, np.random.default_rng(0))
        assert len(set(labels[:20].tolist())) == 1
        assert labels[0] != labels[20]
