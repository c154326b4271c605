"""Backbone and codebook contracts: shapes, determinism, quantization
lookups against direct computation, EMA invariants, checkpoint round-trips."""

import itertools
import json
import os
import struct

import numpy as np
import pytest

from semidx import autodiff as ad
from semidx.config import dump_config, from_dict
from semidx.data import RESERVED_TOKENS, Vocab
from semidx.index import CodeIndex, beam_search_decode_batch, greedy_decode_rows
from semidx.model import (LAPLACE_EPS, Codebook, ModelConfig, TransformerModel,
                          checkpoint_hash, load_checkpoint, pad_rows,
                          save_checkpoint)

from oracles import decode_step, encode, row_identity_error


@pytest.fixture
def tiny_model():
    cfg = ModelConfig(vocab_size=30, hidden_size=16, encoder_layers=2,
                      decoder_layers=2, attention_heads=2, feed_forward_size=32,
                      max_text_len=12, num_steps=2, codebook_size=3, seed=7)
    model = TransformerModel(cfg)
    model.trained_steps = cfg.num_steps
    return model


def rewrite_header(raw: bytes, edit) -> bytes:
    """Checkpoint bytes ``raw`` with the JSON header passed through ``edit``."""
    header_len = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16:16 + header_len])
    edit(header)
    data = json.dumps(header, sort_keys=True).encode("utf-8")
    return raw[:8] + struct.pack("<Q", len(data)) + data + raw[16 + header_len:]


def manifest_entry(header: dict, name: str) -> dict:
    """The array manifest entry of ``name`` in a checkpoint header."""
    return next(a for a in header["arrays"] if a["name"] == name)


def greedy(model, tokens, depth):
    """Greedy semantic ID and final-step state of one token row."""
    codes, finals = greedy_decode_rows(model, [tokens], depth)
    return tuple(int(c) for c in codes[0]), finals[0]


class TestConfig:
    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=10, hidden_size=10, attention_heads=3)

    def test_desk_defaults(self):
        cfg = ModelConfig(vocab_size=100)
        assert (cfg.hidden_size, cfg.encoder_layers, cfg.attention_heads) == (64, 2, 2)
        assert (cfg.num_steps, cfg.codebook_size) == (4, 16)


class TestEncode:
    def test_shape_contract(self, tiny_model):
        for L in (1, 4, 9):
            memory = encode(tiny_model, list(range(3, 3 + L)))
            assert memory.shape == (L, 16)

    def test_determinism(self, tiny_model):
        a = encode(tiny_model, [3, 4, 5]).data
        b = encode(tiny_model, [3, 4, 5]).data
        assert np.array_equal(a, b)

    def test_empty_input_rejected(self, tiny_model):
        with pytest.raises(ValueError):
            encode(tiny_model, [])

    def test_too_long_rejected(self, tiny_model):
        with pytest.raises(ValueError):
            encode(tiny_model, list(range(13)))

    def test_padding_invariance(self, tiny_model):
        tokens = [3, 4, 5]
        plain = encode(tiny_model, tokens).data
        padded = np.array([[3, 4, 5, 0, 0, 0]])
        mask = np.array([[1.0, 1.0, 1.0, 0.0, 0.0, 0.0]])
        batched = tiny_model.encode_batch(padded, mask).data[0]
        assert np.allclose(plain, batched[:3], atol=1e-6)


class TestPadRows:
    def test_layout(self):
        tokens, mask = pad_rows([[5, 6, 7], [8]])
        assert tokens.tolist() == [[5, 6, 7], [8, 0, 0]]
        assert mask.tolist() == [[1.0, 1.0, 1.0], [1.0, 0.0, 0.0]]

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            pad_rows([])
        with pytest.raises(ValueError, match="row 1 is empty"):
            pad_rows([[3], []])


class TestDecodeStep:
    def test_base_case(self, tiny_model):
        memory = encode(tiny_model, [3, 4])
        d1 = decode_step(tiny_model, memory, (), 1)
        assert d1.shape == (16,)
        assert np.isfinite(d1.data).all()

    def test_prefix_length_mismatch(self, tiny_model):
        memory = encode(tiny_model, [3, 4])
        with pytest.raises(ValueError):
            decode_step(tiny_model, memory, (1,), 1)
        with pytest.raises(ValueError):
            decode_step(tiny_model, memory, (), 2)

    def test_prefixes_change_output(self, tiny_model):
        memory = encode(tiny_model, [3, 4, 5])
        a = decode_step(tiny_model, memory, (0,), 2).data
        b = decode_step(tiny_model, memory, (2,), 2).data
        assert not np.allclose(a, b)

    def test_oracles_match_padded_batch_rows(self, tiny_model):
        """The B=1 oracles equal their row of a padded two-row batch."""
        rows, prefix = [[3, 4, 5], [6, 7, 8, 9, 10, 11]], np.array([[2], [0]])
        tok, mask = pad_rows(rows)
        memory = tiny_model.encode_batch(tok, mask)
        states = tiny_model.decode_code_states(memory, mask, prefix).data
        for i, tokens in enumerate(rows):
            one = encode(tiny_model, tokens)
            assert np.allclose(one.data, memory.data[i, :len(tokens)], rtol=0.0, atol=1e-12)
            for t in (1, 2):
                d_t = decode_step(tiny_model, one, prefix[i, :t - 1], t).data
                assert np.allclose(d_t, states[i, t - 1], rtol=0.0, atol=1e-12)

    def test_exhaustive_prefixes_finite(self, tiny_model):
        # every K^(t-1) prefix at M=2, K=3
        memory = encode(tiny_model, [4, 7, 9])
        for prefix in itertools.product(range(3), repeat=1):
            d2 = decode_step(tiny_model, memory, prefix, 2)
            assert np.isfinite(d2.data).all()


class TestCodeDistribution:
    def test_identical_rows_uniform(self, tiny_model):
        cb = tiny_model.codebooks[0]
        cb.embeddings = np.tile(cb.embeddings[0], (cb.size, 1))
        d = ad.Tensor(np.random.default_rng(0).normal(size=(1, 16)))
        dist = tiny_model.codebooks[0].distribution(d)
        assert np.allclose(dist.data, 1.0 / cb.size, atol=1e-12)

    def test_sharp_limit_on_orthonormal_rows(self):
        cb = Codebook(size=4, dim=4, rng=np.random.default_rng(0))
        cb.embeddings = np.eye(4)
        d = ad.Tensor(np.eye(4)[2:3] * 60.0)
        dist = cb.distribution(d).data[0]
        assert dist.argmax() == 2
        assert dist[2] > 0.999999

    def test_matches_direct_softmax(self):
        rng = np.random.default_rng(1)
        cb = Codebook(size=3, dim=4, rng=rng)
        d = rng.normal(size=4)
        dist = cb.distribution(ad.Tensor(d[None])).data[0]
        logits = cb.embeddings @ d
        expected = np.exp(logits - logits.max())
        expected /= expected.sum()
        assert np.allclose(dist, expected, atol=1e-12)

    def test_quantization_oracle_1000_random(self):
        """distribution and assign against direct dot-product/softmax."""
        rng = np.random.default_rng(123)
        cb = Codebook(size=7, dim=5, rng=rng)
        for _ in range(1000):
            d = rng.normal(size=5) * rng.uniform(0.1, 5.0)
            scores = cb.embeddings @ d
            expected = np.exp(scores - scores.max())
            expected /= expected.sum()
            dist = cb.distribution(ad.Tensor(d[None])).data[0]
            assert np.allclose(dist, expected, atol=1e-10)
            assert abs(dist.sum() - 1.0) < 1e-9
            assert cb.assign(d[None])[0] == int(np.argmax(scores))


class TestAssignCode:
    def test_self_match(self):
        rng = np.random.default_rng(2)
        cb = Codebook(size=5, dim=6, rng=rng)
        # row 2 has the largest self dot product after rescaling
        cb.embeddings[2] *= 10.0
        assert cb.assign(cb.embeddings[2:3])[0] == 2

    def test_tie_breaks_low_index(self):
        cb = Codebook(size=4, dim=3, rng=np.random.default_rng(3))
        cb.embeddings = np.zeros((4, 3))
        cb.embeddings[1] = [1.0, 0.0, 0.0]
        cb.embeddings[3] = [1.0, 0.0, 0.0]
        assert cb.assign(np.array([[1.0, 0.0, 0.0]]))[0] == 1

    def test_batch_assign(self):
        rng = np.random.default_rng(4)
        cb = Codebook(size=4, dim=3, rng=rng)
        d = rng.normal(size=(10, 3))
        batch = cb.assign(d)
        singles = [cb.assign(row[None])[0] for row in d]
        assert list(batch) == singles


class TestGenerateIds:
    def test_depth_one_composition(self, tiny_model):
        tokens = [5, 6, 7]
        sid, _ = greedy(tiny_model, tokens, 1)
        memory = encode(tiny_model, tokens)
        d1 = decode_step(tiny_model, memory, (), 1)
        assert sid == (tiny_model.codebooks[0].assign(d1.data[None])[0],)

    def test_prefix_property(self, tiny_model):
        tokens = [8, 9]
        assert greedy(tiny_model, tokens, 2)[0][:1] == greedy(tiny_model, tokens, 1)[0]

    def test_untrained_depth_rejected(self, tiny_model):
        tiny_model.trained_steps = 1
        with pytest.raises(ValueError):
            greedy(tiny_model, [3], 2)

    def test_codes_in_range(self, tiny_model):
        rng = np.random.default_rng(5)
        for _ in range(20):
            tokens = list(rng.integers(3, 30, size=rng.integers(1, 10)))
            sid, _ = greedy(tiny_model, tokens, 2)
            assert len(sid) == 2
            assert all(0 <= c < 3 for c in sid)

    def test_final_representation_matches_chain(self, tiny_model):
        tokens = [4, 5, 6]
        sid, rep = greedy(tiny_model, tokens, 2)
        memory = encode(tiny_model, tokens)
        d2 = decode_step(tiny_model, memory, sid[:1], 2)
        assert np.allclose(rep, d2.data, atol=1e-9)

    def test_identical_texts_identical_vectors(self, tiny_model):
        _, a = greedy(tiny_model, [3, 4], 2)
        _, b = greedy(tiny_model, [3, 4], 2)
        assert np.array_equal(a, b)


class TestInferenceBuildsNoGraph:
    def test_no_autodiff_node_recorded(self, tiny_model, monkeypatch):
        """Greedy decoding, mean pooling and beam search record no graph
        node, so no backward closure keeps their activations; a training
        forward pass through the same spy still records them."""
        recorded = []
        node = ad._node

        def spy(data, parents, backward):
            out = node(data, parents, backward)
            if out.requires_grad:
                recorded.append(out)
            return out

        monkeypatch.setattr(ad, "_node", spy)
        rows = [[3, 4, 5], [6, 7]]
        tokens, mask = pad_rows(rows)
        calls = {"greedy_decode_batch": lambda: tiny_model.greedy_decode_batch(tokens, mask, 2),
                 "mean_pooled_encoding": lambda: tiny_model.mean_pooled_encoding(tokens, mask),
                 "beam_search_decode_batch": lambda: beam_search_decode_batch(
                     tiny_model, rows, 3, 2)}
        counts = {}
        for name, call in calls.items():
            call()
            counts[name], recorded[:] = len(recorded), []
        assert counts == dict.fromkeys(calls, 0)
        tiny_model.encode_batch(tokens, mask)
        assert recorded


class TestCodebookEma:
    def test_row_identity_after_updates(self):
        rng = np.random.default_rng(6)
        cb = Codebook(size=4, dim=3, rng=rng)
        assert row_identity_error(cb) < 1e-12
        for _ in range(20):
            vecs = rng.normal(size=(8, 3))
            codes = rng.integers(0, 4, size=8)
            cb.ema_update(vecs, codes, 0.99)
            assert row_identity_error(cb) < 1e-12

    def test_gamma_one_is_identity(self):
        cb = Codebook(size=4, dim=3, rng=np.random.default_rng(7))
        before = cb.embeddings.copy()
        cb.ema_update(np.ones((5, 3)), np.zeros(5, dtype=int), 1.0)
        assert np.allclose(cb.embeddings, before, atol=1e-15)

    def test_geometric_series_limit(self):
        """Feeding one constant vector: closed form and 1e-3 convergence."""
        rng = np.random.default_rng(8)
        cb = Codebook(size=4, dim=3, rng=rng)
        v = np.array([0.5, -1.0, 2.0])
        e0 = cb.embeddings[1].copy()
        n = 200
        for _ in range(n):
            cb.ema_update(v[None, :], np.array([1]), 0.99)
        g = 0.99
        counts = 1.0 - g ** n
        sums = (g ** n) * (e0 * LAPLACE_EPS) + (1.0 - g ** n) * v
        expected = sums / (counts + LAPLACE_EPS)
        assert np.allclose(cb.embeddings[1], expected, atol=1e-12)
        assert np.abs(cb.embeddings[1] - v).max() < 1e-3

    def test_unassigned_codes_decay_consistently(self):
        rng = np.random.default_rng(9)
        cb = Codebook(size=3, dim=2, rng=rng)
        cb.ema_update(rng.normal(size=(4, 2)), rng.integers(0, 3, size=4), 0.9)
        counts, sums = cb.ema_counts.copy(), cb.ema_sums.copy()
        cb.ema_update(np.zeros((0, 2)), np.zeros(0, dtype=int), 0.9)
        assert np.allclose(cb.ema_counts, 0.9 * counts)
        assert np.allclose(cb.ema_sums, 0.9 * sums)
        expected = (0.9 * sums) / (0.9 * counts + LAPLACE_EPS)[:, None]
        assert np.allclose(cb.embeddings, expected, atol=1e-12)

    def test_dead_code_reinit(self):
        rng = np.random.default_rng(10)
        cb = Codebook(size=3, dim=2, rng=rng)
        cb.ema_update(np.ones((6, 2)), np.array([0, 0, 0, 1, 1, 1]), 0.99)
        donor = np.array([[5.0, -5.0]])
        n = cb.reinit_dead(threshold=1e-3, donors=donor, rng=np.random.default_rng(0))
        assert n == 1
        assert np.allclose(cb.embeddings[2], donor[0], atol=1e-12)
        assert row_identity_error(cb) < 1e-12

    def test_reinit_noop_cases(self):
        rng = np.random.default_rng(11)
        cb = Codebook(size=2, dim=2, rng=rng)
        cb.ema_update(np.ones((4, 2)), np.array([0, 0, 1, 1]), 0.99)
        before = cb.embeddings.copy()
        assert cb.reinit_dead(1e-6, np.empty((0, 2)), np.random.default_rng(0)) == 0
        assert cb.reinit_dead(1e-6, np.ones((1, 2)), np.random.default_rng(0)) == 0
        assert np.array_equal(cb.embeddings, before)


class TestCheckpoint:
    def test_bit_exact_roundtrip(self, tiny_model, tmp_path):
        path = tmp_path / "m.ckpt"
        tiny_model.codebooks[0].ema_update(np.ones((4, 16)), np.array([0, 1, 2, 0]), 0.99)
        save_checkpoint(path, tiny_model, extra={"note": 1})
        bundle = load_checkpoint(path)
        again = tmp_path / "m2.ckpt"
        save_checkpoint(again, bundle.model, extra={"note": 1})
        assert path.read_bytes() == again.read_bytes()
        assert bundle.extra == {"note": 1}

    def test_probe_ids_identical_after_roundtrip(self, tiny_model, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, tiny_model)
        loaded = load_checkpoint(path).model
        rng = np.random.default_rng(12)
        for _ in range(10):
            tokens = list(rng.integers(3, 30, size=rng.integers(1, 8)))
            assert greedy(tiny_model, tokens, 2)[0] == greedy(loaded, tokens, 2)[0]

    def test_optimizer_state_roundtrip(self, tiny_model, tmp_path):
        from semidx.autodiff import Optimizer
        opt = Optimizer(tiny_model.parameters(), lr=0.01)
        for p in tiny_model.parameters().values():
            p.grad = np.ones_like(p.data)
        opt.step()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, tiny_model, optimizer=opt)
        bundle = load_checkpoint(path)
        assert bundle.optimizer_state["step_count"] == 1
        assert np.array_equal(bundle.optimizer_state["m"]["tok_emb"], opt.m["tok_emb"])

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_truncated_or_extended_rejected(self, tiny_model, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, tiny_model)
        raw = path.read_bytes()
        header_len = int.from_bytes(raw[8:16], "little")
        damaged = {"inside the length field": raw[:12],
                   "inside the header": raw[:16 + header_len // 2],
                   "inside the payload": raw[:-5],
                   "one trailing byte": raw + b"\0"}
        for what, data in damaged.items():
            path.write_bytes(data)
            with pytest.raises(ValueError, match="truncated or corrupt checkpoint"):
                load_checkpoint(path)

    def test_header_without_a_key_or_array_rejected(self, tiny_model, tmp_path):
        path = tmp_path / "m.ckpt"
        header = json.dumps({"format_version": 1}).encode("utf-8")
        path.write_bytes(b"SIDXCKPT" + struct.pack("<Q", len(header)) + header)
        with pytest.raises(ValueError, match="truncated or corrupt checkpoint"):
            load_checkpoint(path)
        save_checkpoint(path, tiny_model, optimizer=ad.Optimizer(tiny_model.parameters()))
        raw = path.read_bytes()
        damaged = {
            "a parameter missing from the manifest":
                raw.replace(b'"param.tok_emb"', b'"param.tok_emX"'),
            "an optimizer moment missing from the manifest":
                raw.replace(b'"opt.v.tok_emb"', b'"opt.v.tok_emX"'),
            "a config with fewer steps than the codebook arrays":
                rewrite_header(raw, lambda h: (h["config"].update(num_steps=1),
                                               h.update(trained_steps=1))),
            "optimizer arrays without an optimizer header":
                rewrite_header(raw, lambda h: h.update(optimizer=None)),
            "unknown config key": rewrite_header(raw, lambda h: h["config"].update(foo=1)),
            "missing config key":
                rewrite_header(raw, lambda h: h["config"].pop("hidden_size")),
            "config not an object": rewrite_header(raw, lambda h: h.update(config=[])),
            "config value a string":
                rewrite_header(raw, lambda h: h["config"].update(hidden_size="16")),
            "config value a float":
                rewrite_header(raw, lambda h: h["config"].update(hidden_size=16.0)),
            "config with zero attention heads":
                rewrite_header(raw, lambda h: h["config"].update(attention_heads=0))}
        # the last array again, under its own name and with its own bytes
        header_len = int.from_bytes(raw[8:16], "little")
        last = json.loads(raw[16:16 + header_len])["arrays"][-1]
        size = 8 * int(np.prod(last["shape"]))
        twice = rewrite_header(raw, lambda h: h["arrays"].append(
            dict(last, offset=last["offset"] + size))) + raw[-size:]
        damaged["an array named twice"] = twice
        for what, data in damaged.items():
            path.write_bytes(data)
            with pytest.raises(ValueError, match="truncated or corrupt checkpoint"):
                load_checkpoint(path)

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda h: manifest_entry(h, "param.enc_final.g").update(shape=[1, 16]),
                     id="parameter-shape"),
        pytest.param(lambda h: manifest_entry(h, "codebook.2.ema_sums")
                     .update(name="codebook.2.ema_sumX"), id="codebook-array-missing"),
        pytest.param(lambda h: h["arrays"][1].update(offset=0), id="overlapping-offset"),
    ])
    def test_shape_or_codebook_entry_mismatch_rejected(self, edit, tiny_model, tmp_path):
        """Each of these once loaded silently or failed with KeyError (exit 3)."""
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, tiny_model)
        path.write_bytes(rewrite_header(path.read_bytes(), edit))
        with pytest.raises(ValueError, match="truncated or corrupt checkpoint"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda h: manifest_entry(h, "param.enc_final.g").update(shape=16),
                     id="shape-not-a-list"),
        pytest.param(lambda h: manifest_entry(h, "param.enc_final.g").update(shape=[16.0]),
                     id="shape-of-floats"),
        pytest.param(lambda h: h.update(trained_steps=9), id="trained-steps-above-num-steps"),
        pytest.param(lambda h: h.update(trained_steps="2"), id="trained-steps-a-string"),
        pytest.param(lambda h: h.update(extra=[]), id="extra-a-list"),
        pytest.param(lambda h: h.update(optimizer={}), id="optimizer-without-counts"),
        pytest.param(lambda h: h["optimizer"].update(step_count=-1),
                     id="optimizer-negative-count"),
    ])
    def test_header_field_of_wrong_type_or_range_rejected(self, edit, tiny_model, tmp_path):
        """Each of these once loaded silently, or failed later or with
        TypeError (exit 3)."""
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, tiny_model, optimizer=ad.Optimizer(tiny_model.parameters()))
        path.write_bytes(rewrite_header(path.read_bytes(), edit))
        with pytest.raises(ValueError, match="truncated or corrupt checkpoint"):
            load_checkpoint(path)

    def test_older_format_rejected(self, tiny_model, tmp_path):
        """A format-1 checkpoint (its config still carries ``dropout``), a
        format-2 one (its optimizer header still carries ``lr``) and a format-3
        one (its header still lists ``codebooks``) are refused by version,
        before their config or optimizer is read."""
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, tiny_model, optimizer=ad.Optimizer(tiny_model.parameters()))
        raw = path.read_bytes()

        def to_format_1(header):
            assert header["format_version"] == 4 and "dropout" not in header["config"]
            header["format_version"] = 1
            header["config"]["dropout"] = 0.0

        def to_format_2(header):
            assert set(header["optimizer"]) == {"step_count", "skipped_updates"}
            header["format_version"] = 2
            header["optimizer"].update(mode="adam", lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8)

        def to_format_3(header):
            assert "codebooks" not in header
            header["format_version"] = 3
            header["codebooks"] = [{"step": t, "decay": 0.99, "laplace_eps": 1e-5}
                                   for t in (1, 2)]

        for version, edit in ((1, to_format_1), (2, to_format_2), (3, to_format_3)):
            path.write_bytes(rewrite_header(raw, edit))
            with pytest.raises(ValueError,
                               match=f"unsupported checkpoint format version {version}"):
                load_checkpoint(path)

    @pytest.mark.parametrize("writer", ["checkpoint", "index", "vocab", "config"])
    def test_failed_write_keeps_previous_file(self, writer, tiny_model, tmp_path,
                                              monkeypatch):
        def save(path, version):
            if writer == "checkpoint":
                save_checkpoint(path, tiny_model, extra={"version": version})
            elif writer == "index":
                CodeIndex(num_steps=2, codebook_size=3, checkpoint_hash=version).save(path)
            elif writer == "vocab":
                Vocab(tokens=list(RESERVED_TOKENS) + [version]).save(path)
            else:
                dump_config(from_dict({"out_dir": version}), path)

        path = tmp_path / "artifact"
        save(path, "old")
        before = path.read_bytes()

        def fail(src, dst):
            raise OSError("simulated failure before the rename")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="simulated"):
            save(path, "new")
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["artifact"]

    def test_hash_changes_with_content(self, tiny_model, tmp_path):
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, tiny_model)
        tiny_model.params["tok_emb"].data = tiny_model.params["tok_emb"].data + 1e-9
        save_checkpoint(p2, tiny_model)
        assert checkpoint_hash(p1) != checkpoint_hash(p2)
