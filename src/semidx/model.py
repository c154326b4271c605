"""Encoder-decoder transformer with per-step quantization codebooks.

The encoder turns a token sequence into a memory of hidden states; the
decoder consumes a (possibly empty) prefix of already-assigned codes and
produces one hidden state per step. A dot-product softmax of that state
against the step's codebook yields the code distribution; the argmax is the
assigned code. Codebooks are never trained by gradient - they follow
exponential moving averages of the states assigned to them.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from semidx import autodiff as ad
from semidx.autodiff import Tensor

SemanticId = tuple[int, ...]

_NEG_BIAS = -1e9

# additive smoothing of the EMA counts, so a row never divides by zero
LAPLACE_EPS = 1e-5


# the least value of each config field below; every other field is a count >= 1
_LEAST_CONFIG_VALUE = {"encoder_layers": 0, "decoder_layers": 0, "codebook_size": 2, "seed": 0}


@dataclass
class BackboneConfig:
    """The encoder-decoder's shape: what a run config's ``model`` section sets."""

    hidden_size: int = 64
    encoder_layers: int = 2
    decoder_layers: int = 2
    attention_heads: int = 2
    feed_forward_size: int = 256
    max_text_len: int = 32

    def __post_init__(self):
        for f in fields(self):
            least, value = _LEAST_CONFIG_VALUE.get(f.name, 1), getattr(self, f.name)
            if value < least:
                raise ValueError(f"{f.name} must be >= {least}, not {value!r}")
        if self.hidden_size % self.attention_heads != 0:
            raise ValueError("hidden_size must be divisible by attention_heads")


@dataclass
class ModelConfig(BackboneConfig):
    """A backbone plus what the run derives for it: the vocabulary size, the
    code schedule and the seed (desk-scale defaults)."""

    vocab_size: int = field(kw_only=True)
    num_steps: int = 4
    codebook_size: int = 16
    seed: int = 0


class Codebook:
    """One step's K x D rows plus their EMA statistics.

    Invariant maintained by every update: each row equals
    ema_sums[j] / (ema_counts[j] + LAPLACE_EPS).
    """

    # the arrays that make up a codebook, in checkpoint order
    STATE = ("embeddings", "ema_counts", "ema_sums")

    def __init__(self, size: int, dim: int, rng: np.random.Generator):
        self.size = int(size)
        self.embeddings = rng.normal(0.0, 1.0 / np.sqrt(dim), size=(size, dim))
        self.ema_counts = np.zeros(size, dtype=np.float64)
        # laplace-consistent start so the row identity already holds
        self.ema_sums = self.embeddings * LAPLACE_EPS

    def conditioning_rows(self) -> np.ndarray:
        """Unit-normalized rows used as decoder inputs for assigned codes.

        Feeding raw EMA rows lets the prefix dominate later decoder states
        (their norm tracks the state norm), which starves deeper codes of
        content signal; normalizing keeps the branch identity without the
        amplitude.
        """
        norms = np.linalg.norm(self.embeddings, axis=1, keepdims=True)
        return self.embeddings / np.maximum(norms, 1e-12)

    def logits(self, d: Tensor) -> Tensor:
        """(N, K) dot products of (N, D) decoder states against the rows.

        The codebook enters the graph as a constant: code losses train the
        encoder/decoder only, rows move via EMA.
        """
        return ad.matmul(d, Tensor(self.embeddings.T))

    def distribution(self, d: Tensor) -> Tensor:
        return ad.softmax(self.logits(d))

    def row_log_probs(self, d_values: np.ndarray) -> np.ndarray:
        """(N, K) log code probabilities of (N, D) states from one (1, D) x (D, K)
        product per row, as ``logits`` takes at B=1: one (N, D) GEMM differs in
        the last bits, and beam scores stay bit-identical to the B=1 oracle."""
        logits = (d_values[:, None, :] @ self.embeddings.T)[:, 0, :]
        return ad.log_softmax(Tensor(logits)).data

    def assign(self, d_values: np.ndarray) -> np.ndarray:
        """Argmax code per row of (N, D) states; ties break toward the lowest index."""
        scores = np.asarray(d_values, dtype=np.float64) @ self.embeddings.T
        return np.argmax(scores, axis=-1)

    def ema_update(self, vectors: np.ndarray, codes: np.ndarray, decay: float) -> None:
        """Fold one batch of assigned vectors into the moving averages, each
        keeping a ``decay`` share of its old value."""
        vectors = np.asarray(vectors, dtype=np.float64)
        codes = np.asarray(codes, dtype=np.int64)
        counts = np.bincount(codes, minlength=self.size).astype(np.float64)
        sums = np.zeros_like(self.ema_sums)
        np.add.at(sums, codes, vectors)
        self.ema_counts = decay * self.ema_counts + (1.0 - decay) * counts
        self.ema_sums = decay * self.ema_sums + (1.0 - decay) * sums
        self._refresh_rows()

    def reinit_dead(self, threshold: float, donors: np.ndarray,
                    rng: np.random.Generator) -> int:
        """Reset rows with usage below ``threshold`` to random donor states."""
        donors = np.asarray(donors, dtype=np.float64)
        if donors.size == 0:
            return 0
        dead = np.where(self.ema_counts < threshold)[0]
        for j in dead:
            v = donors[int(rng.integers(len(donors)))]
            self.ema_counts[j] = 1.0
            self.ema_sums[j] = v * (1.0 + LAPLACE_EPS)
        if dead.size:
            self._refresh_rows()
        return int(dead.size)

    def _refresh_rows(self) -> None:
        self.embeddings = self.ema_sums / (self.ema_counts[:, None] + LAPLACE_EPS)

    def usage_entropy(self) -> float:
        total = self.ema_counts.sum()
        if total <= 0:
            return 0.0
        p = self.ema_counts / total
        p = p[p > 0]
        return float(-(p * np.log(p)).sum())


def _causal_bias(length: int) -> np.ndarray:
    return np.triu(np.full((length, length), _NEG_BIAS), k=1)[None, None]


def _pad_bias(mask: np.ndarray) -> np.ndarray:
    # mask: (B, L) with 1 for real tokens; bias keyed on attention keys
    return _NEG_BIAS * (1.0 - mask[:, None, None, :])


def pad_rows(rows: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Right-pad token rows into the (B, L) ids and 1/0 mask ``encode_batch``
    takes. Pads use id 0 and are masked out, so their id never matters."""
    width = max(len(r) for r in rows)
    tokens = np.zeros((len(rows), width), dtype=np.int64)
    mask = np.zeros((len(rows), width), dtype=np.float64)
    for i, r in enumerate(rows):
        if len(r) == 0:
            raise ValueError(f"token row {i} is empty")
        tokens[i, : len(r)] = r
        mask[i, : len(r)] = 1.0
    return tokens, mask


class TransformerModel:
    """The trainable backbone plus its codebooks."""

    def __init__(self, config: ModelConfig, vocab_hash: str = ""):
        self.config = config
        self.vocab_hash = vocab_hash
        self.trained_steps = 0
        rng = np.random.default_rng(config.seed)
        self.params: dict[str, Tensor] = {}
        self._init_params(rng)
        self.codebooks = [Codebook(config.codebook_size, config.hidden_size, rng)
                          for _ in range(config.num_steps)]

    # ------------------------------------------------------------------
    # parameters
    # ------------------------------------------------------------------

    def _init_params(self, rng: np.random.Generator) -> None:
        cfg = self.config
        D, F = cfg.hidden_size, cfg.feed_forward_size
        dec_len = max(cfg.max_text_len + 1, cfg.num_steps + 1)

        def table(name, shape):
            # embedding rows at 1/sqrt(D): unit-ish activations from step one,
            # which matters a lot at desk scale with few optimizer steps
            self.params[name] = Tensor(rng.normal(0.0, 1.0 / np.sqrt(D), size=shape),
                                       requires_grad=True)

        def proj(name, shape):
            fan_in = shape[0]
            self.params[name] = Tensor(rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=shape),
                                       requires_grad=True)

        def ln(name):
            self.params[f"{name}.g"] = Tensor(np.ones(D), requires_grad=True)
            self.params[f"{name}.b"] = Tensor(np.zeros(D), requires_grad=True)

        table("tok_emb", (cfg.vocab_size, D))
        table("pos_enc", (cfg.max_text_len, D))
        table("pos_dec", (dec_len, D))
        table("code_start", (1, D))
        for i in range(cfg.encoder_layers):
            for w in ("wq", "wk", "wv", "wo"):
                proj(f"enc{i}.attn.{w}", (D, D))
            proj(f"enc{i}.ff.w1", (D, F))
            self.params[f"enc{i}.ff.b1"] = Tensor(np.zeros(F), requires_grad=True)
            proj(f"enc{i}.ff.w2", (F, D))
            self.params[f"enc{i}.ff.b2"] = Tensor(np.zeros(D), requires_grad=True)
            ln(f"enc{i}.ln1")
            ln(f"enc{i}.ln2")
        ln("enc_final")
        for i in range(cfg.decoder_layers):
            for w in ("wq", "wk", "wv", "wo"):
                proj(f"dec{i}.self.{w}", (D, D))
                proj(f"dec{i}.cross.{w}", (D, D))
            proj(f"dec{i}.ff.w1", (D, F))
            self.params[f"dec{i}.ff.b1"] = Tensor(np.zeros(F), requires_grad=True)
            proj(f"dec{i}.ff.w2", (F, D))
            self.params[f"dec{i}.ff.b2"] = Tensor(np.zeros(D), requires_grad=True)
            ln(f"dec{i}.ln1")
            ln(f"dec{i}.ln2")
            ln(f"dec{i}.ln3")
        ln("dec_final")
        proj("lm_head", (D, cfg.vocab_size))

    def parameters(self) -> dict[str, Tensor]:
        """Gradient-trained parameters (codebooks excluded by design)."""
        return self.params

    # ------------------------------------------------------------------
    # forward pieces
    # ------------------------------------------------------------------

    def _attention(self, prefix: str, x_q: Tensor, x_kv: Tensor,
                   bias: np.ndarray | None) -> Tensor:
        p = self.params
        H = self.config.attention_heads
        D = self.config.hidden_size
        dh = D // H
        B, Lq = x_q.shape[0], x_q.shape[1]
        Lk = x_kv.shape[1]

        def heads(t: Tensor, L: int) -> Tensor:
            return ad.transpose(ad.reshape(t, (B, L, H, dh)), (0, 2, 1, 3))

        q = heads(ad.matmul(x_q, p[f"{prefix}.wq"]), Lq)
        k = heads(ad.matmul(x_kv, p[f"{prefix}.wk"]), Lk)
        v = heads(ad.matmul(x_kv, p[f"{prefix}.wv"]), Lk)
        scores = ad.mul(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(dh))
        if bias is not None:
            scores = ad.add(scores, bias)
        attn = ad.softmax(scores)
        ctx = ad.reshape(ad.transpose(ad.matmul(attn, v), (0, 2, 1, 3)), (B, Lq, D))
        return ad.matmul(ctx, p[f"{prefix}.wo"])

    def _ff(self, prefix: str, x: Tensor) -> Tensor:
        p = self.params
        h = ad.gelu(ad.add(ad.matmul(x, p[f"{prefix}.w1"]), p[f"{prefix}.b1"]))
        return ad.add(ad.matmul(h, p[f"{prefix}.w2"]), p[f"{prefix}.b2"])

    def encode_batch(self, tokens: np.ndarray, mask: np.ndarray) -> Tensor:
        """Encoder memory for a padded batch: (B, L) ids -> (B, L, D)."""
        tokens = np.asarray(tokens, dtype=np.int64)
        mask = np.asarray(mask, dtype=np.float64)
        B, L = tokens.shape
        if L == 0:
            raise ValueError("cannot encode an empty token sequence")
        if L > self.config.max_text_len:
            raise ValueError(f"sequence length {L} exceeds max_text_len "
                             f"{self.config.max_text_len}")
        p = self.params
        x = ad.add(ad.embedding(p["tok_emb"], tokens), p["pos_enc"][:L])
        bias = _pad_bias(mask)
        for i in range(self.config.encoder_layers):
            h = ad.layer_norm(x, p[f"enc{i}.ln1.g"], p[f"enc{i}.ln1.b"])
            x = ad.add(x, self._attention(f"enc{i}.attn", h, h, bias))
            h = ad.layer_norm(x, p[f"enc{i}.ln2.g"], p[f"enc{i}.ln2.b"])
            x = ad.add(x, self._ff(f"enc{i}.ff", h))
        return ad.layer_norm(x, p["enc_final.g"], p["enc_final.b"])

    def _decode_stack(self, x: Tensor, self_bias: np.ndarray, memory: Tensor,
                      cross_bias: np.ndarray | None) -> Tensor:
        p = self.params
        for i in range(self.config.decoder_layers):
            h = ad.layer_norm(x, p[f"dec{i}.ln1.g"], p[f"dec{i}.ln1.b"])
            x = ad.add(x, self._attention(f"dec{i}.self", h, h, self_bias))
            h = ad.layer_norm(x, p[f"dec{i}.ln2.g"], p[f"dec{i}.ln2.b"])
            x = ad.add(x, self._attention(f"dec{i}.cross", h, memory, cross_bias))
            h = ad.layer_norm(x, p[f"dec{i}.ln3.g"], p[f"dec{i}.ln3.b"])
            x = ad.add(x, self._ff(f"dec{i}.ff", h))
        return ad.layer_norm(x, p["dec_final.g"], p["dec_final.b"])

    def decode_code_states(self, memory: Tensor, enc_mask: np.ndarray,
                           prefix: np.ndarray) -> Tensor:
        """Decoder states d_1..d_{P+1} given a code prefix of length P.

        ``prefix`` is (B, P) integer codes; position p of the decoder input
        is the step-p codebook embedding of prefix[:, p-1] (position 0 is a
        learned start embedding). Returns (B, P+1, D).
        """
        prefix = np.asarray(prefix, dtype=np.int64)
        B, P = prefix.shape
        if P >= self.config.num_steps:
            raise ValueError("code prefix longer than the configured number of steps")
        p = self.params
        parts = [ad.embedding(p["code_start"], np.zeros((B, 1), dtype=np.int64))]
        for pos in range(1, P + 1):
            cb = self.codebooks[pos - 1]
            rows = ad.embedding(Tensor(cb.conditioning_rows()), prefix[:, pos - 1])
            parts.append(ad.reshape(rows, (B, 1, self.config.hidden_size)))
        x = parts[0] if len(parts) == 1 else ad.concat(parts, axis=1)
        x = ad.add(x, p["pos_dec"][: P + 1])
        cross_bias = _pad_bias(np.asarray(enc_mask, dtype=np.float64))
        return self._decode_stack(x, _causal_bias(P + 1), memory, cross_bias)

    def decode_text(self, memory: Tensor, enc_mask: np.ndarray,
                    dec_tokens: np.ndarray, dec_mask: np.ndarray) -> Tensor:
        """Teacher-forced decoder pass over token inputs: (B, Lt) -> (B, Lt, D)."""
        dec_tokens = np.asarray(dec_tokens, dtype=np.int64)
        B, Lt = dec_tokens.shape
        p = self.params
        x = ad.add(ad.embedding(p["tok_emb"], dec_tokens), p["pos_dec"][:Lt])
        self_bias = _causal_bias(Lt) + _pad_bias(np.asarray(dec_mask, dtype=np.float64))
        cross_bias = _pad_bias(np.asarray(enc_mask, dtype=np.float64))
        return self._decode_stack(x, self_bias, memory, cross_bias)

    def lm_log_probs(self, hidden: Tensor) -> Tensor:
        return ad.log_softmax(ad.matmul(hidden, self.params["lm_head"]))

    # ------------------------------------------------------------------
    # quantization surface
    # ------------------------------------------------------------------

    def _check_depth(self, depth: int) -> None:
        if depth < 1 or depth > self.config.num_steps:
            raise ValueError(f"depth {depth} outside [1, {self.config.num_steps}]")
        if depth > self.trained_steps:
            raise ValueError(f"depth {depth} exceeds trained steps ({self.trained_steps})")

    @ad.no_grad()
    def greedy_decode_batch(self, tokens: np.ndarray, mask: np.ndarray, depth: int,
                            prefix: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Greedy code assignment for a padded batch, continuing the (B, P)
        code ``prefix`` (none by default) up to ``depth``.

        Returns (codes (B, depth) int, d_depth (B, D) float): the assigned
        semantic IDs, prefix included, and the pre-quantization state at the
        final step.
        """
        self._check_depth(depth)
        B = tokens.shape[0]
        codes = np.zeros((B, 0), dtype=np.int64) if prefix is None \
            else np.asarray(prefix, dtype=np.int64)
        if codes.shape[1] >= depth:
            raise ValueError(f"a {codes.shape[1]}-code prefix leaves nothing to decode")
        memory = self.encode_batch(tokens, mask)
        for t in range(codes.shape[1] + 1, depth + 1):
            states = self.decode_code_states(memory, mask, codes)
            final = states.data[:, t - 1, :]
            assigned = self.codebooks[t - 1].assign(final)
            codes = np.concatenate([codes, assigned[:, None]], axis=1)
        return codes, final

    @ad.no_grad()
    def mean_pooled_encoding(self, tokens: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Mask-aware mean of encoder states; the dense baseline embedding."""
        memory = self.encode_batch(tokens, mask).data
        m = np.asarray(mask, dtype=np.float64)
        return (memory * m[:, :, None]).sum(axis=1) / np.maximum(m.sum(axis=1), 1.0)[:, None]


# ---------------------------------------------------------------------------
# checkpoint container
# ---------------------------------------------------------------------------

_MAGIC = b"SIDXCKPT"
FORMAT_VERSION = 4
_HEADER_KEYS = ("arrays", "config", "extra", "format_version", "optimizer", "trained_steps",
                "vocab_hash")
_OPTIMIZER_KEYS = ("step_count", "skipped_updates")


@contextmanager
def atomic_writer(path: str | Path):
    """Binary handle on a sibling temp file that replaces ``path`` only once
    the block completes; on any failure ``path`` is untouched and the temp
    file is removed."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@dataclass
class CheckpointBundle:
    model: TransformerModel
    optimizer_state: dict | None
    extra: dict


def save_checkpoint(path: str | Path, model: TransformerModel,
                    optimizer=None, extra: dict | None = None) -> None:
    """Write a single self-describing binary container.

    Layout: magic, u64 header length, UTF-8 JSON header (config, vocab hash,
    array manifest), raw little-endian float64 array payloads in manifest
    order. Deterministic for identical inputs.
    """
    arrays: list[tuple[str, np.ndarray]] = []
    for name in sorted(model.params):
        arrays.append((f"param.{name}", model.params[name].data))
    for t, cb in enumerate(model.codebooks, start=1):
        arrays += [(f"codebook.{t}.{key}", getattr(cb, key)) for key in Codebook.STATE]
    opt_meta = None
    if optimizer is not None:
        opt_meta = {k: getattr(optimizer, k) for k in _OPTIMIZER_KEYS}
        for name in sorted(optimizer.m):
            arrays.append((f"opt.m.{name}", optimizer.m[name]))
            arrays.append((f"opt.v.{name}", optimizer.v[name]))

    manifest = []
    offset = 0
    for name, arr in arrays:
        nbytes = arr.size * 8
        manifest.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += nbytes
    header = {
        "format_version": FORMAT_VERSION,
        "config": asdict(model.config),
        "vocab_hash": model.vocab_hash,
        "trained_steps": model.trained_steps,
        "optimizer": opt_meta,
        "extra": extra or {},
        "arrays": manifest,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_writer(path) as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        for _, arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _is_count(value) -> bool:
    """A non-negative JSON integer (``true`` is not one)."""
    return type(value) is int and value >= 0


def load_checkpoint(path: str | Path) -> CheckpointBundle:
    """Read a ``save_checkpoint`` container, checking every length on the way."""
    raw = Path(path).read_bytes()
    if raw[:8] != _MAGIC:
        raise ValueError(f"{path}: not a model checkpoint (bad magic)")

    def corrupt(what: str) -> ValueError:
        return ValueError(f"{path}: truncated or corrupt checkpoint ({what})")

    if len(raw) < 16:
        raise corrupt("file ends inside the header length")
    header_len = struct.unpack("<Q", raw[8:16])[0]
    if 16 + header_len > len(raw):
        raise corrupt(f"header of {header_len} bytes runs past the end of the file")
    try:
        header = json.loads(raw[16:16 + header_len].decode("utf-8"))
    except ValueError as exc:
        raise corrupt("header is not UTF-8 JSON") from exc
    if not isinstance(header, dict):
        raise corrupt("header is not a JSON object")
    missing = [k for k in _HEADER_KEYS if k not in header]
    if missing:
        raise corrupt(f"header lacks {', '.join(missing)}")
    if header["format_version"] != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format version {header['format_version']}")
    config_keys = {f.name for f in fields(ModelConfig)}
    if not isinstance(header["config"], dict) or set(header["config"]) != config_keys:
        raise corrupt(f"header config does not hold exactly the keys {sorted(config_keys)}")
    if not all(type(v) is int for v in header["config"].values()):
        raise corrupt("header config holds a value that is not an integer")
    entries = header["arrays"]
    if not isinstance(entries, list) or not all(
            isinstance(e, dict) and set(e) == {"name", "shape", "offset"}
            and isinstance(e["name"], str) and type(e["offset"]) is int
            and isinstance(e["shape"], list) and all(_is_count(n) for n in e["shape"])
            for e in entries):
        raise corrupt("arrays is not a list of {name, shape, offset} entries")
    num_steps = header["config"]["num_steps"]
    if not _is_count(header["trained_steps"]) or header["trained_steps"] > num_steps:
        raise corrupt(f"trained_steps is not an integer in [0, {num_steps}]")
    if not isinstance(header["extra"], dict):
        raise corrupt("extra is not a JSON object")
    opt_meta = header["optimizer"]
    if opt_meta is not None and (not isinstance(opt_meta, dict)
                                 or set(opt_meta) != set(_OPTIMIZER_KEYS)
                                 or not all(_is_count(v) for v in opt_meta.values())):
        raise corrupt("optimizer is neither null nor exactly two non-negative "
                      "counts step_count and skipped_updates")
    payload = raw[16 + header_len:]
    total = 0
    for entry in entries:
        nbytes = 8 * int(np.prod(entry["shape"]))
        if entry["offset"] != total or total + nbytes > len(payload):
            raise corrupt(f"array {entry['name']} is out of order or runs past the payload")
        total += nbytes
    if total != len(payload):
        raise corrupt(f"payload holds {len(payload)} bytes, the manifest {total}")

    by_name = {entry["name"]: entry for entry in entries}
    unread = set(by_name)

    def read_array(name: str, like: np.ndarray) -> np.ndarray:
        if name not in by_name:
            raise corrupt(f"array {name} is missing")
        unread.discard(name)
        entry = by_name[name]
        if entry["shape"] != list(like.shape):
            raise corrupt(f"array {name} has shape {entry['shape']}, the model "
                          f"expects {list(like.shape)}")
        arr = np.frombuffer(payload, dtype="<f8", count=like.size, offset=entry["offset"])
        return arr.reshape(like.shape).astype(np.float64)

    try:
        config = ModelConfig(**header["config"])
    except ValueError as exc:
        raise corrupt(f"header config: {exc}") from exc
    model = TransformerModel(config, vocab_hash=header["vocab_hash"])
    model.trained_steps = header["trained_steps"]
    for name, tensor in model.params.items():
        tensor.data = read_array(f"param.{name}", tensor.data)
    for t, cb in enumerate(model.codebooks, start=1):
        for key in Codebook.STATE:
            setattr(cb, key, read_array(f"codebook.{t}.{key}", getattr(cb, key)))

    opt_state = None
    if opt_meta is not None:
        opt_state = dict(opt_meta)
        for key in ("m", "v"):
            opt_state[key] = {name: read_array(f"opt.{key}.{name}", p.data)
                              for name, p in model.params.items()}
    if unread or len(by_name) != len(entries):
        raise corrupt(f"manifest names arrays the model does not hold, or one twice: "
                      f"{sorted(unread)}")
    return CheckpointBundle(model=model, optimizer_state=opt_state, extra=header["extra"])


def checkpoint_hash(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
