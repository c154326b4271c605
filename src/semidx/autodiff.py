"""Reverse-mode automatic differentiation over numpy arrays.

A small define-by-run engine: every operation returns a node holding the
forward value plus a closure that routes the incoming gradient to its
parents. Everything is stored in float64 so central finite differences are
a meaningful oracle for every gradient this module produces.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from typing import Callable, Mapping, Sequence

import numpy as np

Array = np.ndarray

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
LAYER_NORM_EPS = 1e-5
KL_FLOOR = 1e-9

_grad_enabled = True


def _as_array(x) -> Array:
    return np.asarray(x, dtype=np.float64)


class Tensor:
    """A value in the computation graph.

    ``data`` is the forward value; ``grad`` (same shape) is filled in by
    ``backward()``. Interior nodes keep references to their parents and a
    closure that distributes the incoming gradient. Leaves created with
    ``requires_grad=True`` accumulate gradients; everything else is treated
    as a constant.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.grad: Array | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[Array], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def backward(self, grad: Array | None = None) -> None:
        """Reverse-mode sweep from this node back to every reachable leaf."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without an explicit gradient needs a scalar output")
            grad = np.ones_like(self.data)
        # iterative post-order DFS; reversed, it is a topological order in
        # which every node is visited after all of its consumers
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = _as_array(grad)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __getitem__(self, idx):
        return take(self, idx)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _accumulate(t: Tensor, g: Array) -> None:
    # gradients are only ever re-bound, never mutated in place, so passing
    # one array to several parents is safe
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g
    else:
        t.grad = t.grad + g


@contextmanager
def no_grad():
    """Inside this block, or a function it decorates, operations record no
    graph: their outputs are constants, so no backward closure keeps the
    activations alive."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def _node(data: Array, parents: Sequence[Tensor], backward: Callable[[Array], None]) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise / structural ops
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data + b.data

    def backward(g: Array) -> None:
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    return _node(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data * b.data

    def backward(g: Array) -> None:
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _node(data, (a, b), backward)


_GELU_C = np.sqrt(2.0 / np.pi)
_GELU_A = 0.044715


def gelu(t) -> Tensor:
    """tanh-approximated GELU; smooth, so finite differences stay clean."""
    t = as_tensor(t)
    x = t.data
    inner = _GELU_C * (x + _GELU_A * x ** 3)
    th = np.tanh(inner)
    data = 0.5 * x * (1.0 + th)

    def backward(g: Array) -> None:
        sech2 = 1.0 - th * th
        d = 0.5 * (1.0 + th) + 0.5 * x * sech2 * _GELU_C * (1.0 + 3.0 * _GELU_A * x ** 2)
        _accumulate(t, g * d)

    return _node(data, (t,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul operands must have at least 2 dimensions")
    data = a.data @ b.data

    def backward(g: Array) -> None:
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        _accumulate(a, _unbroadcast(ga, a.data.shape))
        _accumulate(b, _unbroadcast(gb, b.data.shape))

    return _node(data, (a, b), backward)


def reshape(t, shape) -> Tensor:
    t = as_tensor(t)
    old = t.data.shape
    data = t.data.reshape(shape)

    def backward(g: Array) -> None:
        _accumulate(t, g.reshape(old))

    return _node(data, (t,), backward)


def transpose(t, axes: Sequence[int]) -> Tensor:
    t = as_tensor(t)
    axes = tuple(axes)
    inv = tuple(int(i) for i in np.argsort(axes))
    data = t.data.transpose(axes)

    def backward(g: Array) -> None:
        _accumulate(t, g.transpose(inv))

    return _node(data, (t,), backward)


def take(t, idx) -> Tensor:
    """Generic indexing/slicing; backward scatter-adds into the source."""
    t = as_tensor(t)
    data = t.data[idx]
    if np.may_share_memory(data, t.data):   # a slice is a view: keep a copy
        data = np.array(data)

    def backward(g: Array) -> None:
        full = np.zeros_like(t.data)
        np.add.at(full, idx, g)
        _accumulate(t, full)

    return _node(data, (t,), backward)


def embedding(table: Tensor, ids) -> Tensor:
    """Rows of a 2-D table gathered by integer index (any index shape)."""
    table = as_tensor(table)
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise IndexError("embedding index out of range")
    return take(table, ids)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g: Array) -> None:
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(int(lo), int(hi))
            _accumulate(p, g[tuple(sl)])

    return _node(data, tuple(parts), backward)


def sum_(t) -> Tensor:
    """The sum of every entry."""
    t = as_tensor(t)

    def backward(g: Array) -> None:
        _accumulate(t, np.broadcast_to(g, t.data.shape))

    return _node(t.data.sum(), (t,), backward)


def take_along_last(t: Tensor, idx) -> Tensor:
    """Pick one entry per row along the last axis (e.g. target log-probs)."""
    t = as_tensor(t)
    idx = np.asarray(idx, dtype=np.int64)
    data = np.take_along_axis(t.data, idx[..., None], axis=-1)[..., 0]

    def backward(g: Array) -> None:
        full = np.zeros_like(t.data)
        np.put_along_axis(full, idx[..., None], g[..., None], axis=-1)
        _accumulate(t, full)

    return _node(data, (t,), backward)


# ---------------------------------------------------------------------------
# softmax family and losses
# ---------------------------------------------------------------------------

def softmax(t) -> Tensor:
    """Numerically stable softmax (max subtraction) over the last axis."""
    t = as_tensor(t)
    if not np.isfinite(t.data).all():
        raise FloatingPointError("softmax input must be finite")
    z = t.data - t.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)

    def backward(g: Array) -> None:
        dot = (g * y).sum(axis=-1, keepdims=True)
        _accumulate(t, (g - dot) * y)

    return _node(y, (t,), backward)


def log_softmax(t) -> Tensor:
    """Log of the softmax over the last axis."""
    t = as_tensor(t)
    if not np.isfinite(t.data).all():
        raise FloatingPointError("log_softmax input must be finite")
    z = t.data - t.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    out = z - lse
    y = np.exp(out)

    def backward(g: Array) -> None:
        _accumulate(t, g - y * g.sum(axis=-1, keepdims=True))

    return _node(out, (t,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Layer normalization over the last axis."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = xc * inv

    def backward(g: Array) -> None:
        _accumulate(bias, _unbroadcast(g, bias.data.shape))
        _accumulate(gain, _unbroadcast(g * xhat, gain.data.shape))
        gx = g * gain.data
        gx = inv * (gx - gx.mean(axis=-1, keepdims=True)
                    - xhat * (gx * xhat).mean(axis=-1, keepdims=True))
        _accumulate(x, gx)

    return _node(xhat * gain.data + bias.data, (x, gain, bias), backward)


def nll_loss(log_probs: Tensor, targets, mask: Array | None = None) -> Tensor:
    """Summed negative log-likelihood of the targets under ``log_probs``.

    ``log_probs`` has vocabulary on the last axis; ``targets`` holds one
    index per remaining position. ``mask`` (same shape as targets) zeroes
    the contribution of padded positions.
    """
    log_probs = as_tensor(log_probs)
    targets = np.asarray(targets, dtype=np.int64)
    vocab = log_probs.data.shape[-1]
    if targets.size and (targets.min() < 0 or targets.max() >= vocab):
        raise IndexError("nll_loss target index out of vocabulary range")
    picked = take_along_last(log_probs, targets)
    if mask is not None:
        picked = mul(picked, np.asarray(mask, dtype=np.float64))
    return mul(sum_(picked), -1.0)


def kl_divergence(p, q) -> Tensor:
    """KL(p || q), reduced over the last axis.

    ``q`` is clamped at ``KL_FLOOR`` before the log to keep near-one-hot
    distributions from blowing up the ratio; ``p`` is clamped only inside
    its own log so that p=0 entries contribute exactly zero.
    """
    p, q = as_tensor(p), as_tensor(q)
    if p.shape != q.shape:
        raise ValueError(f"kl_divergence shape mismatch: {p.shape} vs {q.shape}")
    sums_p = p.data.sum(axis=-1)
    sums_q = q.data.sum(axis=-1)
    if not (np.allclose(sums_p, 1.0, atol=1e-6) and np.allclose(sums_q, 1.0, atol=1e-6)):
        raise ValueError("kl_divergence inputs must sum to 1 along the last axis")
    P = np.maximum(p.data, KL_FLOOR)
    Q = np.maximum(q.data, KL_FLOOR)
    log_ratio = np.log(P) - np.log(Q)

    def backward(g: Array) -> None:
        G = np.expand_dims(g, -1)
        gp = G * p.data
        # a clamped entry passes no gradient through its log
        _accumulate(p, G * log_ratio + gp / P * (p.data > KL_FLOOR))
        _accumulate(q, -gp / Q * (q.data > KL_FLOOR))

    return _node((p.data * log_ratio).sum(axis=-1), (p, q), backward)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

class Optimizer:
    """Adaptive-moment (Adam) updates with bias correction.

    Non-finite gradients cause the whole update to be skipped, with a
    counter recording how often that happened; the step counter only
    advances on applied updates. The two counters and the moments ``m`` and
    ``v`` are the whole state a checkpoint keeps; the learning rate is the
    constructor's.
    """

    def __init__(self, params: Mapping[str, Tensor], lr: float = 1e-3):
        self.params: dict[str, Tensor] = dict(params)
        self.lr = float(lr)
        self.step_count = 0
        self.skipped_updates = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> bool:
        """Apply one update; returns False if skipped on non-finite grads."""
        grads = {k: (p.grad if p.grad is not None else np.zeros_like(p.data))
                 for k, p in self.params.items()}
        for g in grads.values():
            if not np.isfinite(g).all():
                self.skipped_updates += 1
                warnings.warn("non-finite gradient encountered; optimizer update skipped")
                return False
        self.step_count += 1
        t = self.step_count
        c1 = 1.0 - ADAM_BETA1 ** t
        c2 = 1.0 - ADAM_BETA2 ** t
        for k, p in self.params.items():
            g = grads[k]
            self.m[k] = ADAM_BETA1 * self.m[k] + (1.0 - ADAM_BETA1) * g
            self.v[k] = ADAM_BETA2 * self.v[k] + (1.0 - ADAM_BETA2) * (g * g)
            mhat = self.m[k] / c1
            vhat = self.v[k] / c2
            p.data = p.data - self.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
        return True
