"""Engine-level checks: every op's reverse-mode gradient against central
finite differences, the loss helpers against closed forms, and the
optimizer/grad-check contracts."""

import numpy as np
import pytest

from semidx import autodiff as ad
from semidx.autodiff import Optimizer, Tensor

from oracles import GradCheckError, grad_check

RNG = np.random.default_rng(42)


def check_op(build, shapes, tol=1e-4, eps=1e-5):
    """FD-check a scalar-valued graph builder over fresh random inputs."""
    params = {f"x{i}": Tensor(RNG.normal(size=s), requires_grad=True)
              for i, s in enumerate(shapes)}
    weights = {k: RNG.normal(size=np.shape(build(**params).data))
               for k in list(params)[:1]}  # fixed contraction weights
    w = weights[list(weights)[0]]

    def loss_fn():
        out = build(**params)
        return ad.sum_(ad.mul(out, w))

    report = grad_check(loss_fn, params, eps=eps)
    assert report.max_rel_error < tol, report.per_param


class TestOpGradients:
    def test_add_broadcast(self):
        check_op(lambda x0, x1: ad.add(x0, x1), [(3, 4), (4,)])

    def test_mul_broadcast(self):
        check_op(lambda x0, x1: ad.mul(x0, x1), [(2, 3, 4), (3, 4)])

    def test_matmul_batched(self):
        check_op(lambda x0, x1: ad.matmul(x0, x1), [(2, 3, 4), (4, 5)])

    def test_matmul_plain(self):
        check_op(lambda x0, x1: ad.matmul(x0, x1), [(3, 4), (4, 2)])

    def test_reshape_transpose(self):
        check_op(lambda x0: ad.transpose(ad.reshape(x0, (2, 3, 4)), (1, 0, 2)), [(6, 4)])

    def test_take_slice(self):
        check_op(lambda x0: x0[:, 1, :], [(3, 4, 5)])

    def test_embedding(self):
        ids = np.array([[0, 2], [1, 1]])
        check_op(lambda x0: ad.embedding(x0, ids), [(4, 5)])

    def test_concat(self):
        check_op(lambda x0, x1: ad.concat([x0, x1], axis=1), [(2, 3), (2, 2)])

    def test_gelu(self):
        check_op(lambda x0: ad.gelu(x0), [(4, 5)])

    def test_softmax(self):
        check_op(lambda x0: ad.softmax(x0), [(3, 6)])

    def test_log_softmax(self):
        check_op(lambda x0: ad.log_softmax(x0), [(3, 6)])

    def test_layer_norm(self):
        params = {
            "x": Tensor(RNG.normal(size=(3, 8)), requires_grad=True),
            "g": Tensor(RNG.normal(size=8) + 1.0, requires_grad=True),
            "b": Tensor(RNG.normal(size=8), requires_grad=True),
        }
        w = RNG.normal(size=(3, 8))

        def loss_fn():
            return ad.sum_(ad.mul(ad.layer_norm(params["x"], params["g"], params["b"]), w))

        assert grad_check(loss_fn, params).max_rel_error < 1e-4

    def test_take_along_last(self):
        idx = np.array([[0, 3], [2, 1]])
        check_op(lambda x0: ad.take_along_last(x0, idx), [(2, 2, 4)])

    def test_quadratic_scalar(self):
        # f(x) = x^2 at x = 3: analytic 6 vs finite differences
        x = Tensor(3.0, requires_grad=True)

        def loss_fn():
            return ad.mul(x, x)

        report = grad_check(loss_fn, {"x": x}, eps=1e-5)
        assert report.max_rel_error < 1e-6
        loss_fn().backward()


class TestSoftmax:
    def test_symmetry(self):
        out = ad.softmax(Tensor([0.0, 0.0]))
        assert np.allclose(out.data, [0.5, 0.5])

    def test_hand_value(self):
        out = ad.softmax(Tensor([np.log(2.0), 0.0]))
        assert np.allclose(out.data, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    def test_shift_invariance_and_sum(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(size=7) * 10
            c = rng.normal() * 50
            a = ad.softmax(Tensor(x)).data
            b = ad.softmax(Tensor(x + c)).data
            assert np.allclose(a, b, atol=1e-12)
            assert abs(a.sum() - 1.0) < 1e-9
            assert (a >= 0).all()

    def test_rejects_nonfinite(self):
        with pytest.raises(FloatingPointError):
            ad.softmax(Tensor([np.nan, 0.0]))


class TestNllLoss:
    def test_perfect_prediction_is_zero(self):
        # probability 1 on every target: log prob 0 at the target slot
        log_probs = np.full((3, 5), -50.0)
        targets = np.array([1, 4, 0])
        for i, t in enumerate(targets):
            log_probs[i, t] = 0.0
        out = ad.nll_loss(Tensor(log_probs), targets)
        assert out.item() == 0.0

    def test_uniform_case(self):
        V, L = 5, 3
        log_probs = np.full((L, V), -np.log(V))
        out = ad.nll_loss(Tensor(log_probs), np.array([0, 2, 4]))
        assert np.isclose(out.item(), L * np.log(V), atol=1e-12)

    def test_direct_summation_oracle(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(3, 5))
        targets = rng.integers(0, 5, size=3)
        log_probs = ad.log_softmax(Tensor(logits))
        expected = -sum(log_probs.data[i, t] for i, t in enumerate(targets))
        out = ad.nll_loss(log_probs, targets)
        assert np.isclose(out.item(), expected, atol=1e-12)
        assert out.item() >= 0.0

    def test_target_out_of_range(self):
        with pytest.raises(IndexError):
            ad.nll_loss(Tensor(np.zeros((2, 3))), np.array([0, 3]))


class TestKlDivergence:
    def test_identity_is_zero(self):
        p = Tensor([0.2, 0.3, 0.5])
        assert ad.kl_divergence(p, Tensor([0.2, 0.3, 0.5])).item() == pytest.approx(0.0, abs=1e-12)

    def test_closed_form(self):
        out = ad.kl_divergence(Tensor([1.0, 0.0]), Tensor([0.5, 0.5]))
        assert np.isclose(out.item(), np.log(2.0), atol=1e-9)

    def test_direct_summation_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            p = rng.dirichlet(np.ones(4))
            q = rng.dirichlet(np.ones(4))
            expected = float((p * (np.log(p) - np.log(q))).sum())
            out = ad.kl_divergence(Tensor(p), Tensor(q))
            assert np.isclose(out.item(), expected, atol=1e-7)
            assert out.item() >= -1e-12

    def test_shape_error(self):
        with pytest.raises(ValueError):
            ad.kl_divergence(Tensor([0.5, 0.5]), Tensor([0.2, 0.3, 0.5]))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            ad.kl_divergence(Tensor([0.9, 0.9]), Tensor([0.5, 0.5]))

    def test_gradcheck_through_softmax(self):
        rng = np.random.default_rng(3)
        params = {"a": Tensor(rng.normal(size=5), requires_grad=True),
                  "b": Tensor(rng.normal(size=5), requires_grad=True)}

        def loss_fn():
            return ad.kl_divergence(ad.softmax(params["a"]), ad.softmax(params["b"]))

        assert grad_check(loss_fn, params).max_rel_error < 1e-4

    def test_gradcheck_rows_below_floor(self):
        """(3, 5) rows, weighted per row, with entries of p and of q below
        KL_FLOOR (logit -40): covers the per-row gradient and both clamped
        branches."""
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=(3, 5)), rng.normal(size=(3, 5))
        a[0, 1] = a[2, 3] = -40.0
        b[1, 4] = b[2, 0] = -40.0
        params = {"a": Tensor(a, requires_grad=True), "b": Tensor(b, requires_grad=True)}
        w = rng.normal(size=3)

        def loss_fn():
            kl = ad.kl_divergence(ad.softmax(params["a"]), ad.softmax(params["b"]))
            return ad.sum_(ad.mul(kl, w))

        for name in params:
            assert (ad.softmax(params[name]).data < ad.KL_FLOOR).sum() == 2
        assert grad_check(loss_fn, params).max_rel_error < 1e-6

    def test_records_one_node(self):
        p = Tensor([0.2, 0.3, 0.5], requires_grad=True)
        q = Tensor([0.4, 0.4, 0.2], requires_grad=True)
        out = ad.kl_divergence(p, q)
        assert out._parents == (p, q)


class TestOptimizer:
    def test_sgd_zero_grad_is_identity(self):
        # Adam on fresh moments: a zero gradient makes a zero update
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = Optimizer({"p": p}, lr=0.1)
        p.grad = np.zeros(2)
        opt.step()
        assert np.array_equal(p.data, [1.0, -2.0])

    def test_adam_first_step_closed_form(self):
        # bias-corrected first step: lr * g / (|g| + eps)
        p = Tensor(1.0, requires_grad=True)
        lr = 1e-3
        opt = Optimizer({"p": p}, lr=lr)
        g = 2.0
        p.grad = np.asarray(g)
        opt.step()
        expected = 1.0 - lr * g / (abs(g) + ad.ADAM_EPS)
        assert np.isclose(float(p.data), expected, atol=1e-15)

    def test_nan_gradient_skips_update(self):
        p = Tensor(1.0, requires_grad=True)
        opt = Optimizer({"p": p}, lr=0.1)
        p.grad = np.asarray(np.nan)
        with pytest.warns(UserWarning):
            applied = opt.step()
        assert not applied
        assert opt.skipped_updates == 1
        assert opt.step_count == 0
        assert float(p.data) == 1.0

    def test_step_counter_monotone(self):
        p = Tensor(1.0, requires_grad=True)
        opt = Optimizer({"p": p}, lr=0.1)
        for i in range(1, 4):
            p.grad = np.asarray(1.0)
            opt.step()
            assert opt.step_count == i


class TestGradCheck:
    def test_rejects_eps_out_of_range(self):
        x = Tensor(1.0, requires_grad=True)
        with pytest.raises(ValueError):
            grad_check(lambda: ad.mul(x, x), {"x": x}, eps=1e-2)

    def test_aborts_on_nondeterministic_loss(self):
        x = Tensor(1.0, requires_grad=True)
        counter = {"n": 0}

        def loss_fn():
            counter["n"] += 1
            return ad.mul(x, float(counter["n"]))

        with pytest.raises(GradCheckError):
            grad_check(loss_fn, {"x": x})

    def test_sampling_reduces_work(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=100), requires_grad=True)
        w = rng.normal(size=100)

        def loss_fn():
            return ad.sum_(ad.mul(x, w))

        report = grad_check(loss_fn, {"x": x}, sample_per_param=10)
        assert report.coords_checked == 10
        assert report.max_rel_error < 1e-6


class TestBackwardMechanics:
    def test_shared_subgraph_accumulates(self):
        x = Tensor(2.0, requires_grad=True)
        y = ad.add(ad.mul(x, x), ad.mul(x, 3.0))  # x^2 + 3x -> grad 2x + 3 = 7
        y.backward()
        assert np.isclose(float(x.grad), 7.0)

    def test_backward_needs_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            ad.mul(x, 2.0).backward()
