"""Tests for the autodiff inference fast path and the vectorized kernels.

Covers :func:`repro.nn.no_grad` (no graph recorded, no grads populated,
context-local across threads), float64 as the one default precision with
explicit dtypes preserved by every op, the iterative ``backward()`` topological sort on deep graphs, and numerical
gradient checks for the gather/scatter/segment primitives the vectorized GNN
kernels are built on.
"""

import numpy as np
import pytest

from repro.nn import Linear, Tensor, is_grad_enabled, is_inference, no_grad
from repro.nn import functional as F


def numeric_gradient(fn, x, eps=1e-6):
    """Central finite-difference gradient of scalar fn wrt array x."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        upper = fn(x)
        flat[i] = original - eps
        lower = fn(x)
        flat[i] = original
        grad_flat[i] = (upper - lower) / (2 * eps)
    return grad


def check_gradient(build_loss, shape, seed=0, atol=1e-5):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=shape)
    tensor = Tensor(data.copy(), requires_grad=True)
    build_loss(tensor).backward()
    numeric = numeric_gradient(lambda x: build_loss(Tensor(x)).item(), data.copy())
    assert tensor.grad is not None
    np.testing.assert_allclose(tensor.grad, numeric, atol=atol, rtol=1e-4)


class TestNoGrad:
    def test_records_no_graph(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        with no_grad():
            out = (a * 2.0 + 1.0).relu().sum()
        assert not out.requires_grad
        assert out._prev == ()

    def test_no_gradients_populated(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        with no_grad():
            loss = (a * a).sum()
        loss.backward()          # no-op apart from the root's own grad
        assert a.grad is None

    def test_flag_and_nesting(self):
        assert is_grad_enabled() and not is_inference()
        with no_grad():
            assert is_inference() and not is_grad_enabled()
            with no_grad():
                assert is_inference()
            assert is_inference()
        assert is_grad_enabled() and not is_inference()

    def test_flag_restored_on_exception(self):
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("boom")
        assert is_grad_enabled()

    def test_gradients_flow_again_after_exit(self):
        a = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            (a * 2.0).sum()
        (a * 3.0).sum().backward()
        np.testing.assert_allclose(a.grad, np.full(3, 3.0))

    def test_concatenate_and_stack_respect_no_grad(self):
        from repro.nn import concatenate, stack
        a = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            assert not concatenate([a, a]).requires_grad
            assert not stack([a, a]).requires_grad


    def test_threads_are_isolated(self):
        import threading

        barrier = threading.Barrier(2)
        seen = {}

        def serving_thread():
            with no_grad():
                barrier.wait()
                seen["serve"] = is_grad_enabled()
                barrier.wait()

        def training_thread():
            barrier.wait()          # no_grad active on the other side
            seen["train"] = is_grad_enabled()
            barrier.wait()

        threads = [threading.Thread(target=serving_thread),
                   threading.Thread(target=training_thread)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert seen == {"serve": False, "train": True}


class TestDtype:
    def test_tensors_and_layers_default_to_float64(self):
        assert Tensor([1.0]).data.dtype == np.float64
        layer = Linear(4, 3, rng=np.random.default_rng(0))
        with no_grad():
            out = layer(Tensor(np.ones((2, 4), dtype=np.float32)))
        assert layer.weight.data.dtype == np.float64
        assert out.data.dtype == np.float64

    def test_ops_preserve_explicit_dtype(self):
        a = Tensor(np.ones((2, 2)), dtype=np.float32)
        assert (a + a).data.dtype == np.float32
        assert a.index_select(np.array([0])).data.dtype == np.float32
        assert a.scatter_add(np.array([0, 0]), 1).data.dtype == np.float32


class TestIterativeBackward:
    def test_deep_chain_does_not_recurse(self):
        import sys
        depth = sys.getrecursionlimit() + 500
        t = Tensor(np.ones(2), requires_grad=True)
        acc = t
        for _ in range(depth):
            acc = acc + 1.0
        acc.sum().backward()
        np.testing.assert_allclose(t.grad, np.ones(2))

    def test_diamond_graph_accumulates_once_per_path(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        a = t * 3.0
        b = t * 4.0
        (a + b).sum().backward()
        np.testing.assert_allclose(t.grad, [7.0])


class TestKernelGradients:
    """Numerical-gradient checks for the vectorized-kernel primitives."""

    def test_index_select(self):
        indices = np.array([0, 2, 2, 1])
        check_gradient(lambda x: x.index_select(indices).pow(2.0).sum(), (3, 4))

    def test_scatter_add(self):
        indices = np.array([0, 1, 0, 2, 1])
        check_gradient(lambda x: x.scatter_add(indices, 3).pow(2.0).sum(), (5, 3))

    def test_segment_softmax(self):
        segments = np.array([0, 0, 1, 1, 1, 2])
        check_gradient(
            lambda x: (F.segment_softmax(x, segments, 3) * x).sum(), (6, 2))

    def test_segment_matmul_wrt_x(self):
        weight = Tensor(np.random.default_rng(1).normal(size=(2, 3, 4)))
        offsets = np.array([0, 3, 5])
        check_gradient(
            lambda x: F.segment_matmul(x, weight, offsets).pow(2.0).sum(), (5, 3))

    def test_segment_matmul_wrt_weight(self):
        rng = np.random.default_rng(2)
        x_data = rng.normal(size=(5, 3))
        w_data = rng.normal(size=(2, 3, 4))
        offsets = np.array([0, 3, 5])

        weight = Tensor(w_data.copy(), requires_grad=True)
        F.segment_matmul(Tensor(x_data), weight, offsets).pow(2.0).sum().backward()
        numeric = numeric_gradient(
            lambda w: F.segment_matmul(Tensor(x_data), Tensor(w), offsets)
            .pow(2.0).sum().item(),
            w_data.copy())
        np.testing.assert_allclose(weight.grad, numeric, atol=1e-5, rtol=1e-4)

    def test_segment_matmul_empty_segment(self):
        x = Tensor(np.ones((3, 2)), requires_grad=True)
        weight = Tensor(np.ones((3, 2, 2)), requires_grad=True)
        out = F.segment_matmul(x, weight, np.array([0, 3, 3, 3]))
        out.sum().backward()
        assert out.shape == (3, 2)
        assert not weight.grad[1].any() and not weight.grad[2].any()

    def test_segment_matmul_rejects_bad_offsets(self):
        x = Tensor(np.ones((3, 2)))
        weight = Tensor(np.ones((2, 2, 2)))
        with pytest.raises(ValueError):
            F.segment_matmul(x, weight, np.array([0, 3]))
        with pytest.raises(ValueError):
            F.segment_matmul(x, weight, np.array([0, 2, 2, 3]))
        with pytest.raises(ValueError):
            F.segment_matmul(x, weight, np.array([0, 4, 3]))


class TestInPlaceAccumulation:
    def test_reused_tensor_sums_gradients(self):
        t = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        ((t * t) + (t * 3.0)).sum().backward()
        np.testing.assert_allclose(t.grad, 2 * t.data + 3.0)

    def test_grad_buffer_is_stable_across_ops(self):
        t = Tensor(np.ones((4, 2)), requires_grad=True)
        gathered = t.index_select(np.array([0, 0, 3]))
        scattered = gathered.scatter_add(np.array([0, 1, 1]), 2)
        scattered.sum().backward()
        np.testing.assert_allclose(t.grad, [[2.0, 2.0], [0.0, 0.0],
                                            [0.0, 0.0], [1.0, 1.0]])
