"""GNN property suite: differential parity over random graph shapes.

Sweeps the vectorized-vs-``forward_reference`` parity scenarios (training
``forward``, the ``forward_packed`` inference kernel on a one-graph pack,
and gradients) and the pooling-path scenarios from :mod:`repro.synth.harness`, and adds the
edge-layout LRU coverage the PR-2 cache still lacked: eviction *order*,
recency updates on hit, and content addressing across array layouts.
"""

import numpy as np
import pytest

from repro.gnn import EdgeLayoutCache, get_edge_layout
from repro.gnn.pooling import global_mean_max_pool, global_mean_pool
from repro.nn import Tensor
from repro.synth import random_encoded_graph, run_cases


class TestCorpusSweeps:
    def test_gnn_forward_parity_corpus(self):
        report = run_cases("gnn-forward-parity")
        assert report.ok and report.cases >= 2

    def test_gnn_gradient_parity_corpus(self):
        report = run_cases("gnn-gradient-parity")
        assert report.ok and report.cases >= 2

    def test_pooling_paths_corpus(self):
        report = run_cases("pooling-paths")
        assert report.ok and report.cases >= 2


class TestEdgeLayoutLRU:
    """LRU semantics of the content-addressed layout cache (satellite #3)."""

    @staticmethod
    def _graph(seed):
        encoded = random_encoded_graph(seed)
        return encoded.edge_index, encoded.edge_type, encoded.num_nodes

    def test_eviction_follows_recency_not_insertion(self):
        cache = EdgeLayoutCache(capacity=2)
        ei_a, et_a, n_a = self._graph(1)
        ei_b, et_b, n_b = self._graph(2)
        ei_c, et_c, n_c = self._graph(3)
        layout_a = cache.get(ei_a, et_a, n_a, 8)
        cache.get(ei_b, et_b, n_b, 8)
        # touch A so B becomes the least recently used entry
        assert cache.get(ei_a, et_a, n_a, 8) is layout_a
        cache.get(ei_c, et_c, n_c, 8)                 # evicts B, not A
        misses = cache.info().misses
        assert cache.get(ei_a, et_a, n_a, 8) is layout_a
        assert cache.info().misses == misses          # A survived
        cache.get(ei_b, et_b, n_b, 8)
        assert cache.info().misses == misses + 1      # B was evicted

    def test_content_addressing_ignores_array_layout(self):
        cache = EdgeLayoutCache(capacity=4)
        ei = np.array([[0, 1, 2], [1, 2, 0]], dtype=np.int64)
        et = np.array([0, 1, 0], dtype=np.int64)
        first = cache.get(ei, et, 3, 2)
        # Fortran-ordered / sliced views with equal content must hit
        strided = np.asfortranarray(ei)
        padded = np.zeros((2, 6), dtype=np.int64)
        padded[:, ::2] = ei
        assert cache.get(strided, et, 3, 2) is first
        assert cache.get(padded[:, ::2], et.copy(), 3, 2) is first
        assert cache.info().hits == 2

    def test_distinct_content_misses(self):
        cache = EdgeLayoutCache(capacity=4)
        ei = np.array([[0, 1], [1, 0]], dtype=np.int64)
        cache.get(ei, np.array([0, 1]), 2, 2)
        cache.get(ei, np.array([1, 0]), 2, 2)         # types differ
        cache.get(ei, None, 2, 2)                     # None types differ again
        # hits, misses, size, capacity, evictions
        assert cache.info() == (0, 3, 3, 4, 0)

    def test_zero_capacity_never_stores(self):
        cache = EdgeLayoutCache(capacity=0)
        ei = np.array([[0], [0]], dtype=np.int64)
        cache.get(ei, None, 1, 1)
        cache.get(ei, None, 1, 1)
        assert cache.info().size == 0
        assert cache.info().misses == 2

    def test_layout_arrays_are_frozen(self):
        encoded = random_encoded_graph(5)
        layout = get_edge_layout(encoded.edge_index, encoded.edge_type,
                                 encoded.num_nodes, 8)
        with pytest.raises(ValueError):
            layout.src[0] = 0


class TestSortedPoolingShortcut:
    """reduceat shortcut vs the scatter fallback (satellite #3)."""

    def test_sorted_and_gradient_paths_agree_on_values(self):
        rng = np.random.default_rng(0)
        batch = np.repeat(np.arange(3), [4, 1, 5])
        data = rng.normal(size=(10, 6))
        fast = global_mean_pool(Tensor(data), batch, 3)
        slow = global_mean_pool(Tensor(data.copy(), requires_grad=True), batch, 3)
        np.testing.assert_allclose(fast.data, slow.data, atol=1e-12)

    def test_mean_max_gradients_flow_through_fallback(self):
        rng = np.random.default_rng(1)
        batch = np.repeat(np.arange(2), [3, 2])
        x = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        global_mean_max_pool(x, batch, 2).sum().backward()
        assert x.grad is not None
        assert x.grad.shape == (5, 4)
        # gradient mass is 1 per (graph, feature) for the mean half and 1 for
        # the max half: 2 graphs x 4 features x 2 halves
        np.testing.assert_allclose(x.grad.sum(), 16.0)

    def test_empty_graph_in_batch_pools_to_fill(self):
        # graph id 1 has no nodes: reduceat shortcut must leave its row at 0
        batch = np.array([0, 0, 2, 2])
        data = np.ones((4, 3))
        pooled = global_mean_pool(Tensor(data), batch, 3)
        np.testing.assert_allclose(pooled.data[1], 0.0)
        np.testing.assert_allclose(pooled.data[[0, 2]], 1.0)
