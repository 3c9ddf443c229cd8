"""Parity regressions for the vectorized relational GNN kernels.

The vectorized ``RGATConv`` / ``RGCNConv`` forwards (relation-bucketed edge
layout + per-relation-block projections + fused gather/softmax/scatter), and
RGAT's packed inference kernel on a one-graph pack, must reproduce the seed
per-relation-loop implementations — kept as ``forward_reference`` — to
float64 precision, for values *and* gradients, across edge-rich, sparse,
single-relation and empty-relation regimes.  Also covers the edge-layout
cache.
"""

import numpy as np
import pytest

from repro.gnn import (
    EdgeLayoutCache,
    ParaGraphModel,
    RGATConv,
    RGCNConv,
    RelationalEdgeLayout,
    get_edge_layout,
    pack_graphs,
)
from repro.nn import Tensor
from repro.paragraph.encoders import EncodedGraph


def random_graph(num_nodes, num_edges, num_relations, dim=5, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(num_nodes, dim))
    edge_index = rng.integers(0, num_nodes, size=(2, num_edges))
    edge_type = rng.integers(0, num_relations, size=num_edges)
    edge_weight = rng.random(num_edges)
    return x, edge_index, edge_type, edge_weight


# ``(N, E, R)`` regimes: edge-rich (5 edges per node), sparse relations,
# single relation, empty relations
REGIMES = [(6, 30, 3), (12, 6, 8), (7, 25, 1), (10, 18, 8)]


class TestRGATParity:
    @pytest.mark.parametrize("num_nodes,num_edges,num_relations", REGIMES)
    @pytest.mark.parametrize("heads", [1, 2])
    def test_forward_matches_reference(self, num_nodes, num_edges, num_relations, heads):
        x_data, ei, et, ew = random_graph(num_nodes, num_edges, num_relations)
        conv = RGATConv(5, 4, num_relations=num_relations, heads=heads,
                        rng=np.random.default_rng(1))
        reference = conv.forward_reference(Tensor(x_data), ei, et, ew)
        vectorized = conv(Tensor(x_data), ei, et, ew)
        np.testing.assert_allclose(vectorized.data, reference.data, atol=1e-9)
        # the inference kernel on a one-graph pack, as serving runs it
        pack = pack_graphs([EncodedGraph(x_data, ei, et, ew, np.zeros(2))],
                           num_relations)
        served = conv.forward_packed(pack.node_features, pack.layout,
                                     pack.edge_weight)
        np.testing.assert_allclose(served, reference.data, atol=1e-9)

    @pytest.mark.parametrize("num_nodes,num_edges,num_relations", REGIMES)
    def test_gradients_match_reference(self, num_nodes, num_edges, num_relations):
        x_data, ei, et, ew = random_graph(num_nodes, num_edges, num_relations)
        conv = RGATConv(5, 3, num_relations=num_relations,
                        rng=np.random.default_rng(2))

        x_ref = Tensor(x_data.copy(), requires_grad=True)
        conv.zero_grad()
        conv.forward_reference(x_ref, ei, et, ew).pow(2.0).sum().backward()
        grads_ref = {name: p.grad.copy() if p.grad is not None else None
                     for name, p in conv.named_parameters()}

        x_vec = Tensor(x_data.copy(), requires_grad=True)
        conv.zero_grad()
        conv(x_vec, ei, et, ew).pow(2.0).sum().backward()

        np.testing.assert_allclose(x_vec.grad, x_ref.grad, atol=1e-9)
        for name, parameter in conv.named_parameters():
            if grads_ref[name] is None:
                assert parameter.grad is None or not parameter.grad.any()
            else:
                np.testing.assert_allclose(parameter.grad, grads_ref[name],
                                           atol=1e-9, err_msg=name)

    def test_empty_edge_list(self):
        x = Tensor(np.random.default_rng(0).normal(size=(4, 5)))
        conv = RGATConv(5, 3, num_relations=2)
        reference = conv.forward_reference(x, np.zeros((2, 0), dtype=np.int64),
                                           np.zeros(0, dtype=np.int64))
        vectorized = conv(x, np.zeros((2, 0), dtype=np.int64),
                          np.zeros(0, dtype=np.int64))
        np.testing.assert_allclose(vectorized.data, reference.data)

    def test_rejects_bad_relation_index(self):
        x_data, ei, _, ew = random_graph(6, 12, 2)
        conv = RGATConv(5, 3, num_relations=2)
        with pytest.raises(ValueError):
            conv(Tensor(x_data), ei, np.full(ei.shape[1], 5), ew)


class TestRGCNParity:
    @pytest.mark.parametrize("num_nodes,num_edges,num_relations", REGIMES)
    def test_forward_matches_reference(self, num_nodes, num_edges, num_relations):
        x_data, ei, et, ew = random_graph(num_nodes, num_edges, num_relations)
        conv = RGCNConv(5, 4, num_relations=num_relations,
                        rng=np.random.default_rng(3))
        reference = conv.forward_reference(Tensor(x_data), ei, et, ew)
        vectorized = conv(Tensor(x_data), ei, et, ew)
        np.testing.assert_allclose(vectorized.data, reference.data, atol=1e-9)

    def test_gradients_match_reference(self):
        x_data, ei, et, ew = random_graph(8, 20, 4)
        conv = RGCNConv(5, 4, num_relations=4, rng=np.random.default_rng(4))

        x_ref = Tensor(x_data.copy(), requires_grad=True)
        conv.zero_grad()
        conv.forward_reference(x_ref, ei, et, ew).pow(2.0).sum().backward()
        grads_ref = {name: p.grad.copy() if p.grad is not None else None
                     for name, p in conv.named_parameters()}

        x_vec = Tensor(x_data.copy(), requires_grad=True)
        conv.zero_grad()
        conv(x_vec, ei, et, ew).pow(2.0).sum().backward()

        np.testing.assert_allclose(x_vec.grad, x_ref.grad, atol=1e-9)
        for name, parameter in conv.named_parameters():
            if grads_ref[name] is None:
                assert parameter.grad is None or not parameter.grad.any()
            else:
                np.testing.assert_allclose(parameter.grad, grads_ref[name],
                                           atol=1e-9, err_msg=name)


class TestModelParity:
    def test_paragraph_model_forward_matches_reference_convs(self):
        from repro.paragraph.edges import NUM_EDGE_TYPES
        rng = np.random.default_rng(5)
        num_nodes, num_edges, dim = 40, 150, 12
        model = ParaGraphModel(node_feature_dim=dim, hidden_dim=8,
                               num_relations=NUM_EDGE_TYPES, seed=0)
        from repro.paragraph.encoders import GraphBatch
        batch = GraphBatch(
            node_features=rng.normal(size=(num_nodes, dim)),
            edge_index=rng.integers(0, num_nodes, size=(2, num_edges)),
            edge_type=rng.integers(0, NUM_EDGE_TYPES, size=num_edges),
            edge_weight=rng.random(num_edges),
            aux_features=rng.random((2, 2)),
            batch=np.repeat([0, 1], num_nodes // 2),
            targets=np.zeros(2),
            num_graphs=2,
        )
        vectorized = model.predict(batch)

        import types
        for conv in model.convs:
            conv.forward = types.MethodType(RGATConv.forward_reference, conv)
        reference = model.predict(batch)
        np.testing.assert_allclose(vectorized, reference, atol=1e-9)


class TestEdgeLayout:
    def test_layout_blocks_and_offsets(self):
        ei = np.array([[0, 1, 2, 3], [1, 2, 3, 0]])
        et = np.array([2, 0, 2, 1])
        layout = RelationalEdgeLayout.build(ei, et, 4, 3)
        assert layout.offsets.tolist() == [0, 1, 2, 4]
        assert layout.rel.tolist() == [0, 1, 2, 2]
        # stable: relation-2 edges keep their original order
        assert layout.src.tolist() == [1, 3, 0, 2]
        assert list(layout.blocks()) == [(0, 0, 1), (1, 1, 2), (2, 2, 4)]

    def test_sort_reorders_per_edge_arrays(self):
        ei = np.array([[0, 1, 2], [1, 2, 0]])
        et = np.array([1, 0, 1])
        layout = RelationalEdgeLayout.build(ei, et, 3, 2)
        np.testing.assert_array_equal(layout.sort(np.array([10.0, 20.0, 30.0])),
                                      [20.0, 10.0, 30.0])

    def test_validation_happens_in_build(self):
        with pytest.raises(ValueError):
            RelationalEdgeLayout.build(np.array([[0], [9]]), np.array([0]), 3, 2)
        with pytest.raises(ValueError):
            RelationalEdgeLayout.build(np.array([[0], [1]]), np.array([7]), 3, 2)

    def test_cache_hits_on_equal_content(self):
        cache = EdgeLayoutCache(capacity=4)
        ei = np.array([[0, 1], [1, 0]])
        et = np.array([0, 1])
        first = cache.get(ei, et, 2, 2)
        # a distinct array object with equal content must hit
        second = cache.get(ei.copy(), et.copy(), 2, 2)
        assert first is second
        assert cache.info().hits == 1 and cache.info().misses == 1
        # different relation count is a different layout
        cache.get(ei, et, 2, 3)
        assert cache.info().misses == 2

    def test_cache_evicts_lru(self):
        cache = EdgeLayoutCache(capacity=1)
        ei = np.array([[0, 1], [1, 0]])
        cache.get(ei, np.array([0, 0]), 2, 1)
        cache.get(ei, np.array([0, 0]), 2, 2)
        assert cache.info().size == 1

    def test_global_cache_reuses_layouts(self):
        from repro.gnn.edge_layout import edge_layout_cache_info
        ei = np.array([[0, 1, 2], [1, 2, 0]])
        et = np.array([0, 1, 0])
        before = edge_layout_cache_info()
        a = get_edge_layout(ei, et, 3, 2)
        b = get_edge_layout(ei.copy(), et.copy(), 3, 2)
        assert a is b
        assert edge_layout_cache_info().hits >= before.hits + 1
