"""Tests for the GNN layers (RGAT/RGCN), pooling and the ParaGraph model."""

import numpy as np
import pytest

from repro.clang import analyze, parse_snippet
from repro.gnn import (
    ParaGraphModel,
    RGATConv,
    RGCNConv,
    global_max_pool,
    global_mean_max_pool,
    global_mean_pool,
    global_sum_pool,
    validate_edge_index,
)
from repro.nn import Adam, MSELoss, Tensor
from repro.paragraph import GraphEncoder, build_paragraph
from repro.paragraph.edges import NUM_EDGE_TYPES


def random_graph_inputs(num_nodes=6, num_edges=12, num_relations=3, dim=5, seed=0):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(num_nodes, dim)))
    edge_index = rng.integers(0, num_nodes, size=(2, num_edges))
    edge_type = rng.integers(0, num_relations, size=num_edges)
    edge_weight = rng.random(num_edges)
    return x, edge_index, edge_type, edge_weight


def numeric_gradient(fn, array, eps=1e-6):
    grad = np.zeros_like(array)
    flat, grad_flat = array.reshape(-1), grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        up = fn()
        flat[i] = original - eps
        down = fn()
        flat[i] = original
        grad_flat[i] = (up - down) / (2 * eps)
    return grad


class TestEdgeValidation:
    def test_validate_accepts_good_index(self):
        index = validate_edge_index(np.array([[0, 1], [1, 2]]), 3)
        assert index.dtype == np.int64

    def test_validate_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            validate_edge_index(np.zeros((3, 4)), 10)

    def test_validate_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            validate_edge_index(np.array([[0], [5]]), 3)


class TestRGATConv:
    def test_output_shape_single_head(self):
        x, ei, et, ew = random_graph_inputs()
        conv = RGATConv(5, 7, num_relations=3, rng=np.random.default_rng(0))
        assert conv(x, ei, et, ew).shape == (6, 7)

    def test_output_shape_multi_head(self):
        x, ei, et, ew = random_graph_inputs()
        conv = RGATConv(5, 4, num_relations=3, heads=2, rng=np.random.default_rng(0))
        out = conv(x, ei, et, ew)
        assert out.shape == (6, 8)
        assert conv.output_dim == 8

    def test_handles_empty_edge_list(self):
        x = Tensor(np.random.default_rng(0).normal(size=(4, 5)))
        conv = RGATConv(5, 3, num_relations=2)
        out = conv(x, np.zeros((2, 0), dtype=np.int64), np.zeros(0, dtype=np.int64))
        assert out.shape == (4, 3)

    def test_missing_relation_is_fine(self):
        x, ei, _, ew = random_graph_inputs()
        conv = RGATConv(5, 3, num_relations=8)
        out = conv(x, ei, np.zeros(ei.shape[1], dtype=np.int64), ew)
        assert out.shape == (6, 3)

    def test_rejects_bad_relation_index(self):
        x, ei, _, ew = random_graph_inputs()
        conv = RGATConv(5, 3, num_relations=2)
        with pytest.raises(ValueError):
            conv(x, ei, np.full(ei.shape[1], 5), ew)

    def test_edge_weight_changes_output(self):
        x, ei, et, _ = random_graph_inputs()
        conv = RGATConv(5, 3, num_relations=3, use_edge_weight=True,
                        rng=np.random.default_rng(0))
        out_zero = conv(x, ei, et, np.zeros(ei.shape[1]))
        out_heavy = conv(x, ei, et, np.full(ei.shape[1], 10.0))
        assert not np.allclose(out_zero.data, out_heavy.data)

    def test_edge_weight_ignored_when_disabled(self):
        x, ei, et, _ = random_graph_inputs()
        conv = RGATConv(5, 3, num_relations=3, use_edge_weight=False,
                        rng=np.random.default_rng(0))
        out_zero = conv(x, ei, et, np.zeros(ei.shape[1]))
        out_heavy = conv(x, ei, et, np.full(ei.shape[1], 10.0))
        np.testing.assert_allclose(out_zero.data, out_heavy.data)

    def test_gradients_flow_to_all_parameters(self):
        x, ei, et, ew = random_graph_inputs()
        conv = RGATConv(5, 3, num_relations=3, rng=np.random.default_rng(0))
        loss = conv(x, ei, et, ew).pow(2.0).sum()
        loss.backward()
        for name, parameter in conv.named_parameters():
            assert parameter.grad is not None, name

    def test_weight_gradient_matches_finite_difference(self):
        x, ei, et, ew = random_graph_inputs(num_nodes=5, num_edges=8,
                                            num_relations=2, dim=3, seed=3)
        conv = RGATConv(3, 2, num_relations=2, rng=np.random.default_rng(1))

        def loss_value():
            return conv(x, ei, et, ew).pow(2.0).sum().item()

        loss = conv(x, ei, et, ew).pow(2.0).sum()
        loss.backward()
        numeric = numeric_gradient(loss_value, conv.weight.data)
        np.testing.assert_allclose(conv.weight.grad, numeric, atol=1e-4, rtol=1e-3)

    def test_attention_gradient_matches_finite_difference(self):
        x, ei, et, ew = random_graph_inputs(num_nodes=5, num_edges=10,
                                            num_relations=2, dim=3, seed=5)
        conv = RGATConv(3, 2, num_relations=2, rng=np.random.default_rng(2))

        def loss_value():
            return (conv(x, ei, et, ew) * conv(x, ei, et, ew)).sum().item()

        loss = (conv(x, ei, et, ew) * conv(x, ei, et, ew)).sum()
        loss.backward()
        numeric = numeric_gradient(loss_value, conv.att_src.data)
        np.testing.assert_allclose(conv.att_src.grad, numeric, atol=1e-4, rtol=1e-3)


class TestOtherConvolutions:
    def test_rgcn_shape_and_gradients(self):
        x, ei, et, ew = random_graph_inputs()
        conv = RGCNConv(5, 6, num_relations=3, rng=np.random.default_rng(0))
        out = conv(x, ei, et, ew)
        assert out.shape == (6, 6)
        out.sum().backward()
        assert conv.weight.grad is not None and conv.root_weight.grad is not None

    def test_rgcn_isolated_node_keeps_root_transform(self):
        x = Tensor(np.ones((3, 2)))
        conv = RGCNConv(2, 2, num_relations=1, rng=np.random.default_rng(0))
        edge_index = np.array([[0], [1]])   # node 2 isolated
        out = conv(x, edge_index, np.array([0]))
        expected_isolated = x.data[2] @ conv.root_weight.data + conv.bias.data
        np.testing.assert_allclose(out.data[2], expected_isolated)


class TestPooling:
    def setup_method(self):
        self.x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        self.batch = np.array([0, 0, 1])

    def test_mean_pool(self):
        out = global_mean_pool(self.x, self.batch, 2)
        np.testing.assert_allclose(out.data, [[2.0, 3.0], [5.0, 6.0]])

    def test_sum_pool(self):
        out = global_sum_pool(self.x, self.batch, 2)
        np.testing.assert_allclose(out.data, [[4.0, 6.0], [5.0, 6.0]])

    def test_max_pool(self):
        out = global_max_pool(self.x, self.batch, 2)
        np.testing.assert_allclose(out.data, [[3.0, 4.0], [5.0, 6.0]])

    def test_mean_max_pool_concatenates(self):
        out = global_mean_max_pool(self.x, self.batch, 2)
        assert out.shape == (2, 4)

    def test_mean_pool_gradient(self):
        x = Tensor(np.arange(6, dtype=float).reshape(3, 2), requires_grad=True)
        out = global_mean_pool(x, self.batch, 2).sum()
        out.backward()
        np.testing.assert_allclose(x.grad, [[0.5, 0.5], [0.5, 0.5], [1.0, 1.0]])


class TestParaGraphModel:
    def _encoded_batch(self):
        encoder = GraphEncoder()
        sources = [
            "for (int i = 0; i < 16; i++) { a[i] = i; }",
            "for (int i = 0; i < 64; i++) { a[i] = a[i] * 2.0; }",
            "x = 1;",
        ]
        graphs = [encoder.encode(build_paragraph(analyze(parse_snippet(s))),
                                 num_teams=1 + i, num_threads=2 * (i + 1),
                                 target=float(10 ** i))
                  for i, s in enumerate(sources)]
        return encoder, GraphEncoder.collate(graphs)

    def test_forward_shape(self):
        encoder, batch = self._encoded_batch()
        model = ParaGraphModel(encoder.feature_dim, hidden_dim=8, head_dims=(8, 4), seed=0)
        assert model(batch).shape == (3,)

    def test_three_conv_layers_by_default(self):
        encoder, _ = self._encoded_batch()
        model = ParaGraphModel(encoder.feature_dim, hidden_dim=8)
        assert len(model.convs) == 3

    def test_num_relations_matches_paragraph(self):
        encoder, _ = self._encoded_batch()
        model = ParaGraphModel(encoder.feature_dim, hidden_dim=8)
        assert model.num_relations == NUM_EDGE_TYPES

    def test_alternative_convolutions(self):
        encoder, batch = self._encoded_batch()
        model = ParaGraphModel(encoder.feature_dim, hidden_dim=8, conv="rgcn", seed=0)
        assert model(batch).shape == (3,)

    def test_unknown_convolution_raises(self):
        with pytest.raises(ValueError):
            ParaGraphModel(10, conv="transformer")

    def test_predict_is_deterministic_in_eval(self):
        encoder, batch = self._encoded_batch()
        model = ParaGraphModel(encoder.feature_dim, hidden_dim=8, dropout=0.3, seed=0)
        first = model.predict(batch)
        second = model.predict(batch)
        np.testing.assert_allclose(first, second)

    def test_training_reduces_loss(self):
        encoder, batch = self._encoded_batch()
        targets = Tensor(np.array([0.1, 0.5, 0.9]))
        model = ParaGraphModel(encoder.feature_dim, hidden_dim=8, head_dims=(8, 4), seed=1)
        optimizer = Adam(model.parameters(), lr=1e-2)
        loss_fn = MSELoss()
        losses = []
        for _ in range(40):
            optimizer.zero_grad()
            loss = loss_fn(model(batch), targets)
            loss.backward()
            optimizer.step()
            losses.append(loss.item())
        assert losses[-1] < losses[0] * 0.2

    def test_aux_features_affect_prediction(self):
        encoder, _ = self._encoded_batch()
        graph = build_paragraph(analyze(parse_snippet("for (int i = 0; i < 8; i++) { a[i] = i; }")))
        small = encoder.encode(graph, num_teams=1, num_threads=1)
        large = encoder.encode(graph, num_teams=512, num_threads=512)
        model = ParaGraphModel(encoder.feature_dim, hidden_dim=8, seed=0)
        predictions = model.predict(GraphEncoder.collate([small, large]))
        assert predictions[0] != pytest.approx(predictions[1])
