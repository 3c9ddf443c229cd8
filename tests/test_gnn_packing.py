"""Tests for :mod:`repro.gnn.packing` — the block-diagonal multi-graph pack.

Covers the merged-layout construction (offset arithmetic must reproduce a
from-scratch build of the concatenated graph exactly), the separate packed
cache keyspace (packing combinatorial compositions must not thrash the main
edge-layout LRU serving keeps hot, and one-graph packs, memoized on their
solo layout, must not evict compositions), the packed-cache eviction order, the
``pack_graphs`` payload contract, the ``packed-forward-parity`` corpus
sweep asserting float64 bit-identity between packed and per-graph serving,
the rejection of conv kinds without a packed kernel, and RGAT's
folded-attention memo following weight changes.
"""

import numpy as np
import pytest

from repro.gnn import (
    EdgeLayoutCache,
    PackedLayoutCache,
    ParaGraphModel,
    get_edge_layout,
    layout_content_key,
    merge_layouts,
    pack_graphs,
    split_packs,
)
from repro.ml.dataset import GraphDataset
from repro.ml.trainer import Trainer, TrainingConfig
from repro.synth import random_encoded_graph, run_cases

RELATIONS = 8


def _layouts(seeds, cache=None):
    graphs = [random_encoded_graph(seed) for seed in seeds]
    layouts = [get_edge_layout(g.edge_index, g.edge_type, g.num_nodes,
                               RELATIONS, cache=cache) for g in graphs]
    return graphs, layouts


class TestCorpusSweep:
    def test_packed_forward_parity_corpus(self):
        report = run_cases("packed-forward-parity")
        assert report.ok and report.cases >= 2


class TestMergeLayouts:
    def test_merge_matches_from_scratch_build_of_concatenated_graph(self):
        graphs, layouts = _layouts([11, 12, 13])
        packed = merge_layouts(layouts)
        # build the same block-diagonal graph directly and compare layouts:
        # the O(E) offset arithmetic must reproduce the full sort bit for bit
        node_offsets = np.concatenate(
            [[0], np.cumsum([g.num_nodes for g in graphs])])
        edge_index = np.concatenate(
            [g.edge_index + off for g, off in zip(graphs, node_offsets)],
            axis=1)
        edge_type = np.concatenate([g.edge_type for g in graphs])
        direct = get_edge_layout(edge_index, edge_type, int(node_offsets[-1]),
                                 RELATIONS, cache=EdgeLayoutCache(capacity=0))
        for name in ("perm", "src", "dst", "rel", "offsets", "dst_order",
                     "dst_starts", "dst_unique", "cell_src", "cell_dst"):
            np.testing.assert_array_equal(
                getattr(packed.layout, name), getattr(direct, name),
                err_msg=f"merged layout field {name!r} diverged from a "
                        "from-scratch build")
        assert packed.layout.num_nodes == direct.num_nodes
        np.testing.assert_array_equal(
            packed.batch,
            np.repeat(np.arange(len(graphs)),
                      [g.num_nodes for g in graphs]))

    def test_chunks_recover_each_graphs_solo_edge_order(self):
        graphs, layouts = _layouts([21, 22, 23, 24])
        packed = merge_layouts(layouts)
        for g, solo in enumerate(layouts):
            rows = np.concatenate([np.arange(lo, hi)
                                   for _, lo, hi in packed.chunks[g]])
            offset = int(packed.node_offsets[g])
            np.testing.assert_array_equal(packed.layout.src[rows] - offset,
                                          solo.src)
            np.testing.assert_array_equal(packed.layout.dst[rows] - offset,
                                          solo.dst)
            np.testing.assert_array_equal(packed.layout.rel[rows], solo.rel)

    def test_chunks_partition_each_graphs_edges_by_relation(self):
        graphs, layouts = _layouts([31, 32])
        packed = merge_layouts(layouts)
        for g, chunk_list in enumerate(packed.chunks):
            total = 0
            for relation, lo, hi in chunk_list:
                assert hi > lo
                assert (packed.layout.rel[lo:hi] == relation).all()
                total += hi - lo
            assert total == layouts[g].num_edges

    def test_single_graph_pack_reuses_the_solo_layout_object(self):
        _, layouts = _layouts([41])
        packed = merge_layouts(layouts[:1])
        assert packed.layout is layouts[0]
        assert packed.num_graphs == 1

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="at least one layout"):
            merge_layouts([])

    def test_mismatched_relation_counts_rejected(self):
        edge_index = np.array([[0, 1], [1, 0]], dtype=np.int64)
        edge_type = np.array([0, 1], dtype=np.int64)
        two = get_edge_layout(edge_index, edge_type, 2, 2,
                              cache=EdgeLayoutCache(capacity=0))
        eight = get_edge_layout(edge_index, edge_type, 2, 8,
                                cache=EdgeLayoutCache(capacity=0))
        with pytest.raises(ValueError, match="num_relations"):
            merge_layouts([two, eight])


class TestPackedCacheKeyspace:
    """Satellite: packed layouts get their own content-addressed keyspace."""

    def test_compositions_do_not_thrash_the_main_layout_lru(self):
        layout_cache = EdgeLayoutCache(capacity=8)
        packed_cache = PackedLayoutCache(capacity=64)
        graphs = [random_encoded_graph(seed) for seed in range(61, 65)]
        hot = [get_edge_layout(g.edge_index, g.edge_type, g.num_nodes,
                               RELATIONS, cache=layout_cache) for g in graphs]
        misses = layout_cache.info().misses
        # pack many distinct compositions — combinatorially more than the
        # main LRU's capacity — through the same per-graph cache
        rng = np.random.default_rng(0)
        for _ in range(32):
            order = rng.permutation(len(graphs))
            chosen = [graphs[i] for i in order[:2 + int(rng.integers(0, 3))]]
            pack_graphs(chosen, RELATIONS, cache=packed_cache,
                        layout_cache=layout_cache)
        info = layout_cache.info()
        assert info.misses == misses, \
            "packing evicted (then rebuilt) hot single-graph layouts"
        for g, layout in zip(graphs, hot):
            assert layout_cache.get(g.edge_index, g.edge_type, g.num_nodes,
                                    RELATIONS) is layout

    def test_same_composition_hits_and_reuses_one_merged_layout(self):
        layout_cache = EdgeLayoutCache(capacity=8)
        packed_cache = PackedLayoutCache(capacity=4)
        graphs = [random_encoded_graph(seed) for seed in (71, 72)]
        first = pack_graphs(graphs, RELATIONS, cache=packed_cache,
                            layout_cache=layout_cache)
        again = pack_graphs(graphs, RELATIONS, cache=packed_cache,
                            layout_cache=layout_cache)
        assert again.layout is first.layout
        reversed_pack = pack_graphs(graphs[::-1], RELATIONS,
                                    cache=packed_cache,
                                    layout_cache=layout_cache)
        assert reversed_pack.layout is not first.layout   # order is the key
        assert packed_cache.info().hits == 1
        assert packed_cache.info().misses == 2

    def test_eviction_follows_recency_not_insertion(self):
        cache = PackedLayoutCache(capacity=2)
        _, layouts = _layouts([81, 82, 83])
        keys = [bytes([index]) * 16 for index in range(3)]

        def get(*indices):
            return cache.get([keys[i] for i in indices],
                             [layouts[i] for i in indices])

        ab = get(0, 1)
        get(1, 0)
        assert get(0, 1) is ab          # touch AB: BA becomes LRU
        get(0, 2)                       # evicts BA, not AB
        misses = cache.info().misses
        assert get(0, 1) is ab
        assert cache.info().misses == misses      # AB survived
        get(1, 0)
        assert cache.info().misses == misses + 1  # BA was evicted

    def test_one_graph_packs_do_not_evict_compositions(self):
        layout_cache = EdgeLayoutCache(capacity=16)
        packed_cache = PackedLayoutCache(capacity=2)
        pair = [random_encoded_graph(seed) for seed in (131, 132)]
        first = pack_graphs(pair, RELATIONS, cache=packed_cache,
                            layout_cache=layout_cache)
        for seed in range(133, 137):    # more singles than the cache holds
            pack_graphs([random_encoded_graph(seed)], RELATIONS,
                        cache=packed_cache, layout_cache=layout_cache)
        hits = packed_cache.info().hits
        again = pack_graphs(pair, RELATIONS, cache=packed_cache,
                            layout_cache=layout_cache)
        assert again.layout is first.layout
        assert packed_cache.info().hits == hits + 1

    def test_one_graph_packs_count_as_memo_hits_and_misses(self):
        layout_cache = EdgeLayoutCache(capacity=4)
        packed_cache = PackedLayoutCache(capacity=2)
        graph = random_encoded_graph(141)
        first = pack_graphs([graph], RELATIONS, cache=packed_cache,
                            layout_cache=layout_cache).layout
        again = pack_graphs([graph], RELATIONS, cache=packed_cache,
                            layout_cache=layout_cache).layout
        info = packed_cache.info()
        assert (info.hits, info.misses, info.size) == (1, 1, 0)
        solo = first.layout
        assert again.layout is solo
        assert again.batch is first.batch       # parts come from the memo
        np.testing.assert_array_equal(first.node_offsets, [0, solo.num_nodes])
        np.testing.assert_array_equal(first.batch, np.zeros(solo.num_nodes))
        assert first.chunks == (tuple(solo.blocks()),)

    def test_one_graph_pack_memo_makes_no_reference_cycle(self):
        import gc
        import weakref

        graph = random_encoded_graph(151)
        gc.disable()
        try:
            batch = pack_graphs([graph], RELATIONS,
                                cache=PackedLayoutCache(capacity=0),
                                layout_cache=EdgeLayoutCache(capacity=0))
            solo = weakref.ref(batch.layout.layout)
            del batch
            assert solo() is None, "layout outlived its last reference"
        finally:
            gc.enable()

    def test_racing_first_one_graph_packs_share_one_memo(self):
        import sys
        import threading

        workers = 8
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for seed in range(161, 171):
                _, (solo,) = _layouts([seed], cache=EdgeLayoutCache(capacity=0))
                barrier = threading.Barrier(workers)
                packs = []

                def pack():
                    barrier.wait(timeout=10.0)
                    packs.append(merge_layouts([solo]))

                threads = [threading.Thread(target=pack)
                           for _ in range(workers)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10.0)
                assert not any(thread.is_alive() for thread in threads)
                assert len(packs) == workers
                assert len(solo._solo_pack) == 1
                assert all(p.batch is packs[0].batch for p in packs)
        finally:
            sys.setswitchinterval(interval)

    def test_zero_capacity_never_stores(self):
        cache = PackedLayoutCache(capacity=0)
        _, layouts = _layouts([91, 92])
        key = [b"k" * 16, b"l" * 16]
        cache.get(key, layouts)
        cache.get(key, layouts)
        assert cache.info().size == 0
        assert cache.info().misses == 2


class TestPackGraphs:
    def test_payload_contract(self):
        graphs = [random_encoded_graph(seed) for seed in (101, 102, 103)]
        batch = pack_graphs(graphs, RELATIONS,
                            cache=PackedLayoutCache(capacity=0),
                            layout_cache=EdgeLayoutCache(capacity=0))
        total_nodes = sum(g.num_nodes for g in graphs)
        assert batch.node_features.shape == (total_nodes,
                                             graphs[0].node_features.shape[1])
        assert batch.num_graphs == len(graphs)
        assert batch.aux_features.shape == (len(graphs), 2)
        assert batch.targets.shape == (len(graphs),)
        assert batch.edge_weight.shape == (batch.layout.num_edges,)
        assert (np.diff(batch.layout.batch) >= 0).all()

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="at least one graph"):
            pack_graphs([], RELATIONS)

    def test_merged_arrays_are_frozen(self):
        graphs = [random_encoded_graph(seed) for seed in (111, 112)]
        batch = pack_graphs(graphs, RELATIONS,
                            cache=PackedLayoutCache(capacity=0),
                            layout_cache=EdgeLayoutCache(capacity=0))
        with pytest.raises(ValueError):
            batch.layout.layout.src[0] = 0
        with pytest.raises(ValueError):
            batch.layout.batch[0] = 0

    def test_layout_content_key_is_stable_and_content_addressed(self):
        g = random_encoded_graph(121)
        key = layout_content_key(g.edge_index, g.edge_type, g.num_nodes,
                                 RELATIONS)
        assert key == layout_content_key(g.edge_index.copy(),
                                         g.edge_type.copy(), g.num_nodes,
                                         RELATIONS)
        assert key != layout_content_key(g.edge_index, g.edge_type,
                                         g.num_nodes + 1, RELATIONS)


class TestSplitPacks:
    def test_budget_respected_and_order_preserved(self):
        graphs = [random_encoded_graph(seed) for seed in range(161, 169)]
        packs = split_packs(graphs, node_budget=60)
        assert [g for pack in packs for g in pack] == graphs
        for pack in packs:
            total = sum(g.node_features.shape[0] for g in pack)
            assert total <= 60 or len(pack) == 1

    def test_oversized_graph_still_packs_alone(self):
        graphs = [random_encoded_graph(seed) for seed in (171, 172, 173)]
        packs = split_packs(graphs, node_budget=1)
        assert [len(pack) for pack in packs] == [1, 1, 1]

    def test_splitting_is_bit_transparent(self):
        # a batch big enough that predict_packed splits it into several
        # sub-packs must still match the per-graph loop bit for bit
        from repro.synth.graph_gen import GraphGenConfig

        shapes = GraphGenConfig(num_nodes=(800, 1200), feature_dim=6)
        graphs = [random_encoded_graph(seed, shapes)
                  for seed in range(181, 187)]
        assert sum(g.node_features.shape[0] for g in graphs) > 4096
        model = ParaGraphModel(node_feature_dim=6, hidden_dim=4,
                               num_conv_layers=1, seed=0)
        trainer = Trainer(model, TrainingConfig(epochs=1))
        trainer._fit_scalers(GraphDataset(graphs, name="split"))
        reference = np.concatenate(
            [trainer.predict_packed([g]) for g in graphs])
        np.testing.assert_array_equal(trainer.predict_packed(graphs),
                                      reference)


class TestModelFallback:
    def test_conv_without_packed_kernel_is_rejected(self):
        # there is no collated fallback: a conv kind must bring its packed
        # inference kernel, or the model refuses to build
        from repro.api import conv_registry, register_conv
        from repro.gnn import MessagePassing

        class TrainingOnlyConv(MessagePassing):
            output_dim = 4

            def forward(self, x, edge_index, **kwargs):
                return x

        @register_conv("test_training_only")
        def make(in_dim, hidden_dim, *, num_relations, heads,
                 use_edge_weight, rng):
            return TrainingOnlyConv()

        try:
            with pytest.raises(TypeError, match="test_training_only"):
                ParaGraphModel(node_feature_dim=6, hidden_dim=4,
                               conv="test_training_only", seed=0)
        finally:
            conv_registry.unregister("test_training_only")

    def test_predict_packed_requires_fitted_scalers(self):
        model = ParaGraphModel(node_feature_dim=6, hidden_dim=4,
                               num_conv_layers=1, seed=0)
        trainer = Trainer(model, TrainingConfig(epochs=1))
        with pytest.raises(RuntimeError, match="fit must run"):
            trainer.predict_packed([random_encoded_graph(141)])

    def test_empty_request_list_returns_empty(self):
        model = ParaGraphModel(node_feature_dim=6, hidden_dim=4,
                               num_conv_layers=1, seed=0)
        trainer = Trainer(model, TrainingConfig(epochs=1))
        trainer._fit_scalers(GraphDataset([random_encoded_graph(151)],
                                          name="empty"))
        assert trainer.predict_packed([]).shape == (0,)


class TestFoldedAttentionMemo:
    """RGAT's folded attention weights are memoized by parameter-array
    identity; every way the weights change must reach the packed kernel."""

    @staticmethod
    def _model(seed):
        return ParaGraphModel(node_feature_dim=6, hidden_dim=4,
                              num_conv_layers=2, heads=2, seed=seed)

    def _assert_matches_fresh_model(self, model, batch):
        fresh = self._model(seed=99)
        fresh.load_state_dict(model.state_dict())
        np.testing.assert_array_equal(model.predict_packed(batch),
                                      fresh.predict_packed(batch))

    def test_memo_follows_weight_rebinding(self):
        from repro.nn import Adam
        from repro.paragraph.encoders import GraphEncoder
        from repro.synth.graph_gen import GraphGenConfig

        shapes = GraphGenConfig(num_nodes=(4, 24), feature_dim=6)
        graphs = [random_encoded_graph(seed, shapes) for seed in (191, 192)]
        batch = pack_graphs(graphs, RELATIONS)
        model = self._model(seed=0)
        before = model.predict_packed(batch)          # fills the memo

        model.load_state_dict(self._model(seed=1).state_dict())
        self._assert_matches_fresh_model(model, batch)
        assert not np.array_equal(model.predict_packed(batch), before)

        loaded = model.predict_packed(batch)
        optimizer = Adam(model.parameters(), lr=1e-2)
        prediction = model(GraphEncoder.collate(graphs))
        (prediction * prediction).sum().backward()
        optimizer.step()
        self._assert_matches_fresh_model(model, batch)
        assert not np.array_equal(model.predict_packed(batch), loaded)
