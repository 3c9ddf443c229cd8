"""Micro-benchmark: seed per-relation-loop GNN forward vs vectorized kernels.

The relational convs replaced the seed's Python loop over relations with
vectorized kernels over a cached relation-bucketed edge layout, and serve
inference through one packed kernel (``forward_packed``; a single graph is
a pack of one).  This benchmark measures, on a synthetic ~500-node /
~3k-edge, 8-relation graph:

* one RGAT / RGCN layer: ``forward_reference`` (the retained seed loop)
  vs the vectorized training ``forward``, and one RGAT layer's
  ``forward_packed`` on a one-graph pack,
* the end-to-end ``ParaGraphModel`` forward: seed loop with autodiff
  recording (what the seed's ``predict`` executed) vs float64
  ``predict_packed`` on a one-graph pack — the kernel serving runs,

asserts the >= 3x end-to-end speedup of that serving path plus float64
parity with the seed (atol=1e-9), appends the table to the per-run report
under ``benchmarks/out/`` and writes the raw timings to ``BENCH_pr2.json``.

``REPRO_BENCH_QUICK=1`` (the CI smoke job) shrinks the graph and the repeat
count so the benchmark finishes in seconds; the speedup assertion then
relaxes to a sanity threshold because tiny graphs are overhead-dominated.
"""

import os
import time
import types

import numpy as np

from _reporting import report, report_json
from repro.gnn import ParaGraphModel, RGATConv, RGCNConv, pack_graphs
from repro.nn import Tensor
from repro.paragraph.encoders import EncodedGraph, GraphEncoder

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"

NUM_NODES = 120 if QUICK else 500
NUM_EDGES = 700 if QUICK else 3000
NUM_RELATIONS = 8
FEATURE_DIM = 70          # ~ vocabulary one-hot width + terminal flag
HIDDEN_DIM = 64
REPEATS = 5 if QUICK else 20
MIN_E2E_SPEEDUP = 2.0 if QUICK else 3.0


def synthetic_graph(seed=0):
    rng = np.random.default_rng(seed)
    return EncodedGraph(
        node_features=rng.normal(size=(NUM_NODES, FEATURE_DIM)),
        edge_index=rng.integers(0, NUM_NODES, size=(2, NUM_EDGES)),
        edge_type=rng.integers(0, NUM_RELATIONS, size=NUM_EDGES),
        edge_weight=rng.random(NUM_EDGES),
        aux_features=rng.random(2),
    )


def median_ms(fn, repeats=REPEATS):
    fn()                                   # warm up (fills the layout cache)
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1e3)
    return float(np.median(samples))


def use_reference_convs(model):
    """Monkeypatch every conv of *model* back to the seed per-relation loop."""
    for conv in model.convs:
        conv.forward = types.MethodType(RGATConv.forward_reference, conv)


def test_perf_gnn_forward():
    graph = synthetic_graph()
    batch = GraphEncoder.collate([graph])
    pack = pack_graphs([graph], NUM_RELATIONS)
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(NUM_NODES, FEATURE_DIM)))

    # ---------------- per-layer kernels (autodiff recording on) ---------- #
    rgat = RGATConv(FEATURE_DIM, HIDDEN_DIM, NUM_RELATIONS,
                    rng=np.random.default_rng(0))
    rgat_args = (x, batch.edge_index, batch.edge_type, batch.edge_weight)
    rgat_seed_ms = median_ms(lambda: rgat.forward_reference(*rgat_args))
    rgat_vec_ms = median_ms(lambda: rgat.forward(*rgat_args))
    rgat_packed_ms = median_ms(lambda: rgat.forward_packed(
        x.data, pack.layout, pack.edge_weight))

    rgcn = RGCNConv(FEATURE_DIM, HIDDEN_DIM, NUM_RELATIONS,
                    rng=np.random.default_rng(0))
    rgcn_seed_ms = median_ms(lambda: rgcn.forward_reference(*rgat_args))
    rgcn_vec_ms = median_ms(lambda: rgcn.forward(*rgat_args))

    # ---------------- end-to-end ParaGraphModel forward ------------------ #
    model = ParaGraphModel(node_feature_dim=FEATURE_DIM, hidden_dim=HIDDEN_DIM,
                           num_relations=NUM_RELATIONS, seed=0)
    model.eval()
    seed_model = ParaGraphModel(node_feature_dim=FEATURE_DIM, hidden_dim=HIDDEN_DIM,
                                num_relations=NUM_RELATIONS, seed=0)
    seed_model.load_state_dict(model.state_dict())
    seed_model.eval()
    use_reference_convs(seed_model)

    # the seed's predict() ran forward() with the autodiff graph recorded —
    # measure exactly that as the baseline; like the batch it forwards, the
    # one-graph pack the serving kernel runs on is built outside the timer
    e2e_seed_ms = median_ms(lambda: seed_model.forward(batch))
    e2e_vec_ms = median_ms(lambda: model.forward(batch))
    e2e_f64_ms = median_ms(lambda: model.predict_packed(pack))

    # ---------------- parity ---------------------------------------------#
    reference = seed_model.predict(batch)
    served = model.predict_packed(pack)
    np.testing.assert_allclose(served, reference, atol=1e-9)

    speedup_vec = e2e_seed_ms / e2e_vec_ms
    speedup_f64 = e2e_seed_ms / e2e_f64_ms

    report(
        f"GNN forward micro-benchmark "
        f"({NUM_NODES} nodes, {NUM_EDGES} edges, {NUM_RELATIONS} relations"
        f"{', quick mode' if QUICK else ''}):\n"
        f"  RGAT layer   seed loop / vectorized  : {rgat_seed_ms:8.2f} ms / "
        f"{rgat_vec_ms:6.2f} ms  ({rgat_seed_ms / rgat_vec_ms:5.1f}x)\n"
        f"  RGAT layer   packed (one graph)      : {rgat_packed_ms:8.2f} ms  "
        f"({rgat_seed_ms / rgat_packed_ms:5.1f}x)\n"
        f"  RGCN layer   seed loop / vectorized  : {rgcn_seed_ms:8.2f} ms / "
        f"{rgcn_vec_ms:6.2f} ms  ({rgcn_seed_ms / rgcn_vec_ms:5.1f}x)\n"
        f"  model e2e    seed loop               : {e2e_seed_ms:8.2f} ms\n"
        f"  model e2e    vectorized (recording)  : {e2e_vec_ms:8.2f} ms  "
        f"({speedup_vec:5.1f}x)\n"
        f"  model e2e    packed float64 serving  : {e2e_f64_ms:8.2f} ms  "
        f"({speedup_f64:5.1f}x)")

    report_json("BENCH_pr2.json", {
        "graph": {"num_nodes": NUM_NODES, "num_edges": NUM_EDGES,
                  "num_relations": NUM_RELATIONS, "feature_dim": FEATURE_DIM,
                  "hidden_dim": HIDDEN_DIM, "quick": QUICK},
        "per_layer_ms": {
            "rgat_seed": rgat_seed_ms, "rgat_vectorized": rgat_vec_ms,
            "rgat_packed": rgat_packed_ms,
            "rgcn_seed": rgcn_seed_ms, "rgcn_vectorized": rgcn_vec_ms,
        },
        "end_to_end_ms": {
            "seed_loop": e2e_seed_ms,
            "vectorized_recording": e2e_vec_ms,
            "packed_float64": e2e_f64_ms,
        },
        "speedup": {
            "vectorized_recording": speedup_vec,
            "packed_float64": speedup_f64,
        },
        "parity": {"float64_atol": 1e-9},
    })

    assert speedup_f64 >= MIN_E2E_SPEEDUP, (
        f"serving fast path must be >= {MIN_E2E_SPEEDUP}x over the seed loop, "
        f"got {speedup_f64:.2f}x")
