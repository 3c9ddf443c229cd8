"""Differential property-testing harness over the synthetic corpus.

The harness is a registry of named *scenarios*.  Each scenario is one
cross-layer invariant checked over many seeded generated cases:

* ``lexer-roundtrip`` — token-stream round trip: canonically re-rendering
  the tokens of a generated kernel and re-lexing yields the same stream,
* ``parser-roundtrip`` — parsing is layout-insensitive and stable: the
  original and canonically re-rendered sources parse to structurally equal
  ASTs, and re-parsing the same text reproduces the dump bit for bit,
* ``paragraph-invariants`` — every generated kernel builds a ParaGraph that
  validates, with the edge-count/vocabulary invariants the paper implies,
* ``graph-validity`` — the random-graph generator only emits valid graphs
  and block-diagonal batches,
* ``gnn-forward-parity`` / ``gnn-gradient-parity`` — the vectorized RGAT /
  RGCN kernels (the training ``forward`` and the ``forward_packed``
  inference kernel on a one-graph pack) match the seed
  ``forward_reference`` implementations on random shapes,
* ``pooling-paths`` — the sorted-batch ``reduceat`` pooling shortcut, the
  autodiff fallback and a NumPy oracle agree,
* ``config-roundtrip`` — random valid configs survive
  ``to_dict``/``from_dict``/JSON round trips unchanged,
* ``store-roundtrip`` — random model sets (config × conv × readout ×
  encoder flags) written as ``repro.store`` artifacts verify cleanly and
  load back with bit-identical state dicts, scaler state and float64
  predictions,
* ``serving-context-isolation`` — seeded concurrent workloads: threads
  inside :class:`repro.nn.no_grad` (serving) and a grad-recording thread
  (training) run simultaneously on one shared model and the no-grad flag
  never leaks across threads,
* ``serving-contract`` — the reliability and tracing contracts together:
  under seeded topologies (1-3 callers, coalesced batches, breaker on or
  off) and fault injection (transient forward failures, leader delays,
  admission faults, tight deadlines, a bounded queue) every request
  either returns a float64 result **bit-identical** to its fault-free
  reference or raises a typed reliability error — never a hang, never
  silent corruption — and yields exactly one complete, valid
  ``serve.request`` trace,
* ``packed-forward-parity`` — the packed block-diagonal multi-graph
  forward (:mod:`repro.gnn.packing`) is float64 bit-identical to
  predicting each graph alone, for random models, batch compositions and
  packing orders, and agrees with the collated ``no_grad`` forward to
  rounding.
* ``staged-encode-parity`` — the session's staged encode (structure once
  per source text, ``Child``-edge weights once per context) equals a fresh
  parse → analyze → build → encode for every spec, array for array, over
  paper variants × sizes × contexts and generated kernels, all three graph
  variants and snippet mode.

Every failure reports the integer seed of the offending case;
``python -m repro.synth <scenario> <seed>`` replays exactly that case.

Environment knobs (see TESTING.md):

* ``REPRO_SYNTH_CASES`` — target *total* number of corpus cases; scenario
  counts scale proportionally (default ≈ :data:`DEFAULT_TOTAL_CASES`).
* ``REPRO_SYNTH_SEED`` — base-seed salt; changing it re-rolls the corpus.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..clang.dumper import dump
from ..clang.lexer import Token, TokenKind, tokenize
from ..clang.parser import parse_source
from ..clang.semantics import analyze
from ..clang.traversal import preorder, terminals_in_token_order
from ..paragraph.builder import build_paragraph
from ..paragraph.edges import EdgeType, NUM_EDGE_TYPES
from ..paragraph.encoders import GraphEncoder
from ..paragraph.variants import GraphVariant
from ..paragraph.vocab import UNK_TOKEN, default_vocabulary
from .graph_gen import GraphGenConfig, random_batch, random_encoded_graph, random_paragraph
from .source_gen import generate_defect_kernel, generate_kernel

__all__ = [
    "CASES_ENV",
    "DEFAULT_TOTAL_CASES",
    "HarnessReport",
    "SCENARIOS",
    "ScenarioSpec",
    "canonical_render",
    "cases_for",
    "corpus_total_cases",
    "reproduce",
    "run_cases",
    "scenario_names",
    "seeds_for",
    "serving_plan",
    "structural_dump",
    "tiny_serving_stack",
]

CASES_ENV = "REPRO_SYNTH_CASES"
SEED_ENV = "REPRO_SYNTH_SEED"

#: how many failing seeds a report lists before truncating.
MAX_REPORTED_FAILURES = 5


# --------------------------------------------------------------------- #
# canonical rendering / structural comparison helpers
# --------------------------------------------------------------------- #
def canonical_render(tokens: Sequence[Token]) -> str:
    """Re-render a token stream as compilable text, one space per boundary.

    Pragma tokens must become ``#pragma`` lines of their own, everything
    else joins with single spaces — the canonical layout-free spelling of
    the program.  ``tokenize(canonical_render(tokenize(s)))`` must equal
    ``tokenize(s)`` up to positions.
    """
    parts: List[str] = []
    for token in tokens:
        if token.kind is TokenKind.EOF:
            break
        if token.kind is TokenKind.PRAGMA:
            parts.append(f"\n#pragma {token.text}\n")
        else:
            parts.append(token.text + " ")
    return "".join(parts)


def token_signature(tokens: Sequence[Token]) -> List[Tuple[str, str]]:
    """Position-independent view of a token stream (kind, spelling)."""
    return [(token.kind.name, token.text) for token in tokens
            if token.kind is not TokenKind.EOF]


def structural_dump(node) -> str:
    """Location-insensitive AST dump: kind, spelling and tree shape only."""
    lines: List[str] = []

    def visit(current, depth: int) -> None:
        lines.append(f"{'  ' * depth}{current.kind} {current.spelling!r}")
        for child in current.children:
            visit(child, depth + 1)

    visit(node, 0)
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# scenario checks (one seeded case each)
# --------------------------------------------------------------------- #
def check_lexer_roundtrip(seed: int) -> None:
    kernel = generate_kernel(seed)
    tokens = tokenize(kernel.source)
    assert tokens[-1].kind is TokenKind.EOF
    for position, token in enumerate(tokens):
        assert token.index == position, "token indices must be consecutive"
    positions = [(token.line, token.column) for token in tokens[:-1]]
    assert positions == sorted(positions), "token positions must be monotone"

    rendered = canonical_render(tokens)
    relexed = tokenize(rendered)
    assert token_signature(relexed) == token_signature(tokens), \
        "canonical re-render changed the token stream"
    # the canonical form is a fixpoint of render ∘ tokenize
    assert canonical_render(relexed) == rendered


def check_parser_roundtrip(seed: int) -> None:
    kernel = generate_kernel(seed)
    ast_original = parse_source(kernel.source)
    ast_rendered = parse_source(canonical_render(tokenize(kernel.source)))
    assert structural_dump(ast_original) == structural_dump(ast_rendered), \
        "layout-normalized source parsed to a different tree"
    # byte-stable: same text, same dump (locations included)
    assert dump(parse_source(kernel.source)) == dump(ast_original)
    # set_parents left a consistent tree behind, and every node carries a
    # real source anchor (the analysis checkers report locations from them)
    for node in preorder(ast_original):
        for child in node.children:
            assert child.parent is node, "stale parent back-pointer"
        assert node.location != (0, 0), \
            f"{node.kind} node lost its source location"


def check_paragraph_invariants(seed: int) -> None:
    kernel = generate_kernel(seed)
    ast = analyze(parse_source(kernel.source))
    graph = build_paragraph(ast, variant=GraphVariant.PARAGRAPH,
                            num_threads=4, num_teams=2, name=kernel.name)
    graph.validate()

    num_ast_nodes = sum(1 for _ in preorder(ast))
    assert graph.num_nodes == num_ast_nodes
    counts = graph.edge_type_counts()
    # every non-root AST node hangs off exactly one Child edge
    assert counts[EdgeType.CHILD] == graph.num_nodes - 1
    # NextToken edges chain the terminals into one path
    terminals = terminals_in_token_order(ast)
    assert counts[EdgeType.NEXT_TOKEN] == max(len(terminals) - 1, 0)
    assert set(int(t) for t in graph.edge_types()) <= set(range(NUM_EDGE_TYPES))

    # the default vocabulary covers everything the frontend can emit
    vocabulary = default_vocabulary()
    unk = vocabulary.index(UNK_TOKEN)
    for label in graph.node_labels():
        assert vocabulary.index(label) != unk, f"unknown node kind {label!r}"

    # building twice is deterministic
    rebuilt = build_paragraph(ast, variant=GraphVariant.PARAGRAPH,
                              num_threads=4, num_teams=2)
    assert [e.as_tuple() for e in rebuilt.edges] == \
        [e.as_tuple() for e in graph.edges]

    # ablation variants nest: raw ⊂ augmented ⊆ paragraph
    raw = build_paragraph(ast, variant=GraphVariant.RAW_AST)
    augmented = build_paragraph(ast, variant=GraphVariant.AUGMENTED_AST)
    assert raw.num_edges == counts[EdgeType.CHILD]
    assert all(edge.weight == 1.0 for edge in raw.edges)
    assert augmented.num_edges == graph.num_edges

    # encoding shape contract
    encoder = GraphEncoder()
    encoded = encoder.encode(graph, num_teams=2, num_threads=4)
    assert encoded.node_features.shape == (graph.num_nodes, encoder.feature_dim)
    assert encoded.edge_index.shape == (2, graph.num_edges)
    assert encoded.edge_type.shape == (graph.num_edges,)
    assert encoded.edge_weight.shape == (graph.num_edges,)
    assert (encoded.edge_weight >= 0.0).all(), "log-scaled weights went negative"


def check_graph_validity(seed: int) -> None:
    graph = random_paragraph(seed)
    graph.validate()
    if graph.num_edges:
        edge_index = graph.edge_index()
        assert edge_index.min() >= 0
        assert edge_index.max() < graph.num_nodes

    encoded = GraphEncoder().encode(graph)
    row_sums = encoded.node_features[:, :-1].sum(axis=1)
    np.testing.assert_allclose(row_sums, 1.0)       # one-hot rows

    batch = random_batch(seed, config=_GNN_SHAPES)
    assert batch.batch.shape == (batch.node_features.shape[0],)
    assert (np.diff(batch.batch) >= 0).all(), "collate must emit a sorted batch"
    assert batch.aux_features.shape == (batch.num_graphs, 2)
    if batch.edge_index.size:
        # block-diagonal: every edge stays inside its graph's node range
        starts = np.concatenate([[0], np.cumsum(np.bincount(
            batch.batch, minlength=batch.num_graphs))])
        graph_of_src = np.searchsorted(starts, batch.edge_index[0], side="right") - 1
        graph_of_dst = np.searchsorted(starts, batch.edge_index[1], side="right") - 1
        np.testing.assert_array_equal(graph_of_src, graph_of_dst)


#: smaller shapes for the GNN scenarios — parity is shape-driven, not
#: size-driven, and hundreds of cases must stay fast in tier 1.
_GNN_SHAPES = GraphGenConfig(num_nodes=(2, 24), feature_dim=6)


def _gnn_case(seed: int):
    from ..gnn.rgat import RGATConv
    from ..gnn.rgcn import RGCNConv
    from ..nn.tensor import Tensor

    rng = np.random.default_rng(seed)
    num_relations = int(rng.choice([1, 2, NUM_EDGE_TYPES]))
    heads = int(rng.choice([1, 2]))
    encoded = random_encoded_graph(
        seed, GraphGenConfig(num_nodes=_GNN_SHAPES.num_nodes,
                             feature_dim=_GNN_SHAPES.feature_dim,
                             num_relations=num_relations))
    convs = [
        RGATConv(_GNN_SHAPES.feature_dim, 3, num_relations=num_relations,
                 heads=heads, rng=np.random.default_rng(seed + 1)),
        RGCNConv(_GNN_SHAPES.feature_dim, 3, num_relations=num_relations,
                 rng=np.random.default_rng(seed + 2)),
    ]
    return encoded, convs, Tensor


def check_gnn_forward_parity(seed: int) -> None:
    from ..gnn.packing import pack_graphs

    encoded, convs, Tensor = _gnn_case(seed)
    arguments = (encoded.edge_index, encoded.edge_type, encoded.edge_weight)
    for conv in convs:
        reference = conv.forward_reference(Tensor(encoded.node_features), *arguments)
        vectorized = conv(Tensor(encoded.node_features), *arguments)
        np.testing.assert_allclose(vectorized.data, reference.data, atol=1e-9,
                                   err_msg=type(conv).__name__)
        # the inference kernel on a one-graph pack, as serving runs it
        packed = pack_graphs([encoded], conv.num_relations)
        served = conv.forward_packed(packed.node_features, packed.layout,
                                     packed.edge_weight)
        np.testing.assert_allclose(served, reference.data, atol=1e-9,
                                   err_msg=f"{type(conv).__name__} (packed)")


def check_gnn_gradient_parity(seed: int) -> None:
    encoded, convs, Tensor = _gnn_case(seed)
    conv = convs[0]                     # RGAT: the layer the paper trains
    arguments = (encoded.edge_index, encoded.edge_type, encoded.edge_weight)

    x_ref = Tensor(encoded.node_features.copy(), requires_grad=True)
    conv.zero_grad()
    conv.forward_reference(x_ref, *arguments).pow(2.0).sum().backward()
    reference_grads = {name: None if p.grad is None else p.grad.copy()
                       for name, p in conv.named_parameters()}

    x_vec = Tensor(encoded.node_features.copy(), requires_grad=True)
    conv.zero_grad()
    conv(x_vec, *arguments).pow(2.0).sum().backward()

    np.testing.assert_allclose(x_vec.grad, x_ref.grad, atol=1e-9)
    for name, parameter in conv.named_parameters():
        expected = reference_grads[name]
        if expected is None:
            assert parameter.grad is None or not parameter.grad.any()
        else:
            np.testing.assert_allclose(parameter.grad, expected, atol=1e-9,
                                       err_msg=name)


def check_pooling_paths(seed: int) -> None:
    from ..gnn.pooling import global_max_pool, global_mean_pool, global_sum_pool
    from ..nn.tensor import Tensor, no_grad

    rng = np.random.default_rng(seed)
    num_graphs = int(rng.integers(1, 5))
    counts = rng.integers(1, 7, size=num_graphs)
    batch = np.repeat(np.arange(num_graphs), counts)
    data = rng.normal(size=(batch.size, 4))

    def oracle(op):
        return np.stack([op(data[batch == g], axis=0) for g in range(num_graphs)])

    for pool, op in ((global_sum_pool, np.sum), (global_mean_pool, np.mean),
                     (global_max_pool, np.max)):
        # sorted-batch reduceat shortcut (no grad required)
        fast = pool(Tensor(data), batch, num_graphs)
        np.testing.assert_allclose(fast.data, oracle(op), atol=1e-12)
        # autodiff fallback path (requires_grad input)
        slow = pool(Tensor(data.copy(), requires_grad=True), batch, num_graphs)
        np.testing.assert_allclose(slow.data, oracle(op), atol=1e-12)
        # inference shortcut under no_grad, even with requires_grad input
        with no_grad():
            inference = pool(Tensor(data.copy(), requires_grad=True),
                             batch, num_graphs)
        np.testing.assert_allclose(inference.data, oracle(op), atol=1e-12)

    # an unsorted batch vector must fall back to the scatter path and agree
    permutation = rng.permutation(batch.size)
    shuffled_batch = batch[permutation]
    shuffled_data = data[permutation]
    for pool, op in ((global_sum_pool, np.sum), (global_mean_pool, np.mean),
                     (global_max_pool, np.max)):
        out = pool(Tensor(shuffled_data), shuffled_batch, num_graphs)
        np.testing.assert_allclose(out.data, oracle(op), atol=1e-12)


def check_context_isolation(seed: int) -> None:
    """Concurrent ``no_grad`` scopes must not leak across threads.

    Seeded plan: 2-4 threads share one :class:`repro.nn.Linear`; thread 0
    records gradients (training), the others forward inside
    :class:`repro.nn.no_grad` scopes — nested 1-2 deep, and on some seeds
    one ``no_grad`` instance shared by every thread.  A barrier forces
    every scope to be active simultaneously; each thread then asserts its
    own view of ``is_grad_enabled`` and its forward output must be
    bit-identical to the same forward run sequentially.
    """
    import threading
    from contextlib import ExitStack

    from ..nn import Linear, Tensor, is_grad_enabled, no_grad

    rng = np.random.default_rng(seed)
    num_threads = 2 + int(rng.integers(0, 3))
    layer = Linear(6, 4, rng=np.random.default_rng(seed + 1))
    features = rng.normal(size=(5, 6))
    depth = 1 + int(rng.integers(0, 2))
    shared = no_grad() if rng.integers(0, 2) else None

    def enter_no_grad(stack: ExitStack) -> None:
        for _ in range(depth):
            stack.enter_context(shared or no_grad())

    def forward(grad):
        if grad:
            out = layer(Tensor(features.copy(), requires_grad=True))
            assert out.requires_grad and out._prev, "autodiff graph not recorded"
            return out
        with ExitStack() as stack:
            enter_no_grad(stack)
            out = layer(Tensor(features))
        assert not out.requires_grad
        return out

    expected = [forward(index == 0).data.copy() for index in range(num_threads)]

    barrier = threading.Barrier(num_threads)
    outputs: List[Optional[np.ndarray]] = [None] * num_threads
    failures: List[str] = []

    def run(index: int) -> None:
        try:
            if index == 0:
                barrier.wait()
                assert is_grad_enabled(), "no_grad leaked into training thread"
                out = forward(True)
                barrier.wait()      # overlap: every scope active right now
                assert is_grad_enabled()
                out.sum().backward()
                outputs[index] = out.data.copy()
            else:
                with ExitStack() as stack:
                    enter_no_grad(stack)
                    barrier.wait()
                    assert not is_grad_enabled(), "no_grad flag lost"
                    out = layer(Tensor(features))
                    assert not out.requires_grad
                    barrier.wait()
                    assert not is_grad_enabled()
                    outputs[index] = out.data.copy()
                assert is_grad_enabled(), "no_grad outlived its scope"
        except Exception as error:  # noqa: BLE001 - reported with the seed
            failures.append(f"thread {index}: {type(error).__name__}: {error}")
            barrier.abort()         # release peers instead of deadlocking

    threads = [threading.Thread(target=run, args=(index,))
               for index in range(num_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not failures, failures[0]
    for index in range(num_threads):
        np.testing.assert_array_equal(
            outputs[index], expected[index],
            err_msg=f"thread {index} (grad={index == 0}) diverged from its "
                    "sequential reference")
    # the spawning context itself must come out untouched
    assert is_grad_enabled()


def check_store_roundtrip(seed: int) -> None:
    """Artifact save → verify → load reproduces a model set bit for bit.

    Seeded plan: a random :class:`~repro.api.config.ReproConfig` (conv
    kind, depth, readout, encoder flags, 1-2 platforms) with scaler-fitted
    trainers over random encoded graphs is written with
    :func:`repro.store.save_trainers`; the artifact must pass
    :func:`repro.store.verify_artifact`, and the loaded trainers must
    carry bit-identical float64 state dicts (dtypes preserved), identical
    scaler payloads, and produce bit-identical float64 predictions.
    """
    import shutil
    import tempfile

    from ..api.config import DataConfig, GraphConfig, ModelConfig, READOUTS, ReproConfig
    from ..ml.dataset import GraphDataset
    from ..ml.trainer import Trainer, TrainingConfig
    from ..store.artifact import load_trainers, save_trainers, verify_artifact

    rng = np.random.default_rng(seed)
    platforms = ("NVIDIA V100", "AMD MI50")
    chosen = tuple(platforms[:1 + int(rng.integers(0, 2))])
    config = ReproConfig(
        data=DataConfig(platforms=chosen),
        graph=GraphConfig(include_terminal_flag=bool(rng.integers(0, 2)),
                          log_scale_weights=bool(rng.integers(0, 2))),
        model=ModelConfig(hidden_dim=int(rng.integers(2, 9)),
                          conv=str(rng.choice(["rgat", "rgcn"])),
                          num_conv_layers=int(rng.integers(1, 3)),
                          readout=str(rng.choice(READOUTS))),
        training=TrainingConfig(epochs=int(rng.integers(1, 5)),
                                batch_size=int(rng.integers(4, 33)),
                                seed=int(rng.integers(0, 1000))),
        seed=int(rng.integers(0, 1000)),
    )
    encoder = config.make_encoder()
    shapes = GraphGenConfig(num_nodes=(2, 12), feature_dim=encoder.feature_dim)
    dataset = GraphDataset(
        [random_encoded_graph(seed * 100 + index, shapes) for index in range(3)],
        name="synth-store")
    trainers = {}
    for platform in chosen:
        model = config.model.build(node_feature_dim=encoder.feature_dim,
                                   use_edge_weight=config.graph.use_edge_weight,
                                   seed=config.seed)
        trainer = Trainer(model, config.training)
        trainer._fit_scalers(dataset)
        trainers[platform] = trainer

    scratch = tempfile.mkdtemp(prefix="repro-store-synth-")
    try:
        path = f"{scratch}/artifact"
        save_trainers(path, trainers, config=config, encoder=encoder,
                      name=f"synth-{seed}")
        report = verify_artifact(path)
        assert report.ok, f"verify failed:\n{report.summary()}"
        loaded = load_trainers(path)
        assert loaded.config.to_dict() == config.to_dict(), \
            "config did not survive the artifact round trip"
        assert loaded.encoder.vocabulary.labels() == encoder.vocabulary.labels()
        for platform, trainer in trainers.items():
            restored = loaded.trainers[platform]
            state = trainer.model.state_dict()
            restored_state = restored.model.state_dict()
            assert set(state) == set(restored_state)
            for key, value in state.items():
                assert restored_state[key].dtype == value.dtype, \
                    f"{platform}/{key}: dtype not preserved"
                np.testing.assert_array_equal(restored_state[key], value,
                                              err_msg=f"{platform}/{key}")
            assert restored.target_scaler.to_dict() == \
                trainer.target_scaler.to_dict()
            assert restored.aux_scaler.to_dict() == trainer.aux_scaler.to_dict()
            np.testing.assert_array_equal(
                restored.predict(dataset), trainer.predict(dataset),
                err_msg=f"{platform}: float64 predictions not bit-identical")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def tiny_serving_stack(seed: int = 0):
    """A warm-started, serving-ready ``(session, platform, sources)`` triple.

    Random weights, fitted scalers, restored-results installation — the
    warm-start shape ``load_session`` produces, built in-process without
    training, so a fault case, a demo or the ``repro.obs`` CLI drives real
    serving traffic in milliseconds.
    """
    from ..api.config import DataConfig, ModelConfig, ReproConfig
    from ..api.registries import resolve_platform
    from ..api.session import Session
    from ..api.stages import PlatformResult
    from ..ml.dataset import GraphDataset
    from ..ml.trainer import History, Trainer, TrainingConfig

    rng = np.random.default_rng(seed)
    platform = resolve_platform("NVIDIA V100")
    config = ReproConfig(
        data=DataConfig(platforms=(platform.name,)),
        model=ModelConfig(hidden_dim=4, conv="rgcn", num_conv_layers=1),
        training=TrainingConfig(epochs=1, batch_size=8,
                                seed=int(rng.integers(0, 1000))),
        seed=int(rng.integers(0, 1000)),
    )
    session = Session(config)
    encoder = config.make_encoder()
    session.encoder = encoder
    shapes = GraphGenConfig(num_nodes=(2, 10), feature_dim=encoder.feature_dim)
    scaler_data = GraphDataset(
        [random_encoded_graph(seed * 7 + index, shapes) for index in range(3)],
        name="synth-serve")
    model = config.model.build(node_feature_dim=encoder.feature_dim,
                               use_edge_weight=config.graph.use_edge_weight,
                               seed=config.seed)
    trainer = Trainer(model, config.training)
    trainer._fit_scalers(scaler_data)
    placeholder = GraphDataset(name=platform.name)
    session._install_restored_results(
        {platform.name: PlatformResult(
            platform=platform, dataset=placeholder, train=placeholder,
            validation=placeholder, trainer=trainer, history=History(),
            metrics={})},
        {"name": f"synth-serve-{seed}"})
    sources = [generate_kernel(seed * 31 + index).source for index in range(3)]
    return session, platform.name, sources


def serving_plan(seed: int) -> str:
    """The plan a ``serving-contract`` seed takes: ``"chaos"`` for five
    seeds in seven, ``"concurrent"`` for the rest."""
    return "chaos" if seed % 7 < 5 else "concurrent"


def check_serving_contract(seed: int) -> None:
    """The serving contract under chaos: exact answers and complete traces.

    Seeded plan: a warm-started session serves a fixed request list (each
    source as a single, then the whole list as one job) inside an
    :func:`~repro.reliability.inject_faults` scope, a ``metrics_scope`` and
    a ``trace_requests`` collector.  Five seeds in seven take the chaos
    plan (:func:`serving_plan`): one caller, ``max_batch_size=1`` and at least one fault, so the
    execution order — and with it every per-(site, kind) fault stream —
    replays exactly by seed.  The rest take the concurrent plan: 1-3
    callers, batches of up to 3 coalesced singles, the breaker on or off,
    any subset of the faults.  Either plan draws transient forward
    failures, leader delays, admission faults, a bounded queue and (some
    seeds) an already-expired deadline.

    Invariants, checked on every case:

    * every request either yields a float64 result bit-identical to one
      fault-free reference server's answer, or raises one of the typed
      reliability errors.  A future unresolved after 10 s or a caller alive
      after 60 s is a hang; an untyped error or a drifted result is silent
      corruption;
    * every submission yields **exactly one** completed ``serve.request``
      trace — structurally validated, JSON round-tripped to a fixpoint and
      carrying its ``serve.submit`` admission span — and the accounting
      balances (``began == completed == submissions``, nothing dropped): an
      incomplete trace is a leaked request, a surplus one a double delivery.
    """
    import threading
    from concurrent.futures import TimeoutError as FutureTimeout

    from ..obs.metrics import MetricsRegistry, metrics_scope
    from ..obs.tracing import Trace, trace_requests
    from ..reliability import (
        CircuitOpenError,
        DeadlineExceeded,
        FaultPlan,
        FaultSpec,
        ServerOverloaded,
        TransientFaultError,
        inject_faults,
    )
    from ..serve import Server, ServerConfig

    rng = np.random.default_rng(seed)
    session, platform, sources = tiny_serving_stack(seed)
    typed = (DeadlineExceeded, ServerOverloaded, CircuitOpenError,
             TransientFaultError)

    menu = [
        FaultSpec("engine.forward", "raise", float(rng.uniform(0.1, 0.5))),
        FaultSpec("serve.worker", "delay", float(rng.uniform(0.1, 0.6)),
                  delay_s=float(rng.uniform(0.001, 0.003))),
        FaultSpec("serve.submit", "raise", float(rng.uniform(0.05, 0.3))),
    ]
    common = dict(default_deadline_s=5.0, retry_backoff_s=0.001,
                  breaker_reset_s=0.05)
    if serving_plan(seed) == "chaos":
        picked = [spec for spec in menu if rng.random() < 0.75] or [menu[0]]
        callers = 1
        config = ServerConfig(max_batch_size=1, max_queue_depth=8,
                              max_retries=2, breaker_threshold=4, **common)
    else:
        picked = [spec for spec in menu if rng.random() < 0.5]
        callers = int(rng.integers(1, 4))
        config = ServerConfig(max_batch_size=int(rng.integers(1, 4)),
                              max_queue_depth=16, max_retries=1,
                              breaker_threshold=int(rng.choice([0, 4])),
                              **common)
    expire_first = bool(rng.integers(0, 2))

    # fault-free float64 references (same execution path); the graph cache
    # is cleared after, so the first request of each source runs cold
    with Server(session, ServerConfig(max_retries=0,
                                      breaker_threshold=0)) as clean:
        references = [float(clean.predict_batch([source], platform)[0])
                      for source in sources]
        reference_batch = clean.predict_batch(sources, platform)
    session.clear_cache()

    def run_traffic(server) -> int:
        submissions = 0
        pending = []
        for index, source in enumerate(sources):
            deadline_s = 0.0 if expire_first and index == 0 else None
            submissions += 1
            try:
                future = server.submit(source, platform,
                                       deadline_s=deadline_s)
            except typed:
                continue            # typed admission rejection: allowed
            pending.append((index, future))
        for index, future in pending:
            # note the order: DeadlineExceeded *is* a TimeoutError (and
            # py3.11 aliases concurrent.futures.TimeoutError to it), so
            # typed errors must be recognised before the hang detector
            try:
                value = future.result(timeout=10.0)
            except typed:
                continue            # typed failure: allowed
            except FutureTimeout:
                raise AssertionError(
                    f"request {index} hung (future unresolved after 10s)")
            assert float(value) == references[index], (
                f"request {index} silently corrupted: got {value!r}, "
                f"fault-free reference {references[index]!r}")
        submissions += 1
        try:
            batch = server.predict_batch(sources, platform, deadline_s=5.0)
        except typed:
            pass
        else:
            np.testing.assert_array_equal(
                batch, reference_batch,
                err_msg="whole-job batch silently corrupted under faults")
        return submissions

    def serve_all() -> int:
        counts: List[int] = []
        failures: List[BaseException] = []

        def client() -> None:
            try:
                counts.append(run_traffic(server))
            except Exception as error:  # noqa: BLE001 - re-raised below
                failures.append(error)

        threads = [threading.Thread(target=client) for _ in range(callers)]
        with Server(session, config) as server:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads), (
            "a caller hung past 60s")
        if failures:
            raise failures[0]
        return sum(counts)

    with metrics_scope(MetricsRegistry()):
        with trace_requests(capacity=64) as collector:
            if picked:
                with inject_faults(FaultPlan(seed, picked)):
                    submissions = serve_all()
            else:
                submissions = serve_all()

    stats = collector.stats()
    assert stats["began"] == submissions, (
        f"{submissions} submissions began {stats['began']} traces")
    assert stats["completed"] == submissions, (
        f"only {stats['completed']} of {submissions} traces completed "
        "(an incomplete trace is a leaked request)")
    assert stats["dropped"] == 0, f"collector dropped {stats['dropped']}"
    traces = collector.traces()
    assert len(traces) == submissions
    for trace in traces:
        assert trace.root.name == "serve.request", trace.root.name
        trace.validate()            # raises TraceError on a malformed tree
        payload = trace.to_json()
        assert Trace.from_json(payload).to_json() == payload, (
            "trace JSON round-trip is not a fixpoint")
        assert trace.root.find("serve.submit") is not None, (
            "trace lacks its admission span:\n" + trace.render())
        if trace.root.status == "error":
            assert trace.root.error, "error trace without error text"


def check_packed_forward_parity(seed: int) -> None:
    """Packed multi-graph inference is bit-identical to solo predictions.

    Seeded plan: a small :class:`~repro.gnn.models.ParaGraphModel`
    (seed-chosen conv kind, depth, heads and readout) with fitted scalers
    predicts 2-6 random graphs one at a time — each a pack of one — and
    then all together through :meth:`~repro.ml.trainer.Trainer.predict_packed`
    under several random packing orders.  Every packed float64 result must
    equal its solo answer **bit for bit**: the packed kernel keeps all BLAS
    calls at solo shapes, so batch composition must not change a single bit
    (the contract SERVING.md's "Packed batching" section documents).  So
    that the solo answer is not only checked against itself, each graph's
    raw model output must also match the collated ``no_grad`` forward
    (:meth:`~repro.gnn.models.ParaGraphModel.predict`) to rounding.
    """
    from ..gnn.models import ParaGraphModel
    from ..gnn.packing import pack_graphs
    from ..ml.dataset import GraphDataset
    from ..ml.trainer import Trainer, TrainingConfig
    from ..paragraph.encoders import GraphEncoder

    rng = np.random.default_rng(seed)
    num_relations = int(rng.choice([1, 2, NUM_EDGE_TYPES]))
    shapes = GraphGenConfig(num_nodes=_GNN_SHAPES.num_nodes,
                            feature_dim=_GNN_SHAPES.feature_dim,
                            num_relations=num_relations)
    num_graphs = 2 + int(rng.integers(0, 5))
    graphs = [random_encoded_graph(seed * 1000 + index, shapes)
              for index in range(num_graphs)]
    model = ParaGraphModel(
        node_feature_dim=shapes.feature_dim,
        hidden_dim=int(rng.integers(2, 7)),
        num_relations=num_relations,
        num_conv_layers=int(rng.integers(1, 3)),
        conv=str(rng.choice(["rgat", "rgcn"])),
        heads=int(rng.integers(1, 3)),
        readout=str(rng.choice(["mean", "sum", "mean_max"])),
        seed=seed,
    )
    trainer = Trainer(model, TrainingConfig(epochs=1))
    trainer._fit_scalers(GraphDataset(graphs, name="synth-packed"))
    for index, graph in enumerate(graphs):
        solo = pack_graphs([graph], num_relations)
        solo.aux_features = trainer.aux_scaler.transform(solo.aux_features)
        collated = trainer._scaled_batch(GraphEncoder.collate([graph]))
        np.testing.assert_allclose(
            model.predict_packed(solo), model.predict(collated), rtol=1e-12,
            atol=1e-12, err_msg=f"graph {index}: packed kernel vs collated "
                                "no_grad forward")
    reference = np.concatenate([
        trainer.predict(GraphDataset([graph], name="solo"))
        for graph in graphs])
    for _ in range(2):
        order = rng.permutation(num_graphs)
        packed = trainer.predict_packed([graphs[index] for index in order])
        np.testing.assert_array_equal(
            packed, reference[order],
            err_msg=f"packing order {order.tolist()} changed float64 bits")
    # a one-graph list rides the same path serving's singles use
    np.testing.assert_array_equal(trainer.predict_packed(graphs[:1]),
                                  reference[:1])


#: (teams, threads) contexts the staged-encode scenario draws from
_STAGED_CONTEXTS = tuple((teams, threads) for teams in (1, 8, 64, 256)
                         for threads in (1, 4, 16, 64))
#: the encoded arrays the staged-encode scenario compares
_ENCODED_ARRAYS = ("node_features", "edge_index", "edge_type", "edge_weight",
                   "aux_features")


def _snippet_body(source: str) -> str:
    """The statements of a one-function kernel, for snippet-mode parsing."""
    return source[source.index("{") + 1:source.rindex("}")]


def check_staged_encode_parity(seed: int) -> None:
    """The staged session encode equals a fresh encode, spec for spec.

    ``Session._encode_specs`` parses, builds and encodes each distinct
    source text once per call and re-weights it for every other context
    (problem sizes, teams, threads) of that text.  Seeded plan: a session
    under a graph variant and parse mode chosen by ``seed % 6`` (so any 6
    consecutive seeds cover all three variants, each with full sources and
    with snippets), seed-chosen encoder flags and default trip count,
    encodes one shuffled batch: the legal variants of a seed-chosen paper
    kernel at 3 problem sizes × 3 contexts, 2 generated kernels under 3
    contexts, and repeats of some full keys.  Specs of one text carry
    different names.

    Invariant: every spec's graph equals a fresh ``parse → analyze →
    build_paragraph → GraphEncoder.encode`` under that spec — same dtype
    and :func:`numpy.testing.assert_array_equal` on all five arrays, same
    name.  The graphs of one text share their structure arrays, which are
    read-only, and a second call returns the cached graphs themselves.
    """
    from ..advisor import generate_all_variants
    from ..api.config import GraphConfig, ReproConfig
    from ..api.session import Session
    from ..api.stages import SourceSpec
    from ..clang.parser import parse_snippet
    from ..clang.semantics import ConstantEnvironment
    from ..kernels import all_kernels
    from .source_gen import SourceGenConfig

    rng = np.random.default_rng(seed)
    variant = list(GraphVariant)[seed % 3]
    snippet = (seed // 3) % 2 == 1
    graph_config = GraphConfig(variant=variant,
                               default_trip_count=int(rng.choice([4, 16, 50])),
                               include_terminal_flag=bool(rng.integers(0, 2)),
                               log_scale_weights=bool(rng.integers(0, 2)))
    session = Session(ReproConfig(graph=graph_config))

    def text(source: str) -> str:
        return _snippet_body(source) if snippet else source

    def contexts():
        picks = rng.choice(len(_STAGED_CONTEXTS), size=3, replace=False)
        return [_STAGED_CONTEXTS[int(index)] for index in picks]

    specs = []
    kernels = all_kernels()
    kernel = kernels[int(rng.integers(0, len(kernels)))]
    for factor in rng.choice([0.25, 0.5, 1.0, 2.0, 3.0], size=3, replace=False):
        # parameters of at most 8 are shapes (feature counts), kept as is
        sizes = kernel.sizes_with_defaults({
            name: max(int(value * factor), 9)
            for name, value in kernel.default_sizes.items() if value > 8})
        for kernel_variant in generate_all_variants(kernel, sizes):
            for teams, threads in contexts():
                specs.append(SourceSpec(text(kernel_variant.source), sizes,
                                        teams, threads))
    shapes = SourceGenConfig(max_block_statements=2, max_loop_depth=2)
    for index in range(2):
        generated = generate_kernel(seed * 7 + index, shapes)
        sizes = {name: int(rng.choice([16, 100, 1000]))
                 for name in generated.size_params}
        for teams, threads in contexts():
            specs.append(SourceSpec(text(generated.source), sizes,
                                    teams, threads))
    # names differ among the specs of one text; a repeated key is served
    # from its first spec's graph, name included, so repeats keep theirs
    for index, spec in enumerate(specs):
        spec.name = f"spec-{index}" if rng.random() < 0.5 else ""
    repeats = rng.choice(len(specs), size=4, replace=False)
    specs += [SourceSpec(specs[i].source, dict(specs[i].sizes),
                         specs[i].num_teams, specs[i].num_threads,
                         specs[i].name) for i in repeats]
    specs = [specs[int(i)] for i in rng.permutation(len(specs))]

    staged = session._encode_specs(specs, snippet=snippet)
    first_of_key = {}
    structure_of_text = {}
    for spec, graph in zip(specs, staged):
        key = session._cache_key(spec, snippet)
        if key in first_of_key:
            # a repeated key is served from its first spec's graph
            assert graph is first_of_key[key], "repeated key re-encoded"
            continue
        first_of_key[key] = graph
        if snippet:
            ast = parse_snippet(spec.source)
        else:
            ast = parse_source(spec.source, filename=spec.name or "<repro.api>")
        analyze(ast)
        fresh = session.encoder.encode(
            build_paragraph(ast, variant=variant,
                            num_threads=spec.num_threads,
                            num_teams=spec.num_teams,
                            env=ConstantEnvironment(dict(spec.sizes)),
                            default_trip_count=graph_config.default_trip_count,
                            name=spec.name),
            num_teams=spec.num_teams, num_threads=spec.num_threads,
            name=spec.name)
        for field_name in _ENCODED_ARRAYS:
            got, want = getattr(graph, field_name), getattr(fresh, field_name)
            assert got.dtype == want.dtype, \
                f"{field_name}: dtype {got.dtype} != {want.dtype}"
            np.testing.assert_array_equal(
                got, want, err_msg=f"{field_name} of {spec.name or 'spec'} "
                f"under {spec.num_teams}x{spec.num_threads} {spec.sizes}")
        assert graph.name == fresh.name, f"name {graph.name!r} != {fresh.name!r}"
        shared = structure_of_text.setdefault(spec.source, graph)
        for field_name in ("node_features", "edge_index", "edge_type"):
            array = getattr(graph, field_name)
            assert array is getattr(shared, field_name), \
                f"{field_name} not shared across contexts of one text"
            assert not array.flags.writeable, f"shared {field_name} writeable"
    assert len(structure_of_text) < len(first_of_key), "no text recurred"
    again = session._encode_specs(specs, snippet=snippet)
    assert all(a is b for a, b in zip(again, staged)), "cache hit re-encoded"


def check_analysis_planted_defects(seed: int) -> None:
    """Score the static-analysis checkers against planted ground truth.

    The clean control kernel must produce an empty report (zero false
    positives); the defected twin must produce exactly the planted issues
    (recall 1.0 per checker class, matched on checker + variable + line),
    and the report must round-trip through the JSON schema.
    """
    from ..analysis import AnalyzerRunner, Report

    runner = AnalyzerRunner()
    clean = generate_defect_kernel(seed, clean=True)
    clean_report = runner.analyze_source(clean.source, file=clean.name)
    assert not clean_report.issues, \
        f"false positives on the clean control: " \
        f"{[issue.render() for issue in clean_report.issues]}"

    kernel = generate_defect_kernel(seed)
    report = runner.analyze_source(kernel.source, file=kernel.name)
    planted = {(d.checker, d.variable, d.line) for d in kernel.defects}
    found = {(i.checker, i.variable, i.line) for i in report.issues}
    assert planted <= found, f"missed planted defects: {planted - found}"
    assert found <= planted, f"unplanted findings: {found - planted}"
    # one planted defect per checker class, every class exercised
    assert {d.checker for d in kernel.defects} == {
        "uninit-read", "dead-store", "array-bounds", "omp-race",
        "loop-carried-dep"}

    rebuilt = Report.from_json(report.to_json())
    assert rebuilt == report, "JSON round trip changed the report"


def check_config_roundtrip(seed: int) -> None:
    from ..api.config import DataConfig, GraphConfig, ModelConfig, READOUTS, ReproConfig
    from ..ml.trainer import TrainingConfig

    rng = np.random.default_rng(seed)
    platforms = ("AMD EPYC7401", "AMD MI50", "IBM POWER9", "NVIDIA V100")
    chosen = tuple(sorted(rng.choice(platforms,
                                     size=int(rng.integers(1, 5)),
                                     replace=False)))
    config = ReproConfig(
        data=DataConfig(platforms=chosen,
                        noisy_runtimes=bool(rng.integers(0, 2)),
                        min_platform_samples=int(rng.integers(2, 9))),
        graph=GraphConfig(variant=str(rng.choice([v.value for v in GraphVariant])),
                          default_trip_count=int(rng.integers(1, 65)),
                          include_terminal_flag=bool(rng.integers(0, 2)),
                          log_scale_weights=bool(rng.integers(0, 2))),
        model=ModelConfig(hidden_dim=int(rng.integers(1, 65)),
                          conv=str(rng.choice(["rgat", "rgcn"])),
                          readout=str(rng.choice(READOUTS)),
                          num_conv_layers=int(rng.integers(1, 4)),
                          heads=int(rng.integers(1, 3)),
                          dropout=float(rng.uniform(0.0, 0.9))),
        training=TrainingConfig(epochs=int(rng.integers(1, 20)),
                                batch_size=int(rng.integers(1, 64)),
                                seed=int(rng.integers(0, 1000))),
        train_fraction=float(rng.uniform(0.1, 0.9)),
        seed=int(rng.integers(0, 10_000)),
    )
    payload = config.to_dict()
    # the dict is JSON-safe and the round trip is a fixpoint
    rebuilt = ReproConfig.from_dict(json.loads(json.dumps(payload)))
    assert rebuilt.to_dict() == payload
    assert rebuilt.graph.variant is config.graph.variant
    assert rebuilt.model == config.model


# --------------------------------------------------------------------- #
# the scenario registry and the case runner
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class ScenarioSpec:
    """A named differential scenario: the check plus its default case count."""

    name: str
    check: Callable[[int], None]
    default_cases: int
    layer: str

    def seeds(self, count: Optional[int] = None) -> List[int]:
        return seeds_for(self.name, count)


SCENARIOS: Dict[str, ScenarioSpec] = {}


def _register(name: str, check: Callable[[int], None], default_cases: int,
              layer: str) -> None:
    SCENARIOS[name] = ScenarioSpec(name, check, default_cases, layer)


_register("lexer-roundtrip", check_lexer_roundtrip, 40, "clang")
_register("parser-roundtrip", check_parser_roundtrip, 40, "clang")
_register("paragraph-invariants", check_paragraph_invariants, 48, "paragraph")
_register("graph-validity", check_graph_validity, 40, "paragraph")
_register("gnn-forward-parity", check_gnn_forward_parity, 24, "gnn")
_register("gnn-gradient-parity", check_gnn_gradient_parity, 8, "gnn")
_register("pooling-paths", check_pooling_paths, 16, "gnn")
_register("config-roundtrip", check_config_roundtrip, 16, "api")
_register("store-roundtrip", check_store_roundtrip, 6, "store")
_register("serving-context-isolation", check_context_isolation, 6, "serve")
_register("serving-contract", check_serving_contract, 70, "reliability")
_register("packed-forward-parity", check_packed_forward_parity, 16, "gnn")
_register("analysis-planted-defects", check_analysis_planted_defects, 20,
          "analysis")
_register("staged-encode-parity", check_staged_encode_parity, 24, "api")

#: sum of the per-scenario defaults — the tier-1 corpus size.
DEFAULT_TOTAL_CASES = sum(spec.default_cases for spec in SCENARIOS.values())


def scenario_names() -> List[str]:
    return list(SCENARIOS)


def _corpus_scale() -> float:
    """Multiplier derived from ``REPRO_SYNTH_CASES`` (total corpus target)."""
    raw = os.environ.get(CASES_ENV, "").strip()
    if not raw:
        return 1.0
    try:
        total = int(raw)
    except ValueError:
        raise ValueError(
            f"{CASES_ENV} must be an integer total case count, got {raw!r}")
    if total < 1:
        raise ValueError(f"{CASES_ENV} must be >= 1, got {total}")
    return total / DEFAULT_TOTAL_CASES


def _base_salt() -> int:
    raw = os.environ.get(SEED_ENV, "").strip()
    return int(raw) if raw else 0


def cases_for(name: str) -> int:
    """Number of cases scenario *name* runs at the current scale."""
    spec = SCENARIOS[name]
    return max(2, int(round(spec.default_cases * _corpus_scale())))


def seeds_for(name: str, count: Optional[int] = None) -> List[int]:
    """The deterministic seed list of a scenario (stable across runs)."""
    if count is None:
        count = cases_for(name) if name in SCENARIOS else 0
    salt = _base_salt()
    base = (zlib.crc32(name.encode("utf-8")) ^ (salt * 0x9E3779B1)) & 0x7FFFFFFF
    return [base + index for index in range(count)]


@dataclass(frozen=True)
class HarnessReport:
    """Outcome of one scenario sweep."""

    scenario: str
    cases: int
    failures: Tuple[Tuple[int, str], ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures


def _format_failures(name: str, report: HarnessReport) -> str:
    shown = report.failures[:MAX_REPORTED_FAILURES]
    seeds = [seed for seed, _ in shown]
    lines = [
        f"synth scenario {name!r}: {len(report.failures)}/{report.cases} "
        f"cases failed (failing seeds: {seeds}"
        + (", truncated" if len(report.failures) > len(shown) else "") + ")",
        "reproduce one case with:",
        f"  PYTHONPATH=src python -m repro.synth {name} {seeds[0]}",
    ]
    seed, error = shown[0]
    lines.append(f"first failure (seed {seed}): {error}")
    return "\n".join(lines)


def run_cases(name: str, check: Optional[Callable[[int], None]] = None,
              seeds: Optional[Sequence[int]] = None,
              count: Optional[int] = None) -> HarnessReport:
    """Run *check* over the scenario's seeds; raise with seeds on failure.

    With only *name* given, the registered scenario runs at the current
    corpus scale.  Pass *check* to sweep an unregistered (e.g. fixture-bound)
    invariant through the same reporting machinery.
    """
    if check is None:
        check = SCENARIOS[name].check
    if seeds is None:
        seeds = seeds_for(name, count) if name in SCENARIOS else \
            seeds_for(name, count or 0)
    seeds = list(seeds)
    if not seeds:
        raise ValueError(
            f"scenario {name!r} resolved to zero cases; unregistered scenarios "
            "must pass an explicit non-empty `seeds` (or `count`) so a sweep "
            "can never silently pass by running nothing")
    failures: List[Tuple[int, str]] = []
    for seed in seeds:
        try:
            check(int(seed))
        except Exception as error:  # noqa: BLE001 - reported with its seed
            # first non-empty line: numpy assertion messages start with '\n'
            detail = next((line.strip() for line in str(error).splitlines()
                           if line.strip()), "")
            failures.append((int(seed),
                             f"{type(error).__name__}: {detail}"[:400]))
    report = HarnessReport(scenario=name, cases=len(seeds),
                           failures=tuple(failures))
    if not report.ok:
        raise AssertionError(_format_failures(name, report))
    return report


def reproduce(name: str, seed: int) -> None:
    """Re-run exactly one generated case of a registered scenario."""
    if name not in SCENARIOS:
        raise KeyError(
            f"unknown synth scenario {name!r}; known scenarios: {scenario_names()}")
    SCENARIOS[name].check(int(seed))


def corpus_total_cases() -> int:
    """Total number of cases the corpus runs at the current scale."""
    return sum(cases_for(name) for name in SCENARIOS)
