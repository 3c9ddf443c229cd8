"""ParaGraph property suite: structural invariants over the synth corpus.

Sweeps the ``paragraph-invariants`` scenario (generated kernels through
parse → analyze → build → encode), the ``graph-validity`` scenario
(random graphs straight from :mod:`repro.synth.graph_gen`) and the
``staged-encode-parity`` scenario (the session's staged encode against a
fresh one), plus targeted assertions about the invariants themselves.
"""

import numpy as np
import pytest

from repro.clang import analyze, parse_source
from repro.paragraph import EdgeType, GraphVariant, build_paragraph
from repro.paragraph.graph import ParaGraph
from repro.synth import GraphGenConfig, random_paragraph, run_cases


class TestCorpusSweeps:
    def test_paragraph_invariants_corpus(self):
        report = run_cases("paragraph-invariants")
        assert report.ok and report.cases >= 2

    def test_graph_validity_corpus(self):
        report = run_cases("graph-validity")
        assert report.ok and report.cases >= 2

    def test_staged_encode_parity_corpus(self):
        # structure once per text + weights per context == fresh encode
        report = run_cases("staged-encode-parity")
        assert report.ok and report.cases >= 6


class TestInvariantMachinery:
    """The invariants must actually bite: broken graphs must fail them."""

    def test_validate_rejects_dangling_edge(self):
        from repro.paragraph.edges import Edge
        graph = ParaGraph()
        graph.add_node("VarDecl")
        graph.edges.append(Edge(0, 5, EdgeType.REF, 0.0))
        with pytest.raises(ValueError, match="dangling"):
            graph.validate()

    def test_validate_rejects_weighted_augmentation_edge(self):
        from repro.paragraph.edges import Edge
        graph = ParaGraph()
        graph.add_node("VarDecl")
        graph.add_node("DeclRefExpr")
        graph.edges.append(Edge(0, 1, EdgeType.NEXT_SIB, 2.0))
        with pytest.raises(ValueError, match="non-zero weight"):
            graph.validate()

    def test_validate_rejects_zero_weight_child_edge(self):
        from repro.paragraph.edges import Edge
        graph = ParaGraph()
        graph.add_node("IfStmt")
        graph.add_node("BinaryOperator")
        graph.edges.append(Edge(0, 1, EdgeType.CHILD, 0.0))
        with pytest.raises(ValueError, match="non-positive weight"):
            graph.validate()


class TestDegreeSkewAndCorners:
    def test_hub_exponent_skews_in_degree(self):
        flat = GraphGenConfig(num_nodes=(60, 60), hub_exponent=0.0,
                              corner_probability=0.0, edges_per_node=(3.0, 3.0))
        skewed = GraphGenConfig(num_nodes=(60, 60), hub_exponent=2.5,
                                corner_probability=0.0, edges_per_node=(3.0, 3.0))

        def max_in_degree(config):
            degrees = []
            for seed in range(6):
                graph = random_paragraph(seed, config)
                dst = graph.edge_index()[1]
                degrees.append(np.bincount(dst, minlength=graph.num_nodes).max())
            return np.mean(degrees)

        assert max_in_degree(skewed) > max_in_degree(flat)

    def test_isolated_nodes_exist_somewhere_in_corpus(self):
        found = False
        for seed in range(40):
            graph = random_paragraph(seed)
            if graph.num_edges == 0 and graph.num_nodes > 1:
                continue
            touched = set(graph.edge_index().ravel().tolist()) if graph.num_edges else set()
            if len(touched) < graph.num_nodes:
                found = True
                break
        assert found, "corpus never produced an isolated node"


class TestVariantNesting:
    SOURCE = (
        "void f(int n, double *A) {\n"
        "  for (int i = 0; i < n; i++) {\n"
        "    if (i > 2) { A[i] = A[i - 1]; } else { A[i] = 0.0; }\n"
        "  }\n"
        "}\n"
    )

    def test_variant_edge_sets_nest(self):
        ast = analyze(parse_source(self.SOURCE))
        raw = build_paragraph(ast, variant=GraphVariant.RAW_AST)
        augmented = build_paragraph(ast, variant=GraphVariant.AUGMENTED_AST)
        full = build_paragraph(ast, variant=GraphVariant.PARAGRAPH)
        assert raw.num_edges < augmented.num_edges == full.num_edges
        # augmentation never changes the node set
        assert raw.num_nodes == augmented.num_nodes == full.num_nodes
        # weights are the only difference between augmented and full
        augmented_types = [e.as_tuple()[:3] for e in augmented.edges]
        full_types = [e.as_tuple()[:3] for e in full.edges]
        assert augmented_types == full_types
        assert any(e.weight > 1.0 for e in full.edges
                   if e.edge_type is EdgeType.CHILD)
