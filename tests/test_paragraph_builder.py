"""Tests for the AST → ParaGraph construction, including the Fig. 2 scenarios."""

import gc
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clang import ConstantEnvironment, analyze, parse_snippet, parse_source
from repro.paragraph import (
    EdgeType,
    GraphEncoder,
    GraphVariant,
    ParaGraphBuilder,
    WeightConfig,
    build_paragraph,
)


def build(source, **kwargs):
    ast = analyze(parse_snippet(source))
    return build_paragraph(ast, **kwargs)


def edge_pairs(graph, edge_type):
    return [(graph.nodes[e.src].label, graph.nodes[e.dst].label)
            for e in graph.edges_of_type(edge_type)]


class TestBasicConstruction:
    def test_one_graph_node_per_ast_node(self):
        ast = analyze(parse_snippet("int x = 1; x = x + 2;"))
        graph = build_paragraph(ast)
        assert graph.num_nodes == sum(1 for _ in ast.walk())

    def test_child_edges_equal_nodes_minus_one(self):
        # a tree has exactly n-1 parent-child edges
        graph = build("int x = 1; if (x) { x = 2; } else { x = 3; }")
        assert len(graph.edges_of_type(EdgeType.CHILD)) == graph.num_nodes - 1

    def test_graph_validates(self):
        build("for (int i = 0; i < 10; i++) { a[i] = i; }").validate()

    def test_node_labels_are_ast_kinds(self):
        graph = build("x = 50;")
        assert "BinaryOperator" in graph.node_labels()
        assert "IntegerLiteral" in graph.node_labels()

    def test_terminal_flag_set_on_tokens(self):
        graph = build("x = 50;")
        terminal_labels = {n.label for n in graph.nodes if n.is_terminal}
        assert "IntegerLiteral" in terminal_labels
        assert "CompoundStmt" not in terminal_labels


class TestNextTokenEdges:
    def test_token_chain_length(self):
        graph = build("int x; x = 50;")
        terminals = [n for n in graph.nodes if n.is_terminal]
        next_token = graph.edges_of_type(EdgeType.NEXT_TOKEN)
        assert len(next_token) == len(terminals) - 1

    def test_chain_connects_left_to_right(self):
        graph = build("a = b;")
        # terminal order: a (DeclRefExpr), b (DeclRefExpr)
        edges = graph.edges_of_type(EdgeType.NEXT_TOKEN)
        assert len(edges) == 1
        assert graph.nodes[edges[0].src].spelling == "a"
        assert graph.nodes[edges[0].dst].spelling == "b"

    def test_no_next_token_in_raw_ast(self):
        graph = build("a = b;", variant=GraphVariant.RAW_AST)
        assert graph.edges_of_type(EdgeType.NEXT_TOKEN) == []


class TestNextSibEdges:
    def test_siblings_chained(self):
        graph = build("x = 1; y = 2; z = 3;")
        # the three assignments are siblings under the root CompoundStmt
        sib_edges = graph.edges_of_type(EdgeType.NEXT_SIB)
        root_children_edges = [e for e in sib_edges if e.src in (1, graph.nodes[1].node_id)]
        assert len(sib_edges) >= 2

    def test_sib_count_matches_sum_over_parents(self):
        source = "for (int i = 0; i < 4; i++) { a[i] = i; }"
        ast = analyze(parse_snippet(source))
        graph = build_paragraph(ast)
        expected = sum(max(len(node.children) - 1, 0) for node in ast.walk())
        assert len(graph.edges_of_type(EdgeType.NEXT_SIB)) == expected


class TestRefEdges:
    def test_ref_edge_to_declaration(self):
        graph = build("int x; x = 50;")
        refs = edge_pairs(graph, EdgeType.REF)
        assert ("DeclRefExpr", "VarDecl") in refs

    def test_ref_count_matches_resolved_uses(self):
        graph = build("int x; int y; y = x + x + y;")
        assert len(graph.edges_of_type(EdgeType.REF)) == 4  # x, x, y (rhs), y (lhs)

    def test_unresolved_reference_has_no_edge(self):
        graph = build("y = sqrt(2.0);")
        for src_label, dst_label in edge_pairs(graph, EdgeType.REF):
            assert dst_label != "FunctionDecl"


class TestLoopEdges:
    def test_forexec_and_fornext_counts(self):
        graph = build("for (int i = 0; i < 50; i++) { x += i; }")
        assert len(graph.edges_of_type(EdgeType.FOR_EXEC)) == 2
        assert len(graph.edges_of_type(EdgeType.FOR_NEXT)) == 2

    def test_forexec_connects_init_cond_body(self):
        graph = build("for (int i = 0; i < 50; i++) { x += i; }")
        pairs = edge_pairs(graph, EdgeType.FOR_EXEC)
        assert ("DeclStmt", "BinaryOperator") in pairs      # init -> cond
        assert ("BinaryOperator", "CompoundStmt") in pairs  # cond -> body

    def test_fornext_connects_body_inc_cond(self):
        graph = build("for (int i = 0; i < 50; i++) { x += i; }")
        pairs = edge_pairs(graph, EdgeType.FOR_NEXT)
        assert ("CompoundStmt", "UnaryOperator") in pairs   # body -> inc
        assert ("UnaryOperator", "BinaryOperator") in pairs  # inc -> cond

    def test_nested_loops_double_the_edges(self):
        graph = build(
            "for (int i = 0; i < 4; i++) { for (int j = 0; j < 4; j++) { x += j; } }")
        assert len(graph.edges_of_type(EdgeType.FOR_EXEC)) == 4
        assert len(graph.edges_of_type(EdgeType.FOR_NEXT)) == 4


class TestIfEdges:
    def test_contrue_and_confalse(self):
        graph = build("if (x > 50) { a = 1; } else { a = 2; }")
        assert len(graph.edges_of_type(EdgeType.CON_TRUE)) == 1
        assert len(graph.edges_of_type(EdgeType.CON_FALSE)) == 1

    def test_if_without_else_has_no_confalse(self):
        graph = build("if (x > 50) { a = 1; }")
        assert len(graph.edges_of_type(EdgeType.CON_TRUE)) == 1
        assert graph.edges_of_type(EdgeType.CON_FALSE) == []

    def test_contrue_source_is_condition(self):
        graph = build("if (x > 50) { a = 1; } else { a = 2; }")
        edge = graph.edges_of_type(EdgeType.CON_TRUE)[0]
        assert graph.nodes[edge.src].label == "BinaryOperator"
        assert graph.nodes[edge.dst].label == "CompoundStmt"


class TestWeights:
    def test_figure2_loop_weights(self):
        """The for-loop example of Fig. 2: init keeps weight 1, the condition,
        body and increment children get the 50-iteration weight."""
        graph = build("for (int i = 0; i < 50; i++) { x += i; }")
        for_node = [n for n in graph.nodes if n.label == "ForStmt"][0]
        child_edges = [e for e in graph.edges_of_type(EdgeType.CHILD)
                       if e.src == for_node.node_id]
        weights = {graph.nodes[e.dst].label: e.weight for e in child_edges}
        assert weights["DeclStmt"] == pytest.approx(1.0)
        assert weights["BinaryOperator"] == pytest.approx(50.0)
        assert weights["CompoundStmt"] == pytest.approx(50.0)
        assert weights["UnaryOperator"] == pytest.approx(50.0)

    def test_figure2_if_weights_halved_inside_loop(self):
        """The if example of Fig. 2: inside a 50-iteration loop the condition
        edge carries 50 while each branch carries 25."""
        graph = build(
            "for (int i = 0; i < 50; i++) { if (i > 25) { a[i] = 1; } else { a[i] = 2; } }")
        if_node = [n for n in graph.nodes if n.label == "IfStmt"][0]
        child_edges = [e for e in graph.edges_of_type(EdgeType.CHILD)
                       if e.src == if_node.node_id]
        weights = sorted(e.weight for e in child_edges)
        assert weights == pytest.approx([25.0, 25.0, 50.0])

    def test_statement_outside_loop_has_weight_one(self):
        graph = build("x = 50;")
        for edge in graph.edges_of_type(EdgeType.CHILD):
            assert edge.weight == pytest.approx(1.0)

    def test_nested_loops_multiply_weights(self):
        graph = build(
            "for (int i = 0; i < 10; i++) { for (int j = 0; j < 20; j++) { x += j; } }")
        max_weight = max(e.weight for e in graph.edges_of_type(EdgeType.CHILD))
        assert max_weight == pytest.approx(200.0)

    def test_thread_division_with_omp_parallel_for(self):
        source = ("#pragma omp parallel for\n"
                  "for (int i = 0; i < 100; i++) { x += i; }")
        graph = build(source, num_threads=4)
        weights = [e.weight for e in graph.edges_of_type(EdgeType.CHILD)]
        # 100 iterations statically shared by 4 threads -> 25 (paper example)
        assert max(weights) == pytest.approx(25.0)

    def test_teams_times_threads_division_for_target_directive(self):
        source = ("#pragma omp target teams distribute parallel for\n"
                  "for (int i = 0; i < 1000; i++) { x += i; }")
        graph = build(source, num_threads=10, num_teams=10)
        weights = [e.weight for e in graph.edges_of_type(EdgeType.CHILD)]
        assert max(weights) == pytest.approx(10.0)

    def test_environment_binds_symbolic_bounds(self):
        graph = build("for (int i = 0; i < N; i++) { x += i; }",
                      env=ConstantEnvironment({"N": 64}))
        assert max(e.weight for e in graph.edges_of_type(EdgeType.CHILD)) == pytest.approx(64.0)

    def test_unknown_bound_uses_default_trip_count(self):
        graph = build("for (int i = 0; i < n_unknown; i++) { x += i; }",
                      default_trip_count=7)
        assert max(e.weight for e in graph.edges_of_type(EdgeType.CHILD)) == pytest.approx(7.0)

    def test_weights_always_positive(self):
        graph = build("if (c) { if (d) { if (e) { x = 1; } } }")
        for edge in graph.edges_of_type(EdgeType.CHILD):
            assert edge.weight > 0

    def test_counts_saturate_at_the_largest_float(self):
        # 20 nested loops of 2**62 iterations: the product leaves the float
        # range, so the innermost counts saturate instead of becoming inf
        source = "".join(f"for (int i{k} = 0; i{k} < (1 << 62); i{k}++) {{ "
                         for k in range(20)) + "x += 1;" + " }" * 20
        graph = build(source)
        weights = [e.weight for e in graph.edges_of_type(EdgeType.CHILD)]
        assert max(weights) == sys.float_info.max
        assert np.isfinite(GraphEncoder().encode(graph).edge_weight).all()


class TestVariants:
    SOURCE = "for (int i = 0; i < 9; i++) { if (i > 4) { a[i] = i; } }"

    def test_raw_ast_has_only_child_edges(self):
        graph = build(self.SOURCE, variant=GraphVariant.RAW_AST)
        counts = graph.edge_type_counts()
        assert counts[EdgeType.CHILD] == graph.num_edges

    def test_raw_ast_weights_are_one(self):
        graph = build(self.SOURCE, variant=GraphVariant.RAW_AST)
        assert all(e.weight == 1.0 for e in graph.edges)

    def test_augmented_ast_has_new_edges_but_unit_weights(self):
        graph = build(self.SOURCE, variant=GraphVariant.AUGMENTED_AST)
        counts = graph.edge_type_counts()
        assert counts[EdgeType.FOR_EXEC] == 2
        assert all(e.weight == 1.0 for e in graph.edges_of_type(EdgeType.CHILD))

    def test_paragraph_has_new_edges_and_weights(self):
        graph = build(self.SOURCE, variant=GraphVariant.PARAGRAPH)
        assert max(e.weight for e in graph.edges_of_type(EdgeType.CHILD)) > 1.0

    def test_same_node_count_across_variants(self):
        node_counts = {
            variant: build(self.SOURCE, variant=variant).num_nodes
            for variant in GraphVariant
        }
        assert len(set(node_counts.values())) == 1

    def test_edge_count_ordering_raw_lt_augmented_eq_paragraph(self):
        raw = build(self.SOURCE, variant=GraphVariant.RAW_AST).num_edges
        augmented = build(self.SOURCE, variant=GraphVariant.AUGMENTED_AST).num_edges
        full = build(self.SOURCE, variant=GraphVariant.PARAGRAPH).num_edges
        assert raw < augmented == full


class TestOnRealKernels:
    def test_all_registry_kernels_build_valid_graphs(self):
        from repro.kernels import all_kernels

        for kernel in all_kernels():
            ast = analyze(kernel.parse())
            graph = build_paragraph(ast, env=kernel.environment(), num_threads=8)
            graph.validate()
            assert graph.num_nodes > 10
            assert graph.edges_of_type(EdgeType.FOR_EXEC)

    @given(st.integers(2, 200), st.integers(1, 16))
    @settings(max_examples=25, deadline=None)
    def test_loop_weight_scales_with_bound_and_threads(self, bound, threads):
        source = (f"#pragma omp parallel for\n"
                  f"for (int i = 0; i < {bound}; i++) {{ x += i; }}")
        graph = build(source, num_threads=threads)
        # edges outside the loop body keep weight 1, so that is the floor
        expected = max(bound / threads, 1.0)
        assert max(e.weight for e in graph.edges_of_type(EdgeType.CHILD)) == pytest.approx(expected)


class TestTreeLifetime:
    def test_trees_are_freed_without_the_cyclic_collector(self):
        # parent links are weak, so an analyzed AST and the graph built from
        # it hold no reference cycle: dropping the last reference frees them
        from repro.synth import generate_kernel

        source = generate_kernel(3).source
        enabled = gc.isenabled()
        gc.disable()
        try:
            root = analyze(parse_source(source))
            graph = build_paragraph(root, num_threads=8, num_teams=4)
            assert graph.num_nodes == sum(1 for _ in root.walk())
            for node in root.walk():
                for child in node.children:
                    assert child.parent is node
            parent = root
            while parent.children[-1].children:
                parent = parent.children[-1]
            leaf = parent.children[-1]
            assert leaf.parent is parent and root.parent is None
            root_ref, leaf_ref = weakref.ref(root), weakref.ref(leaf)
            del root, graph, node, child, parent, leaf
            assert root_ref() is None
            assert leaf_ref() is None
        finally:
            if enabled:
                gc.enable()
