"""Differential oracle: the frontend against its character-scanner reference.

``repro.clang.tokenize`` (one master regex) must produce exactly the tokens
of the character scanner in ``_reference_frontend`` — kind, text, line,
column and index — or fail with the same ``LexError`` at the same place.
``ParaGraphBuilder.build`` (one walk) must produce exactly the graph of the
seven-pass reference build for every ablation variant: the same edges in
the same order, and the same nodes.

Inputs: the 72 legal variants of the paper kernels, ``examples/kernels``,
192 generated kernels, and about 3000 seeded ASCII mutations of them that
insert or delete characters and splice in lexically awkward fragments
(unterminated comments and literals, pragmas, line continuations, odd
number spellings).
"""

import pathlib
import random
import string

import pytest

from _reference_frontend import ReferenceParaGraphBuilder, reference_tokenize
from repro.advisor import generate_all_variants
from repro.clang import LexError, ParseError, PragmaError, analyze, parse_source, tokenize
from repro.kernels import all_kernels
from repro.paragraph import GraphVariant, ParaGraphBuilder, WeightConfig
from repro.synth import SourceGenConfig, build_corpus

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples" / "kernels"

#: fragments the mutations splice in: each opens or closes a lexical
#: construct, or is a number spelling the scanner must split the same way
FRAGMENTS = ["/*", "*/", "//", '"', "'", "#pragma omp", "#pragma omp parallel for\n",
             "#define X 1\n", "\\\n", "\\", "0x", "1e+", "0x1uf", "1.5e-3f", ".5",
             "...", "08", "010", "\n", "\t", "\r\n", "'\\''", '"\\"', "@", "$"]

MUTATIONS = 3000
CHUNKS = 10


def _source_groups():
    """The paper variants and examples (small, pragma-dense), and the
    generated kernels (larger, more varied bodies)."""
    paper = []
    for kernel in all_kernels():
        sizes = kernel.sizes_with_defaults()
        paper += [variant.source for variant in generate_all_variants(kernel, sizes)]
    assert len(paper) == 72
    paper += [path.read_text() for path in sorted(EXAMPLES.glob("*.c"))]
    corpus = build_corpus(192, config=SourceGenConfig(max_block_statements=3))
    return paper, [item.source for item in corpus]


def _mutate(source: str, rng: random.Random) -> str:
    for _ in range(rng.randint(1, 3)):
        position = rng.randint(0, len(source))
        choice = rng.random()
        if choice < 0.35:
            source = source[:position] + rng.choice(string.printable) + source[position:]
        elif choice < 0.6:
            source = source[:position] + source[position + rng.randint(1, 3):]
        else:
            source = source[:position] + rng.choice(FRAGMENTS) + source[position:]
    return source


@pytest.fixture(scope="module")
def source_groups():
    return _source_groups()


@pytest.fixture(scope="module")
def mutated_sources(source_groups):
    # half the mutations start from each group: the generated kernels are
    # seven times longer, and lexing them twice dominates the run time
    rng = random.Random(20261018)
    return [_mutate(rng.choice(rng.choice(source_groups)), rng)
            for _ in range(MUTATIONS)]


def _lex(tokenize_fn, source):
    try:
        return [tuple(token) for token in tokenize_fn(source)]
    except LexError as error:
        return ("LexError", str(error), error.line, error.column)


def _graph(builder_cls, variant, ast):
    graph = builder_cls(variant, WeightConfig(num_threads=8, num_teams=4)).build(ast)
    return ([edge.as_tuple() for edge in graph.edges],
            [(node.node_id, node.label, node.spelling, node.is_terminal)
             for node in graph.nodes])


def _check(source):
    """Compare both frontends on *source*; return whether it parsed."""
    expected = _lex(reference_tokenize, source)
    assert _lex(tokenize, source) == expected, source
    if expected[0] == "LexError":
        return False
    try:
        ast = analyze(parse_source(source))
    except (ParseError, PragmaError):
        return False
    for variant in GraphVariant:
        assert _graph(ParaGraphBuilder, variant, ast) == \
            _graph(ReferenceParaGraphBuilder, variant, ast), (variant, source)
    return True


def test_clean_sources_match_the_reference(source_groups):
    paper, corpus = source_groups
    assert len(paper) >= 72 + 3 and len(corpus) == 192
    assert all(_check(source) for source in paper + corpus)


@pytest.mark.parametrize("chunk", range(CHUNKS))
def test_mutated_sources_match_the_reference(mutated_sources, chunk):
    sources = mutated_sources[chunk::CHUNKS]
    parsed = sum(_check(source) for source in sources)
    # the mutations reach both outcomes: token streams that still parse
    # into graphs, and ones that fail to lex or parse
    assert 0 < parsed < len(sources)


@pytest.mark.parametrize("source", [
    "", "   \n\t ", "a /* open", "/* a */ /* b", 'x = "abc', 'x = "ab\\', "'\\",
    "x = 'a\n", 'y = "a\\\nb" + 1;', "#pragma omp parallel \\\n for\nint x;",
    "#pragma\n", "# pragma omp\n", "0x 0X1p 1e+ 1e+5 1.e3 .5e-2f 0x1uf 1ul 1uf 1lf",
    "a.b ... ..5 p->q", "x @ y", "x \\ y", "x\fy", "x\x00y",
])
def test_corner_cases_match_the_reference(source):
    _check(source)
