"""``repro.synth`` — synthetic scenario corpus + differential harness.

Seeded generators for synthetic C/OpenMP kernels
(:mod:`~repro.synth.source_gen`) and random ParaGraph / encoded-graph
instances (:mod:`~repro.synth.graph_gen`), plus a differential
property-testing harness (:mod:`~repro.synth.harness`) that sweeps
cross-layer invariants — parser round trips, graph validity, vectorized-vs-
reference GNN parity, packed-forward parity, config round trips — over
hundreds of seeded cases.  Every failure is reproducible from its seed::

    PYTHONPATH=src python -m repro.synth <scenario> <seed>

``tests/test_properties_*.py`` drive the harness in tier 1;
``REPRO_SYNTH_CASES`` scales the corpus up for nightly runs (see
``TESTING.md``).
"""

from .corpus import CorpusSpec, ScenarioCorpus, build_corpus
from .graph_gen import (
    GraphGenConfig,
    random_batch,
    random_encoded_graph,
    random_paragraph,
)
from .harness import (
    DEFAULT_TOTAL_CASES,
    SCENARIOS,
    HarnessReport,
    ScenarioSpec,
    canonical_render,
    cases_for,
    corpus_total_cases,
    reproduce,
    run_cases,
    scenario_names,
    seeds_for,
    structural_dump,
)
from .source_gen import (
    DefectKernel,
    GeneratedKernel,
    PlantedDefect,
    SourceGenConfig,
    SourceGenerator,
    generate_defect_kernel,
    generate_kernel,
)

__all__ = [
    "CorpusSpec",
    "DEFAULT_TOTAL_CASES",
    "DefectKernel",
    "GeneratedKernel",
    "PlantedDefect",
    "GraphGenConfig",
    "HarnessReport",
    "SCENARIOS",
    "ScenarioCorpus",
    "ScenarioSpec",
    "SourceGenConfig",
    "SourceGenerator",
    "build_corpus",
    "canonical_render",
    "cases_for",
    "corpus_total_cases",
    "generate_defect_kernel",
    "generate_kernel",
    "random_batch",
    "random_encoded_graph",
    "random_paragraph",
    "reproduce",
    "run_cases",
    "scenario_names",
    "seeds_for",
    "structural_dump",
]
