"""Seeded request lists for the three benchmark workloads.

A request is a plain dict so it can travel to a child process as JSON::

    {"calls": [{"platform": "v100",
                "specs": [{"source": ..., "sizes": {...},
                           "num_teams": 64, "num_threads": 8}]}]}

A workload replays fixed-work *rounds*.  Round ``r`` of a workload is a
pure function of ``(seed, r)``: the same seed gives the same lists, and a
different seed gives different ones.  Rounds are built so that every round
(and every seed) carries the same amount of work, and position ``i`` of
every round holds the same kind of request, which is what makes medians
over rounds comparable from run to run:

* ``warm-singles-1c`` -- one caller replays a seeded permutation of the
  144 requests (72 legal variants of the 17 paper kernels x 2 contexts)
  every round,
* ``cold-variant-sweep`` -- each round asks one variant-selection query per
  paper kernel, in a seeded order, at problem sizes no earlier round used,
* ``cold-novel-kernels`` -- each round sends one never-seen generated
  kernel near each of 24 source-length targets, so rounds have the same
  size mix although no kernel repeats.

Only this module knows how inputs are made; the program under test only
ever receives the generated requests.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

WORKLOADS = ("warm-singles-1c", "cold-variant-sweep", "cold-novel-kernels")

CPU_PLATFORM = "power9"
GPU_PLATFORM = "v100"

#: (teams, threads) execution contexts the seeded workloads choose from
CONTEXT_MENU = tuple((teams, threads) for teams in (32, 64, 128, 256)
                     for threads in (8, 16, 32, 64))

#: source lengths (characters) at the quantiles (k + 0.5) / 24 of
#: ``build_corpus(config=SourceGenConfig(max_block_statements=3))``, over
#: 2000 kernels of corpus seeds 900001-900004.  Source length tracks
#: ParaGraph node count with r = 0.997, so one kernel within
#: :data:`NOVEL_BAND` of each target gives every round the generator's size
#: profile with little round-to-round or seed-to-seed variation.
NOVEL_TARGETS = (126, 150, 172, 209, 270, 359, 526, 714, 927, 1078, 1260,
                 1432, 1636, 1850, 2109, 2399, 2777, 3132, 3639, 4192, 4875,
                 5667, 6679, 9309)
NOVEL_BAND = 0.1
#: the warm-up sends one kernel near each of these targets
NOVEL_WARMUP_TARGETS = (3, 9, 15, 21)
NOVEL_MAX_BLOCK_STATEMENTS = 3
_NOVEL_CHUNK = 48
#: corpus seeds are ``seed * 10007 + chunk``: rounds count chunks up from
#: 0, the warm-up counts down from here, and neither reaches the other
_WARMUP_CHUNK = 10_006


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


def _spec(source: str, sizes: Dict[str, int], context) -> dict:
    teams, threads = context
    return {"source": source, "sizes": {k: int(v) for k, v in sizes.items()},
            "num_teams": int(teams), "num_threads": int(threads)}


def _contexts(seed: int, count: int) -> List[tuple]:
    picks = _rng(seed, 0).choice(len(CONTEXT_MENU), size=count, replace=False)
    return [CONTEXT_MENU[int(i)] for i in picks]


def _platform(variant) -> str:
    return GPU_PLATFORM if variant.is_gpu else CPU_PLATFORM


# --------------------------------------------------------------------- #
class WarmSingles:
    """1 closed-loop caller, single predictions over 144 warm requests."""

    name = "warm-singles-1c"
    batched = False

    def __init__(self, seed: int) -> None:
        from repro.advisor import generate_all_variants
        from repro.kernels import all_kernels

        contexts = _contexts(seed, 2)
        self.requests = []
        for kernel in all_kernels():
            sizes = kernel.sizes_with_defaults()
            for variant in generate_all_variants(kernel, sizes):
                for context in contexts:
                    self.requests.append({"calls": [{
                        "platform": _platform(variant),
                        "specs": [_spec(variant.source, sizes, context)]}]})
        self._order = _rng(seed, 1).permutation(len(self.requests))

    def warmup(self) -> List[dict]:
        """Every request once: the pre-encoding that makes the path warm."""
        return list(self.requests)

    def round(self, index: int) -> List[dict]:
        return [self.requests[int(i)] for i in self._order]


class ColdVariantSweep:
    """1 caller; each request selects among all legal variants of a kernel."""

    name = "cold-variant-sweep"
    batched = True

    def __init__(self, seed: int) -> None:
        from repro.kernels import all_kernels

        self.kernels = all_kernels()
        self.contexts = _contexts(seed, 4)
        rng = _rng(seed, 1)
        self._order = rng.permutation(len(self.kernels))
        self._size_base = int(rng.integers(100, 1100))

    def _query(self, kernel, offset: int) -> dict:
        from repro.advisor import generate_all_variants

        # parameters of at most 8 are shapes (e.g. feature counts), kept as is
        sizes = kernel.sizes_with_defaults({
            name: value + offset
            for name, value in kernel.default_sizes.items() if value > 8})
        variants = generate_all_variants(kernel, sizes)
        calls = []
        for platform in (CPU_PLATFORM, GPU_PLATFORM):
            specs = [_spec(variant.source, sizes, context)
                     for variant in variants if _platform(variant) == platform
                     for context in self.contexts]
            if specs:
                calls.append({"platform": platform, "specs": specs})
        return {"calls": calls}

    def _offset(self, index: int, position: int) -> int:
        # unique per (round, position), so no problem size repeats in a run
        return self._size_base + index * len(self.kernels) + position + 1

    def warmup(self) -> List[dict]:
        """The first two kernels at sizes no timed round uses (round -1);
        the same kernels for every seed, so set-up costs the same."""
        return [self._query(self.kernels[k], self._offset(-1, k))
                for k in range(2)]

    def round(self, index: int) -> List[dict]:
        return [self._query(self.kernels[int(k)], self._offset(index, position))
                for position, k in enumerate(self._order)]


class ColdNovelKernels:
    """1 caller; single predictions on generated kernels never seen before."""

    name = "cold-novel-kernels"
    batched = False

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._chunks = 0
        self._queues: List[List[dict]] = [[] for _ in NOVEL_TARGETS]
        self._rounds: List[List[dict]] = []
        self._platforms = _rng(seed, 1)

    def _near_targets(self, corpus_seed: int, platforms):
        """``(target index, request)`` for each kernel of one generated
        chunk whose length is within :data:`NOVEL_BAND` of a target."""
        from repro.synth import SourceGenConfig, build_corpus

        corpus = build_corpus(_NOVEL_CHUNK, seed=corpus_seed,
                              config=SourceGenConfig(
                                  max_block_statements=NOVEL_MAX_BLOCK_STATEMENTS))
        for item in corpus:
            platform = GPU_PLATFORM if platforms.random() < 0.5 else CPU_PLATFORM
            misses = [abs(len(item.source) / target - 1.0)
                      for target in NOVEL_TARGETS]
            nearest = int(np.argmin(misses))
            if misses[nearest] <= NOVEL_BAND:
                yield nearest, {"calls": [{
                    "platform": platform,
                    "specs": [_spec(item.source, item.sizes,
                                    (item.num_teams, item.num_threads))]}]}

    def _next_round(self) -> List[dict]:
        while not all(self._queues):
            for target, request in self._near_targets(
                    self.seed * 10_007 + self._chunks, self._platforms):
                self._queues[target].append(request)
            self._chunks += 1
        return [queue.pop(0) for queue in self._queues]

    def warmup(self) -> List[dict]:
        """One kernel near each of :data:`NOVEL_WARMUP_TARGETS`, from
        chunks no timed round draws; the same sizes for every seed."""
        chosen = {}
        platforms = _rng(self.seed, 2)
        chunk = _WARMUP_CHUNK
        while len(chosen) < len(NOVEL_WARMUP_TARGETS):
            for target, request in self._near_targets(
                    self.seed * 10_007 + chunk, platforms):
                if target in NOVEL_WARMUP_TARGETS:
                    chosen.setdefault(target, request)
            chunk -= 1
        return [chosen[target] for target in NOVEL_WARMUP_TARGETS]

    def round(self, index: int) -> List[dict]:
        while len(self._rounds) <= index:
            self._rounds.append(self._next_round())
        return self._rounds[index]


def make_workload(name: str, seed: int):
    """The workload object for *name* (one of :data:`WORKLOADS`)."""
    classes = {cls.name: cls for cls in (WarmSingles, ColdVariantSweep,
                                         ColdNovelKernels)}
    if name not in classes:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    return classes[name](seed)


def graphs_in(request: dict) -> int:
    return sum(len(call["specs"]) for call in request["calls"])
