"""Seeded workloads of certified spanner builds.

A workload is a fixed list of cells in batches.  A cell is one builder
call on one generated instance; every instance seed and every sampling
seed is derived from the workload seed, so the same seed always yields
the same cells and a different seed yields different instances.  Every
batch holds the same mix of families and sizes, so the throughput of
one batch is comparable with that of any other.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

FAMILIES = ("erdos-renyi", "geometric", "grid")


@dataclass(frozen=True)
class Instance:
    kind: str
    n: int
    seed: int
    terminals: int
    exact: bool
    levels_k: int | None = None

    @property
    def label(self) -> str:
        return f"{self.kind}-n{self.n}-S{self.terminals}-i{self.seed}"

    def spec(self, ls):
        """The generator spec of this instance for a loaded lightspan."""
        return ls.GeneratorSpec(kind=self.kind, n=self.n, seed=self.seed,
                                terminal_fraction=self.terminals / self.n,
                                levels_k=self.levels_k, exact=self.exact)


@dataclass(frozen=True)
class Cell:
    instance: Instance
    algo: str
    run_seed: int = 0   # sampling seed of `wmax` and `multilevel-e`

    @property
    def key(self) -> str:
        return f"{self.instance.label}/{self.algo}/r{self.run_seed}"


@dataclass(frozen=True)
class Workload:
    name: str
    batches: tuple[tuple[Cell, ...], ...]
    # Layers that must record calls in a traced run of this workload.
    exercised: tuple[str, ...]

    @property
    def cells(self) -> tuple[Cell, ...]:
        return tuple(c for batch in self.batches for c in batch)

    @property
    def instances(self) -> list[Instance]:
        return list(dict.fromkeys(c.instance for c in self.cells))


_COMMON_LAYERS = ("graph.sssp", "graph.host_sssp", "graph.path_table",
                  "steiner.backbone", "steiner.approx_steiner",
                  "transform.scaled_universe", "oracle.verify",
                  "oracle.lightness")

# Why each workload was chosen; BENCHMARK.json carries the same text.
WHY = {
    "one-level": "Exact eps/four-eps builds at n=300, |S|=30: Dijkstra-bound "
                 "greedy loop on the packed-integer path, little host SSSP "
                 "reuse; a bounded-search change shows here, a memo barely.",
    "wmax-sampled": "binary64 wmax builds at n=160, |S|=20: choose_ell rebuilds "
                    "backbones and host SSSP repeats ~9x; a memo or threshold "
                    "change shows here, a packed-integer change does not.",
    "small-exact": "63 small exact instances, eps/four-eps/multilevel: "
                   "Dreyfus-Wagner lightness and per-call fixed costs dominate; "
                   "Dijkstra is ~35%, so a Dijkstra-only change should barely move it.",
}


def _seed_rng(name: str, seed: int) -> random.Random:
    # str seeds are hashed with SHA-512, so this is stable across processes.
    return random.Random(f"{name}:{seed}")


def one_level(seed: int) -> Workload:
    # Each batch is one instance per family, built with eps and four-eps.
    rng = _seed_rng("one-level", seed)
    batches = []
    for _ in range(7):
        batch = []
        for kind in FAMILIES:
            inst = Instance(kind, 300, rng.randrange(1 << 30), 30, exact=True)
            batch += [Cell(inst, "eps"), Cell(inst, "four-eps")]
        batches.append(tuple(batch))
    return Workload("one-level", tuple(batches),
                    _COMMON_LAYERS + ("additive.greedy", "additive.builder"))


def wmax_sampled(seed: int) -> Workload:
    # Each batch is one instance per family.
    rng = _seed_rng("wmax-sampled", seed)
    batches = []
    for _ in range(8):
        batch = []
        for kind in FAMILIES:
            inst = Instance(kind, 160, rng.randrange(1 << 30), 20, exact=False)
            batch.append(Cell(inst, "wmax", rng.randrange(1 << 30)))
        batches.append(tuple(batch))
    return Workload("wmax-sampled", tuple(batches),
                    _COMMON_LAYERS + ("sampled.choose_ell", "sampled.wmax"))


def small_exact(seed: int) -> Workload:
    # Sizes are stratified so every seed covers the same spread of costs:
    # each |S| in 4..10 meets one n drawn from each of nine bands of
    # 12..80 (63 instances), and the families rotate over the grid.
    # Batch b takes, for each |S|, the band (b + |S|) mod 9, so each
    # batch holds every |S| once and seven different bands.
    rng = _seed_rng("small-exact", seed)
    bands = [(12 + 69 * j // 9, 12 + 69 * (j + 1) // 9 - 1) for j in range(9)]
    grid = {}
    for s_count in range(4, 11):
        for j, (lo, hi) in enumerate(bands):
            kind = FAMILIES[(j + s_count) % len(FAMILIES)]
            inst = Instance(kind, rng.randint(lo, hi), rng.randrange(1 << 30),
                            s_count, exact=True, levels_k=3)
            grid[s_count, j] = (Cell(inst, "eps"), Cell(inst, "four-eps"),
                                Cell(inst, "multilevel-e", rng.randrange(1 << 30)),
                                Cell(inst, "multilevel-4"))
    batches = tuple(tuple(c for s_count in range(4, 11)
                          for c in grid[s_count, (b + s_count) % len(bands)])
                    for b in range(len(bands)))
    return Workload("small-exact", batches,
                    _COMMON_LAYERS + ("steiner.exact_steiner", "multilevel.solve",
                                      "additive.one_level_oracle"))


WORKLOADS = {"one-level": one_level, "wmax-sampled": wmax_sampled,
             "small-exact": small_exact}
