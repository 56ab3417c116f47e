"""Per-layer tracing from outside the library.

A `Tracer` replaces each named public function with a timing wrapper on
every `lightspan.*` module that binds that same function object (many
are imported by name into other modules), records one span per call and
restores the originals afterwards.  Spans stay in memory until the run
ends.  A span's self time is its duration minus the time its child
spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (module, public function, span name)
ENTRY_POINTS = (
    ("graph", "shortest_paths_adj", "graph.sssp"),
    ("graph", "shortest_paths", "graph.host_sssp"),
    ("graph", "build_path_table", "graph.path_table"),
    ("steiner", "build_backbone", "steiner.backbone"),
    ("steiner", "approx_steiner", "steiner.approx_steiner"),
    ("steiner", "exact_steiner", "steiner.exact_steiner"),
    ("transform", "scaled_universe", "transform.scaled_universe"),
    ("additive", "greedy_complete", "additive.greedy"),
    ("additive", "eps_spanner", "additive.builder"),
    ("additive", "four_eps_spanner", "additive.builder"),
    # A factory: the builder it returns is traced as additive.one_level_oracle.
    ("additive", "one_level_oracle", None),
    ("sampled", "choose_ell", "sampled.choose_ell"),
    ("sampled", "wmax_spanner", "sampled.wmax"),
    ("oracle", "verify_spanner", "oracle.verify"),
    ("oracle", "subset_lightness", "oracle.lightness"),
    ("multilevel", "solve_multilevel", "multilevel.solve"),
    ("multilevel", "four_approx_baseline", "multilevel.solve"),
)

# name, unit, better, the end-to-end metric it should move.  Values are
# per traced build unless the name says otherwise.
LAYER_METRICS = (
    ("graph.sssp_calls", "count", "lower", "builds_per_s on wmax-sampled and one-level; barely on small-exact"),
    ("graph.sssp_self_s", "s", "lower", "builds_per_s on wmax-sampled and one-level; barely on small-exact"),
    ("graph.sssp_settled", "count", "lower", "builds_per_s on wmax-sampled and one-level; barely on small-exact"),
    ("graph.host_sssp_calls", "count", "lower", "builds_per_s on wmax-sampled; peak_rss_mb on all"),
    ("graph.host_sssp_distinct", "count", "lower", "builds_per_s on wmax-sampled; peak_rss_mb on all"),
    ("graph.host_sssp_reuse", "ratio", "lower", "builds_per_s on wmax-sampled; peak_rss_mb on all"),
    ("graph.path_table_calls", "count", "lower", "build_s_p50 on one-level; verify_s_p50 on all"),
    ("graph.path_table_self_s", "s", "lower", "build_s_p50 on one-level; verify_s_p50 on all"),
    ("steiner.backbone_calls", "count", "lower", "builds_per_s on wmax-sampled"),
    ("steiner.backbone_self_s", "s", "lower", "builds_per_s on wmax-sampled"),
    ("steiner.approx_steiner_calls", "count", "lower", "build_s_p50 and lightness_mean on one-level"),
    ("steiner.approx_steiner_self_s", "s", "lower", "build_s_p50 and lightness_mean on one-level"),
    ("steiner.exact_steiner_calls", "count", "lower", "build_s_p50 on small-exact only"),
    ("steiner.exact_steiner_self_s", "s", "lower", "build_s_p50 on small-exact only"),
    ("steiner.s_prime_mean", "count", "lower", "none: input descriptor, fixed under a pure performance change"),
    ("steiner.unsatisfied_pairs_mean", "count", "lower", "none: input descriptor, fixed under a pure performance change"),
    ("transform.scaled_universe_calls", "count", "lower", "build_s_p50 on small-exact"),
    ("transform.scaled_universe_self_s", "s", "lower", "build_s_p50 on small-exact"),
    ("transform.spliced_vertices_mean", "count", "lower", "build_s_p50 on small-exact"),
    ("additive.greedy_calls", "count", "lower", "builds_per_s on one-level"),
    ("additive.greedy_self_s", "s", "lower", "builds_per_s on one-level"),
    ("additive.greedy_insertions", "count", "lower", "builds_per_s on one-level"),
    ("additive.greedy_pairs", "count", "lower", "builds_per_s on one-level"),
    ("additive.builder_self_s", "s", "lower", "build_s_p50 on all (in-builder certification)"),
    ("sampled.choose_ell_calls", "count", "lower", "builds_per_s on wmax-sampled"),
    ("sampled.choose_ell_s", "s", "lower", "builds_per_s on wmax-sampled"),
    ("sampled.choose_ell_backbones", "count", "lower", "builds_per_s on wmax-sampled"),
    ("sampled.repair_rate", "ratio", "lower", "none: whp claim, fixed under a pure performance change"),
    ("sampled.fallbacks", "count", "lower", "none: whp claim, fixed under a pure performance change"),
    ("sampled.sample_size_mean", "count", "lower", "none: whp claim, fixed under a pure performance change"),
    ("oracle.verify_calls", "count", "lower", "verify_s_p50 on all"),
    ("oracle.verify_self_s", "s", "lower", "verify_s_p50 on all"),
    ("oracle.lightness_calls", "count", "lower", "build_s_p50 on small-exact"),
    ("oracle.lightness_s", "s", "lower", "build_s_p50 on small-exact"),
    ("oracle.lightness_exact_share", "ratio", "higher", "build_s_p50 on small-exact"),
    ("multilevel.solve_calls", "count", "lower", "build_s_p50 on small-exact"),
    ("multilevel.solve_self_s", "s", "lower", "build_s_p50 on small-exact"),
    ("multilevel.groups_mean", "count", "lower", "build_s_p50 on small-exact"),
    ("generators.generate_s", "s", "lower", "setup_s (per set-up, not per build)"),
    ("trace.overhead_share", "ratio", "lower", "none: untraced vs traced builds_per_s"),
)

_BUILDERS = ("additive.builder", "additive.one_level_oracle")


class TraceSetupError(RuntimeError):
    """A named entry point is missing, so the traced run cannot start."""


def _pairs(terminals) -> int:
    k = len(set(terminals))
    return k * (k - 1) // 2


class Tracer:
    """Span recorder for one traced run; install() before, restore() after."""

    def __init__(self) -> None:
        # (name, start, end, parent index, build id)
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.build_id = -1
        self._patches: list[tuple[object, str, object]] = []
        self.counts: Counter = Counter()
        self.samples: dict[str, list] = defaultdict(list)
        self._host_keys: set[tuple[int, int]] = set()
        self._host_graphs: list = []  # keeps ids unique within one build

    # -- installation -------------------------------------------------

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None
                   and (name == "lightspan" or name.startswith("lightspan."))}
        missing = [f"lightspan.{m}.{f}" for m, f, _ in ENTRY_POINTS
                   if not callable(getattr(modules.get(f"lightspan.{m}"), f, None))]
        if missing:
            raise TraceSetupError("entry points not found: " + ", ".join(missing))
        wrappers = {}
        for m, f, span in ENTRY_POINTS:
            original = getattr(modules[f"lightspan.{m}"], f)
            wrappers[id(original)] = (original, self._wrap(original, span))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def restore(self) -> None:
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    def _wrap(self, fn, span: str | None):
        if span is None:
            @functools.wraps(fn)
            def factory(*args, **kwargs):
                return self._wrap(fn(*args, **kwargs), "additive.one_level_oracle")
            return factory
        observe = getattr(self, "_observe_" + span.replace(".", "_"), None)

        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                # A tuple of plain values leaves the garbage collector's
                # view, so a long trace does not slow later collections.
                self.spans[idx] = (span, start, time.perf_counter(), parent, self.build_id)
                self._stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    # -- per-call observations (run after the span has ended) ----------

    def _observe_graph_sssp(self, args, kwargs, result) -> None:
        self.counts["sssp_settled"] += sum(1 for _ in result.reached())

    def _observe_graph_host_sssp(self, args, kwargs, result) -> None:
        g = args[0] if args else kwargs["g"]
        key = (id(g), args[1] if len(args) > 1 else kwargs["source"])
        if key not in self._host_keys:
            self._host_keys.add(key)
            self._host_graphs.append(g)

    def _observe_steiner_backbone(self, args, kwargs, result) -> None:
        self.samples["s_prime"].append(len(result.s_prime))
        self.samples["unsatisfied"].append(len(result.unsatisfied_pairs))

    def _observe_transform_scaled_universe(self, args, kwargs, result) -> None:
        self.samples["spliced"].append(result.g_prime_s.n)

    def _observe_additive_greedy(self, args, kwargs, result) -> None:
        terminals = args[2] if len(args) > 2 else kwargs["terminals"]
        self.counts["greedy_pairs"] += _pairs(terminals)
        self.counts["greedy_insertions"] += result.insertions

    def _observe_sampled_wmax(self, args, kwargs, result) -> None:
        terminals = args[1] if len(args) > 1 else kwargs["terminals"]
        meta = result.meta
        self.counts["wmax_pairs"] += _pairs(terminals)
        self.counts["repaired"] += len(meta.get("repaired", ()))
        self.counts["fallbacks"] += bool(meta.get("fallback"))
        if "sample_size" in meta:
            self.samples["sample_size"].append(meta["sample_size"])

    def _observe_oracle_lightness(self, args, kwargs, result) -> None:
        self.counts["lightness_exact"] += result.mode == "exact"

    # -- builds ---------------------------------------------------------

    def begin_build(self, build_id: int) -> None:
        self.build_id = build_id

    def end_build(self) -> None:
        self.counts["host_sssp_distinct"] += len(self._host_keys)
        self._host_keys.clear()
        self._host_graphs.clear()
        self.build_id = -1

    # -- aggregation ----------------------------------------------------

    def layer_metrics(self, builds: int) -> dict[str, float]:
        """Per-build layer figures over every span recorded so far."""
        calls: Counter = Counter()
        total: Counter = Counter()
        self_s: Counter = Counter()
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        choose_ell_backbones = groups = 0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - child[i]
            if name == "steiner.backbone" and self._under(i, "sampled.choose_ell"):
                choose_ell_backbones += 1
            if name == "additive.one_level_oracle" and self._under(i, "multilevel.solve"):
                groups += 1
        per = 1 / builds if builds else 0.0
        c = self.counts

        def mean(key: str) -> float:
            vals = self.samples[key]
            return sum(vals) / len(vals) if vals else 0.0

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        return {
            "graph.sssp_calls": calls["graph.sssp"] * per,
            "graph.sssp_self_s": self_s["graph.sssp"] * per,
            "graph.sssp_settled": c["sssp_settled"] * per,
            "graph.host_sssp_calls": calls["graph.host_sssp"] * per,
            "graph.host_sssp_distinct": c["host_sssp_distinct"] * per,
            "graph.host_sssp_reuse": ratio(calls["graph.host_sssp"], c["host_sssp_distinct"]),
            "graph.path_table_calls": calls["graph.path_table"] * per,
            "graph.path_table_self_s": self_s["graph.path_table"] * per,
            "steiner.backbone_calls": calls["steiner.backbone"] * per,
            "steiner.backbone_self_s": self_s["steiner.backbone"] * per,
            "steiner.approx_steiner_calls": calls["steiner.approx_steiner"] * per,
            "steiner.approx_steiner_self_s": self_s["steiner.approx_steiner"] * per,
            "steiner.exact_steiner_calls": calls["steiner.exact_steiner"] * per,
            "steiner.exact_steiner_self_s": self_s["steiner.exact_steiner"] * per,
            "steiner.s_prime_mean": mean("s_prime"),
            "steiner.unsatisfied_pairs_mean": mean("unsatisfied"),
            "transform.scaled_universe_calls": calls["transform.scaled_universe"] * per,
            "transform.scaled_universe_self_s": self_s["transform.scaled_universe"] * per,
            "transform.spliced_vertices_mean": mean("spliced"),
            "additive.greedy_calls": calls["additive.greedy"] * per,
            "additive.greedy_self_s": self_s["additive.greedy"] * per,
            "additive.greedy_insertions": c["greedy_insertions"] * per,
            "additive.greedy_pairs": c["greedy_pairs"] * per,
            "additive.builder_self_s": sum(self_s[b] for b in _BUILDERS) * per,
            "sampled.choose_ell_calls": calls["sampled.choose_ell"] * per,
            "sampled.choose_ell_s": total["sampled.choose_ell"] * per,
            "sampled.choose_ell_backbones": choose_ell_backbones * per,
            "sampled.repair_rate": ratio(c["repaired"], c["wmax_pairs"]),
            "sampled.fallbacks": c["fallbacks"] * per,
            "sampled.sample_size_mean": mean("sample_size"),
            "oracle.verify_calls": calls["oracle.verify"] * per,
            "oracle.verify_self_s": self_s["oracle.verify"] * per,
            "oracle.lightness_calls": calls["oracle.lightness"] * per,
            "oracle.lightness_s": total["oracle.lightness"] * per,
            "oracle.lightness_exact_share": ratio(c["lightness_exact"], calls["oracle.lightness"]),
            "multilevel.solve_calls": calls["multilevel.solve"] * per,
            "multilevel.solve_self_s": self_s["multilevel.solve"] * per,
            "multilevel.groups_mean": ratio(groups, calls["multilevel.solve"]),
        }

    def call_counts(self) -> Counter:
        return Counter(name for name, *_ in self.spans)

    def _under(self, i: int, ancestor: str) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == ancestor:
                return True
            parent = self.spans[parent][3]
        return False

    def spans_json(self, origin: float) -> dict:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "fields": ["name", "start_s", "end_s", "parent", "build"],
            "names": names,
            "spans": [[index[n], s - origin, e - origin, p, b]
                      for n, s, e, p, b in self.spans],
        }
