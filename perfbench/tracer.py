"""Span tracer for the traced run: wrappers around each layer's public functions.

A target is a function as it is bound in the module that calls it, for
example `branchbox.branch.lr_coefficient` (the LR entry point as `branch`
sees it) or `branchbox.dualpair.analysis.rank`.  Wrapping the binding in the
caller is what intercepts the call; wrapping only the defining module would
miss every `from .x import f`.

Three wrapper kinds keep the cost in proportion to the call rate:

* "span": timed, and recorded as (id, name, start, end, parent id, op id);
* "timed": timed into per-name and per-layer totals, not recorded one by one
  (hot functions such as `lr_coefficient`, called ~10^5 times per round);
* "count": a call counter only (`as_partition`, `kostka` recursion).

Self time of a span is its duration minus the time its child spans cover;
children are timed wrappers called inside it.  A layer's total time counts
only its outermost spans, so recursion and same-layer nesting are not
counted twice.  Wrappers record nothing outside an op, so the benchmark's
own checks are left out.  A target that no longer exists is reported in
`missing`, never raised.  `uninstall` puts every original binding back.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field
from fractions import Fraction

SPAN, TIMED, COUNT = "span", "timed", "count"
SPAN_CAP = 50_000


@dataclass(frozen=True)
class Target:
    module: str
    attr: str
    name: str
    layer: str
    kind: str
    hook: str | None = None


def _targets() -> tuple[Target, ...]:
    out = [Target("branchbox.cli", "main", "cli.main", "cli", SPAN)]
    for mod in ("partitions", "lr", "branch", "schur", "dims", "jsonio", "dualpair.analysis"):
        out.append(Target(f"branchbox.{mod}", "as_partition", "partitions.as_partition",
                          "partitions", COUNT))
    out.append(Target("branchbox.lr", "partitions_between", "partitions.partitions_between",
                      "partitions", COUNT))
    for mod in ("lr", "branch"):
        out.append(Target(f"branchbox.{mod}", "lr_coefficient", "lr.lr_coefficient", "lr", TIMED))
    out.append(Target("branchbox.branch", "lr_multi", "lr.lr_multi", "lr", TIMED))
    for fn in ("gl_to_o", "gl_to_sp", "o_tensor_stable", "sp_tensor_stable",
               "o_restrict_stable", "gl_tensor_rational"):
        out.append(Target("branchbox.branch", fn, f"branch.{fn}", "branch", TIMED))
    out += [
        Target("branchbox.schur", "multiply_schur", "schur.multiply_schur", "schur", SPAN),
        Target("branchbox.schur", "schur_expand", "schur.schur_expand", "schur", TIMED),
        Target("branchbox.schur", "decompose", "schur.decompose", "schur", SPAN),
        Target("branchbox.schur", "kostka", "schur.kostka", "schur", COUNT),
        Target("branchbox.schur", "monomial_product", "schur.monomial_product", "schur", COUNT),
        Target("branchbox.cli", "hilbert_check", "dims.hilbert_check", "dims", SPAN),
        Target("branchbox.dualpair.analysis", "build_config", "dualpair.configs.build_config",
               "dualpair.configs", SPAN),
        Target("branchbox.dualpair.analysis", "build_product_config",
               "dualpair.configs.build_product_config", "dualpair.configs", SPAN),
        Target("branchbox.cli", "hwv_multiplicities", "dualpair.analysis.hwv_multiplicities",
               "dualpair.analysis", SPAN),
        Target("branchbox.cli", "verify_brackets", "dualpair.analysis.verify_brackets",
               "dualpair.analysis", SPAN),
        Target("branchbox.dualpair.analysis", "build_buckets", "dualpair.analysis.build_buckets",
               "dualpair.analysis", SPAN, "buckets"),
        Target("branchbox.dualpair.analysis", "apply_to_monomial",
               "dualpair.poly.apply_to_monomial", "dualpair.poly", TIMED, "terms"),
        Target("branchbox.dualpair.analysis", "commutator_apply",
               "dualpair.poly.commutator_apply", "dualpair.poly", TIMED, "terms"),
        Target("branchbox.dualpair.analysis", "rank", "dualpair.linalg.rank",
               "dualpair.linalg", SPAN),
        Target("branchbox.dualpair.analysis", "nullspace", "dualpair.linalg.nullspace",
               "dualpair.linalg", SPAN),
        Target("branchbox.dualpair.analysis", "solve_columns", "dualpair.linalg.solve_columns",
               "dualpair.linalg", SPAN),
        Target("branchbox.dualpair.linalg", "echelon", "dualpair.linalg.echelon",
               "dualpair.linalg", SPAN, "echelon"),
        Target("branchbox.cli", "sorted_entries", "reports.sorted_entries", "reports", SPAN),
        Target("branchbox.cli", "labels_sort_key", "reports.labels_sort_key", "reports", TIMED),
    ]
    for fn in ("dumps", "verify_json", "hilbert_json", "bracket_report_json"):
        out.append(Target("branchbox.jsonio", fn, f"jsonio.{fn}", "jsonio", SPAN))
    for fn in ("entry_json", "value_json", "entries_csv", "value_csv", "verify_csv",
               "hilbert_csv", "bracket_report_csv"):
        out.append(Target("branchbox.jsonio", fn, f"jsonio.{fn}", "jsonio", TIMED))
    return tuple(out)


TARGETS = _targets()


@dataclass
class _Stat:
    calls: int = 0
    total: float = 0.0  # outermost calls only
    self_s: float = 0.0
    depth: int = 0


@dataclass
class Tracer:
    targets: tuple[Target, ...] = TARGETS
    active: bool = False
    op_id: int = -1
    stats: dict[str, _Stat] = field(default_factory=dict)
    layer_total: dict[str, float] = field(default_factory=dict)
    layer_self: dict[str, float] = field(default_factory=dict)
    layer_depth: dict[str, int] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    spans: list[tuple] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)
    _installed: list[tuple] = field(default_factory=list)
    _stack: list[list] = field(default_factory=list)  # [span id, child seconds]
    _next_id: int = 0

    # -- install / restore ---------------------------------------------------

    def install(self) -> None:
        for t in self.targets:
            try:
                module = importlib.import_module(t.module)
            except ImportError:
                self.missing.append(f"{t.module}.{t.attr}")
                continue
            original = getattr(module, t.attr, None)
            if not callable(original):
                self.missing.append(f"{t.module}.{t.attr}")
                continue
            self.stats.setdefault(t.name, _Stat())
            self.layer_total.setdefault(t.layer, 0.0)
            self.layer_self.setdefault(t.layer, 0.0)
            self.layer_depth.setdefault(t.layer, 0)
            wrap = self._count if t.kind == COUNT else self._timed
            setattr(module, t.attr, wrap(original, t))
            self._installed.append((module, t.attr, original))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)
        self.active = False

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.active = True

    def end_op(self) -> None:
        self.active = False

    # -- wrappers --------------------------------------------------------------

    def _count(self, fn, t: Target):
        stat = self.stats[t.name]

        def wrapper(*args, **kwargs):
            if self.active:
                stat.calls += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _timed(self, fn, t: Target):
        stat = self.stats[t.name]
        layer, record = t.layer, t.kind == SPAN
        hook = getattr(self, f"_hook_{t.hook}") if t.hook else None
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack
            parent = stack[-1][0] if stack else None
            frame = [self._next_id, 0.0]
            self._next_id += 1
            stack.append(frame)
            stat.depth += 1
            self.layer_depth[layer] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                stat.depth -= 1
                self.layer_depth[layer] -= 1
                duration = end - start
                stat.calls += 1
                stat.self_s += duration - frame[1]
                self.layer_self[layer] += duration - frame[1]
                if not stat.depth:
                    stat.total += duration
                if not self.layer_depth[layer]:
                    self.layer_total[layer] += duration
                if stack:
                    stack[-1][1] += duration
                if record and len(self.spans) < SPAN_CAP:
                    self.spans.append((frame[0], t.name, start, end, parent, self.op_id))
            if hook is not None:
                hook_start = clock()
                hook(args, result)
                if stack:  # keep the hook out of the caller's self time
                    stack[-1][1] += clock() - hook_start
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per-layer counters from arguments and results ---------------------

    def _bump(self, key: str, k: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + k

    def _peak(self, key: str, v: int) -> None:
        self.counters[key] = max(self.counters.get(key, 0), v)

    def _hook_buckets(self, args, table) -> None:
        sizes = [len(monos) for monos in table.buckets.values()]
        self._bump("blocks", len(sizes))
        self._peak("max_block_dim", max(sizes, default=0))

    def _hook_terms(self, args, poly) -> None:
        self._bump("terms_out", len(poly))

    def _hook_echelon(self, args, result) -> None:
        rows = args[0]
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        fractions = nonintegral = 0
        for row in rows:
            for a in row:
                if isinstance(a, Fraction):
                    fractions += 1
                    if a.denominator != 1:
                        nonintegral += 1
        bits = max((abs(a).bit_length() for row in result[0] for a in row), default=0)
        self._peak("max_rows", nrows)
        self._peak("max_cols", ncols)
        self._bump("cells", nrows * ncols)
        self._peak("max_entry_bits", bits)
        self._bump("fraction_inputs", fractions)
        self._bump("nonintegral_inputs", nonintegral)

    # -- results -----------------------------------------------------------------

    def _calls(self, *names: str) -> int:
        return sum(self.stats[n].calls for n in names if n in self.stats)

    def _total(self, name: str) -> float:
        return self.stats[name].total if name in self.stats else 0.0

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far (see README.md)."""
        c = self.counters.get
        lt, ls = self.layer_total.get, self.layer_self.get
        branch_fns = [t.name for t in self.targets if t.layer == "branch"]
        return {
            "cli.self_s": ls("cli", 0.0),
            "partitions.as_partition_calls": self._calls("partitions.as_partition"),
            "partitions.between_calls": self._calls("partitions.partitions_between"),
            "lr.calls": self._calls("lr.lr_coefficient"),
            "lr.s": lt("lr", 0.0),
            "lr.self_s": ls("lr", 0.0),
            "lr.multi_calls": self._calls("lr.lr_multi"),
            "branch.calls": self._calls(*branch_fns),
            "branch.self_s": ls("branch", 0.0),
            "schur.multiply_calls": self._calls("schur.multiply_schur"),
            "schur.self_s": ls("schur", 0.0),
            "schur.expand_s": self._total("schur.schur_expand"),
            "schur.kostka_calls": self._calls("schur.kostka"),
            "schur.monomial_product_calls": self._calls("schur.monomial_product"),
            "schur.decompose_s": self._total("schur.decompose"),
            "dims.s": lt("dims", 0.0),
            "dualpair.configs.builds": self._calls("dualpair.configs.build_config",
                                                   "dualpair.configs.build_product_config"),
            "dualpair.configs.s": lt("dualpair.configs", 0.0),
            "dualpair.analysis.hwv_calls": self._calls("dualpair.analysis.hwv_multiplicities"),
            "dualpair.analysis.self_s": ls("dualpair.analysis", 0.0),
            "dualpair.analysis.buckets_s": self._total("dualpair.analysis.build_buckets"),
            "dualpair.analysis.blocks": c("blocks", 0),
            "dualpair.analysis.max_block_dim": c("max_block_dim", 0),
            "dualpair.analysis.brackets_s": self._total("dualpair.analysis.verify_brackets"),
            "dualpair.poly.apply_calls": self._calls("dualpair.poly.apply_to_monomial",
                                                    "dualpair.poly.commutator_apply"),
            "dualpair.poly.s": lt("dualpair.poly", 0.0),
            "dualpair.poly.terms_out": c("terms_out", 0),
            "dualpair.linalg.echelon_calls": self._calls("dualpair.linalg.echelon"),
            "dualpair.linalg.echelon_s": self._total("dualpair.linalg.echelon"),
            "dualpair.linalg.backsub_s": (self.stats["dualpair.linalg.nullspace"].self_s
                                          if "dualpair.linalg.nullspace" in self.stats else 0.0),
            "dualpair.linalg.max_rows": c("max_rows", 0),
            "dualpair.linalg.max_cols": c("max_cols", 0),
            "dualpair.linalg.cells": c("cells", 0),
            "dualpair.linalg.max_entry_bits": c("max_entry_bits", 0),
            "dualpair.linalg.fraction_inputs": c("fraction_inputs", 0),
            "dualpair.linalg.nonintegral_inputs": c("nonintegral_inputs", 0),
            "jsonio.emit_s": lt("jsonio", 0.0),
            "reports.sort_s": lt("reports", 0.0),
            "trace.missing_targets": len(self.missing),
            "trace.spans": len(self.spans),
        }
