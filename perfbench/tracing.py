"""Spans recorded from outside the program, by wrapping genuskit's public
functions under the names its modules call them by.

A module that did ``from .intkit import factorize`` looks the name up in
its own globals on every call, so replacing ``bqf.factorize`` with a
wrapper traces exactly the calls bqf makes. Methods are wrapped on the
class. Spans stay in memory (parallel arrays) until the run ends.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter
from math import comb
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.stack = [-1]
        self.counts: Counter[str] = Counter()
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, fn, name, observe=None):
        names, start, end, parent, stack = self.names, self.start, self.end, self.parent, self.stack
        counts = self.counts

        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(counts, args, result, end[i] - start[i])
            return result

        return traced

    def patch(self, owner, attr, name, observe=None):
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, observe))

    def unpatch(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def self_times(self) -> tuple[Counter, Counter]:
        """Per span name: number of calls and summed self time, where a
        span's self time is its duration minus its children's."""
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls: Counter[str] = Counter()
        self_s: Counter[str] = Counter()
        for i, name in enumerate(self.names):
            calls[name] += 1
            self_s[name] += self.end[i] - self.start[i] - child[i]
        return calls, self_s

    def write(self, path) -> None:
        index = {n: i for i, n in enumerate(dict.fromkeys(self.names))}
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": list(index),
                    "columns": ["name", "start", "end", "parent"],
                    "spans": [
                        [index[n], s, e, p]
                        for n, s, e, p in zip(self.names, self.start, self.end, self.parent)
                    ],
                },
                fh,
            )


def _count_classes(counts, args, cg, seconds):
    counts["bqf.classes"] += cg.h_plus


def _count_cache_records(counts, args, result, seconds):
    counts["cli.cache_records"] += len(args[0].records)


def _count_filter_candidates(counts, args, result, seconds):
    problem = args[0]
    t = len(problem.allowed)
    counts["nodesets.filter_candidates"] += comb((1 << problem.k) - 1 + t - 1, t - 1) if t else 1


def _count_search(counts, args, outcome, seconds):
    # code_search has no traced children, so its duration is its self time
    kind = outcome.verdict.lower()
    counts[f"nodesets.search_nodes.{kind}"] += outcome.nodes
    counts[f"nodesets.search_s.{kind}"] += seconds


def install(tracer: Tracer, gk) -> None:
    """Wrap the public functions of every genuskit module at the places
    the program calls them from. ``gk`` maps module names to modules."""
    bqf, cli, genus, nodesets, quadfield = (gk[m] for m in ("bqf", "cli", "genus", "nodesets", "quadfield"))
    for module in (bqf, quadfield, cli):
        tracer.patch(module, "factorize", "intkit.factorize")
    tracer.patch(genus, "field_from_d", "quadfield.field_from_d")
    tracer.patch(genus, "has_norm_minus_one", "quadfield.has_norm_minus_one")
    tracer.patch(quadfield, "fundamental_unit", "quadfield.fundamental_unit")
    tracer.patch(genus, "class_group", "bqf.class_group", _count_classes)
    tracer.patch(genus, "ambiguous_form", "bqf.ambiguous_form")
    tracer.patch(bqf.ClassGroup, "class_index", "bqf.class_index")
    tracer.patch(bqf.ClassGroup, "mul", "bqf.mul")
    for name in ("verify_gauss", "wide_two_torsion", "genus_map_kernel", "ambiguous_class_indices", "genus_map"):
        tracer.patch(genus, name, f"genus.{name}")
    tracer.patch(cli, "report_for_d", "genus.report_for_d")
    tracer.patch(cli, "genus_report_json", "genus.genus_report_json")
    tracer.patch(cli, "compute_record", "cli.compute_record")
    tracer.patch(cli, "evaluate_checks", "cli.evaluate_checks")
    tracer.patch(cli, "run_scan", "cli.run_scan")
    tracer.patch(cli.ResultCache, "__init__", "cli.cache_load", _count_cache_records)
    tracer.patch(cli.ResultCache, "get", "cli.cache_get")
    tracer.patch(cli.ResultCache, "put", "cli.cache_put")
    tracer.patch(nodesets, "feasible_distributions", "nodesets.feasible_distributions", _count_filter_candidates)
    tracer.patch(nodesets, "code_search", "nodesets.code_search", _count_search)
    tracer.patch(nodesets, "quintic_certificate", "nodesets.quintic_certificate")
