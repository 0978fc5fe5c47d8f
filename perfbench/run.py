"""Benchmark for genuskit: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload scan-cold --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from ``src/``
of that checkout. The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones from a traced run (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
sys.path.insert(0, str(BENCH_DIR))

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
MODULES = ("intkit", "quadfield", "bqf", "genus", "cli", "nodesets")


def import_genuskit() -> dict:
    """Import genuskit afresh from this checkout's ``src/``; returns its
    modules by short name."""
    for name in [m for m in sys.modules if m == "genuskit" or m.startswith("genuskit.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import genuskit  # noqa: F401
    import genuskit.cli

    location = Path(genuskit.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise ImportError(f"genuskit was imported from {location}, not from {SRC}")
    return {m: sys.modules[f"genuskit.{m}"] for m in MODULES}


def setup(name: str, seed: int, workdir: Path):
    """Set up at least SETUP_REPEATS times and for at least SETUP_MIN_S in
    all: import, inputs with their reference values, and any cache fill.
    Returns the modules, the last workload and the median set-up time."""
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
        oracles.class_number_imaginary.cache_clear()
        t0 = perf_counter()
        gk = import_genuskit()
        workload = workloads.WORKLOADS[name](gk, seed, workdir)
        times.append(perf_counter() - t0)
    return gk, workload, statistics.median(times)


class Tally:
    def __init__(self):
        self.op_times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.rounds = 0

    @property
    def busy(self) -> float:
        return sum(self.op_times)

    def ops_per_s(self) -> float:
        return (self.attempted - self.failed) / self.busy


def run_rounds(workload, seconds: float, tally: Tally, op_wrapper=None) -> None:
    """Whole rounds of the workload's operations until the timed
    operations add up to ``seconds``. Checks run outside the timing."""
    start_busy = tally.busy
    while tally.busy - start_busy < seconds:
        workload.begin_round()
        for op in workload.ops:
            run = op.run if op_wrapper is None else op_wrapper(op.run)
            tally.attempted += 1
            t0 = perf_counter()
            try:
                out = run()
            except Exception:
                tally.op_times.append(perf_counter() - t0)
                tally.failed += 1
                traceback.print_exc(file=sys.stderr)
                continue
            tally.op_times.append(perf_counter() - t0)
            try:
                problems = op.check(out)
            except Exception as exc:  # an output of the wrong shape is a wrong output
                problems = [f"{type(exc).__name__}: {exc}"]
            if problems:
                tally.failed += 1
                tally.wrong += 1
                print(f"check failed on {op.label}: {problems}", file=sys.stderr)
        tally.rounds += 1


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, workload, setup_s) -> tuple[Tally, dict]:
    tally = Tally()
    run_rounds(workload, args.seconds, tally)
    return tally, {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(tally.ops_per_s(), "1/s"),
        "op_s_p50": metric(statistics.median(tally.op_times), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(args, gk, workload) -> tuple[Tally, dict]:
    """Half the time untraced, then half traced; layer figures are per
    round of the traced half."""
    plain = Tally()
    run_rounds(workload, args.seconds / 2, plain)
    tracer = tracing.Tracer()
    tracing.install(tracer, gk)
    traced = Tally()
    try:
        run_rounds(workload, args.seconds / 2, traced, lambda fn: tracer.wrap(fn, "op"))
    finally:
        tracer.unpatch()
    tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json")

    calls, self_s = tracer.self_times()
    counts = tracer.counts
    layer = {
        "intkit.factorize_calls": (calls["intkit.factorize"], "count"),
        "intkit.factorize_s": (self_s["intkit.factorize"], "s"),
        "quadfield.field_s": (self_s["quadfield.field_from_d"], "s"),
        "quadfield.unit_calls": (calls["quadfield.fundamental_unit"], "count"),
        "quadfield.unit_s": (self_s["quadfield.fundamental_unit"], "s"),
        "bqf.class_group_calls": (calls["bqf.class_group"], "count"),
        "bqf.classes": (counts["bqf.classes"], "count"),
        "bqf.class_group_s": (self_s["bqf.class_group"], "s"),
        "bqf.ambiguous_form_calls": (calls["bqf.ambiguous_form"], "count"),
        "bqf.ambiguous_form_s": (self_s["bqf.ambiguous_form"], "s"),
        "bqf.class_index_calls": (calls["bqf.class_index"], "count"),
        "bqf.class_index_s": (self_s["bqf.class_index"], "s"),
        "bqf.mul_calls": (calls["bqf.mul"], "count"),
        "genus.verify_gauss_s": (self_s["genus.verify_gauss"], "s"),
        "genus.wide_two_torsion_s": (self_s["genus.wide_two_torsion"], "s"),
        "cli.cache_load_s": (self_s["cli.cache_load"], "s"),
        "cli.cache_records": (counts["cli.cache_records"], "count"),
        "cli.run_scan_s": (self_s["cli.run_scan"], "s"),
        "cli.cache_puts": (calls["cli.cache_put"], "count"),
        "cli.cache_put_s": (self_s["cli.cache_put"], "s"),
        "cli.compute_record_s": (self_s["cli.compute_record"], "s"),
        "nodesets.filter_candidates": (counts["nodesets.filter_candidates"], "count"),
        "nodesets.filter_s": (self_s["nodesets.feasible_distributions"], "s"),
        "nodesets.certificate_s": (self_s["nodesets.quintic_certificate"], "s"),
    }
    for kind in ("exists", "nonexistent"):
        layer[f"nodesets.search_nodes.{kind}"] = (counts[f"nodesets.search_nodes.{kind}"], "count")
        layer[f"nodesets.search_s.{kind}"] = (counts[f"nodesets.search_s.{kind}"], "s")
    for module in MODULES:
        prefix = module + "."
        layer[f"{module}.calls"] = (sum(c for k, c in calls.items() if k.startswith(prefix)), "count")
        layer[f"{module}.self_s"] = (sum(s for k, s in self_s.items() if k.startswith(prefix)), "s")
    metrics = {name: metric(v / traced.rounds, unit) for name, (v, unit) in layer.items()}
    for kind in ("exists", "nonexistent"):
        seconds = counts[f"nodesets.search_s.{kind}"]
        rate = counts[f"nodesets.search_nodes.{kind}"] / seconds if seconds else 0.0
        metrics[f"nodesets.search_nodes_per_s.{kind}"] = metric(rate, "1/s")
    metrics["tracing.overhead"] = metric(100 * (plain.ops_per_s() / traced.ops_per_s() - 1), "%")

    both = Tally()
    for t in (plain, traced):
        both.attempted += t.attempted
        both.failed += t.failed
        both.wrong += t.wrong
    return both, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    failures = oracles.self_check()
    if failures:
        print(f"reference computations failed their known values: {failures}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        gk, workload, setup_s = setup(args.workload, args.seed, workdir)
        if args.trace:
            tally, metrics = per_layer(args, gk, workload)
        else:
            tally, metrics = end_to_end(args, workload, setup_s)
    finally:
        for f in workdir.iterdir():
            f.unlink()
        workdir.rmdir()
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
