"""Command-line surface: per-field genus reports, bulk range scans with a
result cache, the branch-configuration engine, the classical parity
datasets, and the node-code searches.

Exit codes: 0 success, 1 a verification check failed, 2 usage error,
3 resource bound exceeded, 141 stdout closed by its reader (128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing, nullcontext
from dataclasses import dataclass
from pathlib import Path

from .bqf import class_group, DEFAULT_MAX_DISC, DEFAULT_MAX_H, _require_within
from .errors import ResourceLimitError
from .genus import genus_report_json, report_for_d
from .intkit import factorize
from .keylemma import (
    BranchConfiguration,
    dataset_campedelli,
    dataset_werner,
    is_two_divisible,
    kernel_mod_e,
    lift_element,
    two_torsion_rank,
)
from .nodesets import (
    WeightCodeProblem,
    _check_node_budget,
    code_search,
    feasible_distributions,
    quintic_certificate,
)
from .quadfield import _discriminant, _ramified

SCHEMA_VERSION = "1"

# the genus report keys the checks read, each with its exact JSON type
_REPORT_TYPES = {
    "d": int, "r": int, "wide_rank": int, "kernel_masks": list,
    "gauss_holds": bool, "image_is_two_torsion": bool, "support_class_principal": bool, "norm_minus_one": bool,
}

# each check's outcome on such a report: True, False, or None if it does not apply
_CHECKS = {
    "gauss": lambda rep: rep["gauss_holds"],
    "kernel": lambda rep: len(rep["kernel_masks"]) == 2 and rep["image_is_two_torsion"],
    "wide": lambda rep: rep["wide_rank"] in (rep["r"] - 1, rep["r"] - 2),
    "norm_minus_one": lambda rep: None if rep["d"] < 0 else rep["support_class_principal"] == rep["norm_minus_one"],
}

ALL_CHECKS = tuple(_CHECKS)
SIGNS = ("both", "pos", "neg")


def _dump(data) -> str:
    return json.dumps(data, sort_keys=True)


def _load_json(text: str):
    """``json.loads`` for input from outside the program: a document
    nested too deep for the parser is a ValueError, like any other that
    does not decode."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply to decode") from None


# the start of every line _dump writes to the cache: sort_keys puts "key"
# first. A key has at most the digits of the largest |D| a scan may ask
# for, so a longer one is skipped before int() meets a string it refuses
_KEY_PREFIX = re.compile(rb'\{"key": (-?[0-9]{1,%d}), ' % len(str(DEFAULT_MAX_DISC)))
# bytes read at a time while indexing: with the default 8 KiB buffer, the
# bare line iteration over an 818 KB cache took 0.59 ms instead of 0.25 ms
_INDEX_BUFFER = 1 << 16


def _valid_value(line: str, D: int, ramified: tuple[int, ...] | None = None):
    """The value of the cache line ``line`` if it decodes to a record of
    the current schema for key ``D`` whose class number and the genus
    report keys the checks read have their exact types, and which
    describes the field of D, else None. That field's record has D in
    both its class group and its genus report, the report's d is the d
    of D, and the class number counts the reps; when ``ramified`` is
    given, the report's ramified primes are those and r is their count."""
    try:
        rec = _load_json(line)
        if not isinstance(rec, dict) or rec.get("version") != SCHEMA_VERSION:
            return None
        value = rec["value"]
        cg, rep = value["class_group"], value["genus_report"]
        if (
            rec["key"] == D
            and type(cg["h_plus"]) is int
            and cg["h_plus"] == len(cg["reps"])
            and isinstance(rep, dict)
            # bools are ints to isinstance, so the type is compared
            and all(type(rep.get(k)) is t for k, t in _REPORT_TYPES.items())
            and cg["D"] == rep.get("D") == D
            and rep["d"] == (D if D % 4 == 1 else D // 4)
            and (ramified is None or rep.get("ramified") == list(ramified) and rep["r"] == len(ramified))
        ):
            return value
    except (ValueError, KeyError, TypeError):
        pass
    return None


class ResultCache:
    """Append-only line-delimited JSON cache keyed by discriminant.

    Loading only indexes the file by byte offset: it reads the file as
    bytes, splits it into lines on ``\\n`` alone, and files the
    ``(offset, length)`` of each line that starts with the prefix
    ``{"key": <int>, `` that ``_dump`` writes under that key, the int of
    at most the digits of ``DEFAULT_MAX_DISC``. Any other line is
    skipped, and no line text is kept. A record is read from disk,
    decoded (undecodable bytes replaced) and validated when ``get``
    first asks for its key, newest line first, and the first valid one
    is kept in ``records``. So the newest valid record for a key wins. A
    line is skipped if it does not decode (an int too long to convert
    and nesting too deep for the parser included), or if its record
    lacks an int class number or one of the genus report keys the
    checks read at its exact type: ints ``d``, ``r``, ``wide_rank``,
    list ``kernel_masks``, bools ``gauss_holds``,
    ``image_is_two_torsion``, ``support_class_principal`` and
    ``norm_minus_one`` (0 is no bool, True no int). It is skipped too
    if it describes another field: its class group and genus report
    must both give D, the report the d of D, and the class number must
    count the reps; ``get(D, ramified)``, as ``run_scan`` calls it with
    the primes of its own factorisation of d, also requires the report's
    ramified primes and r to match. So neither a torn write, a mistyped
    edit nor a line filed under the wrong key poisons the file. A line
    whose decoded ``key`` differs from its prefix key (two ``key``
    members) is never served. The file is assumed append-only, so the
    offsets taken at load stay valid while ``put`` appends. The first
    ``get`` that needs a line opens the file for reading; the first
    ``put`` opens it for appending, line-buffered, ends a torn last
    line, and keeps it open: each record reaches the OS as its line is
    written. ``close`` closes both.
    """

    def __init__(self, path):
        self.path = Path(path)
        self.records: dict[int, dict] = {}
        self._spans: dict[int, list[tuple[int, int]]] = {}  # (offset, length), oldest first
        self._in = self._out = None
        self._torn_tail = False
        if not self.path.exists():
            return
        offset = 0
        with self.path.open("rb", buffering=_INDEX_BUFFER) as f:
            for line in f:
                m = _KEY_PREFIX.match(line)
                if m:
                    self._spans.setdefault(int(m[1]), []).append((offset, len(line)))
                offset += len(line)
        self._torn_tail = offset > 0 and not line.endswith(b"\n")

    def get(self, D: int, ramified: tuple[int, ...] | None = None):
        if D not in self.records:
            for offset, length in reversed(self._spans.pop(D, ())):
                if self._in is None:
                    self._in = self.path.open("rb")
                self._in.seek(offset)
                value = _valid_value(self._in.read(length).decode(errors="replace"), D, ramified)
                if value is not None:
                    self.records[D] = value
                    break
        return self.records.get(D)

    def put(self, D: int, value: dict) -> None:
        if self.get(D) is not None:
            return
        self.records[D] = value
        if self._out is None:
            self._out = self.path.open("a", buffering=1)
            if self._torn_tail:
                self._out.write("\n")
                self._torn_tail = False
        self._out.write(_dump({"key": D, "version": SCHEMA_VERSION, "value": value}) + "\n")

    def close(self) -> None:
        for f in (self._in, self._out):
            if f is not None:
                f.close()
        self._in = self._out = None


@dataclass(frozen=True)
class ScanJob:
    d_min: int
    d_max: int
    checks: tuple[str, ...]
    sign: str = "both"
    workers: int = 1
    max_h: int = DEFAULT_MAX_H

    def __post_init__(self):
        if self.d_min > self.d_max:
            raise ValueError("d_min must not exceed d_max")
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, not {self.workers}")
        if self.max_h < 1:
            raise ValueError(f"max_h must be at least 1, not {self.max_h}")
        if self.sign not in SIGNS:
            raise ValueError(f"unknown sign {self.sign!r}; choose from {', '.join(SIGNS)}")
        if not self.checks:
            raise ValueError("at least one check must be selected")
        for c in self.checks:
            if c not in ALL_CHECKS:
                raise ValueError(f"unknown check {c!r}; choose from {', '.join(ALL_CHECKS)}")


def compute_record(d: int, max_h: int = DEFAULT_MAX_H) -> dict:
    """Full cacheable record for one field: class group plus genus report."""
    field, cg, report, wide = report_for_d(d, max_h=max_h)
    return {
        "class_group": cg.to_json_dict(),
        "genus_report": genus_report_json(field, report, wide),
    }


def evaluate_checks(record: dict, checks) -> dict[str, bool | None]:
    """Re-derive check outcomes from a (possibly cached) record.

    Each outcome is exactly True, False, or None where the check does
    not apply to this field: ``ResultCache`` serves only records whose
    checked keys have the types that ensure it. ``checks`` are names
    ``ScanJob`` has already validated.
    """
    rep = record["genus_report"]
    return {check: _CHECKS[check](rep) for check in checks}


def _scan_worker(args):
    d, max_h = args
    return d, compute_record(d, max_h)


def run_scan(job: ScanJob, cache: ResultCache | None = None) -> dict:
    """Scan a d range, evaluating the selected checks per squarefree d.

    Returns the summary dict. One pass plans the range: each d is
    skipped or kept, with its cached record if there is one. A second
    pass walks the kept d in order, takes each cached record or the next
    fresh one, appends a fresh one to the cache as it arrives, and
    tallies it at once, so without a cache a scan holds only the anomaly
    reports, not every record. An interrupted run keeps its partial
    results: a killed process loses at most the line it was writing,
    which the cache loader skips, and the fields its workers (about 8
    chunks each) had not yet handed back. Sign "pos" clips the range to
    d >= 1 and "neg" to d <= -1; ``skipped`` counts the d left that are
    0, 1 or not squarefree. If some d left has |D| above the bound,
    ResourceLimitError is raised before anything is factorised or read
    from the cache. The pool has at most
    min(workers, fields to compute, CPU count) processes, however large
    ``job.workers`` is.
    """
    lo = max(job.d_min, 1) if job.sign == "pos" else job.d_min
    hi = min(job.d_max, -1) if job.sign == "neg" else job.d_max
    # D is d or 4d, and of two neighbouring d at most one is 1 mod 4, so
    # the largest |D| is at one of the two d nearest an end
    for d in (lo, lo + 1, hi - 1, hi):
        if lo <= d <= hi:
            _require_within(_discriminant(d))

    # the kept d in order, each with its cached record or None
    kept: list[tuple[int, dict | None]] = []
    skipped = 0
    for d in range(lo, hi + 1):
        if d in (0, 1) or not (fac := factorize(d)).is_squarefree:
            skipped += 1
            continue
        # a cached record is served only for this field, with D's primes
        cached = cache.get(_discriminant(d), _ramified(d, fac.primes)) if cache else None
        if cached is not None and (h := cached["class_group"]["h_plus"]) > job.max_h:
            raise ResourceLimitError(f"h+ = {h} exceeds the bound {job.max_h}")
        kept.append((d, cached))

    tasks = [(d, job.max_h) for d, cached in kept if cached is None]
    counts = {c: {"pass": 0, "fail": 0, "not_applicable": 0} for c in job.checks}
    anomalies = []
    # the pool forks all its workers at once, so never more than can run
    workers = min(job.workers, len(tasks), os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        fresh = pool.map(_scan_worker, tasks, chunksize=max(1, len(tasks) // (8 * workers))) if pool else map(_scan_worker, tasks)
        for d, rec in kept:
            if rec is None:
                rec = next(fresh)[1]
                if cache:
                    cache.put(rec["genus_report"]["D"], rec)
            results = evaluate_checks(rec, job.checks)
            for check, ok in results.items():
                counts[check]["not_applicable" if ok is None else "pass" if ok else "fail"] += 1
            failing = [check for check, ok in results.items() if ok is False]
            if failing:
                anomalies.append({"d": d, "failed": sorted(failing), "report": rec["genus_report"]})
    return {
        "d_min": job.d_min,
        "d_max": job.d_max,
        "checks": {c: counts[c] for c in sorted(counts)},
        "scanned": len(kept),
        "skipped": skipped,
        "anomalies": anomalies,
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------
# Each returns (exit code, JSON data, text lines) and prints nothing; main
# prints the data under --json and the lines otherwise.


def cmd_genus(args) -> tuple[int, dict, list[str]]:
    record = compute_record(args.d, args.bound)
    rep = record["genus_report"]
    cg = record["class_group"]
    return 0, rep, [
        f"d = {rep['d']}   D = {rep['D']}   r = {rep['r']} ramified primes",
        f"narrow class group: h+ = {cg['h_plus']}, invariant factors {cg['invariant_factors']}",
        f"rank Cl+[2] = {rep['rank2']}  (r - 1 = {rep['r'] - 1})  gauss_holds: {rep['gauss_holds']}",
        f"genus map kernel masks: {rep['kernel_masks']}  generator kind: {rep['kernel_generator_kind']}",
        f"image equals full 2-torsion: {rep['image_is_two_torsion']}",
        f"wide rank: {rep['wide_rank']}   support class principal: {rep['support_class_principal']}   norm -1 unit: {rep['norm_minus_one']}",
    ]


def cmd_classgroup(args) -> tuple[int, dict, list[str]]:
    cg = class_group(args.D, max_h=args.bound)
    data = cg.to_json_dict()
    lines = [f"D = {data['D']}: h+ = {data['h_plus']}, invariant factors {data['invariant_factors']}"]
    for i, rep in enumerate(data["reps"]):
        lines.append(f"  [{i}] ({rep[0]}, {rep[1]}, {rep[2]})")
    lines.append(f"two-torsion basis indices: {data['two_torsion_basis']}")
    return 0, data, lines


def cmd_scan(args) -> tuple[int, dict, list[str]]:
    checks = tuple(c.strip() for c in args.checks.split(",") if c.strip())
    job = ScanJob(
        d_min=args.d_min,
        d_max=args.d_max,
        checks=checks,
        sign=args.sign,
        workers=args.workers,
        max_h=args.bound,
    )
    with closing(ResultCache(args.cache)) if args.cache else nullcontext() as cache:
        summary = run_scan(job, cache)
    lines = [f"scanned {summary['scanned']} squarefree d in [{summary['d_min']}, {summary['d_max']}], skipped {summary['skipped']}"]
    for check, c in summary["checks"].items():
        lines.append(f"  {check}: {c['pass']} pass, {c['fail']} fail, {c['not_applicable']} n/a")
    for a in summary["anomalies"]:
        lines.append(f"  ANOMALY d={a['d']}: failed {a['failed']}")
    return (1 if summary["anomalies"] else 0), summary, lines


def cmd_keylemma(args) -> tuple[int, dict, list[str]]:
    try:
        config = BranchConfiguration.from_json_dict(_load_json(Path(args.config_file).read_text()))
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"cannot read branch configuration: {exc}") from exc
    reps = kernel_mod_e(config)
    result = {
        "kernel_basis_masks": reps,
        "quotient_rank": len(reps),
        "pic_two_rank": config.pic_two_rank,
        "two_torsion_rank": two_torsion_rank(config),
    }
    return 0, result, [
        f"quotient kernel rank: {result['quotient_rank']}",
        f"two-torsion rank (including downstairs): {result['two_torsion_rank']}",
        f"coset representative masks: {reps}",
    ]


def _parity_check(name: str, vector) -> dict:
    ok, half = is_two_divisible(vector)
    return {
        "name": name,
        "vector": list(vector.coords),
        "divisible_by_2": ok,
        "half": list(half.coords) if half else None,
    }


def cmd_campedelli(args) -> tuple[int, dict, list[str]]:
    cam = dataset_campedelli()
    wer = dataset_werner()
    checks = [
        _parity_check("branch divisor Ct + Et1..5", cam.branch),
        _parity_check("conic block Qt + Et1..4", wer.even_block),
    ]
    all_pass = all(c["divisible_by_2"] for c in checks)
    out = {"basis": list(cam.basis), "checks": checks, "all_pass": all_pass}
    lines = []
    for c in checks:
        lines.append(f"{c['name']}: divisible by 2: {c['divisible_by_2']}  half: {c['half']}")
    lines.append(f"all parity checks pass: {all_pass}")
    return (0 if all_pass else 1), out, lines


def cmd_werner(args) -> tuple[int, dict, list[str]]:
    wer = dataset_werner()
    parity = _parity_check("conic block Qt + Et1..4", wer.even_block)
    reps = kernel_mod_e(wer.config)
    lift = lift_element(wer.config, reps[0], "bL - Ep1 - Ep2 - Ep3 - Ep4") if reps else None
    decomposition = dataset_campedelli().c_tilde.coords == (wer.b_tilde + wer.q_tilde).coords
    out = {
        "parity": parity,
        "decomposition_matches_campedelli": decomposition,
        "kernel_rank": len(reps),
        "two_torsion_rank": two_torsion_rank(wer.config),
        "kernel_masks": reps,
        "lift": lift.expression if lift else None,
    }
    ok = parity["divisible_by_2"] and decomposition and len(reps) >= 1
    lines = [
        f"parity check: {parity['divisible_by_2']}  half: {parity['half']}",
        f"B + Q decomposes the degree-10 curve: {decomposition}",
        f"cover 2-torsion rank: {out['two_torsion_rank']} (kernel masks {reps})",
    ]
    if lift:
        lines.append(f"lift of the nontrivial class: {lift.expression}")
    return (0 if ok else 1), out, lines


def cmd_nodecode(args) -> tuple[int, dict, list[str]]:
    _check_node_budget(args.node_budget)
    weights = frozenset(int(w) for w in args.weights.split(","))
    problem = WeightCodeProblem(args.n, args.k, weights)
    filt = feasible_distributions(problem)
    search = code_search(problem, node_budget=args.node_budget)
    out = {
        "n": problem.n,
        "k": problem.k,
        "allowed": sorted(problem.allowed),
        "macwilliams_feasible": len(filt),
        "filter_conclusive": len(filt) == 0,
        "search": search.verdict,
        "decided_by": "macwilliams+search" if len(filt) == 0 else "search",
        "search_nodes": search.nodes,
        "witness": search.generator_bitstrings(),
    }
    lines = [
        f"[{problem.n}, {problem.k}] with weights {sorted(problem.allowed)}: {search.verdict}",
        f"MacWilliams filter: {len(filt)} feasible distribution(s) "
        f"({'already conclusive' if not filt else 'not conclusive'}); search is authoritative",
    ]
    if search.exists:
        for row in out["witness"]:
            lines.append(f"  {row}")
    return 0, out, lines


def cmd_quintic(args) -> tuple[int, dict, list[str]]:
    cert = quintic_certificate(
        b2=args.b2,
        nodes=args.nodes,
        min_even=args.min_even,
        second_even=args.second_even,
        node_budget=args.node_budget,
    )
    lines = []
    for step in cert.steps:
        lines.append(f"[{step.source}] {step.claim}")
        lines.append(f"    {step.arithmetic}")
    lines.append(f"verdict: {cert.verdict}")
    return 0, cert.to_json_dict(), lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genuskit",
        description="narrow class groups, genus maps, double-cover 2-torsion, and node-set code searches",
    )
    parser.add_argument("--config", metavar="FILE", help="JSON file with defaults for the global flags")
    parser.add_argument("--json", action="store_true", default=None, help="machine-readable JSON output")
    parser.add_argument("--cache", metavar="PATH", help="line-delimited JSON result cache")
    parser.add_argument("--workers", type=int, metavar="N", help="parallel workers for scans (default 1)")
    parser.add_argument("--bound", type=int, metavar="H", help=f"maximum class number (default {DEFAULT_MAX_H})")
    # --json is also accepted after the subcommand; SUPPRESS leaves the
    # global value in place when it is not given there
    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument("--json", action="store_true", default=argparse.SUPPRESS, help="machine-readable JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("genus", parents=[json_flag], help="genus report for one squarefree d")
    p.add_argument("-d", type=int, required=True, dest="d")
    p.set_defaults(func=cmd_genus)

    p = sub.add_parser("classgroup", parents=[json_flag], help="narrow class group of a fundamental discriminant")
    p.add_argument("-D", type=int, required=True, dest="D")
    p.set_defaults(func=cmd_classgroup)

    p = sub.add_parser("scan", parents=[json_flag], help="verify checks across a range of d")
    p.add_argument("d_min", type=int)
    p.add_argument("d_max", type=int)
    p.add_argument("--checks", default=",".join(ALL_CHECKS), help="comma-separated subset of " + ",".join(ALL_CHECKS))
    p.add_argument("--sign", choices=SIGNS, default="both")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("keylemma", parents=[json_flag], help="kernel/rank of a branch configuration JSON file")
    p.add_argument("config_file")
    p.set_defaults(func=cmd_keylemma)

    p = sub.add_parser("campedelli", parents=[json_flag], help="parity checks of the Campedelli/Werner branch data")
    p.set_defaults(func=cmd_campedelli)

    p = sub.add_parser("werner", parents=[json_flag], help="Werner branch configuration: parity, kernel, lift")
    p.set_defaults(func=cmd_werner)

    p = sub.add_parser("nodecode", parents=[json_flag], help="weight-restricted binary code existence")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-w", "--weights", required=True, help="comma-separated allowed nonzero weights")
    p.add_argument("--node-budget", type=int, default=None)
    p.set_defaults(func=cmd_nodecode)

    p = sub.add_parser("quintic", parents=[json_flag], help="replay the 32-node quintic node-set chain and report its honest verdict")
    p.add_argument("--b2", type=int, default=53)
    p.add_argument("--nodes", type=int, default=32)
    p.add_argument("--min-even", type=int, default=16)
    p.add_argument("--second-even", type=int, default=20)
    p.add_argument("--node-budget", type=int, default=None)
    p.set_defaults(func=cmd_quintic)

    return parser


# each global flag's default, and the exact JSON types a config file may give it
_GLOBAL_DEFAULTS = {
    "json": (False, (bool,)),
    "cache": (None, (str, type(None))),
    "workers": (1, (int,)),
    "bound": (DEFAULT_MAX_H, (int,)),
}


def _apply_config(args) -> None:
    # resolution order: explicit flag > config file entry > built-in default
    config = {}
    if args.config:
        config = _load_json(Path(args.config).read_text())
        if not isinstance(config, dict):
            raise ValueError("the config file must hold a JSON object")
        unknown = set(config) - set(_GLOBAL_DEFAULTS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, value in config.items():
            # the type is compared, since a bool is an int to isinstance
            if type(value) not in _GLOBAL_DEFAULTS[key][1]:
                raise ValueError(f"config key {key!r} has a value of the wrong type: {value!r}")
    for key, (default, _) in _GLOBAL_DEFAULTS.items():
        if getattr(args, key) is None:
            setattr(args, key, config.get(key, default))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args)
        code, data, lines = args.func(args)
        print(_dump(data) if args.json else "\n".join(lines))
        # a closed pipe fails this flush, not the one at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has gone: say nothing, and point stdout at devnull so
        # the flush at exit has nothing to report (the note on SIGPIPE in
        # the signal module's docs); 141 = 128 + SIGPIPE, as a shell reports it
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ResourceLimitError as exc:
        print(f"resource bound exceeded: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
