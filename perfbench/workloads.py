"""The four workloads. Each one turns a seed into a fixed list of
operations (one round), with the reference values its checks need.

An operation is one timed call into genuskit's public API; ``check``
runs outside the timing and returns a list of problems (empty when the
output is right). Rounds repeat the same operations, so a run always
attempts whole rounds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import pi, prod, sqrt
from pathlib import Path
from typing import Any, Callable

import oracles

DEFAULT_SEED = 1


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]


class Workload:
    ops: list[Op]

    def begin_round(self) -> None:
        """Untimed preparation before each round."""


def field_problems(d: int, record: dict | None) -> list[str]:
    """Gauss's identity against our own r, h+ against our own count of
    reduced forms when D < 0, and the invariant factors against h+."""
    if record is None:
        return [f"d={d}: no record"]
    D = oracles.discriminant(d)
    rep, cg = record["genus_report"], record["class_group"]
    out = []
    if rep["D"] != D or cg["D"] != D:
        out.append(f"d={d}: D reported as {rep['D']}/{cg['D']}, expected {D}")
    r = oracles.ramified_count(d)
    if rep["rank2"] != r - 1:
        out.append(f"d={d}: rank2 = {rep['rank2']}, but r - 1 = {r - 1}")
    if D < 0 and cg["h_plus"] != oracles.class_number_imaginary(D):
        out.append(f"d={d}: h+ = {cg['h_plus']}, but {oracles.class_number_imaginary(D)} reduced forms")
    if prod(cg["invariant_factors"]) != cg["h_plus"]:
        out.append(f"d={d}: invariant factors {cg['invariant_factors']} do not multiply to h+ = {cg['h_plus']}")
    return out


def summary_problems(window: tuple[int, int], fields: list[int], summary: dict) -> list[str]:
    """A scan summary covers every d of its window and finds no anomaly."""
    lo, hi = window
    out = []
    if summary["anomalies"]:
        out.append(f"{window}: anomalies at d = {[a['d'] for a in summary['anomalies']]}")
    if summary["scanned"] != len(fields) or summary["scanned"] + summary["skipped"] != hi - lo + 1:
        out.append(
            f"{window}: scanned {summary['scanned']} + skipped {summary['skipped']}, "
            f"expected {len(fields)} fields among {hi - lo + 1} d"
        )
    for check, c in summary["checks"].items():
        if c["fail"] or c["pass"] + c["not_applicable"] != len(fields):
            out.append(f"{window}: check {check} counts {c}")
    return out


class ScanWindows(Workload):
    """Windows of consecutive d tiling [-HALF, HALF), shifted as a whole
    by a seeded offset below WIDTH, so every seed scans nearly the same
    fields and the cost of a round barely depends on the seed."""

    WIDTH = 100
    HALF = 2500

    def __init__(self, gk, seed: int, workdir: Path):
        self.cli = gk["cli"]
        shift = random.Random(f"{type(self).__name__}:{seed}").randrange(-self.WIDTH // 2, self.WIDTH // 2)
        lo, hi = -self.HALF + shift, self.HALF + shift - 1
        self.h = {}  # reference h+ of each imaginary field, None for real ones
        for d in range(lo, hi + 1):
            if oracles.defines_field(d):
                D = oracles.discriminant(d)
                self.h[d] = oracles.class_number_imaginary(D) if D < 0 else None
        self.windows = self.cut(lo, hi)
        self.fields = {w: [d for d in range(w[0], w[1] + 1) if d in self.h] for w in self.windows}

    def cut(self, lo, hi):
        return [(a, min(a + self.WIDTH - 1, hi)) for a in range(lo, hi + 1, self.WIDTH)]

    def job(self, window):
        return self.cli.ScanJob(window[0], window[1], self.cli.ALL_CHECKS, sign="both", workers=1)


class ScanCold(ScanWindows):
    """``run_scan`` over each window, appending to a cache that is empty
    when the round starts.

    Cold windows are cut to equal estimated cost, so that the median
    operation is not a window at the edge between cheap real fields and
    dear imaginary ones. The estimate, fitted to single-field timings, is
    0.37 ms + 6.3 us * h^2 for an imaginary field and 0.93 ms for a real
    one; the cost is in the h x h composition table and the unit.
    """

    WINDOWS = 50

    def cut(self, lo, hi):
        cost = {d: 0.93 if h is None else 0.37 + 0.0063 * h * h for d, h in self.h.items()}
        share = sum(cost.values()) / self.WINDOWS
        windows, start, acc = [], lo, 0.0
        for d in range(lo, hi + 1):
            acc += cost.get(d, 0.0)
            if acc >= (len(windows) + 1) * share and len(windows) < self.WINDOWS - 1:
                windows.append((start, d))
                start = d + 1
        windows.append((start, hi))
        return windows

    def __init__(self, gk, seed, workdir):
        super().__init__(gk, seed, workdir)
        self.cache_path = workdir / "scan-cold.jsonl"
        self.cache = None
        self.ops = [Op(f"scan {w}", self._scan(w), self._check(w)) for w in self.windows]

    def begin_round(self):
        self.cache_path.unlink(missing_ok=True)
        self.cache = self.cli.ResultCache(self.cache_path)

    def _scan(self, window):
        job = self.job(window)
        return lambda: self.cli.run_scan(job, self.cache)

    def _check(self, window):
        def check(summary):
            out = summary_problems(window, self.fields[window], summary)
            for d in self.fields[window]:
                out += field_problems(d, self.cache.records.get(oracles.discriminant(d)))
            return out

        return check


class ScanCached(ScanWindows):
    """Set-up fills a cache with a cold scan of every window; each
    operation then opens the cache file and scans one window from it,
    the work of one ``genuskit --cache FILE scan`` call."""

    HALF = 1200

    def __init__(self, gk, seed, workdir):
        super().__init__(gk, seed, workdir)
        self.cache_path = workdir / "scan-cached.jsonl"
        self.cache_path.unlink(missing_ok=True)
        fill = self.cli.ResultCache(self.cache_path)
        self.cold = {w: self.cli.run_scan(self.job(w), fill) for w in self.windows}
        self.fill_records = fill.records
        self.fill_problems = None
        self.ops = [Op(f"cached scan {w}", self._scan(w), self._check(w)) for w in self.windows]

    def begin_round(self):
        if self.fill_problems is None:
            self.fill_problems = [
                p for w in self.windows for d in self.fields[w]
                for p in field_problems(d, self.fill_records.get(oracles.discriminant(d)))
            ]

    def _scan(self, window):
        job = self.job(window)
        return lambda: self.cli.run_scan(job, self.cli.ResultCache(self.cache_path))

    def _check(self, window):
        def check(summary):
            out = list(self.fill_problems)
            out += summary_problems(window, self.fields[window], summary)
            if summary != self.cold[window]:
                out.append(f"{window}: cached summary differs from the cold scan's")
            return out

        return check


# Two bands of single fields. Imaginary fields with d = 2, 3 (mod 4) have
# D = 4d, so every ambiguous form is found at b = 0 or 2 and the h x h
# composition table dominates; each is drawn with h+ close to a target,
# since the table's cost goes with h^2. Real fields with d prime and
# d = 1 (mod 4) have D = d = p, where ambiguous_form scans b up to p and
# the class group is tiny; each is drawn within 2% of a target p. The
# real fields, about 1 s each, fill the middle of a round of nine, so
# its median is the median of many like operations.
H_TARGETS = (150, 300, 450, 700)
P_TARGETS = (1_800_000, 1_900_000, 2_000_000, 2_100_000, 2_200_000)
P_JITTER = 0.02
H_TRIES = 10
_EULER_PRIMES = [p for p in range(3, 200) if oracles.is_prime(p)]


def _estimated_h(D: int) -> float:
    """h(D) from the class number formula with a truncated Euler product
    (D even, so the factor at 2 is 1)."""
    value = sqrt(-D) / pi
    for p in _EULER_PRIMES:
        chi = pow(D % p, (p - 1) // 2, p)
        value /= 1 - (-1 if chi == p - 1 else chi) / p
    return value


def draw_imaginary(target: int, rng: random.Random) -> int:
    """An imaginary d = 2, 3 (mod 4) whose h+ is the closest to target
    among the first H_TRIES candidates the Euler product puts within 10%
    of it. A fixed number of exact counts keeps set-up time seed-free."""
    d = -int((pi * target / 2) ** 2 * rng.uniform(0.9, 1.1))
    best = None
    for _ in range(H_TRIES):
        d -= 1
        while d % 4 not in (2, 3) or not oracles.is_squarefree(d) or abs(_estimated_h(4 * d) - target) > 0.1 * target:
            d -= 1
        h = oracles.class_number_imaginary(4 * d)
        if best is None or abs(h - target) < abs(best[1] - target):
            best = (d, h)
    return best[0]


def draw_prime(target: int, rng: random.Random) -> int:
    p = int(target * rng.uniform(1 - P_JITTER, 1 + P_JITTER))
    while not (p % 4 == 1 and oracles.is_prime(p)):
        p += 1
    return p


class FieldsLarge(Workload):
    """``compute_record(d)`` for one field, the work of ``genuskit genus -d``."""

    def __init__(self, gk, seed, workdir):
        self.cli = gk["cli"]
        rng = random.Random(f"fields-large:{seed}")
        self.fields = [draw_imaginary(h, rng) for h in H_TARGETS]
        self.fields += [draw_prime(p, rng) for p in P_TARGETS]
        self.ops = [Op(f"genus -d {d}", self._record(d), self._check(d)) for d in self.fields]

    def _record(self, d):
        return lambda: self.cli.compute_record(d)

    def _check(self, d):
        return lambda record: field_problems(d, record)


# Code-search instances in cost tiers, so that every seed's draw costs
# about the same. EXISTS entries carry a witness (generator rows as
# integers, bit i = column i), re-verified by span enumeration at set-up:
# a NONEXISTENT verdict on them is provably wrong. NONEXISTENT entries
# are all ruled out by the MacWilliams identities alone, which the
# checks recompute. Search times measured on 2 CPUs, Python 3.11.
EXISTS_SMALL = [  # about 0.3 s
    (32, 5, (16, 20, 32), (0xFFFF, 0xFFFF0000, 0xFF00FF, 0xF0F0F0F, 0x33333333)),
    (17, 6, (4, 8, 12), (0xF, 0xF0, 0xF00, 0x3300, 0x5500, 0x18030)),
    (17, 6, (4, 8, 14), (0xF, 0xF0, 0x330, 0x550, 0x1803, 0x2805)),
    (18, 5, (6, 8, 14), (0x3F, 0x3FC0, 0x3C3, 0xCCC, 0x1554)),
    (16, 6, (4, 8, 10), (0xF, 0xF0, 0x330, 0x550, 0x1803, 0x2805)),
    (17, 6, (4, 8, 10), (0xF, 0xF0, 0x330, 0x550, 0x1803, 0x2805)),
]
EXISTS_LARGE = [  # about 2 s
    (20, 6, (8, 12), (0xFF, 0x3F03, 0x3C30C, 0xCCC30, 0x5D150, 0xE4684)),
    (22, 6, (8, 12, 16), (0xFF, 0xFF00, 0xF0F00, 0x333300, 0x355003, 0x35A00C)),
]
NONEXISTENT_MID = [  # about 0.6 s
    (18, 6, (8, 14)),
    (16, 5, (6, 12)),
    (16, 6, (6, 12)),
    (16, 5, (6, 12, 14)),
    (16, 6, (6, 12, 14)),
    (16, 5, (6, 12, 16)),
    (16, 6, (6, 12, 16)),
]
NONEXISTENT_LARGE = [  # about 1.25 s
    (23, 5, (12, 14)),
    (17, 5, (4, 10, 12)),
    (16, 6, (4, 10, 14)),
]
# Every NONEXISTENT_MID instance runs twice in every round: sorted by
# time, the 21 operations put the median inside that tier of 14, so it is
# the median of many like operations and does not depend on the draw.
DRAWS = (
    (EXISTS_SMALL, 4),
    (EXISTS_LARGE, 1),
    (NONEXISTENT_MID, len(NONEXISTENT_MID)),
    (NONEXISTENT_MID, len(NONEXISTENT_MID)),
    (NONEXISTENT_LARGE, 1),
)


class Codes(Workload):
    """One ``nodecode`` problem (``feasible_distributions`` then
    ``code_search``) per operation, plus one ``quintic_certificate()``."""

    def __init__(self, gk, seed, workdir):
        self.ns = gk["nodesets"]
        rng = random.Random(f"codes:{seed}")
        self.rm15 = oracles.reed_muller_1_5()
        self.ops = [Op("quintic", lambda: self.ns.quintic_certificate(), self._check_quintic)]
        for tier, count in DRAWS:
            for entry in rng.sample(tier, count):
                n, k, allowed = entry[:3]
                witness = entry[3] if len(entry) > 3 else None
                if witness is not None and not oracles.witness_ok(list(witness), n, k, allowed):
                    raise ValueError(f"pool witness for [{n}, {k}] {allowed} is not valid")
                feasible = oracles.feasible_count(n, k, allowed)
                if witness is None and feasible:
                    raise ValueError(f"pool entry [{n}, {k}] {allowed} is not ruled out by MacWilliams")
                problem = self.ns.WeightCodeProblem(n, k, frozenset(allowed))
                self.ops.append(Op(f"nodecode [{n}, {k}] {allowed}", self._solve(problem),
                                   self._check_code(problem, feasible, witness is not None)))

    def _solve(self, problem):
        return lambda: (self.ns.feasible_distributions(problem), self.ns.code_search(problem))

    @staticmethod
    def _check_code(problem, feasible, exists):
        n, k, allowed = problem.n, problem.k, problem.allowed

        def check(out):
            filt, outcome = out
            problems = []
            if len(filt) != feasible:
                problems.append(f"filter kept {len(filt)} distributions, expected {feasible}")
            if outcome.verdict == "EXISTS":
                if not oracles.witness_ok(list(outcome.generators), n, k, allowed):
                    problems.append(f"witness {outcome.generators} fails span enumeration")
            elif exists:
                problems.append("NONEXISTENT, but a verified witness exists")
            elif feasible:
                problems.append(f"NONEXISTENT, yet {feasible} distributions pass MacWilliams")
            return problems

        return check

    def _check_quintic(self, cert):
        problems = []
        if cert.verdict != "INCONCLUSIVE" or cert.filter_count != 1:
            problems.append(f"verdict {cert.verdict} with filter_count {cert.filter_count}")
        gens = list(cert.search.generators) if cert.search and cert.search.generators else []
        if not oracles.witness_ok(gens, 32, 6, {16, 20, 32}):
            problems.append(f"witness {gens} fails span enumeration")
        elif oracles.span_distribution(gens, 32) != self.rm15:
            problems.append(f"witness distribution {oracles.span_distribution(gens, 32)} is not RM(1,5)'s")
        return problems


WORKLOADS = {
    "scan-cold": ScanCold,
    "scan-cached": ScanCached,
    "fields-large": FieldsLarge,
    "codes": Codes,
}
