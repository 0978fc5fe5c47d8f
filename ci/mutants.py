#!/usr/bin/env python3
"""The mutation gate: each row of MUTANTS breaks the library in one known
way, and the tests the row names must catch it.

For each row the script copies ``src/``, ``tests/`` and ``pyproject.toml``
of this checkout into a fresh temporary directory, replaces the row's old
text by its new text in its file, and runs pytest on the row's tests
there. The old text must occur exactly once, so code that moves must move
its mutant too. pytest must exit 1, meaning a test failed: a mutant that
survives (exit 0), or a usage or collection error (exit 2-5), fails the
gate. First the named tests must all pass on the unchanged copy. Standard
library only, besides pytest itself. From the checkout:

    python ci/mutants.py

It prints one line per row and exits 1 if any row fails.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (what the mutant does, file, exact old text, new text, test ids)
MUTANTS = [
    (
        "general composition without the s = 0 guard: an inverse mod 0",
        "src/genuskit/bqf.py",
        "        if s:\n            u2 = pow(d1 // d, -1, s // d)",
        "        if True:\n            u2 = pow(d1 // d, -1, s // d)",
        ["tests/test_bqf.py::test_coprime_composition_matches_the_general_formula"],
    ),
    (
        "general composition with v2 = 0 always",
        "src/genuskit/bqf.py",
        "            v2 = (d - u2 * d1) // s",
        "            v2 = 0",
        ["tests/test_bqf.py::test_coprime_composition_matches_the_general_formula"],
    ),
    (
        "coprime composition by the inverse of a1 mod a2",
        "src/genuskit/bqf.py",
        "pow(a2, -1, a1) % a1",
        "pow(a1, -1, a2) % a1",
        ["tests/test_bqf.py::test_coprime_composition_matches_the_general_formula"],
    ),
    (
        "the window rule's tie c = a kept for either sign of b",
        "src/genuskit/bqf.py",
        "            if c > a or c == a and b >= 0:",
        "            if c >= a:",
        ["tests/test_bqf.py::test_a_first_enumeration_matches_b_first"],
    ),
    (
        "the window (-a, a] for D > 0 too",
        "src/genuskit/bqf.py",
        "        hi = a if D < 0 else s",
        "        hi = a",
        ["tests/test_bqf.py::test_a_first_enumeration_matches_b_first"],
    ),
    (
        "root lift tested mod 2a instead of 4a",
        "src/genuskit/bqf.py",
        "if (x * x - D) % a4 == 0]",
        "if (x * x - D) % a2 == 0]",
        ["tests/test_bqf.py::test_compose_identity_law"],
    ),
    (
        "_inverses returning each class itself for D > 0",
        "src/genuskit/bqf.py",
        "    return [index[_reduced(tuple.__new__(Form, (c, b, a)), D)] for a, b, c in reps]",
        "    return list(range(len(reps)))",
        ["tests/test_bqf.py::test_inverse_lookup_composes_to_the_identity"],
    ),
    (
        "each class's square read one place off its walk",
        "src/genuskit/bqf.py",
        "squares[y] = walk[2 * j % o - 1]",
        "squares[y] = walk[2 * j % o]",
        ["tests/test_bqf.py::test_private_paths_match_public_ones"],
    ),
    (
        "_invariant_factors reading Z/4 x Z/8 as Z/2 x Z/16",
        "src/genuskit/bqf.py",
        "    return tuple(reversed(factors))",
        "    return (2, 16) if factors == [8, 4] else tuple(reversed(factors))",
        ["tests/test_bqf.py::test_four_rank_matches_redei_matrix"],
    ),
    (
        "_cycle_seeds filing every a < 0 form as a seed",
        "src/genuskit/bqf.py",
        "            if a + c >= 0:",
        "            if True:",
        ["tests/test_bqf.py::test_negated_class_is_the_class_exactly_with_a_norm_minus_one_unit"],
    ),
    (
        "_reduce_indef accepting only seeds with a < 0",
        "src/genuskit/bqf.py",
        "if _is_reduced_indef(f, s) and abs(f.a) <= abs(f.c):",
        "if _is_reduced_indef(f, s) and abs(f.a) <= abs(f.c) and f.a < 0:",
        ["tests/test_bqf.py::test_lookups_walk_at_most_five_rho_steps"],
    ),
    (
        "_canonical returning the seed for D > 0, not the cycle's least form",
        "src/genuskit/bqf.py",
        "    if D < 0:\n        return g\n",
        "    if True:\n        return g\n",
        ["tests/test_bqf.py::test_reduction_cycle_is_the_rho_cycle_from_its_least_form"],
    ),
    (
        "a long continued fraction reported as a bug",
        "src/genuskit/intkit.py",
        'raise ResourceLimitError(f"the continued fraction',
        'raise ArithmeticError(f"the continued fraction',
        ["tests/test_quadfield.py::test_a_continued_fraction_past_the_step_cap_is_a_resource_limit"],
    ),
    (
        "a cached record served without its ramified-primes check",
        "src/genuskit/cli.py",
        'rep.get("ramified") == list(ramified) and rep["r"] == len(ramified)',
        "True",
        ["tests/test_cli.py::test_cache_serves_a_record_only_for_its_own_field"],
    ),
    (
        "a cached record served without its d check",
        "src/genuskit/cli.py",
        '            and rep["d"] == (D if D % 4 == 1 else D // 4)\n',
        "",
        ["tests/test_cli.py::test_cache_serves_a_record_only_for_its_own_field"],
    ),
    (
        "the genus kernel taken as (0, e) without the class group",
        "src/genuskit/genus.py",
        "kernel = genus_map_kernel(cg, images)",
        "kernel = (0, (1 << field.r) - 1)",
        ["tests/test_genus.py::test_kernel_generator_kinds"],
    ),
    (
        "y | m for y ^ m in _genus_images",
        "src/genuskit/genus.py",
        "masks += [y ^ m for y in masks]",
        "masks += [y | m for y in masks]",
        ["tests/test_genus.py::test_xor_images_match_composed_products"],
    ),
    (
        "quintic accepting negative nodes and b2",
        "src/genuskit/nodesets.py",
        "        if value < least:\n",
        "        if False:\n",
        ["tests/test_nodesets.py::test_quintic_rejects_negative_nodes_and_b2"],
    ),
    (
        "quintic accepting min_even and second_even of 0",
        "src/genuskit/nodesets.py",
        '("min_even", min_even, 1), ("second_even", second_even, 1)',
        '("min_even", min_even, 0), ("second_even", second_even, 0)',
        ["tests/test_nodesets.py::test_quintic_names_a_bad_min_even_or_second_even"],
    ),
    (
        "quintic leaving a second_even above nodes to the weight-code check",
        "src/genuskit/nodesets.py",
        "    if second_even > nodes:\n",
        "    if False:\n",
        ["tests/test_nodesets.py::test_quintic_names_a_bad_min_even_or_second_even"],
    ),
    (
        "the MacWilliams filter without its congruence on the last two counts",
        "src/genuskit/nodesets.py",
        "if lo > hi or (e + r * d) % scale:",
        "if lo > hi:",
        ["tests/test_nodesets.py::test_feasible_matches_brute_force"],
    ),
    (
        "a memo that merges on the invariant alone",
        "src/genuskit/nodesets.py",
        "        invariant, labels = key\n        bucket = self._states.get(invariant, ())",
        "        invariant, labels = key\n        return invariant in self._states",
        ["tests/test_nodesets.py::test_memo_rejects_inequivalent_states_with_one_invariant"],
    ),
    (
        "span-word lanes n bits wide instead of n + 1",
        "src/genuskit/nodesets.py",
        "    width = n + 1\n",
        "    width = n\n",
        ["tests/test_nodesets.py::test_candidate_rows_match_brute_force"],
    ),
]


def run_pytest(tests: list[str], change: tuple[str, str, str] | None = None) -> tuple[int, str]:
    """pytest's exit code and output on the named tests, in a copy of the
    checkout with ``change`` = (file, old text, new text) applied. Exit 5
    with a message when the old text does not occur exactly once."""
    with tempfile.TemporaryDirectory(prefix="genuskit-mutant-") as tmp:
        work = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".pytest_cache")
        shutil.copytree(ROOT / "src", work / "src", ignore=skip)
        shutil.copytree(ROOT / "tests", work / "tests", ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", work / "pyproject.toml")
        if change:
            path, old, new = change
            text = (work / path).read_text()
            if text.count(old) != 1:
                return 5, f"the old text occurs {text.count(old)} times in {path}, not once"
            (work / path).write_text(text.replace(old, new))
        # the copy's src first, ahead of any installed genuskit
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
                              cwd=work, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        return proc.returncode, proc.stdout[-2000:]


def main() -> int:
    start = time.perf_counter()
    # a test that fails on the unchanged code would kill every mutant
    code, out = run_pytest(sorted({t for *_, tests in MUTANTS for t in tests}))
    if code != 0:
        print(f"FAILED: the named tests exit {code} on the unchanged code:\n{out}")
        return 1
    failed = 0
    for what, path, old, new, tests in MUTANTS:
        t = time.perf_counter()
        code, out = run_pytest(tests, (path, old, new))
        status = "killed" if code == 1 else "FAILED (survived)" if code == 0 else f"FAILED (pytest exit {code}:\n{out})"
        print(f"{status}  {time.perf_counter() - t:4.1f} s  {path}: {what}", flush=True)
        failed += code != 1
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed in {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
