"""Byte identity of the JSON output over a fixed set of fields.

One SHA-256 covers ``_dump(compute_record(d))`` for every squarefree d in
[-3000, 3000] other than 0 and 1, and for d in {-29399, -116159, -262151,
-486071}: 3,651 fields in all. It also covers
``class_group(-9999991).to_json_dict()`` (h+ = 1715). A change that means
to keep every output must leave the digest as it is; one that changes an
output on purpose must say why and record the new digest.

A second SHA-256, ``LARGE_DIGEST``, covers the large fields:
``_dump(compute_record(d))`` for the five real fields d = p near 2e6 of
the ``fields-large`` benchmark (seed 1), and
``class_group(D).to_json_dict()`` for D = 9999997 and -9999995, at the
|D| bound on either side.

A third SHA-256, ``CLI_DIGEST``, covers the command line: the stdout,
stderr and exit code of each in-process ``main`` call in ``CLI_CALLS``.
Those are every subcommand in JSON and in text, ``--json`` after the
subcommand, usage errors, resource bounds, and a scan whose cached record
fails a check.
"""

import hashlib
import json

from genuskit.bqf import class_group
from genuskit.cli import SCHEMA_VERSION, _dump, compute_record, main

DIGEST = "a997f59f8fa5d7c4fd6eedfc06b68c07b8e3eb7e52cab169870ecf249737da7b"
LARGE_DIGEST = "707bcd0fbbc59da875f14967a713bb032bc879717fb6c28adcb6511d516c99fe"
CLI_DIGEST = "f7674290db34286b9e74cd7230e6632aff91498940c6d25a8ce6d683d8a25f50"


def _squarefree(d):
    return all(d % (p * p) for p in range(2, 55))


FIELDS = [d for d in range(-3000, 3001) if d not in (0, 1) and _squarefree(d)] + [-29399, -116159, -262151, -486071]


def test_outputs_match_recorded_digest():
    assert len(FIELDS) == 3651
    h = hashlib.sha256()
    for d in FIELDS:
        h.update(_dump(compute_record(d)).encode() + b"\n")
    h.update(_dump(class_group(-9999991).to_json_dict()).encode() + b"\n")
    assert h.hexdigest() == DIGEST


def test_large_fields_match_recorded_digest():
    h = hashlib.sha256()
    for d in (1795517, 1880933, 1999441, 2075713, 2184769):
        h.update(_dump(compute_record(d)).encode() + b"\n")
    for D in (9999997, -9999995):
        h.update(_dump(class_group(D).to_json_dict()).encode() + b"\n")
    assert h.hexdigest() == LARGE_DIGEST


# the in-process ``main`` calls that ``CLI_DIGEST`` covers, run in a fresh
# working directory that holds the input files under relative names
CLI_CALLS = [
    *(
        prefix + argv
        for argv in (
            ["genus", "-d", "-5"],
            ["genus", "-d", "3"],
            ["classgroup", "-D", "-84"],
            ["classgroup", "-D", "12"],
            ["scan", "--", "-30", "30"],
            ["keylemma", "branch.json"],
            ["campedelli"],
            ["werner"],
            ["nodecode", "-n", "4", "-k", "1", "-w", "4"],
            ["nodecode", "-n", "2", "-k", "2", "-w", "1"],
            ["quintic"],
            ["quintic", "--nodes", "31"],
            # a scan over a cache whose record for D = -20 fails the gauss check
            ["--cache", "doctored.jsonl", "scan", "--", "-6", "-2"],
        )
        for prefix in ([], ["--json"])
    ),
    ["genus", "-d", "-5", "--json"],
    ["scan", "2", "10", "--json"],
    # usage errors
    ["genus", "-d", "18"],
    ["--json", "scan", "2", "5", "--checks", "nonsense"],
    ["keylemma", "broken.json"],
    ["keylemma", "missing.json"],
    ["nodecode", "-n", "8", "-k", "2", "-w", "4", "--node-budget", "-1"],
    # resource bounds
    ["--bound", "1", "genus", "-d", "-21"],
    ["nodecode", "-n", "41", "-k", "1", "-w", "4"],
]


def test_cli_outputs_match_recorded_digest(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    branch = {"n_components": 4, "ambient_rank": 1, "pic_two_rank": 0, "phi_matrix": [[1, 1, 1, 1]]}
    (tmp_path / "branch.json").write_text(json.dumps(branch))
    (tmp_path / "broken.json").write_text("{nope")
    record = compute_record(-5)
    record["genus_report"]["gauss_holds"] = False
    (tmp_path / "doctored.jsonl").write_text(_dump({"key": -20, "version": SCHEMA_VERSION, "value": record}) + "\n")
    h = hashlib.sha256()
    for argv in CLI_CALLS:
        code = main(argv)
        captured = capsys.readouterr()
        h.update(json.dumps([argv, code, captured.out, captured.err]).encode() + b"\n")
    assert h.hexdigest() == CLI_DIGEST
