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
"""

import hashlib

from genuskit.bqf import class_group
from genuskit.cli import _dump, compute_record

DIGEST = "a997f59f8fa5d7c4fd6eedfc06b68c07b8e3eb7e52cab169870ecf249737da7b"
LARGE_DIGEST = "707bcd0fbbc59da875f14967a713bb032bc879717fb6c28adcb6511d516c99fe"


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
