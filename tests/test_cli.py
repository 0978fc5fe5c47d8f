"""End-to-end tests of the command-line surface: output formats, exit
codes, the scan harness, and cache coherence."""

import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from contextlib import closing
from pathlib import Path

import pytest

from genuskit import bqf, cli, keylemma, nodesets, quadfield
from genuskit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_genus_json(capsys):
    code, out, _ = run(capsys, "--json", "genus", "-d", "-5")
    assert code == 0
    data = json.loads(out)
    assert data["r"] == 2
    assert data["rank2"] == 1
    assert data["gauss_holds"] is True
    assert data["kernel_generator_kind"] == "support_d"
    assert json.loads(json.dumps(data)) == data


def test_genus_text(capsys):
    code, out, _ = run(capsys, "genus", "-d", "3")
    assert code == 0
    assert "gauss_holds: True" in out
    assert "h+ = 2" in out


def test_genus_rejects_nonsquarefree(capsys):
    code, _, err = run(capsys, "genus", "-d", "4")
    assert code == 2
    assert "squarefree" in err


def test_fields_with_prime_factors_above_1000(capsys):
    # 1185917 = 1087 * 1091 and 1181569 = 1087^2: composite cofactors that
    # trial division by the primes below 1000 leaves whole
    code, out, _ = run(capsys, "--json", "genus", "-d", "1185917")
    data = json.loads(out)
    assert code == 0 and data["r"] == 2 and data["gauss_holds"] is True
    assert run(capsys, "genus", "-d", "-1181569")[0] == 2
    assert run(capsys, "classgroup", "-D", "1181569")[0] == 2
    code, out, _ = run(capsys, "--json", "scan", "1185900", "1186000")
    assert code == 0 and json.loads(out)["anomalies"] == []


def test_genus_resource_bound_exit(capsys):
    code, _, err = run(capsys, "--bound", "1", "genus", "-d", "-21")
    assert code == 3
    assert "bound" in err


def test_bound_checked_before_factorising(monkeypatch, capsys):
    def refuse(n):
        raise AssertionError(f"factorize({n}) ran before the bound check")

    monkeypatch.setattr(bqf, "factorize", refuse)
    monkeypatch.setattr(quadfield, "factorize", refuse)
    monkeypatch.setattr(cli, "factorize", refuse)
    huge = "-1000000000000128000000000003367"  # the product of two 16-digit primes
    for argv in (
        ["genus", "-d", huge],
        ["classgroup", "-D", huge],
        ["genus", "-d", "-4000000000"],
        ["scan", "--", huge, huge],
        # only the last few d of these ranges are out of bounds
        ["scan", "--", "2400000", "2500010"],
        ["scan", "--", "1", "1000000000"],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 3 and "bound" in err, argv


def test_classgroup_json(capsys):
    code, out, _ = run(capsys, "--json", "classgroup", "-D", "-84")
    assert code == 0
    data = json.loads(out)
    assert data["h_plus"] == 4
    assert data["invariant_factors"] == [2, 2]
    assert [1, 0, 21] in data["reps"]


def test_classgroup_rejects_nonfundamental(capsys):
    code, _, _ = run(capsys, "classgroup", "-D", "-16")
    assert code == 2


def test_scan_small_range(capsys):
    code, out, _ = run(capsys, "--json", "scan", "-30", "30")
    assert code == 0
    data = json.loads(out)
    assert data["anomalies"] == []
    assert data["checks"]["gauss"]["fail"] == 0
    assert data["checks"]["gauss"]["pass"] == data["scanned"]


def test_scan_counts_skipped(capsys):
    code, out, _ = run(capsys, "--json", "scan", "8", "12")
    assert code == 0
    data = json.loads(out)
    # 8, 9, 12 are not squarefree; 10 and 11 are scanned
    assert data["scanned"] == 2
    assert data["skipped"] == 3


def test_scan_rejects_unknown_check(capsys):
    code, _, _ = run(capsys, "--json", "scan", "2", "5", "--checks", "nonsense")
    assert code == 2


def test_scan_cache_coherent(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    code1, cold, _ = run(capsys, "--json", "--cache", str(cache), "scan", "-25", "25")
    size_after_cold = cache.read_text()
    code2, warm, _ = run(capsys, "--json", "--cache", str(cache), "scan", "-25", "25")
    assert code1 == code2 == 0
    assert cold == warm  # byte-identical summaries, cold then warm
    assert cache.read_text() == size_after_cold  # nothing re-appended
    rec = json.loads(size_after_cold.splitlines()[0])
    assert rec["version"] == "1"
    assert "class_group" in rec["value"] and "genus_report" in rec["value"]


def test_cache_record_matches_fresh_recompute(tmp_path, capsys):
    from genuskit.cli import ResultCache, compute_record

    cache_path = tmp_path / "cache.jsonl"
    run(capsys, "--json", "--cache", str(cache_path), "scan", "-15", "15")
    with closing(ResultCache(cache_path)) as cache:
        for d in (-15, -5, 3, 11, 13):
            D = d if d % 4 == 1 else 4 * d
            cached = cache.get(D)
            assert cached is not None, d
            fresh = json.loads(json.dumps(compute_record(d)))
            assert cached == fresh, d


def test_scan_cache_tolerates_corruption(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    # every key the checks read, with values that fail the gauss check if
    # used; each line below breaks one value's type
    report = {"d": 5, "r": 1, "gauss_holds": False, "kernel_masks": [], "image_is_two_torsion": False,
              "wide_rank": 0, "support_class_principal": True, "norm_minus_one": False}
    mistyped = [{"r": "x"}, {"kernel_masks": 5}, {"d": True}, {"wide_rank": None}]
    cache.write_bytes((
        'this is not json\n[1]\n"x"\n{"key": 5, "version": "1", "value": {}}\n'
        '{"key": 5, "version": "1", "value": {"class_group": {"h_plus": 1}, "genus_report": {}}}\n'
        + "".join(
            json.dumps({"key": 5, "version": "1", "value": {"class_group": {"h_plus": 1}, "genus_report": {**report, **bad}}}) + "\n"
            for bad in mistyped
        )
    ).encode() + b"\xff\xfe not UTF-8\n")
    code, out, _ = run(capsys, "--json", "--cache", str(cache), "scan", "2", "10")
    assert code == 0
    assert json.loads(out)["anomalies"] == []
    # a check field that is not a bool; each in its own file, since the
    # newest line for a key is the one tried first
    cold = run(capsys, "--json", "scan", "2", "10")
    for bad in ({"gauss_holds": 0}, {"image_is_two_torsion": 1}, {"support_class_principal": "true"}, {"norm_minus_one": None}):
        path = tmp_path / f"{next(iter(bad))}.jsonl"
        path.write_text(json.dumps({"key": 5, "version": "1", "value": {"class_group": {"h_plus": 1}, "genus_report": {**report, **bad}}}) + "\n")
        assert run(capsys, "--json", "--cache", str(path), "scan", "2", "10") == cold, bad
    # lines that do not decode: a key or an int too long for int(), and
    # nesting too deep for the parser; each after a valid line for the key
    good = _cache_line(5, json.loads(json.dumps(cli.compute_record(5))))
    undecodable = {
        "long_key": '{"key": ' + "5" * 5000 + ', "version": "1", "value": {}}',
        "long_int": '{"key": 5, "value": ' + "5" * 5000 + ', "version": "1"}',
        "deep": '{"key": 5, "version": "1", "value": ' + "[" * 100_000 + "]" * 100_000 + "}",
    }
    for name, line in undecodable.items():
        path = tmp_path / f"{name}.jsonl"
        path.write_text(good + "\n" + line + "\n")
        assert run(capsys, "--json", "--cache", str(path), "scan", "2", "10") == cold, name
        assert _cached(path, 5) == json.loads(good)["value"], name


def test_cached_scan_honours_bound(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    assert run(capsys, "--bound", "2", "scan", "--", "-30", "-20")[0] == 3
    assert run(capsys, "--cache", str(cache), "scan", "--", "-30", "-20")[0] == 0
    code, _, err = run(capsys, "--bound", "2", "--cache", str(cache), "scan", "--", "-30", "-20")
    assert code == 3 and "bound" in err


def test_scan_workers(tmp_path, capsys):
    # about 370 fields: two workers take them in about 16 chunks
    outputs = []
    for workers in ("2", "1"):
        cache = tmp_path / f"cache-{workers}.jsonl"
        code, out, _ = run(capsys, "--json", "--workers", workers, "--cache", str(cache), "scan", "--", "-300", "300")
        assert code == 0
        outputs.append((out, cache.read_bytes()))
    assert outputs[0] == outputs[1]


def test_interrupted_scan_keeps_complete_records(tmp_path, monkeypatch):
    k = 7
    worker, done = cli._scan_worker, []

    def fail_after_k(args):
        if len(done) == k:
            raise RuntimeError("interrupted")
        done.append(args[0])
        return worker(args)

    monkeypatch.setattr(cli, "_scan_worker", fail_after_k)
    path = tmp_path / "cache.jsonl"
    cache = cli.ResultCache(path)  # not closed before the file is read back
    with pytest.raises(RuntimeError, match="interrupted"):
        cli.run_scan(cli.ScanJob(-40, 40, cli.ALL_CHECKS), cache)
    assert len(path.read_text().splitlines()) == len(done) == k
    squarefree = [d for d in range(-40, 41) if d not in (0, 1) and all(d % (p * p) for p in (2, 3, 5))]
    assert set(done) < set(squarefree)
    with closing(cli.ResultCache(path)) as loaded:
        for d in squarefree:
            fresh = json.loads(json.dumps(cli.compute_record(d))) if d in done else None
            assert loaded.get(d if d % 4 == 1 else 4 * d) == fresh, d
    cache.close()


def test_scan_reports_anomaly_of_cached_record(tmp_path, capsys):
    # a cached record that fails a check is reported between fresh fields
    rec = json.loads(json.dumps(cli.compute_record(-5)))
    rec["genus_report"]["gauss_holds"] = False
    path = tmp_path / "cache.jsonl"
    path.write_text(_cache_line(-20, rec) + "\n")
    code, out, _ = run(capsys, "--json", "--cache", str(path), "scan", "--", "-6", "-2")
    data = json.loads(out)
    assert code == 1 and data["scanned"] == 4
    assert data["checks"]["gauss"] == {"pass": 3, "fail": 1, "not_applicable": 0}
    assert data["anomalies"] == [{"d": -5, "failed": ["gauss"], "report": rec["genus_report"]}]
    # run_scan tallies a failure by ``ok is False``: every outcome is exactly
    # True, False or None, for a cached record as for fresh ones
    records = [_cached(path, -20)] + [cli.compute_record(d) for d in (-6, -5, -3, -2, 2, 3, 5)]
    for record in records:
        for ok in cli.evaluate_checks(record, cli.ALL_CHECKS).values():
            assert ok is True or ok is False or ok is None, (record["genus_report"]["d"], ok)


def test_cache_serves_a_record_only_for_its_own_field(tmp_path, capsys):
    # records under D = -20 that describe another field, each failing the
    # gauss check: each is skipped like an undecodable line, so the scan
    # matches the cold one, alone (d = -5 computed fresh) or after an
    # older valid line for -20 (that line served)
    cold = run(capsys, "--json", "scan", "--", "-6", "-2")
    own = json.loads(json.dumps(cli.compute_record(-5)))

    def doctored(value, cg=None, rep=None):
        return {"class_group": {**value["class_group"], **(cg or {})},
                "genus_report": {**value["genus_report"], **(rep or {}), "gauss_holds": False}}

    foreign = doctored(json.loads(json.dumps(cli.compute_record(-6))))
    cases = {
        "another field's record": foreign,
        "class group D": doctored(own, cg={"D": -24}),
        "report D": doctored(own, rep={"D": -24}),
        "report d": doctored(own, rep={"d": -6}),
        "h_plus not the number of reps": doctored(own, cg={"h_plus": 3}),
        "ramified primes": doctored(own, rep={"ramified": [2, 3]}),
        "r": doctored(own, rep={"r": 3}),
    }
    path = tmp_path / "cache.jsonl"
    for name, value in cases.items():
        for older in ([], [_cache_line(-20, own)]):
            path.write_text("".join(line + "\n" for line in [*older, _cache_line(-20, value)]))
            with closing(cli.ResultCache(path)) as cache:
                assert cache.get(-20, (2, 5)) == (own if older else None), name
            assert run(capsys, "--json", "--cache", str(path), "scan", "--", "-6", "-2") == cold, name
    # the ramified primes are checked only against a factorisation given
    path.write_text(_cache_line(-20, cases["r"]) + "\n")
    assert _cached(path, -20) == cases["r"]
    # the record of the same field, with the flag flipped, is still served
    path.write_text(_cache_line(-20, doctored(own)) + "\n")
    assert run(capsys, "--json", "--cache", str(path), "scan", "--", "-6", "-2")[0] == 1


def test_scan_without_cache_drops_each_record_once_tallied(monkeypatch):
    # each record the worker returns is tracked by a weak reference; a scan
    # that kept every record until its summary would hold hundreds of them
    class Record(dict):
        __hash__ = object.__hash__

    worker, alive, counts = cli._scan_worker, weakref.WeakSet(), []

    def tracking_worker(args):
        counts.append(len(alive))
        d, rec = worker(args)
        rec = Record(rec)
        alive.add(rec)
        return d, rec

    monkeypatch.setattr(cli, "_scan_worker", tracking_worker)
    summary = cli.run_scan(cli.ScanJob(-400, 400, cli.ALL_CHECKS))
    assert len(counts) == summary["scanned"] > 400
    assert max(counts) <= 2, max(counts)


def _cache_line(D, value, **fields):
    return json.dumps({"key": D, "version": "1", "value": value, **fields}, sort_keys=True)


def _cached(path, D):
    # the record a fresh cache on ``path`` serves for D, its reader closed
    with closing(cli.ResultCache(path)) as cache:
        return cache.get(D)


def test_cache_serves_newest_valid_line(tmp_path):
    # the oldest line is valid too, with another value: the newest valid
    # line wins, and the torn or mistyped lines after it are skipped
    path = tmp_path / "cache.jsonl"
    value = json.loads(json.dumps(cli.compute_record(-5)))
    oldest = _cache_line(-20, {**value, "genus_report": {**value["genus_report"], "gauss_holds": False}})
    good = _cache_line(-20, value)
    mistyped = _cache_line(-20, {**value, "genus_report": {**value["genus_report"], "r": "2"}})
    # a bool is an int to isinstance, but not a class number
    bool_h = _cache_line(-20, {**value, "class_group": {**value["class_group"], "h_plus": True}})
    for newest in (good[: len(good) // 2], mistyped, bool_h, _cache_line(-20, value, version="0")):
        path.write_text(oldest + "\n" + good + "\n" + newest + "\n")
        assert _cached(path, -20) == value, newest


def test_cache_serves_only_canonical_lines(tmp_path):
    # the loader indexes only lines that start as _dump writes them
    path = tmp_path / "cache.jsonl"
    value = json.loads(json.dumps(cli.compute_record(-5)))
    reordered = json.dumps({"version": "1", "value": value, "key": -20})
    spaced = "  " + json.dumps({"key": -20, "version": "1", "value": value}, separators=(" , ", " : "))
    compact = json.dumps({"key": -20, "version": "1", "value": value}, separators=(",", ":"))
    for line in (reordered, spaced, compact):
        path.write_text(line + "\n")
        assert _cached(path, -20) is None, line[:40]
    path.write_text(_cache_line(-20, value) + "\n")
    assert _cached(path, -20) == value


def test_cache_record_after_torn_tail_is_served(tmp_path):
    # a process killed mid-write leaves a last line with no newline; the
    # next record must not be appended onto it
    path = tmp_path / "cache.jsonl"
    torn = _cache_line(-20, json.loads(json.dumps(cli.compute_record(-5))))
    path.write_text(torn[: len(torn) // 2])
    value = json.loads(json.dumps(cli.compute_record(2)))
    with closing(cli.ResultCache(path)) as cache:
        cache.put(8, value)
    assert _cached(path, 8) == value


def test_cache_checks_decoded_key_against_prefix(tmp_path):
    # the newest line's prefix says -20, but the later "key" member wins
    # when it is decoded, so it is not a record for -20
    path = tmp_path / "cache.jsonl"
    older = json.loads(json.dumps(cli.compute_record(-5)))
    other = json.loads(json.dumps(cli.compute_record(-7)))
    forged = '{"key": -20, ' + _cache_line(-7, other)[1:]
    assert json.loads(forged)["key"] == -7
    path.write_text(_cache_line(-20, older) + "\n" + forged + "\n")
    assert _cached(path, -20) == older
    path.write_text(forged + "\n")
    assert _cached(path, -20) is None


def test_cached_scan_decodes_only_its_window(tmp_path, monkeypatch):
    path = tmp_path / "cache.jsonl"
    job = cli.ScanJob(-10, 10, cli.ALL_CHECKS)
    with closing(cli.ResultCache(path)) as fill:
        cli.run_scan(cli.ScanJob(-60, 60, cli.ALL_CHECKS), fill)
        expected = cli.run_scan(job, fill)
    assert len(path.read_text().splitlines()) > 60
    calls = []
    loads = cli.json.loads
    monkeypatch.setattr(cli.json, "loads", lambda s, **kw: calls.append(s) or loads(s, **kw))
    with closing(cli.ResultCache(path)) as cache:
        summary = cli.run_scan(job, cache)
    assert summary == expected
    assert 0 < len(calls) <= summary["scanned"] == 13


def test_cached_scan_memory_does_not_grow_with_the_cache_file(tmp_path):
    # about 1.9 MB of padded canonical lines, all for keys outside the
    # window: a loader that kept the file's text would hold it all
    path = tmp_path / "cache.jsonl"
    path.write_text("".join(_cache_line(D, {"pad": "x" * 3800}) + "\n" for D in range(10_000, 10_500)))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        with closing(cli.ResultCache(path)) as cache:
            cli.run_scan(cli.ScanJob(-30, 30, cli.ALL_CHECKS), cache)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < size / 4, (peak, size)


def test_cache_splits_lines_on_newline_only(tmp_path):
    path = tmp_path / "cache.jsonl"
    values = {-20: json.loads(json.dumps(cli.compute_record(-5))), -7: json.loads(json.dumps(cli.compute_record(-7)))}
    first, second = (_cache_line(D, value) for D, value in values.items())
    path.write_bytes((first + "\r\n" + second + "\r\n").encode())
    assert {D: _cached(path, D) for D in values} == values
    # a carriage return or a Unicode line separator does not end a line,
    # so two records joined by one are one line that does not parse
    for sep in ("\r", "\u2028"):
        path.write_bytes((first + sep + second + "\n").encode())
        assert [_cached(path, D) for D in values] == [None, None], repr(sep)


def test_cache_get_after_puts_reads_the_original_record(tmp_path):
    # offsets taken at load stay valid while put appends to the same file
    path = tmp_path / "cache.jsonl"
    values = {d if d % 4 == 1 else 4 * d: json.loads(json.dumps(cli.compute_record(d))) for d in (-5, -7, 2, 3)}
    path.write_text("".join(_cache_line(D, value) + "\n" for D, value in values.items()))
    old = iter(values.items())
    with closing(cli.ResultCache(path)) as cache:
        D, value = next(old)
        assert cache.get(D) == value  # opens the reader before any append
        for d in (5, 6, 7, 10):
            cache.put(4 * d if d % 4 != 1 else d, cli.compute_record(d))
        for D, value in old:
            assert cache.get(D) == value, D
    assert len(path.read_text().splitlines()) == len(values) + 4


def test_negative_bounds_are_usage_errors(capsys, monkeypatch):
    # a node budget is checked before any step: quintic with 31 nodes never
    # reaches the search, and nodecode must not run the filter first
    def refuse(problem):
        raise AssertionError("feasible_distributions ran before the budget check")

    monkeypatch.setattr(cli, "feasible_distributions", refuse)
    monkeypatch.setattr(nodesets, "feasible_distributions", refuse)
    for argv in (["--bound", "-1", "genus", "-d", "5"], ["--bound", "0", "classgroup", "-D", "-20"],
                 ["--bound", "-1", "scan", "2", "10"], ["nodecode", "-n", "8", "-k", "2", "-w", "4", "--node-budget", "-1"],
                 ["quintic", "--nodes", "31", "--node-budget", "-1"], ["quintic", "--node-budget", "-1"],
                 ["quintic", "--nodes", "-4"], ["quintic", "--b2", "-10"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error:"), argv
    for max_h in (0, -1):
        with pytest.raises(ValueError, match="max_h"):
            cli.ScanJob(2, 10, cli.ALL_CHECKS, max_h=max_h)
    with pytest.raises(ValueError, match="sign"):
        cli.ScanJob(-10, 10, cli.ALL_CHECKS, sign="bogus")


def test_scan_pool_never_exceeds_cpu_count(monkeypatch):
    # a pool forks all its workers at once; this fake records the size it
    # is asked for and maps in-process, so the test starts no process
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    serial = cli.run_scan(cli.ScanJob(-40, 40, cli.ALL_CHECKS))
    assert cli.run_scan(cli.ScanJob(-40, 40, cli.ALL_CHECKS, workers=10**6)) == serial
    assert all(size <= (os.cpu_count() or 1) for size in sizes), sizes


def test_scan_rejects_nonpositive_workers(tmp_path, capsys):
    for w in ("0", "-3"):
        code, _, err = run(capsys, "--workers", w, "scan", "2", "10")
        assert code == 2 and "workers" in err, w
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"workers": 0}))
    code, _, err = run(capsys, "--config", str(cfg), "scan", "2", "10")
    assert code == 2 and "workers" in err


def test_scan_sign_filter(capsys):
    # a sign clips the range: d = 0 is never counted as skipped under it
    def summary(*argv):
        data = json.loads(run(capsys, "--json", "scan", *argv)[1])
        del data["d_min"], data["d_max"]
        return data

    assert summary("--sign", "pos", "--", "-10", "10") == summary("--", "1", "10")
    assert summary("--sign", "neg", "--", "-10", "10") == summary("--", "-10", "-1")
    empty = summary("--sign", "neg", "--", "0", "10")
    assert empty["scanned"] == empty["skipped"] == 0


def test_keylemma_subcommand(tmp_path, capsys):
    config = {"n_components": 4, "ambient_rank": 1, "pic_two_rank": 0, "phi_matrix": [[1, 1, 1, 1]]}
    path = tmp_path / "branch.json"
    path.write_text(json.dumps(config))
    code, out, _ = run(capsys, "--json", "keylemma", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["quotient_rank"] == 2
    assert data["two_torsion_rank"] == 2


def test_keylemma_bad_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    code, _, err = run(capsys, "--json", "keylemma", str(path))
    assert code == 2
    # nested too deep for the parser: a usage error, not a traceback
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, _, err = run(capsys, "--json", "keylemma", str(path))
    assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize(
    "change",
    [
        {"phi_matrix": [["x", 1]]},
        {"phi_matrix": [[2, 1]]},
        {"phi_matrix": [[True, 1]]},
        {"phi_matrix": [[1, 1, 0]]},
        {"n_components": 3},
        {"n_components": True, "phi_matrix": [[0]]},
        {"ambient_rank": True},
        {"pic_two_rank": True},
        {"pic_two_rank": 1.5},
    ],
)
def test_keylemma_rejects_malformed_config(tmp_path, capsys, change):
    config = {"n_components": 2, "ambient_rank": 1, "pic_two_rank": 0, "phi_matrix": [[1, 1]]}
    path = tmp_path / "branch.json"
    path.write_text(json.dumps({**config, **change}))
    code, _, err = run(capsys, "--json", "keylemma", str(path))
    assert code == 2 and "branch configuration" in err


def test_keylemma_bounds_components_before_work(tmp_path, capsys, monkeypatch):
    path = tmp_path / "branch.json"
    path.write_text(json.dumps({"n_components": keylemma.MAX_COMPONENTS, "ambient_rank": 0, "phi_matrix": []}))
    code, out, _ = run(capsys, "--json", "keylemma", str(path))
    assert code == 0 and json.loads(out)["quotient_rank"] == keylemma.MAX_COMPONENTS - 1
    monkeypatch.setattr(cli, "kernel_mod_e", lambda config: pytest.fail("kernel computed past the bound"))
    for n in (keylemma.MAX_COMPONENTS + 1, 16_000, 10**9):
        path.write_text(json.dumps({"n_components": n, "ambient_rank": 0, "phi_matrix": []}))
        code, out, err = run(capsys, "--json", "keylemma", str(path))
        assert code == 3 and out == "" and "bound" in err, n


def test_campedelli_command(capsys):
    code, out, _ = run(capsys, "--json", "campedelli")
    assert code == 0
    data = json.loads(out)
    assert data["all_pass"] is True
    assert len(data["checks"]) == 2
    assert all(c["divisible_by_2"] for c in data["checks"])


def test_werner_command(capsys):
    code, out, _ = run(capsys, "--json", "werner")
    assert code == 0
    data = json.loads(out)
    assert data["kernel_rank"] == 1
    assert data["decomposition_matches_campedelli"] is True
    assert data["lift"].startswith("F_Qt + F_Et1")


def test_nodecode_exists(capsys):
    code, out, _ = run(capsys, "--json", "nodecode", "-n", "4", "-k", "1", "-w", "4")
    assert code == 0
    data = json.loads(out)
    assert data["search"] == "EXISTS"
    assert data["witness"] == ["1111"]


def test_nodecode_nonexistent_with_stage_attribution(capsys):
    code, out, _ = run(capsys, "--json", "nodecode", "-n", "2", "-k", "2", "-w", "1")
    assert code == 0
    data = json.loads(out)
    assert data["search"] == "NONEXISTENT"
    assert data["filter_conclusive"] is True
    assert data["decided_by"] == "macwilliams+search"


def test_nodecode_size_checked_before_filter(monkeypatch, capsys):
    def refuse(n):
        raise AssertionError(f"krawtchouk_table({n}) ran before the size check")

    monkeypatch.setattr(nodesets, "krawtchouk_table", refuse)
    code, _, err = run(capsys, "nodecode", "-n", "100000", "-k", "1", "-w", "7")
    assert code == 3 and "bound" in err


def test_quintic_default(capsys):
    code, out, _ = run(capsys, "--json", "quintic")
    assert code == 0
    data = json.loads(out)
    assert any("floor(53/2) = 26" in s["arithmetic"] for s in data["steps"])
    assert data["verdict"] == "INCONCLUSIVE"


def test_quintic_bounds_min_even_before_any_step(capsys, monkeypatch):
    code, out, _ = run(capsys, "--json", "quintic", "--min-even", str(nodesets.MAX_MIN_EVEN))
    assert code == 0 and json.loads(out)["verdict"] == "INCONCLUSIVE"
    monkeypatch.setattr(nodesets, "chi_double_cover", lambda params: pytest.fail("a step was built past the bound"))
    for min_even in (nodesets.MAX_MIN_EVEN + 1, 1_000_000):
        code, out, err = run(capsys, "--json", "quintic", "--min-even", str(min_even))
        assert code == 3 and out == "" and "min_even" in err, min_even


def test_json_flag_after_subcommand(capsys):
    for argv in (["quintic"], ["scan", "2", "10"], ["nodecode", "-n", "4", "-k", "1", "-w", "4"]):
        before = run(capsys, "--json", *argv)
        assert before[0] == 0 and json.loads(before[1])
        assert run(capsys, *argv, "--json") == before, argv
        assert run(capsys, "--json", *argv, "--json") == before, argv


def test_quintic_31_nodes(capsys):
    code, out, _ = run(capsys, "--json", "quintic", "--nodes", "31")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "INCONCLUSIVE"
    assert any(s["source"] == "arithmetic only" for s in data["steps"])


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["scan"])  # missing range arguments
    assert exc.value.code == 2


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_closed_stdout_exits_141_silently(unbuffered):
    # the read end is closed before the command starts, so the first write
    # fails whether stdout is buffered or not
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "genuskit.cli", "genus", "-d", "-5"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"bound": 1, "json": True}))
    code, out, _ = run(capsys, "--config", str(cfg), "genus", "-d", "-21")
    assert code == 3  # bound 1 from the config applies
    # explicit flag overrides the config
    code, out, _ = run(capsys, "--config", str(cfg), "--bound", "100", "genus", "-d", "-21")
    assert code == 0
    assert json.loads(out)["rank2"] == 2  # json: true came from the config


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    code, _, err = run(capsys, "--config", str(cfg), "genus", "-d", "-5")
    assert code == 2 and "unknown config keys" in err


def test_config_file_rejects_wrong_types(tmp_path, capsys):
    cfg = tmp_path / "conf.json"
    for bad in ({"workers": "4"}, {"bound": True}, {"json": 1}, {"cache": 5}, [1]):
        cfg.write_text(json.dumps(bad))
        code, _, err = run(capsys, "--config", str(cfg), "genus", "-d", "-5")
        assert code == 2 and "error" in err, bad
    # nested too deep for the parser: a usage error, not a traceback
    cfg.write_text("[" * 100_000 + "]" * 100_000)
    code, _, err = run(capsys, "--config", str(cfg), "genus", "-d", "-5")
    assert code == 2 and err.startswith("error:")


def test_config_file_types_are_exact(tmp_path, capsys):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"workers": 2.0}))
    code, _, err = run(capsys, "--config", str(cfg), "genus", "-d", "-5")
    assert code == 2 and "wrong type" in err
    cfg.write_text(json.dumps({"cache": None, "json": True}))
    code, out, _ = run(capsys, "--config", str(cfg), "genus", "-d", "-5")
    assert code == 0 and json.loads(out)["d"] == -5
