from __future__ import annotations

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from dessins.cli import main, parse_profile, UsageError

GOLDEN_PATH = Path(__file__).parent / "data" / "cli_verify_golden.json"

#: Verification command lines whose stdout and exit code are pinned byte
#: for byte in GOLDEN_PATH; a case marked ``lying`` runs on the cache of
#: ``write_lying_cache``.
GOLDEN_CASES = {
    "kp-text": (["kp", "--dmax", "5"], False),
    "kp-json": (["kp", "--dmax", "5", "--format", "json"], False),
    "kp-eq3": (["kp", "--dmax", "5", "--eq", "3"], False),
    "kp-dmax0": (["kp", "--dmax", "0"], False),
    "oracle-text": (["oracle", "--d", "5"], False),
    "oracle-json": (["oracle", "--d", "5", "--format", "json"], False),
    "oracle-naive": (["oracle", "--method", "naive", "--d", "4"], False),
    "closed-text": (["closed", "--dmax", "6"], False),
    "closed-json": (["closed", "--dmax", "6", "--format", "json"], False),
    "recursion-text": (["recursion", "--dmax", "6"], False),
    "recursion-json": (["recursion", "--dmax", "6", "--format", "json"], False),
    "lying-oracle-text": (["oracle", "--d", "3"], True),
    "lying-oracle-json": (["oracle", "--d", "3", "--format", "json"], True),
    "lying-recursion-text": (["recursion", "--dmax", "4"], True),
    "lying-recursion-json": (["recursion", "--dmax", "4", "--format", "json"], True),
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_lying_cache(path: Path) -> None:
    """A d = 3 cache that passes every load check (physical key, integral
    positive marked count, degree row sum, genus-0 and genus-1 column
    sums) but moves one marked count between two genus-0 keys of degree
    3, keeping every count positive."""
    from dessins.cache import load_or_compute, save_cache
    from dessins.evolution import ConnectedSeries
    from dessins.series import GradedSeries

    pieces = list(load_or_compute(3).pieces)
    terms = dict(pieces[2].terms)
    terms[(1, 2, (1, 1))] = terms[(1, 2, (1, 1))] - 1  # genus 0: 1 -> 0
    terms[(2, 2, (0, 0, 1))] = terms[(2, 2, (0, 0, 1))] + 1  # genus 0 too
    pieces[2] = GradedSeries(terms, 3)
    save_cache(path, ConnectedSeries(pieces))


def run_golden_case(case: str, tmp_path: Path, capsys) -> dict:
    argv, lying = GOLDEN_CASES[case]
    if lying:
        path = tmp_path / "lying.cache"
        write_lying_cache(path)
        argv = [*argv, "--cache", str(path)]
    code, out, err = run(capsys, *argv)
    return {"exit": code, "stdout": out, "stderr": err}


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_verification_output_is_golden(case, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("DESSIN_CACHE", raising=False)
    golden = json.loads(GOLDEN_PATH.read_text(encoding="ascii"))
    assert run_golden_case(case, tmp_path, capsys) == golden[case]


def test_profile_parsing():
    assert parse_profile("1^2,3^1", 5) == (2, 0, 1)
    assert parse_profile("2^1", 2) == (0, 1)
    assert parse_profile("1^1,2^0,4^1", 5) == (1, 0, 0, 1)
    for bad in ("2^", "^1", "", "1^1,1^2", "0^1", "x", "2^1"):
        with pytest.raises(UsageError):
            parse_profile(bad, 1)


def test_table_minimal(capsys):
    code, out, _ = run(capsys, "table", "--dmax", "1")
    assert code == 0
    assert out == "d,g,G_num,G_den\n1,0,1,1\n"


def test_table_marked_csv(capsys):
    code, out, _ = run(capsys, "table", "--dmax", "3", "--marked")
    assert code == 0
    assert out == ("d,g,G_marked\n"
                   "1,0,1\n1,1,0\n"
                   "2,0,3\n2,1,0\n"
                   "3,0,12\n3,1,1\n")


def test_table_json(capsys):
    code, out, _ = run(capsys, "table", "--dmax", "2", "--gmax", "0",
                       "--marked", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"dmax": 2, "marked": True,
                       "entries": [{"d": 1, "g": 0, "value": "1"},
                                   {"d": 2, "g": 0, "value": "3"}]}
    # big integers must travel as strings
    assert isinstance(payload["entries"][0]["value"], str)


def test_table_collapses_through_cli_genus_table(capsys, monkeypatch):
    # the bench traces counts.genus_table by rebinding cli.genus_table, so
    # table must look it up at call time
    from dessins import cli

    calls = []

    def recording(series):
        calls.append(series.dmax)
        return real(series)

    real = cli.genus_table
    monkeypatch.setattr(cli, "genus_table", recording)
    assert run(capsys, "table", "--dmax", "3", "--marked")[0] == 0
    assert calls == [3]


def _record_genus_rows(monkeypatch) -> list[int]:
    """The degrees of every genus collapse from here on, in order: the
    degrees 1 .. dmax of a ``cache.parse_cache`` call (the reader files a
    cache's counts into their genus rows), of a ``_checked_groups`` call
    (outside input to the constructor) or a ``_decode_degree`` call (a
    computed degree)."""
    from dessins import cache, evolution

    degrees = []
    real_read, real_check = cache.parse_cache, evolution._checked_groups
    real_decode = evolution._decode_degree

    def recording_read(text):
        series = real_read(text)
        degrees.extend(range(1, series.dmax + 1))
        return series

    def recording_check(dmax, terms):
        degrees.extend(range(1, dmax + 1))
        return real_check(dmax, terms)

    def recording_decode(acc, d, W, K):
        degrees.append(d)
        return real_decode(acc, d, W, K)

    monkeypatch.setattr(cache, "parse_cache", recording_read)
    monkeypatch.setattr(evolution, "_checked_groups", recording_check)
    monkeypatch.setattr(evolution, "_decode_degree", recording_decode)
    return degrees


def test_cached_table_collapses_once(tmp_path, capsys, monkeypatch):
    # cache load collapses the series for its checks; table reuses that
    cache = ["--cache", str(tmp_path / "f.cache")]
    assert run(capsys, "table", "--dmax", "5", *cache)[0] == 0  # writes it
    degrees = _record_genus_rows(monkeypatch)
    code, out, _ = run(capsys, "table", "--dmax", "5", "--marked", *cache)
    assert code == 0 and out.startswith("d,g,G_marked\n1,0,1\n")
    assert degrees == [1, 2, 3, 4, 5]


def test_cold_table_collapses_each_computed_degree_once(tmp_path, capsys,
                                                        monkeypatch):
    # the degree step collapses each degree it computes (the seed's row is
    # given); writing the cache and the table reuse those rows
    degrees = _record_genus_rows(monkeypatch)
    code, out, _ = run(capsys, "table", "--dmax", "5", "--marked",
                       "--cache", str(tmp_path / "f.cache"))
    assert code == 0 and out.startswith("d,g,G_marked\n1,0,1\n")
    assert degrees == [2, 3, 4, 5]


def test_table_run_leaves_numpy_unloaded():
    # only the oracle scans need numpy and the thread pool: importing the
    # package and running a table, in a fresh interpreter, must load
    # neither
    env = {k: v for k, v in os.environ.items() if k != "DESSIN_CACHE"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parent.parent / "src"),
                    env.get("PYTHONPATH")) if p)
    code = ("import sys, dessins; from dessins.cli import main; "
            "rc = main(['table', '--dmax', '6']); "
            "print(rc, 'numpy' in sys.modules, "
            "'concurrent.futures' in sys.modules, file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=False)
    assert proc.stdout.startswith("d,g,")
    assert proc.stderr == "0 False False\n"


def test_table_usage_errors(capsys):
    assert run(capsys, "table", "--dmax", "0")[0] == 2
    assert run(capsys, "table")[0] == 2
    assert run(capsys, "table", "--dmax", "2", "--gmax", "-1")[0] == 2
    assert run(capsys, "nosuchcommand")[0] == 2
    # the degree bounds of the verification commands
    assert run(capsys, "kp", "--dmax", "-1")[0] == 2
    assert run(capsys, "oracle", "--d", "0")[0] == 2
    assert run(capsys, "closed", "--dmax", "0")[0] == 2
    assert run(capsys, "recursion", "--dmax", "0")[0] == 2


def test_degrees_past_the_limit_are_usage_errors(tmp_path, capsys):
    # refused before any cache is read or written
    path = tmp_path / "f.cache"
    code, out, err = run(capsys, "table", "--dmax", "32", "--cache", str(path))
    assert (code, out, err) == (2, "", "error: degree 32 is beyond the limit 31\n")
    assert not path.exists()
    assert run(capsys, "coeff", "--d", "32", "--k", "1", "--l", "1",
               "--profile", "32^1")[0] == 2
    for argv in (["kp", "--dmax", "32"], ["closed", "--dmax", "32"],
                 ["recursion", "--dmax", "40", "--cache", str(path)]):
        assert run(capsys, *argv)[0] == 2
    assert not path.exists()
    # a cache whose header claims such a degree is corrupt: exit 3
    path.write_text("DESSIN-F v2 dmax=32\nnot a cache line\n")
    code, out, err = run(capsys, "table", "--dmax", "3", "--cache", str(path))
    assert (code, out) == (3, "")
    assert err.startswith("error: corrupt cache") and "beyond DMAX_LIMIT = 31" in err


def test_coeff_degree_is_checked_before_the_profile(tmp_path, capsys, monkeypatch):
    # --d sizes the profile vector: past the limit it is refused first
    def unread(text, weight):
        raise AssertionError("parse_profile was called")

    monkeypatch.setattr("dessins.cli.parse_profile", unread)
    path = tmp_path / "f.cache"
    code, out, err = run(capsys, "coeff", "--d", "3000000", "--k", "1", "--l", "1",
                         "--profile", "3000000^1", "--cache", str(path))
    assert (code, out, err) == (2, "", "error: degree 3000000 is beyond the limit 31\n")
    assert run(capsys, "coeff", "--d", "0", "--k", "1", "--l", "1",
               "--profile", "1^1")[0] == 2
    assert not path.exists()


def test_table_gmax_past_every_computable_genus_is_refused(tmp_path, capsys):
    # degree 31 reaches genus 15 at most: a larger --gmax is refused before
    # anything is computed; up to 15 it only adds zero columns
    path = tmp_path / "f.cache"
    code, out, err = run(capsys, "table", "--dmax", "2", "--gmax", "16",
                         "--cache", str(path))
    assert (code, out, err) == (2, "", "error: --gmax must be <= 15\n")
    assert run(capsys, "table", "--dmax", "2", "--gmax", "1000000")[0] == 2
    assert not path.exists()
    code, out, _ = run(capsys, "table", "--dmax", "2", "--gmax", "15", "--marked")
    assert code == 0
    assert out == "d,g,G_marked\n" + "".join(
        f"{d},{g},{(1, 3)[d - 1] if g == 0 else 0}\n" for d in (1, 2) for g in range(16))


def test_table_out_file(tmp_path, capsys):
    out_path = tmp_path / "t.csv"
    code, out, _ = run(capsys, "table", "--dmax", "2", "--marked",
                       "--out", str(out_path))
    assert code == 0 and out == ""
    assert out_path.read_text() == "d,g,G_marked\n1,0,1\n2,0,3\n"


def test_table_out_io_error(tmp_path, capsys):
    code, _, err = run(capsys, "table", "--dmax", "1",
                       "--out", str(tmp_path / "missing" / "t.csv"))
    assert code == 3
    assert "I/O error" in err


def test_coeff(capsys):
    code, out, _ = run(capsys, "coeff", "--d", "1", "--k", "1", "--l", "1",
                       "--profile", "1^1")
    assert (code, out) == (0, "N=1, marked=1\n")
    code, out, _ = run(capsys, "coeff", "--d", "2", "--k", "2", "--l", "1",
                       "--profile", "2^1")
    assert (code, out) == (0, "N=1/2, marked=1\n")


def test_coeff_usage_errors(capsys):
    # malformed profile
    assert run(capsys, "coeff", "--d", "2", "--k", "1", "--l", "1",
               "--profile", "2^")[0] == 2
    # weight mismatch
    assert run(capsys, "coeff", "--d", "3", "--k", "1", "--l", "1",
               "--profile", "2^1")[0] == 2
    # no white vertex
    assert run(capsys, "coeff", "--d", "1", "--k", "0", "--l", "1",
               "--profile", "1^1")[0] == 2


@pytest.mark.parametrize("profile, code, out", [
    ("1000000^1", 2, ""),  # weight 10^6 against --d 3
    ("1000000^0,3^1", 0, "N=1/3, marked=1\n"),  # a zero multiplicity
], ids=["weight_mismatch", "zero_multiplicity"])
def test_coeff_profile_allocates_by_weight(capsys, monkeypatch, profile, code, out):
    # the profile vector is sized by the parts that occur, after the
    # weight check, not by the largest part written
    monkeypatch.delenv("DESSIN_CACHE", raising=False)
    tracemalloc.start()
    try:
        got = run(capsys, "coeff", "--d", "3", "--k", "1", "--l", "1",
                  "--profile", profile)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got[:2] == (code, out)
    assert peak < 2 ** 20, peak


def test_kp_json_lines(capsys):
    code, out, _ = run(capsys, "kp", "--dmax", "2", "--eq", "1",
                       "--format", "json")
    assert code == 0
    assert out.splitlines() == [
        '{"eq":1,"n":1,"residual_terms":0,"pass":true}',
        '{"eq":1,"n":2,"residual_terms":0,"pass":true}',
    ]


def test_kp_text(capsys):
    code, out, _ = run(capsys, "kp", "--dmax", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "eq=1 n=1 residual_terms=0 pass"
    assert len(lines) == 4 * 3 + 1
    assert lines[-1].startswith("all residuals vanish")


def test_oracle_command(capsys):
    code, out, _ = run(capsys, "oracle", "--d", "3")
    assert code == 0
    assert out.splitlines()[-1] == "all types agree"
    code, out, _ = run(capsys, "oracle", "--d", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["mismatches"] == []
    assert payload["total_pairs"] == "426"
    assert run(capsys, "oracle", "--d", "10")[0] == 2


def test_oracle_method_limits_are_usage_errors(capsys):
    code, out, err = run(capsys, "oracle", "--d", "6", "--method", "naive")
    assert (code, out) == (2, "")
    assert err == "error: brute force supports d <= 5 with --method naive\n"
    assert run(capsys, "oracle", "--d", "5", "--method", "naive")[0] == 0
    for retired in ("full", "auto"):
        code, out, err = run(capsys, "oracle", "--d", "4", "--method", retired)
        assert (code, out) == (2, "")
        assert "invalid choice" in err


def test_oracle_default_is_class_scan(capsys):
    code, out, _ = run(capsys, "oracle", "--d", "7", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["method"], payload["types"], payload["total_pairs"]) == \
        ("classes", 117, "20946960")
    assert payload["pass"] is True


def test_threads_belongs_to_oracle(capsys):
    assert run(capsys, "table", "--dmax", "2", "--threads", "2")[0] == 2
    code, _, err = run(capsys, "oracle", "--d", "4", "--threads", "-1")
    assert code == 2 and "--threads" in err


def test_closed_command(capsys):
    code, out, _ = run(capsys, "closed", "--dmax", "6")
    assert code == 0
    assert out.splitlines()[-1] == "closed formulas agree"


def test_recursion_command(capsys):
    code, out, _ = run(capsys, "recursion", "--dmax", "4")
    assert code == 0
    assert out.splitlines()[-1] == "both paths agree"


def test_cache_flag_and_env(tmp_path, capsys, monkeypatch):
    path = tmp_path / "cli.cache"
    code, out1, _ = run(capsys, "table", "--dmax", "4", "--marked",
                        "--cache", str(path))
    assert code == 0 and path.exists()
    bytes_before = path.read_bytes()
    # re-run via the environment variable default; file stays untouched
    monkeypatch.setenv("DESSIN_CACHE", str(path))
    code, out2, _ = run(capsys, "table", "--dmax", "4", "--marked")
    assert code == 0
    assert out1 == out2
    assert path.read_bytes() == bytes_before


@pytest.mark.parametrize("env, flag", [("", []), (None, ["--cache", ""])],
                         ids=["empty_env", "empty_flag"])
def test_empty_cache_path_means_no_cache(tmp_path, capsys, monkeypatch, env, flag):
    monkeypatch.chdir(tmp_path)  # an empty path must not be read as "."
    monkeypatch.delenv("DESSIN_CACHE", raising=False)
    want = {argv[0]: run(capsys, *argv) for argv in (
        ["table", "--dmax", "4", "--marked"], ["closed", "--dmax", "4"],
        ["coeff", "--d", "3", "--k", "1", "--l", "1", "--profile", "3^1"])}
    assert all(code == 0 and not err for code, _, err in want.values())
    if env is not None:
        monkeypatch.setenv("DESSIN_CACHE", env)
    for argv in (["table", "--dmax", "4", "--marked"], ["closed", "--dmax", "4"],
                 ["coeff", "--d", "3", "--k", "1", "--l", "1", "--profile", "3^1"]):
        assert run(capsys, *argv, *flag) == want[argv[0]]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fault", ["missing_directory", "refused_rename"])
def test_unwritable_cache_is_reported_at_its_path(tmp_path, capsys, monkeypatch,
                                                  fault):
    import os

    path = tmp_path / "x.cache"
    if fault == "missing_directory":
        path = tmp_path / "missing" / "x.cache"
        message = "[Errno 2] No such file or directory"
    else:
        def refuse(src, dst):
            raise PermissionError(13, "Permission denied", str(src), str(dst))

        monkeypatch.setattr(os, "replace", refuse)
        message = "[Errno 13] Permission denied"
    for _ in range(2):  # the same bytes on every run: no temporary name
        code, out, err = run(capsys, "table", "--dmax", "3", "--cache", str(path))
        assert (code, out, err) == (3, "", f"I/O error: {message}: {str(path)!r}\n")
    assert list(tmp_path.iterdir()) == []  # no temporary file is left


@pytest.mark.parametrize("parent, message", [
    ("missing", "[Errno 2] No such file or directory"),
    ("afile", "[Errno 20] Not a directory")])
def test_unwritable_cache_directory_is_refused_before_computing(
        tmp_path, capsys, monkeypatch, parent, message):
    from dessins.evolution import ConnectedSeries

    def refuse(dmax):
        raise AssertionError("computed before the cache path was checked")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(ConnectedSeries, "compute", refuse)
    (tmp_path / "afile").write_text("")
    path = f"{parent}/x.cache"
    code, out, err = run(capsys, "table", "--dmax", "8", "--cache", path)
    assert (code, out, err) == (3, "", f"I/O error: {message}: {path!r}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["afile"]


def test_corrupt_cache_is_io_error(tmp_path, capsys):
    path = tmp_path / "bad.cache"
    path.write_text("garbage\n")
    code, _, err = run(capsys, "table", "--dmax", "2", "--cache", str(path))
    assert code == 3
    assert "error" in err


def test_engine_invariant_failure_exits_1(capsys, monkeypatch):
    from dessins import evolution

    real_step = evolution._next_marked

    def leaky_step(kron, sums, d, W, K):
        acc = real_step(kron, sums, d, W, K)
        if d == 3:  # one stray unit in slot k = 1 breaks integrality (C = 2)
            acc[next(iter(acc))] += 1 << W
        return acc

    monkeypatch.setattr(evolution, "_next_marked", leaky_step)
    code, out, err = run(capsys, "table", "--dmax", "3", "--marked")
    assert code == 1
    assert out == ""
    assert err.startswith("internal check failed: marked count at")


def test_unphysical_engine_key_exits_1(capsys, plant):
    plant(2, (0, 1), 0, 0, 2)  # slot k = 0: the key (0, 3, (0, 1))
    code, out, err = run(capsys, "table", "--dmax", "3")
    assert code == 1
    assert out == ""
    assert err.startswith("internal check failed: computed degree 2: key (0, 3, ")


def test_engine_row_sum_failure_exits_1(capsys, plant):
    # a physical, integral key: only the degree's count sum can see it
    plant(2, (0, 1), 2, 0, 2)  # (2, 1, (0, 1)) gets 2 more
    code, out, err = run(capsys, "table", "--dmax", "3")
    assert code == 1
    assert out == ""
    assert err == ("internal check failed: computed degree 2: marked counts "
                   "sum to 5, not A003319(3) = 3\n")


def test_unphysical_oracle_key_exits_1(capsys, monkeypatch):
    from dessins import oracle

    real_binned = oracle._binned

    def stray_binned(cycles, values, tables):
        binned = real_binned(cycles, values, tables)
        if len(cycles) == 1:  # k = 1
            # l = 1 at the type (0, 0, 0, 1): d - k - l - parts + 2 = 3, odd
            binned[tables.types.index((0, 0, 0, 1)) * 5 + 1] += 1
        return binned

    monkeypatch.setattr(oracle, "_binned", stray_binned)
    code, out, err = run(capsys, "oracle", "--d", "4")
    assert code == 1
    assert out == ""
    assert err.startswith("internal check failed: oracle scan of degree 4: "
                          "key (1, 1, (0, 0, 0, 1))")


def test_oracle_key_of_another_degree_exits_1(capsys, monkeypatch):
    from dessins import oracle

    # a histogram has no bin of another degree: the naive scan's table
    # carries the fault
    real_counts = oracle._naive_counts

    def moving_counts(d):
        counts = real_counts(d)
        counts[next(iter(counts))] -= 1  # one count moves: the total holds
        counts[(1, 2, (0, 0, 0, 1))] = 1  # genus 1 at weight 4, not 3
        return counts

    monkeypatch.setattr(oracle, "_naive_counts", moving_counts)
    code, out, err = run(capsys, "oracle", "--d", "3", "--method", "naive")
    assert code == 1
    assert out == ""
    assert err == ("internal check failed: oracle scan of degree 3: "
                   "piece 3 is not homogeneous of weight 3\n")


def test_oracle_pair_total_exits_1(capsys, monkeypatch):
    from dessins import oracle

    real_binned = oracle._binned

    def extra_binned(cycles, values, tables):
        binned = real_binned(cycles, values, tables)
        if len(cycles) == 1:  # k = 1
            # l = 1 at the type (4,): physical, only the total can tell
            binned[tables.types.index((4,)) * 5 + 1] += 1
        return binned

    monkeypatch.setattr(oracle, "_binned", extra_binned)
    code, out, err = run(capsys, "oracle", "--d", "4", "--threads", "1")
    assert code == 1
    assert out == ""
    # one stray pair of the 4-cycle representative, weighted by its class
    # size 3! = 6, over 3! * 71
    assert err == ("internal check failed: oracle scan of degree 4: "
                   "432 transitive pairs, expected 426\n")


def test_no_command_builds_fraction_pieces(tmp_path, capsys, monkeypatch):
    from dessins.evolution import ConnectedSeries

    def refuse(self, d):
        raise AssertionError("Fraction pieces built")

    monkeypatch.setattr(ConnectedSeries, "piece", refuse)
    assert run(capsys, "table", "--dmax", "6")[0] == 0  # no cache
    cache = ["--cache", str(tmp_path / "f.cache")]  # saved once, then loaded
    for argv in (["table", "--dmax", "6"], ["table", "--dmax", "6", "--marked"],
                 ["coeff", "--d", "3", "--k", "1", "--l", "1", "--profile", "3^1"],
                 ["kp", "--dmax", "6"], ["oracle", "--d", "5"],
                 ["closed", "--dmax", "6"], ["recursion", "--dmax", "6"]):
        assert run(capsys, *argv, *cache)[0] == 0, argv


def test_verification_failure_exits_1(tmp_path, capsys, monkeypatch):
    # a cache that passes every load check but carries wrong values must
    # be caught by the verification commands with exit code 1
    from dessins import cli

    path = tmp_path / "lying.cache"
    write_lying_cache(path)

    code, out, _ = run(capsys, "oracle", "--d", "3", "--cache", str(path))
    assert code == 1
    assert "MISMATCH" in out and "profile=3" in out
    code, out, _ = run(capsys, "recursion", "--dmax", "3",
                       "--cache", str(path))
    assert code == 1
    assert "MISMATCH" in out
    code, out, _ = run(capsys, "closed", "--dmax", "3", "--cache", str(path))
    assert code == 0  # the edit keeps both column sums
    real = cli.marked_count_genus0
    monkeypatch.setattr(cli, "marked_count_genus0", lambda d: real(d) + (d == 3))
    code, out, _ = run(capsys, "closed", "--dmax", "3")
    assert code == 1
    assert "d=3 g0=12/13" in out and "disagree at d=[3]" in out
