"""End-to-end CLI behavior: outputs, manifests, determinism, exit codes."""

import csv
import gc
import hashlib
import json
import math
import warnings

import pytest

from repzeta import symalt
from repzeta.cli import main
from repzeta.euler import ARCHIMEDEAN_TAIL_TOLERANCE


def test_witten_csv_and_manifest(tmp_path, capsys):
    out = tmp_path / "a2.csv"
    code = main([
        "witten", "--type", "A", "--rank", "2", "--max-dim", "1000",
        "--estimate-abscissa", "--zeta", "2.0", "--out", str(out),
    ])
    assert code == 0
    text = capsys.readouterr().out
    assert "A2" in text and "abscissa estimate" in text
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["degree", "multiplicity", "cumulative"]
    assert rows[1] == ["1", "1", "1"]
    manifest = json.loads((tmp_path / "a2.csv.manifest.json").read_text())
    assert manifest["subcommand"] == "witten"
    assert manifest["output_sha256"] == hashlib.sha256(out.read_bytes()).hexdigest()
    assert manifest["parameters"]["rank"] == 2


def test_witten_json_format(tmp_path):
    out = tmp_path / "a1.json"
    assert main(["witten", "--type", "A", "--rank", "1", "--max-dim", "10",
                 "--out", str(out), "--format", "json"]) == 0
    payload = json.loads(out.read_text())
    assert payload["cap"] == 10


# SHA-256 of witten output, recorded before the census engine was rewritten;
# E8 at 1e9 runs on Python ints, the others on int64.
GOLDEN_WITTEN_SHA256 = [
    ("A", "1", "1000", "csv", "9e122f0c7b68d50c800d295ecde5a9819bcc3efb1a5f74d2a9f3c66c16f2e150"),
    ("A", "1", "1000", "json", "492546f118652f069edef965179e49208772829fea7ce913679ba1f5f94d4f5d"),
    ("A", "2", "100000", "csv", "0bcd11ea8dc5b927f24f62f9be68c332c9bfaf793aa81d792ba7cf1d2737a098"),
    ("A", "2", "100000", "json", "ac99308c3143eb9d6417eb21d24290f58ac5485698021ff71949945f23beeef1"),
    ("E", "8", "1000000000", "json", "8c55ac09bc58f290bb8efd4cf995798e7efe2eb75458311bea034b7fa953bc54"),
]


@pytest.mark.parametrize("series,rank,cap,fmt,digest", GOLDEN_WITTEN_SHA256)
def test_witten_golden_bytes(tmp_path, series, rank, cap, fmt, digest):
    out = tmp_path / f"census.{fmt}"
    argv = ["witten", "--type", series, "--rank", rank, "--max-dim", cap,
            "--out", str(out), "--format", fmt]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    manifest = json.loads((tmp_path / f"census.{fmt}.manifest.json").read_text())
    assert manifest["output_sha256"] == digest


def test_local_subcommand(tmp_path, capsys):
    out = tmp_path / "q3.csv"
    code = main(["local", "--q", "3", "--s", "2.0", "--levels", "2", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "5.17361111111" in text
    assert "25 classes" in text
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["degree", "multiplicity", "cumulative"]
    assert rows[-1][0] == "12"


def test_census_subcommand_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "c1.csv"
    out2 = tmp_path / "c2.csv"
    assert main(["census", "sl2", "--p", "3", "--k", "2", "--out", str(out1)]) == 0
    assert "classes: 25" in capsys.readouterr().out
    assert main(["census", "sl2", "--p", "3", "--k", "2", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    m1 = json.loads((tmp_path / "c1.csv.manifest.json").read_text())
    m2 = json.loads((tmp_path / "c2.csv.manifest.json").read_text())
    assert m1["output_sha256"] == m2["output_sha256"]


def test_census_flavors_agree(capsys):
    assert main(["census", "sl2", "--p", "3", "--k", "1", "--ring", "char0"]) == 0
    a = capsys.readouterr().out
    assert main(["census", "sl2", "--p", "3", "--k", "1", "--ring", "charp"]) == 0
    b = capsys.readouterr().out
    assert "classes: 7" in a and "classes: 7" in b


# SHA-256 of the class CSV, recorded before the conjugacy engine was rewritten.
GOLDEN_CENSUS_SHA256 = [
    ("3", "3", "char0", "6ac35a3c14f3091fab25fdb7b330bbecfdd079c733e0d450b007cf2e69c69121"),
    ("5", "2", "charp", "eb49494076a6cbbfdb89348622549473131414a375e76824f2397b555061f9bb"),
]


@pytest.mark.parametrize("p,k,ring,digest", GOLDEN_CENSUS_SHA256)
def test_census_csv_golden_bytes(tmp_path, p, k, ring, digest):
    out = tmp_path / "classes.csv"
    assert main(["census", "sl2", "--p", p, "--k", k, "--ring", ring, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    manifest = json.loads((tmp_path / "classes.csv.manifest.json").read_text())
    assert manifest["output_sha256"] == digest


# SHA-256 of `bounds-audit --x-max 50 --md-max 50 --out audit.json`, recorded
# before the manifest writer switched to chunked hashing.
GOLDEN_AUDIT_SHA256 = "1b3bcde844d43868b0e6acb429e0a2b6323a4b92f18c7df42d413cb76c3338e4"


def test_bounds_audit_golden_bytes(tmp_path):
    out = tmp_path / "audit.json"
    assert main(["bounds-audit", "--x-max", "50", "--md-max", "50", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_AUDIT_SHA256
    manifest = json.loads((tmp_path / "audit.json.manifest.json").read_text())
    assert manifest["output_sha256"] == GOLDEN_AUDIT_SHA256


def test_manifest_closes_the_output_file(tmp_path):
    out = tmp_path / "a1.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert main(["witten", "--type", "A", "--rank", "1", "--max-dim", "50",
                     "--out", str(out)]) == 0
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_bounds_audit_subcommand(tmp_path, capsys):
    out = tmp_path / "audit.json"
    assert main(["bounds-audit", "--x-max", "8", "--md-max", "8", "--out", str(out)]) == 0
    assert "PASS" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["global_min"] == "1/15"
    assert payload["passed"] is True


def test_alt_subcommand(capsys):
    assert main(["alt", "--k", "5", "--s", "1.0", "--check-index"]) == 0
    text = capsys.readouterr().out
    assert "2.11666666667" in text
    assert "PASS" in text


# SHA-256 of the A_24 census, recorded before the partition and hook-degree
# layer was rewritten.
GOLDEN_ALT_SHA256 = [
    ("csv", "e413214ebc01336822f5d3078e8371b10f3145d36b8d279127f4e44ce139ec7d"),
    ("json", "4f649bae4bb4b39c8102c9fbe7fbb34fb1babe0702a62f2bbb809157cb80429b"),
]


@pytest.mark.parametrize("fmt,digest", GOLDEN_ALT_SHA256)
def test_alt_golden_bytes(tmp_path, fmt, digest):
    out = tmp_path / f"a24.{fmt}"
    argv = ["alt", "--k", "24", "--s", "0.5", "--out", str(out), "--format", fmt]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    manifest = json.loads((tmp_path / f"a24.{fmt}.manifest.json").read_text())
    assert manifest["output_sha256"] == digest


def test_alt_index_check_at_a_large_degree_cap(capsys):
    # the largest A_24 degree is about 1.17e11: the check reads the counts
    # only where they step
    assert main(["alt", "--k", "24", "--check-index"]) == 0
    assert "index-2 count inequalities: PASS" in capsys.readouterr().out


# Exact stdout, recorded before the Dirichlet sums moved onto DegreeCensus.
GOLDEN_STDOUT = [
    ("alt --k 24 --s 0.5 --check-index",
     "A_24: 804 irreducibles, max degree 117487079424\n"
     "zeta at s=0.5: 1.5354074326\n"
     "index-2 count inequalities: PASS\n"),
    ("alt --k 5 --s 0",
     "A_5: 5 irreducibles, max degree 5\n"
     "zeta at s=0: 5\n"),
    ("witten --type A --rank 2 --max-dim 100000 --zeta 1.0 --estimate-abscissa",
     "A2: 3451 distinct degrees, 7756 irreducibles of dimension <= 100000\n"
     "abscissa estimate: 0.70151915368 (raw ratio 0.777927560081, exact rank/kappa 2/3)\n"
     "zeta partial sum at s=1: 4.64002600601\n"),
    ("euler --s 2.5 --prime-bound 100",
     "global partial product (s=2.5, P=100, archimedean exponent 1): 15.0306692154\n"),
    ("local --q 3 --s 2.0 --levels 3",
     "local factor q=3 at s=2: 5.17361111111\n"
     "census q=3 level 3: 79 classes, max degree 36\n"),
]


@pytest.mark.parametrize("argv,stdout", GOLDEN_STDOUT, ids=[a for a, _ in GOLDEN_STDOUT])
def test_golden_stdout(capsys, argv, stdout):
    assert main(argv.split()) == 0
    assert capsys.readouterr().out == stdout


@pytest.mark.parametrize("argv,walks", [
    ("alt --k 12 --s 1.0 --check-index", 2),  # one walk for A_12, one for S_12
    ("alt --k 12 --s 1.0", 1),
])
def test_alt_builds_each_census_once(monkeypatch, capsys, argv, walks):
    calls = []
    walk = symalt._transpose_pairs

    def counting(k):
        calls.append(k)
        return walk(k)

    monkeypatch.setattr(symalt, "_transpose_pairs", counting)
    assert main(argv.split()) == 0
    assert calls == [12] * walks


def test_euler_subcommand(capsys):
    assert main(["euler", "--s", "2.5", "--prime-bound", "50"]) == 0
    assert "14.6967529875" in capsys.readouterr().out


def test_probe_subcommand(tmp_path, capsys):
    out = tmp_path / "probe.json"
    assert main(["probe", "--s", "2.0", "--schedule", "100,1000", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "strictly increasing: PASS" in text
    payload = json.loads(out.read_text())
    assert payload["prime_bounds"] == [100, 1000]


def test_error_exit_code_and_diagnostic(capsys):
    assert main(["local", "--q", "4", "--s", "2.0"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "odd" in err
    assert main(["witten", "--type", "E", "--rank", "9", "--max-dim", "10"]) == 2
    assert main(["probe", "--s", "1.0", "--schedule", "100,1000"]) == 2


@pytest.mark.parametrize("s,cap", [(2.2, 3_987_332), (2.5, 164_415)])
def test_archimedean_tail_error_names_the_cap_that_suffices(capsys, s, cap):
    def tail(n):
        return n ** (1.0 - s) / (s - 1.0)

    # the least A1 cap whose tail bound meets the tolerance
    n = math.ceil((ARCHIMEDEAN_TAIL_TOLERANCE * (s - 1.0)) ** (1.0 / (1.0 - s)))
    assert tail(n) <= ARCHIMEDEAN_TAIL_TOLERANCE < tail(n - 1)
    assert n == cap
    argv = ["euler", "--s", str(s), "--prime-bound", "100", "--max-dim", "100000"]
    assert main(argv) == 2
    assert str(n) in capsys.readouterr().err


def test_version_flag(capsys):
    import pytest

    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
