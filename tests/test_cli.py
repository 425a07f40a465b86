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


# Exact manifest bytes, recorded before the --out writers were merged; OUT
# stands for the JSON string of the output path.  The local run leaves --s
# unset, so its manifest shows that unset parameters are left out.
GOLDEN_MANIFESTS = [
    ("witten --type A --rank 2 --max-dim 1000 --zeta 2.0", "a2.csv", """{
  "output_sha256": "5da9249d3746f9207d3f2db68b0bc12ea32196ac110eacab638dd02ee6bc9ebc",
  "parameters": {
    "estimate_abscissa": false,
    "format": "csv",
    "max_dim": 1000,
    "out": OUT,
    "rank": 2,
    "subcommand": "witten",
    "type": "A",
    "zeta": 2.0
  },
  "subcommand": "witten",
  "version": "0.1.0"
}
"""),
    ("local --q 3 --levels 2 --format json", "q3.json", """{
  "output_sha256": "33d6d13b976a91bf64b2231e86c8ff9dc960ab4ae4a41af72f9056292b1a2736",
  "parameters": {
    "format": "json",
    "levels": 2,
    "out": OUT,
    "q": 3,
    "subcommand": "local"
  },
  "subcommand": "local",
  "version": "0.1.0"
}
"""),
]


@pytest.mark.parametrize("argv,name,golden", GOLDEN_MANIFESTS, ids=[a for a, _, _ in GOLDEN_MANIFESTS])
def test_manifest_golden_bytes(tmp_path, capsys, argv, name, golden):
    out = tmp_path / name
    assert main(argv.split() + ["--out", str(out)]) == 0
    manifest = (tmp_path / f"{name}.manifest.json").read_text()
    assert manifest == golden.replace("OUT", json.dumps(str(out)))


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


@pytest.mark.parametrize("extra,message", [
    (["--s", "2", "--out", "x.csv"], "--out for the local subcommand needs --levels"),
    (["--out", "x.csv"], "--out for the local subcommand needs --levels"),
    ([], "nothing to do"),
])
def test_local_rejects_its_arguments_before_any_work(tmp_path, monkeypatch, capsys, extra,
                                                     message):
    monkeypatch.chdir(tmp_path)
    assert main(["local", "--q", "3", *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert list(tmp_path.iterdir()) == []


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
    # recorded before the ring became its operation tables; (7, 2) is the
    # largest group of level >= 2 within the default budget
    ("7", "2", "char0", "5eafb6011c90558b3d4994187bad7f7c6da607cc8cc5427dab430a889c3a292e"),
    ("7", "2", "charp", "8b10f3984762f7a88adb43ee642bfbcdf5565dc7f5dae68a7d1c77eac704fa6f"),
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


# SHA-256 of the A_40 census at s = 1.0, recorded before partitions came from
# ZS1 and the pair walk skipped λ₁ > ℓ(λ): k = 40 is where both change the
# most steps.
GOLDEN_A40_CSV_SHA256 = "7d933ad3513c5156c1c2f7d0ba4dd83eef696584861a0590177d4209eca36bc1"


def test_alt_k40_golden_bytes(tmp_path):
    out = tmp_path / "a40.csv"
    assert main(["alt", "--k", "40", "--s", "1.0", "--out", str(out), "--format", "csv"]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_A40_CSV_SHA256


def test_alt_index_check_at_a_large_degree_cap(capsys):
    # the largest A_24 degree is about 1.17e11: the check reads the counts
    # only where they step
    assert main(["alt", "--k", "24", "--check-index"]) == 0
    assert "index-2 count inequalities: PASS" in capsys.readouterr().out


# Exact stdout of the verbose audit, recorded before the isotropic families
# moved into one class-growth table.
AUDIT_VERBOSE_STDOUT = """\
global min >= 1/15: PASS (min = 1/15 at exceptional:{'type': 'E8'})
case           parameters              formula         fallback        value
a              m=2,d=1                       0             A1:1            1
a              m=2,d=2                    1/22           A3:1/2          1/2
a              m=2,d=3                   8/101           A5:1/3          1/3
a              m=2,d=4                    1/10           A7:1/4          1/4
a              m=2,d=5                  32/281           A9:1/5          1/5
a              m=2,d=6                  25/202          A11:1/6          1/6
a              m=3,d=1                       0           A2:2/3          2/3
a              m=3,d=2                    1/17           A5:1/3          1/3
a              m=3,d=3                    2/23           A8:2/9          2/9
a              m=3,d=4                    7/68          A11:1/6          1/6
a              m=4,d=1                    1/22           A3:1/2          1/2
a              m=4,d=2                    1/10           A7:1/4          1/4
a              m=4,d=3                  25/202          A11:1/6          1/6
a              m=5,d=1                    2/35           A4:2/5          2/5
a              m=5,d=2                    5/47           A9:1/5          1/5
a              m=6,d=1                   8/101           A5:1/3          1/3
a              m=6,d=2                  25/202          A11:1/6          1/6
a              m=7,d=1                    2/23           A6:2/7          2/7
a              m=8,d=1                    1/10           A7:1/4          1/4
a              m=9,d=1                    2/19           A8:2/9          2/9
a              m=10,d=1                 32/281           A9:1/5          1/5
a              m=11,d=1                   2/17         A10:2/11         2/11
a              m=12,d=1                 25/202          A11:1/6          1/6
b              x=1                           -           A3:1/2          1/2
b              x=2                           -           A5:1/3          1/3
b              x=3                        1/10           A7:1/4          1/4
b              x=4                       16/91           A9:1/5          1/5
b              x=5                       15/64          A11:1/6        15/64
b              x=6                       16/57          A13:1/7        16/57
b              x=7                        7/22          A15:1/8         7/22
b              x=8                      96/275          A17:1/9       96/275
b              x=9                         3/8         A19:1/10          3/8
b              x=10                    160/403         A21:1/11      160/403
b              x=11                     99/238         A23:1/12       99/238
b              x=12                      16/37         A25:1/13        16/37
c              x=1                           -           B3:1/3          1/3
c              x=2                           -           B4:1/4          1/4
c              x=3                           -           B5:1/5          1/5
c              x=4                        1/16           B6:1/6          1/6
c              x=5                        5/43           B7:1/7          1/7
c              x=6                        6/37           B8:1/8         6/37
c              x=7                      28/139           B9:1/9       28/139
c              x=8                        4/17         B10:1/10         4/17
c              x=9                        9/34         B11:1/11         9/34
c              x=10                     70/241         B12:1/12       70/241
c              x=11                     88/281         B13:1/13       88/281
c              x=12                        1/3         B14:1/14          1/3
d              x=1                           -             C1:1            1
d              x=2                         2/9           C2:1/2          1/2
d              x=3                         1/3           C3:1/3          1/3
d              x=4                         2/5           C4:1/4          2/5
d              x=5                         4/9           C5:1/5          4/9
d              x=6                       10/21           C6:1/6        10/21
d              x=7                         1/2           C7:1/7          1/2
d              x=8                       14/27           C8:1/8        14/27
d              x=9                        8/15           C9:1/9         8/15
d              x=10                       6/11         C10:1/10         6/11
d              x=11                        5/9         C11:1/11          5/9
d              x=12                      22/39         C12:1/12        22/39
e              x=1                         1/2           C3:1/3          1/2
e              x=2                         4/7           C5:1/5          4/7
e              x=3                         3/5           C7:1/7          3/5
e              x=4                        8/13           C9:1/9         8/13
e              x=5                         5/8         C11:1/11          5/8
e              x=6                       12/19         C13:1/13        12/19
e              x=7                        7/11         C15:1/15         7/11
e              x=8                       16/25         C17:1/17        16/25
e              x=9                        9/14         C19:1/19         9/14
e              x=10                      20/31         C21:1/21        20/31
e              x=11                      11/17         C23:1/23        11/17
e              x=12                      24/37         C25:1/25        24/37
f              x=1                        1/22           D5:1/4          1/4
f              x=2                       12/85           D7:1/6          1/6
f              x=3                        5/23           D9:1/8         5/23
f              x=4                        8/29         D11:1/10         8/29
f              x=5                        9/28         D13:1/12         9/28
f              x=6                      44/123         D15:1/14       44/123
f              x=7                      91/235         D17:1/16       91/235
f              x=8                     240/583         D19:1/18      240/583
f              x=9                      51/118         D21:1/20       51/118
f              x=10                     76/169         D23:1/22       76/169
f              x=11                      33/71         D25:1/24        33/71
f              x=12                    184/385         D27:1/26      184/385
exceptional    type=G2                       -           G2:1/3          1/3
exceptional    type=F4                       -           F4:1/6          1/6
exceptional    type=E6                       -           E6:1/6          1/6
exceptional    type=E7                       -           E7:1/9          1/9
exceptional    type=E8                       -          E8:1/15         1/15
global minimum 1/15 (>= threshold 1/15) at exceptional:{'type': 'E8'}
"""

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
    ("bounds-audit --x-max 12 --md-max 12 --verbose", AUDIT_VERBOSE_STDOUT),
    ("census sl2 --p 7 --k 2 --ring charp",
     "SL2 over F_7[t]/(t^2): order 115248\n"
     "classes: 81\n"),
    ("census sl2 --p 3 --k 3",
     "SL2 over Z/3^3: order 17496\n"
     "classes: 79\n"),
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


def test_probe_above_two_has_no_comparator(tmp_path, capsys):
    out = tmp_path / "probe.json"
    argv = ["probe", "--s", "2.5", "--schedule", "100,1000,10000", "--out", str(out)]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert not any("comparator" in line for line in lines)
    payload = json.loads(out.read_text())
    assert payload["comparators_log"] is None
    assert payload["exceeds_comparator"] is True
    assert len(payload["differences"]) == 2
    steps = [b - a for a, b in zip(payload["values"], payload["values"][1:])]
    assert payload["differences"] == pytest.approx(steps, rel=1e-9)
    shown = ", ".join(format(d, ".12g") for d in payload["differences"])
    assert lines[-1] == "successive differences: " + shown


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
