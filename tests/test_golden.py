"""Byte-identity of CLI output: SHA-256 of stdout, pinned.

The `realize`, `lambda` and `classify` digests were taken from the
Fraction-arithmetic implementation that the integer evaluation core
replaced; interval endpoints are part of every payload, so the refinement
path is pinned along with the verdicts.  The `charpoly`, `weyl` and
`matrix` digests were taken from the Bareiss-interpolation `char_poly` and
the dense `mat_mul` that the sparse Berkowitz kernels replaced.  The
`census` digests were taken with the Schur-Cohn inside count and the
z + 1/z half transform that the single Chebyshev-series census replaced;
they cover factors of multiplicity 2 and 3 and orbit data without a tuple.
"""

import hashlib
import subprocess
import sys

import pytest

from salemforge.cli import main

REALIZE_D4 = ("realize", "--d", "4", "--tuple", "2,3,4,5,6,7")
REALIZE_D4_SHA = "bfbfb332fc193fb251361cb7dd583c35f07a63e98977ff659e2d99f531f3ddaf"
REALIZE_D5 = ("realize", "--d", "5", "--tuple", "2,3,4,5,6,7,8,9")
REALIZE_D5_SHA = "160fa447fe7c864901675ac07a81d42cdaac289690982bda4f380ff113ea7bc6"
CHARPOLY_D5 = ("charpoly", "--d", "5", "--tuple", "2,3,4,5,6,7,8,9")
CHARPOLY_D5_SHA = "5d1fcfd6b237e1c86a339c310a737936a40a4a92bc3b439ad78a0dcd69f5c62e"
WEYL_D4 = ("weyl", "--d", "4", "--tuple", "2,3,4,5,6,7")
WEYL_D4_SHA = "4b7f9dade7c43dbffa90b3ed1982268fa9e564c1c8c8d902c18c9978b42de725"
CENSUS_D5 = ("census", "--d", "5", "--tuple", "4,4,4,4")
CENSUS_D5_SHA = "902d8855cf8add1d57877e8a57fe9c4260233f1c324cc2f2227c392f357b69e7"
CLASSIFY_D5 = ("classify", "--d", "5", "--tuple", "3,3,3")
CLASSIFY_D5_SHA = "c8084a972f96291a33ffe0dc756a62c96a3a5dbfdfb028f9eea104470f9a5fe2"

GOLDEN = [
    (REALIZE_D4, REALIZE_D4_SHA),
    (REALIZE_D5, REALIZE_D5_SHA),
    (("lambda", "--d", "4", "--tuple", ""), "53cec6ca69e233c5ea27d357f01957c3ce899b2eb5f70f9b5b9cb5827768caa2"),
    (("lambda", "--d", "4", "--tuple", "2,3"), "67f829c9eef813b710263189071cc5edfe783984b4f0e6fd0cbab4d6d60998f7"),
    (
        ("lambda", "--d", "4", "--tuple", "2,3,4,5,6,7"),
        "279cb5dac6e003c50bc2afdec7ccf4bc8d2996a4045a8e28dbb17703066df979",
    ),
    (("lambda", "--d", "5", "--tuple", ""), "f40b5e4b2feb0ac70874ce921fb88596086ab635f781b105c899210cb8d1882a"),
    (("lambda", "--d", "5", "--tuple", "2,2,4,4"), "ba9f2f88ef2afa7a5a0c8ace245bcec8d540a1fa6d6439e3c42e89c85a6fc36f"),
    (
        ("lambda", "--d", "5", "--tuple", "2,3,4", "--width", "1e-30"),
        "22908de77ad3aa06d320e39ee22c424583a5da5023b2b613de7c49876483e533",
    ),
    (("classify", "--d", "4", "--tuple", ""), "a28fa9445318ebea8bd85ca5ff1d5f8b7d001c94ebd4de04400997fed752771a"),
    (("classify", "--d", "4", "--tuple", "2,3,4"), "f1b823ff23b637a60b1df5f1e76c0edbae9847a752915d2340478d6b188c1b4e"),
    (("classify", "--d", "5", "--tuple", ""), "d506d577efb28cb0b7dd3aab0d2ad8f8d946123caee62b556e4e92fe46521fd8"),
    (("classify", "--d", "5", "--tuple", "2,3"), "e0a9b1422a8e63d833b76f4895a5993e6a76df87a1ce4a7f399b9edba62070c4"),
    (CLASSIFY_D5, CLASSIFY_D5_SHA),
    (("census", "--d", "1", "--tuple", ""), "24eb8ee57f3765e507c9ac75f39ec8429045eac3396d6afb8474b768271677dc"),
    (("census", "--d", "3", "--tuple", "1,1,1,1"), "d3357c36f522ea3c4b2d31639ca60edb0e387fcd6846c6b8e4444d2e653b8597"),
    (("census", "--d", "4", "--tuple", "2,2,2"), "3282bc97bcb0cad2955be090521aadb699870ab010a09a30fc587524378e55b9"),
    (CENSUS_D5, CENSUS_D5_SHA),
    (
        ("census", "--d", "5", "--tuple", "2,3,4,5,6,7,8,9"),
        "70dbf370af1b7fad45c07d36acad1b9eddd4ff34121988f42fe74982e990c7d5",
    ),
    (
        ("charpoly", "--d", "4", "--tuple", "2,3,4,5,6,7"),
        "4c6537c32f0dc8914344d8269b4ca5d06eb06bfc91e7186f1a6c35ca7ddc82aa",
    ),
    (CHARPOLY_D5, CHARPOLY_D5_SHA),
    (("charpoly", "--d", "5", "--tuple", "4,4,4,4"), "6fe93f8118dd6fe95a37913ff84e8707a053e11464a2959301c16584ae53ce84"),
    (WEYL_D4, WEYL_D4_SHA),
    (
        ("weyl", "--d", "5", "--tuple", "2,3,4,5,6,7,8,9"),
        "b4d36a98a6a763d59908df705e1f7a3ec8a2758667a0e884aa81434e8d74bf7e",
    ),
    (
        ("matrix", "--d", "5", "--tuple", "2,3,4,5,6,7,8,9"),
        "218e68339c9da7d96e4553b07a1845d568ffcfe37c8b472bad6c100cfd4a285e",
    ),
]
MATRIX_PATHS = [(CHARPOLY_D5, CHARPOLY_D5_SHA), (WEYL_D4, WEYL_D4_SHA)]
CENSUS_PATHS = [(CENSUS_D5, CENSUS_D5_SHA), (CLASSIFY_D5, CLASSIFY_D5_SHA)]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_cli_output_pinned(capsys, monkeypatch, argv, digest):
    monkeypatch.delenv("SALEMFORGE_CACHE", raising=False)
    assert main(list(argv)) == 0
    assert sha256(capsys.readouterr().out) == digest


def run_optimized(argv, digest):
    # with asserts stripped the verdict path must still produce the same bytes
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "salemforge.cli", *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert sha256(proc.stdout) == digest


def test_realize_under_optimize_flag():
    run_optimized(REALIZE_D4, REALIZE_D4_SHA)


def test_realize_d5_under_optimize_flag():
    run_optimized(REALIZE_D5, REALIZE_D5_SHA)


@pytest.mark.parametrize("argv,digest", MATRIX_PATHS, ids=[a[0] for a, _ in MATRIX_PATHS])
def test_matrix_paths_under_optimize_flag(argv, digest):
    run_optimized(argv, digest)


@pytest.mark.parametrize("argv,digest", CENSUS_PATHS, ids=[a[0] for a, _ in CENSUS_PATHS])
def test_census_paths_under_optimize_flag(argv, digest):
    run_optimized(argv, digest)
