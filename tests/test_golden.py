"""Byte-identity of CLI output: SHA-256 of stdout, pinned.

The digests were taken from the Fraction-arithmetic implementation that the
integer evaluation core replaced; interval endpoints are part of every
payload, so the refinement path is pinned along with the verdicts.
"""

import hashlib
import subprocess
import sys

import pytest

from salemforge.cli import main

REALIZE_D4 = ("realize", "--d", "4", "--tuple", "2,3,4,5,6,7")
REALIZE_D4_SHA = "bfbfb332fc193fb251361cb7dd583c35f07a63e98977ff659e2d99f531f3ddaf"

GOLDEN = [
    (REALIZE_D4, REALIZE_D4_SHA),
    (
        ("realize", "--d", "5", "--tuple", "2,3,4,5,6,7,8,9"),
        "160fa447fe7c864901675ac07a81d42cdaac289690982bda4f380ff113ea7bc6",
    ),
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
    (("classify", "--d", "5", "--tuple", "3,3,3"), "c8084a972f96291a33ffe0dc756a62c96a3a5dbfdfb028f9eea104470f9a5fe2"),
]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_cli_output_pinned(capsys, monkeypatch, argv, digest):
    monkeypatch.delenv("SALEMFORGE_CACHE", raising=False)
    assert main(list(argv)) == 0
    assert sha256(capsys.readouterr().out) == digest


def test_realize_under_optimize_flag():
    # with asserts stripped the verdict path must still produce the same bytes
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "salemforge.cli", *REALIZE_D4],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert sha256(proc.stdout) == REALIZE_D4_SHA
