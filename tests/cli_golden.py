"""Recorded output of the jring command line, for a byte-for-byte regression test.

Each case is an argv list run in-process through ``jring.cli.main``; its
record is the exit code and the sha256 of stdout and of stderr.  Every base
command runs in all three formats, with ``--format`` both before and after
the subcommand.  tests/test_cli_golden.py compares each case with RECORDED.

Before stderr is hashed, each of argparse's ``usage:`` blocks is joined onto
one line with its whitespace collapsed, because argparse wraps that block
by Python version and terminal width; every other byte is hashed as
written.

RECORDED is written only by this command, from the repository root:

    PYTHONPATH=src python3 tests/cli_golden.py --record

The same file checks the record without pytest, on any Python the package
supports; it lists each case that differs and exits 1 if there is one:

    PYTHONPATH=src python3 tests/cli_golden.py --check
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
import sys
from pathlib import Path

BASE = [
    ["basis", "--n", "4", "--ell", "2"],
    ["basis", "--n", "7", "--ell", "3"],
    ["basis", "--n", "8", "--ell", "3", "--zero-only"],
    ["basis", "--n", "0", "--ell", "0"],
    ["basis", "--n", "2", "--ell", "3"],
    ["poly", "0,2"],
    ["poly", "empty"],
    ["poly", "1,0,0,2"],
    ["product", "0,2", "0,2"],
    ["product", "1", "0,3"],
    ["product", "empty", "0,0,2"],
    ["lift", "0,1", "--max-degree", "6"],
    ["lift", "0,2", "--max-degree", "7", "--method", "exp"],
    ["chern", "--ell", "2", "--max-degree", "5"],
    ["chern", "--ell", "3", "--max-degree", "9"],
    ["chern", "--k", "2,-1", "--max-degree", "4"],
    ["dims", "--max-n", "1"],
    ["dims", "--max-n", "7"],
    ["dims", "--max-n", "16"],
    ["series", "--which", "J", "--order", "12"],
    ["series", "--which", "Jl", "--ell", "2", "--order", "9"],
    ["series", "--which", "Jl", "--ell", "7", "--order", "5"],
    ["generators", "--max-n", "12"],
    ["relations", "--degree", "8"],
    ["relations", "--degree", "12"],
    ["relations", "--degree", "14"],
    ["verify", "--max-n", "6"],
    # refusals, exit 2
    ["basis", "--n", "-1", "--ell", "2"],
    ["dims", "--max-n", "0"],
    ["generators", "--max-n", "0"],
    ["relations", "--degree", "0"],
    ["verify", "--max-n", "0"],
    ["chern", "--ell", "3", "--max-degree", "2"],
    ["series", "--which", "Jl", "--order", "6"],
    ["series", "--which", "J", "--ell", "3", "--order", "6"],
    ["lift", "0,2", "--max-degree", "1"],
    # spellings that only argparse's own matching reads
    ["relations", "--deg", "8"],
    ["dims", "--max-n", "3", "--max-n", "5"],
    ["chern", "--k", "-1,2", "--max-degree", "4"],
    ["poly", "--", "0,2"],
    # spellings the compiled lookup reads too
    ["lift", "--max-degree", "6", "0,1"],
    ["dims", "--max-n=7"],
]

CASES = [
    argv
    for base in BASE
    for fmt in ("text", "json", "latex")
    for argv in (["--format", fmt, *base], [*base, "--format", fmt])
]


# a "usage:" line and the indented lines that continue it
USAGE_BLOCK = re.compile(r"^usage: .*(?:\n[ \t]+\S.*)*", re.MULTILINE)


def unwrap_usage(text: str) -> str:
    """text with each argparse usage block on one line, whitespace collapsed."""
    return USAGE_BLOCK.sub(lambda block: " ".join(block.group().split()), text)


def run_case(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, sha256 of stdout, sha256 of unwrapped stderr) of one run."""
    from jring.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, *(
        hashlib.sha256(text.encode()).hexdigest()
        for text in (out.getvalue(), unwrap_usage(err.getvalue()))
    )


# --- recorded; rewritten by --record ---------------------------------------
RECORDED: dict[str, tuple[int, str, str]] = {
    '--format text basis --n 4 --ell 2': (0, '486413d4f9187ce244f09bb40b452126aeab538a6fdb0c28bf5c1e9810173670', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'basis --n 4 --ell 2 --format text': (0, '486413d4f9187ce244f09bb40b452126aeab538a6fdb0c28bf5c1e9810173670', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format json basis --n 4 --ell 2': (0, '35f3390082856ec5603deb8fbdb252054c0343191f0c8a98d7253b590f06bc57', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'basis --n 4 --ell 2 --format json': (0, '35f3390082856ec5603deb8fbdb252054c0343191f0c8a98d7253b590f06bc57', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format latex basis --n 4 --ell 2': (0, '6dcb89c07bc84e6fe7bc62c571bfec226717a63aed6ea58b4cc0ea89d5390ca2', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'basis --n 4 --ell 2 --format latex': (0, '6dcb89c07bc84e6fe7bc62c571bfec226717a63aed6ea58b4cc0ea89d5390ca2', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format text basis --n 7 --ell 3': (0, 'f4758979c27eaa8f1aab299b0c476112635908bb0a638832d71755aaeeb74794', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'basis --n 7 --ell 3 --format text': (0, 'f4758979c27eaa8f1aab299b0c476112635908bb0a638832d71755aaeeb74794', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format json basis --n 7 --ell 3': (0, '09cd3752a371972e3e0d0be223c0ea3e95492bd9b5fd01a2d6df3a7d2ffc41a0', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'basis --n 7 --ell 3 --format json': (0, '09cd3752a371972e3e0d0be223c0ea3e95492bd9b5fd01a2d6df3a7d2ffc41a0', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format latex basis --n 7 --ell 3': (0, '4b3a3de9b46a6fb141f166712996700960fff991780c5c91a795c69398cb3ec2', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'basis --n 7 --ell 3 --format latex': (0, '4b3a3de9b46a6fb141f166712996700960fff991780c5c91a795c69398cb3ec2', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format text basis --n 8 --ell 3 --zero-only': (0, '829f5fa1e72e7a3d5acbe08b94b4d697abc9c038aa39454dcf7e1343c4c42ad9', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'basis --n 8 --ell 3 --zero-only --format text': (0, '829f5fa1e72e7a3d5acbe08b94b4d697abc9c038aa39454dcf7e1343c4c42ad9', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format json basis --n 8 --ell 3 --zero-only': (0, '2b25d0c87665ed4a4e34c84ab99e57d86424ed72426d6aa953848b3d2fc2807f', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'basis --n 8 --ell 3 --zero-only --format json': (0, '2b25d0c87665ed4a4e34c84ab99e57d86424ed72426d6aa953848b3d2fc2807f', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format latex basis --n 8 --ell 3 --zero-only': (0, 'b9f9a4c5fc32aeb75e77879f6e5ccf3e8b1a0804d010fd429c787b4395e6fb83', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'basis --n 8 --ell 3 --zero-only --format latex': (0, 'b9f9a4c5fc32aeb75e77879f6e5ccf3e8b1a0804d010fd429c787b4395e6fb83', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format text basis --n 0 --ell 0': (0, '5509b3c56c8d72153b65f1888560fd4bec5f510045ae0833df913b89e2ba2828', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'basis --n 0 --ell 0 --format text': (0, '5509b3c56c8d72153b65f1888560fd4bec5f510045ae0833df913b89e2ba2828', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format json basis --n 0 --ell 0': (0, '74cf34dd1bc8ce54989de157d9f4f1c4c0c7c96437d4625adf834bd51e7dc7c2', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'basis --n 0 --ell 0 --format json': (0, '74cf34dd1bc8ce54989de157d9f4f1c4c0c7c96437d4625adf834bd51e7dc7c2', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format latex basis --n 0 --ell 0': (0, 'b75831ddaf2fb603f5fb710e7951192eb94ad01d72e811477c5efea7b374e4c1', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'basis --n 0 --ell 0 --format latex': (0, 'b75831ddaf2fb603f5fb710e7951192eb94ad01d72e811477c5efea7b374e4c1', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format text basis --n 2 --ell 3': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'basis --n 2 --ell 3 --format text': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format json basis --n 2 --ell 3': (0, '37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'basis --n 2 --ell 3 --format json': (0, '37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format latex basis --n 2 --ell 3': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'basis --n 2 --ell 3 --format latex': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format text poly 0,2': (0, '3faf332aa735dc369e0d6e50156eb55b62442921a9324f049acce9798f514c92', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'poly 0,2 --format text': (0, '3faf332aa735dc369e0d6e50156eb55b62442921a9324f049acce9798f514c92', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format json poly 0,2': (0, 'acc64c3e84c14414da5b240956d95899443264ac889c68324265bed013e76faf', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'poly 0,2 --format json': (0, 'acc64c3e84c14414da5b240956d95899443264ac889c68324265bed013e76faf', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format latex poly 0,2': (0, 'a07832cb4d76eb813fbcca54838c8aefb5b67961fe5bb31108fd0460148713f9', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'poly 0,2 --format latex': (0, 'a07832cb4d76eb813fbcca54838c8aefb5b67961fe5bb31108fd0460148713f9', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format text poly empty': (0, '4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'poly empty --format text': (0, '4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format json poly empty': (0, '338fb35b1817e2390ee8c939397cb8bb9cc60c46b4acd8169203a58c4227f6dd', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'poly empty --format json': (0, '338fb35b1817e2390ee8c939397cb8bb9cc60c46b4acd8169203a58c4227f6dd', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format latex poly empty': (0, '4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'poly empty --format latex': (0, '4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format text poly 1,0,0,2': (0, '61c0b0e78c33e9344146168cf6edaa9aa303b1bb869e89fba7409170ef785a9b', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'poly 1,0,0,2 --format text': (0, '61c0b0e78c33e9344146168cf6edaa9aa303b1bb869e89fba7409170ef785a9b', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format json poly 1,0,0,2': (0, 'c4e5c592c321de64cce247ce356255b410adca44b7d097fa4438140c2d2cbefb', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'poly 1,0,0,2 --format json': (0, 'c4e5c592c321de64cce247ce356255b410adca44b7d097fa4438140c2d2cbefb', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format latex poly 1,0,0,2': (0, 'be50d733a7cb109c6724d7883814ad79401badbd0e8a81adcdef308ee2997973', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'poly 1,0,0,2 --format latex': (0, 'be50d733a7cb109c6724d7883814ad79401badbd0e8a81adcdef308ee2997973', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format text product 0,2 0,2': (0, 'ba8dcfee9e4bf8807e8257c7b17efb6aa1d6c80af9f719367643568d251614dd', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'product 0,2 0,2 --format text': (0, 'ba8dcfee9e4bf8807e8257c7b17efb6aa1d6c80af9f719367643568d251614dd', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format json product 0,2 0,2': (0, '031c59218f9a432dc926ae17d74c0c29a52ec868a7f52c5dd4d5b37746aa6730', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'product 0,2 0,2 --format json': (0, '031c59218f9a432dc926ae17d74c0c29a52ec868a7f52c5dd4d5b37746aa6730', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format latex product 0,2 0,2': (0, 'a0b59b91cf961a6defcd50322f68ec0c11bd4050ef9fbb54e82a33f221a2b853', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'product 0,2 0,2 --format latex': (0, 'a0b59b91cf961a6defcd50322f68ec0c11bd4050ef9fbb54e82a33f221a2b853', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format text product 1 0,3': (0, '72ff9e939f5b6da687fd3935ab24938e54cd57fa82c7d1f3fe83a4aac9941a56', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'product 1 0,3 --format text': (0, '72ff9e939f5b6da687fd3935ab24938e54cd57fa82c7d1f3fe83a4aac9941a56', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format json product 1 0,3': (0, 'fd4316c20de0290d434d138cbf5dcc4a3b187e81bacbdbdc3d64523e34250aea', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'product 1 0,3 --format json': (0, 'fd4316c20de0290d434d138cbf5dcc4a3b187e81bacbdbdc3d64523e34250aea', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format latex product 1 0,3': (0, 'cccd990c6bfaa0e2d490cf90519391e72a8b5c4244bae2bf0c059a0fe166c98f', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'product 1 0,3 --format latex': (0, 'cccd990c6bfaa0e2d490cf90519391e72a8b5c4244bae2bf0c059a0fe166c98f', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format text product empty 0,0,2': (0, 'ab602220a8e316eccd8c38b2f79fa2c016e0778d1b53f67898a642b813f81aee', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'product empty 0,0,2 --format text': (0, 'ab602220a8e316eccd8c38b2f79fa2c016e0778d1b53f67898a642b813f81aee', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format json product empty 0,0,2': (0, 'bcb90faf04c6306acad6c1a8aa7998f4dcca2a797d6f35bba65da2b9a03b3802', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'product empty 0,0,2 --format json': (0, 'bcb90faf04c6306acad6c1a8aa7998f4dcca2a797d6f35bba65da2b9a03b3802', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format latex product empty 0,0,2': (0, '30217d1ce5cbf8e0f091a42d3cfb498c6868902fc4de13f34585ec952b423b1a', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'product empty 0,0,2 --format latex': (0, '30217d1ce5cbf8e0f091a42d3cfb498c6868902fc4de13f34585ec952b423b1a', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format text lift 0,1 --max-degree 6': (0, '5bdbd8789b9adffc660beff5dcca06a19a68e7b8f4292a850e18a799575620df', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'lift 0,1 --max-degree 6 --format text': (0, '5bdbd8789b9adffc660beff5dcca06a19a68e7b8f4292a850e18a799575620df', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format json lift 0,1 --max-degree 6': (0, '7abbb29ee5bf207acdbd8cdc67a436c61e475762c3b6e1a966d450787de7a82c', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'lift 0,1 --max-degree 6 --format json': (0, '7abbb29ee5bf207acdbd8cdc67a436c61e475762c3b6e1a966d450787de7a82c', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format latex lift 0,1 --max-degree 6': (0, 'b1880bddb5f6bb84858d5fb21064921cf5f98162795591a7e759c15e1a63dd07', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'lift 0,1 --max-degree 6 --format latex': (0, 'b1880bddb5f6bb84858d5fb21064921cf5f98162795591a7e759c15e1a63dd07', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format text lift 0,2 --max-degree 7 --method exp': (0, 'd93c6f058f404d848c9657b1e19f0cea6ed631472ee02ac757ee7de9c2d1c9ad', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'lift 0,2 --max-degree 7 --method exp --format text': (0, 'd93c6f058f404d848c9657b1e19f0cea6ed631472ee02ac757ee7de9c2d1c9ad', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format json lift 0,2 --max-degree 7 --method exp': (0, 'e0ff733a2d70fe5288d8bc3a1f968c0044cf99bb22d204bbe2947586f1b36a11', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'lift 0,2 --max-degree 7 --method exp --format json': (0, 'e0ff733a2d70fe5288d8bc3a1f968c0044cf99bb22d204bbe2947586f1b36a11', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format latex lift 0,2 --max-degree 7 --method exp': (0, '58c0dee759cd119fb06e9dfad2dfe2f25758e233b0e5f4b2b91b3e4620a89a1d', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'lift 0,2 --max-degree 7 --method exp --format latex': (0, '58c0dee759cd119fb06e9dfad2dfe2f25758e233b0e5f4b2b91b3e4620a89a1d', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format text chern --ell 2 --max-degree 5': (0, 'c4ef1d16b2f7a2f10bfc2630f9987687eb990a0d692f4187c336f41d47a6ae47', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'chern --ell 2 --max-degree 5 --format text': (0, 'c4ef1d16b2f7a2f10bfc2630f9987687eb990a0d692f4187c336f41d47a6ae47', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format json chern --ell 2 --max-degree 5': (0, '7e3cb2b01c8876dcec9ab510cba8d943d47310558f0c31d3b0ac86a69d4d764b', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'chern --ell 2 --max-degree 5 --format json': (0, '7e3cb2b01c8876dcec9ab510cba8d943d47310558f0c31d3b0ac86a69d4d764b', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format latex chern --ell 2 --max-degree 5': (0, '00bef1acc52dfcee06e1cd5afee10916c8db8ec96b9df0bccf00b9e458dd0e2d', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'chern --ell 2 --max-degree 5 --format latex': (0, '00bef1acc52dfcee06e1cd5afee10916c8db8ec96b9df0bccf00b9e458dd0e2d', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format text chern --ell 3 --max-degree 9': (0, '893e618ba72b83d42240af8a3991f7b7735f1b2143a64c2aa944f4e206e8010c', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'chern --ell 3 --max-degree 9 --format text': (0, '893e618ba72b83d42240af8a3991f7b7735f1b2143a64c2aa944f4e206e8010c', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format json chern --ell 3 --max-degree 9': (0, 'eda3769babee5a4ce6a270e80851fe9d1fbdc82c7c9f17b8019c903aa0543cfc', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'chern --ell 3 --max-degree 9 --format json': (0, 'eda3769babee5a4ce6a270e80851fe9d1fbdc82c7c9f17b8019c903aa0543cfc', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format latex chern --ell 3 --max-degree 9': (0, 'f9b5278d3992a2363308c67e2b7fa6382a4fa480a1d290defb4b5c49886d6c02', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'chern --ell 3 --max-degree 9 --format latex': (0, 'f9b5278d3992a2363308c67e2b7fa6382a4fa480a1d290defb4b5c49886d6c02', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format text chern --k 2,-1 --max-degree 4': (0, '00d2fb884f9e9fec3f093d7e4fb80d6a7a3f694306e7231365249c9a581fc201', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'chern --k 2,-1 --max-degree 4 --format text': (0, '00d2fb884f9e9fec3f093d7e4fb80d6a7a3f694306e7231365249c9a581fc201', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format json chern --k 2,-1 --max-degree 4': (0, 'ff782f5ef5af30a9268891b15609550ba86cd513968dfb65cf27cdfc1ad2b819', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'chern --k 2,-1 --max-degree 4 --format json': (0, 'ff782f5ef5af30a9268891b15609550ba86cd513968dfb65cf27cdfc1ad2b819', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format latex chern --k 2,-1 --max-degree 4': (0, 'd7f6c8e316fd9f2892b97ca9f59193e50d48a4d66e8761774fff5bc7e044671c', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'chern --k 2,-1 --max-degree 4 --format latex': (0, 'd7f6c8e316fd9f2892b97ca9f59193e50d48a4d66e8761774fff5bc7e044671c', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format text dims --max-n 1': (0, '87e479e1a379e0c357504fad0e59e5173f72741920b8b44d5013b858646f16fe', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'dims --max-n 1 --format text': (0, '87e479e1a379e0c357504fad0e59e5173f72741920b8b44d5013b858646f16fe', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format json dims --max-n 1': (0, 'f2ca4a2bbe3c8ba494e9064df6f8ab265de37237f655d6a5d737416f9d8406fa', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'dims --max-n 1 --format json': (0, 'f2ca4a2bbe3c8ba494e9064df6f8ab265de37237f655d6a5d737416f9d8406fa', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format latex dims --max-n 1': (0, 'aa31a1e097035d27dcc5329fd02429cba8cad48413b113fe12f3e6b5d02dd713', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'dims --max-n 1 --format latex': (0, 'aa31a1e097035d27dcc5329fd02429cba8cad48413b113fe12f3e6b5d02dd713', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format text dims --max-n 7': (0, '6e075be7117237ae6a650ecc5a992f52abded8123d015ec14a364f90ff288eff', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'dims --max-n 7 --format text': (0, '6e075be7117237ae6a650ecc5a992f52abded8123d015ec14a364f90ff288eff', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format json dims --max-n 7': (0, '98fc7715c74f3248b7bfc0001b67b929854bc25fca5559d36a3ccd30bc029eca', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'dims --max-n 7 --format json': (0, '98fc7715c74f3248b7bfc0001b67b929854bc25fca5559d36a3ccd30bc029eca', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format latex dims --max-n 7': (0, '7760b75c322cdf82aa598afe663799cfe34782991916a3e2e98a9905afc5c85e', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'dims --max-n 7 --format latex': (0, '7760b75c322cdf82aa598afe663799cfe34782991916a3e2e98a9905afc5c85e', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format text dims --max-n 16': (0, '6fcf25467bd18f03031e481a7e873e7d558f416a934dadc9b9d164c47e1f0c9a', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'dims --max-n 16 --format text': (0, '6fcf25467bd18f03031e481a7e873e7d558f416a934dadc9b9d164c47e1f0c9a', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format json dims --max-n 16': (0, 'dce12834d2f625bd51a8da1cd650d278a967de71d86143710c3bfe4328d3f115', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'dims --max-n 16 --format json': (0, 'dce12834d2f625bd51a8da1cd650d278a967de71d86143710c3bfe4328d3f115', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format latex dims --max-n 16': (0, '754919e794d7a1f2ddbac71d3bdbd879e8cda9eb05ba4fea47c8a0e58a01426a', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'dims --max-n 16 --format latex': (0, '754919e794d7a1f2ddbac71d3bdbd879e8cda9eb05ba4fea47c8a0e58a01426a', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format text series --which J --order 12': (0, '465c2096e7316c3c6545408c5a2be504244e389f4ef22de9feed0223aa9a8bae', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'series --which J --order 12 --format text': (0, '465c2096e7316c3c6545408c5a2be504244e389f4ef22de9feed0223aa9a8bae', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format json series --which J --order 12': (0, 'aafccd2a35ea3ddde4e05541da92761cdde3522e5ea78d4465d7d551db88e86e', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'series --which J --order 12 --format json': (0, 'aafccd2a35ea3ddde4e05541da92761cdde3522e5ea78d4465d7d551db88e86e', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format latex series --which J --order 12': (0, 'f9c5b7a31b7729ea2ba951aa07a12d32a9dd3cbf90f65f60d5df2df5d85b5319', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'series --which J --order 12 --format latex': (0, 'f9c5b7a31b7729ea2ba951aa07a12d32a9dd3cbf90f65f60d5df2df5d85b5319', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format text series --which Jl --ell 2 --order 9': (0, 'e607af91ccbb48d81c6dfedcd101fff51cf679a0673aeb69976c71fde475769a', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'series --which Jl --ell 2 --order 9 --format text': (0, 'e607af91ccbb48d81c6dfedcd101fff51cf679a0673aeb69976c71fde475769a', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format json series --which Jl --ell 2 --order 9': (0, '2c9bafef48d52bfd53a87c11ebfe6c3fda3848771043e1484910c11e43d2c9b1', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'series --which Jl --ell 2 --order 9 --format json': (0, '2c9bafef48d52bfd53a87c11ebfe6c3fda3848771043e1484910c11e43d2c9b1', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format latex series --which Jl --ell 2 --order 9': (0, 'c5395405fa279b9a9f08d44f53bf1e7cc06f01da104b34aa5a408e3e9e71b5b8', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'series --which Jl --ell 2 --order 9 --format latex': (0, 'c5395405fa279b9a9f08d44f53bf1e7cc06f01da104b34aa5a408e3e9e71b5b8', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format text series --which Jl --ell 7 --order 5': (0, '84623a99f930d354d2a0363d0b0976b710996d9c4b35d6cbf9e8db06ee9601bd', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'series --which Jl --ell 7 --order 5 --format text': (0, '84623a99f930d354d2a0363d0b0976b710996d9c4b35d6cbf9e8db06ee9601bd', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format json series --which Jl --ell 7 --order 5': (0, '27222ce9b47d8545855aef925607c11ae6b62a73f823f75fe0421dca228901fe', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'series --which Jl --ell 7 --order 5 --format json': (0, '27222ce9b47d8545855aef925607c11ae6b62a73f823f75fe0421dca228901fe', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format latex series --which Jl --ell 7 --order 5': (0, '004aead63f65274859c93fd6b17f92878ee17fa0d923c4ca1ad29874abd01901', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'series --which Jl --ell 7 --order 5 --format latex': (0, '004aead63f65274859c93fd6b17f92878ee17fa0d923c4ca1ad29874abd01901', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format text generators --max-n 12': (0, '1cc83e20119138c601753be962c2fa54ee433045d8fec21ec8a9a519e5dc62e2', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'generators --max-n 12 --format text': (0, '1cc83e20119138c601753be962c2fa54ee433045d8fec21ec8a9a519e5dc62e2', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format json generators --max-n 12': (0, '8867b40700c3536595f7569faa29b7b0a3372481d1308fc112f57f90ed582b97', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'generators --max-n 12 --format json': (0, '8867b40700c3536595f7569faa29b7b0a3372481d1308fc112f57f90ed582b97', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format latex generators --max-n 12': (0, '0a580560e32ecec02dc618ccb91558be1ad52f878a16f6959e7fbcf9ceef23b7', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'generators --max-n 12 --format latex': (0, '0a580560e32ecec02dc618ccb91558be1ad52f878a16f6959e7fbcf9ceef23b7', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format text relations --degree 8': (0, '651280e58f276eb969dd7ce53a734111fe822ac5cf046fc51026c77f5c3fc76c', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'relations --degree 8 --format text': (0, '651280e58f276eb969dd7ce53a734111fe822ac5cf046fc51026c77f5c3fc76c', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format json relations --degree 8': (0, '37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'relations --degree 8 --format json': (0, '37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format latex relations --degree 8': (0, '651280e58f276eb969dd7ce53a734111fe822ac5cf046fc51026c77f5c3fc76c', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'relations --degree 8 --format latex': (0, '651280e58f276eb969dd7ce53a734111fe822ac5cf046fc51026c77f5c3fc76c', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format text relations --degree 12': (0, '4403204e1c981210ecd66eb469d849b0505b052300bc1a546aa7b0cc391a4209', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'relations --degree 12 --format text': (0, '4403204e1c981210ecd66eb469d849b0505b052300bc1a546aa7b0cc391a4209', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format json relations --degree 12': (0, '36f924651f5715fc62aa31c43e0923b0695d28ec6824c7507af9b8e7705fe0e8', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'relations --degree 12 --format json': (0, '36f924651f5715fc62aa31c43e0923b0695d28ec6824c7507af9b8e7705fe0e8', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format latex relations --degree 12': (0, '4403204e1c981210ecd66eb469d849b0505b052300bc1a546aa7b0cc391a4209', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'relations --degree 12 --format latex': (0, '4403204e1c981210ecd66eb469d849b0505b052300bc1a546aa7b0cc391a4209', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format text relations --degree 14': (0, '25c62648ba371ea0916104085be8b7d9dd32f1f47e6812c9e23ec5224a4482c2', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'relations --degree 14 --format text': (0, '25c62648ba371ea0916104085be8b7d9dd32f1f47e6812c9e23ec5224a4482c2', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format json relations --degree 14': (0, 'a950f3d9bce9419e671b0b5e6f12028f07f9122d17fd54abcc3bf9ffba1a10d9', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'relations --degree 14 --format json': (0, 'a950f3d9bce9419e671b0b5e6f12028f07f9122d17fd54abcc3bf9ffba1a10d9', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format latex relations --degree 14': (0, '25c62648ba371ea0916104085be8b7d9dd32f1f47e6812c9e23ec5224a4482c2', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'relations --degree 14 --format latex': (0, '25c62648ba371ea0916104085be8b7d9dd32f1f47e6812c9e23ec5224a4482c2', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format text verify --max-n 6': (0, 'ba153b72fb3082a298e2d395b9568797cdfbe2753bf642089bfccf1f5c2348d3', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --max-n 6 --format text': (0, 'ba153b72fb3082a298e2d395b9568797cdfbe2753bf642089bfccf1f5c2348d3', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format json verify --max-n 6': (0, '1d4b7084c09a072b73f294d4c3b5b83b1963098dc6d47b84dbe80b4fd47e6760', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --max-n 6 --format json': (0, '1d4b7084c09a072b73f294d4c3b5b83b1963098dc6d47b84dbe80b4fd47e6760', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format latex verify --max-n 6': (0, 'ba153b72fb3082a298e2d395b9568797cdfbe2753bf642089bfccf1f5c2348d3', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --max-n 6 --format latex': (0, 'ba153b72fb3082a298e2d395b9568797cdfbe2753bf642089bfccf1f5c2348d3', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format text basis --n -1 --ell 2': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '494c5ceea2ca5a3df9f78d838c2733d8494bed6d2d9954bc5eaae7d3fdaa858f'),
    'basis --n -1 --ell 2 --format text': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '494c5ceea2ca5a3df9f78d838c2733d8494bed6d2d9954bc5eaae7d3fdaa858f'),
    '--format json basis --n -1 --ell 2': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '494c5ceea2ca5a3df9f78d838c2733d8494bed6d2d9954bc5eaae7d3fdaa858f'),
    'basis --n -1 --ell 2 --format json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '494c5ceea2ca5a3df9f78d838c2733d8494bed6d2d9954bc5eaae7d3fdaa858f'),
    '--format latex basis --n -1 --ell 2': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '494c5ceea2ca5a3df9f78d838c2733d8494bed6d2d9954bc5eaae7d3fdaa858f'),
    'basis --n -1 --ell 2 --format latex': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '494c5ceea2ca5a3df9f78d838c2733d8494bed6d2d9954bc5eaae7d3fdaa858f'),
    '--format text dims --max-n 0': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '7ce2e61d8df5588dce25714336e51b2c79cd8fbc7d983436df429e8cc9f72855'),
    'dims --max-n 0 --format text': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '7ce2e61d8df5588dce25714336e51b2c79cd8fbc7d983436df429e8cc9f72855'),
    '--format json dims --max-n 0': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '7ce2e61d8df5588dce25714336e51b2c79cd8fbc7d983436df429e8cc9f72855'),
    'dims --max-n 0 --format json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '7ce2e61d8df5588dce25714336e51b2c79cd8fbc7d983436df429e8cc9f72855'),
    '--format latex dims --max-n 0': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '7ce2e61d8df5588dce25714336e51b2c79cd8fbc7d983436df429e8cc9f72855'),
    'dims --max-n 0 --format latex': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '7ce2e61d8df5588dce25714336e51b2c79cd8fbc7d983436df429e8cc9f72855'),
    '--format text generators --max-n 0': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '4ba2725779c2ac74f135a693039e15245f61151f6c0bb57b087d9fc4072ed96b'),
    'generators --max-n 0 --format text': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '4ba2725779c2ac74f135a693039e15245f61151f6c0bb57b087d9fc4072ed96b'),
    '--format json generators --max-n 0': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '4ba2725779c2ac74f135a693039e15245f61151f6c0bb57b087d9fc4072ed96b'),
    'generators --max-n 0 --format json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '4ba2725779c2ac74f135a693039e15245f61151f6c0bb57b087d9fc4072ed96b'),
    '--format latex generators --max-n 0': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '4ba2725779c2ac74f135a693039e15245f61151f6c0bb57b087d9fc4072ed96b'),
    'generators --max-n 0 --format latex': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '4ba2725779c2ac74f135a693039e15245f61151f6c0bb57b087d9fc4072ed96b'),
    '--format text relations --degree 0': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '3e0a6b6c7ee9f260f09b551ba7d00d5aa856167e2b09a9245ba3f797c38883a6'),
    'relations --degree 0 --format text': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '3e0a6b6c7ee9f260f09b551ba7d00d5aa856167e2b09a9245ba3f797c38883a6'),
    '--format json relations --degree 0': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '3e0a6b6c7ee9f260f09b551ba7d00d5aa856167e2b09a9245ba3f797c38883a6'),
    'relations --degree 0 --format json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '3e0a6b6c7ee9f260f09b551ba7d00d5aa856167e2b09a9245ba3f797c38883a6'),
    '--format latex relations --degree 0': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '3e0a6b6c7ee9f260f09b551ba7d00d5aa856167e2b09a9245ba3f797c38883a6'),
    'relations --degree 0 --format latex': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '3e0a6b6c7ee9f260f09b551ba7d00d5aa856167e2b09a9245ba3f797c38883a6'),
    '--format text verify --max-n 0': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '620ba4ad4eb54a5f98bf82056f79ecfa0b0d2006d27bcc24e8117133640d3bfe'),
    'verify --max-n 0 --format text': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '620ba4ad4eb54a5f98bf82056f79ecfa0b0d2006d27bcc24e8117133640d3bfe'),
    '--format json verify --max-n 0': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '620ba4ad4eb54a5f98bf82056f79ecfa0b0d2006d27bcc24e8117133640d3bfe'),
    'verify --max-n 0 --format json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '620ba4ad4eb54a5f98bf82056f79ecfa0b0d2006d27bcc24e8117133640d3bfe'),
    '--format latex verify --max-n 0': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '620ba4ad4eb54a5f98bf82056f79ecfa0b0d2006d27bcc24e8117133640d3bfe'),
    'verify --max-n 0 --format latex': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '620ba4ad4eb54a5f98bf82056f79ecfa0b0d2006d27bcc24e8117133640d3bfe'),
    '--format text chern --ell 3 --max-degree 2': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '33d7192d97f14e0b4a11d84c4e4affb73f51134303b30d3d8aadf2b30c5a8663'),
    'chern --ell 3 --max-degree 2 --format text': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '33d7192d97f14e0b4a11d84c4e4affb73f51134303b30d3d8aadf2b30c5a8663'),
    '--format json chern --ell 3 --max-degree 2': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '33d7192d97f14e0b4a11d84c4e4affb73f51134303b30d3d8aadf2b30c5a8663'),
    'chern --ell 3 --max-degree 2 --format json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '33d7192d97f14e0b4a11d84c4e4affb73f51134303b30d3d8aadf2b30c5a8663'),
    '--format latex chern --ell 3 --max-degree 2': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '33d7192d97f14e0b4a11d84c4e4affb73f51134303b30d3d8aadf2b30c5a8663'),
    'chern --ell 3 --max-degree 2 --format latex': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '33d7192d97f14e0b4a11d84c4e4affb73f51134303b30d3d8aadf2b30c5a8663'),
    '--format text series --which Jl --order 6': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'f338f0b1563891896a1cc927fbb79473c5a267fff412cac72c2d76b4eccdeb57'),
    'series --which Jl --order 6 --format text': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'f338f0b1563891896a1cc927fbb79473c5a267fff412cac72c2d76b4eccdeb57'),
    '--format json series --which Jl --order 6': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'f338f0b1563891896a1cc927fbb79473c5a267fff412cac72c2d76b4eccdeb57'),
    'series --which Jl --order 6 --format json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'f338f0b1563891896a1cc927fbb79473c5a267fff412cac72c2d76b4eccdeb57'),
    '--format latex series --which Jl --order 6': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'f338f0b1563891896a1cc927fbb79473c5a267fff412cac72c2d76b4eccdeb57'),
    'series --which Jl --order 6 --format latex': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'f338f0b1563891896a1cc927fbb79473c5a267fff412cac72c2d76b4eccdeb57'),
    '--format text series --which J --ell 3 --order 6': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '1bc1b14ee9c3c0d6279ef09fb7aae95b0b7408c4ba05262763e8adff6a4eb409'),
    'series --which J --ell 3 --order 6 --format text': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '1bc1b14ee9c3c0d6279ef09fb7aae95b0b7408c4ba05262763e8adff6a4eb409'),
    '--format json series --which J --ell 3 --order 6': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '1bc1b14ee9c3c0d6279ef09fb7aae95b0b7408c4ba05262763e8adff6a4eb409'),
    'series --which J --ell 3 --order 6 --format json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '1bc1b14ee9c3c0d6279ef09fb7aae95b0b7408c4ba05262763e8adff6a4eb409'),
    '--format latex series --which J --ell 3 --order 6': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '1bc1b14ee9c3c0d6279ef09fb7aae95b0b7408c4ba05262763e8adff6a4eb409'),
    'series --which J --ell 3 --order 6 --format latex': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '1bc1b14ee9c3c0d6279ef09fb7aae95b0b7408c4ba05262763e8adff6a4eb409'),
    '--format text lift 0,2 --max-degree 1': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '9ee7bfd57664078cd3846b0b8b8bbb4f19761b9f128be1d2ce66b76454d3f265'),
    'lift 0,2 --max-degree 1 --format text': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '9ee7bfd57664078cd3846b0b8b8bbb4f19761b9f128be1d2ce66b76454d3f265'),
    '--format json lift 0,2 --max-degree 1': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '9ee7bfd57664078cd3846b0b8b8bbb4f19761b9f128be1d2ce66b76454d3f265'),
    'lift 0,2 --max-degree 1 --format json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '9ee7bfd57664078cd3846b0b8b8bbb4f19761b9f128be1d2ce66b76454d3f265'),
    '--format latex lift 0,2 --max-degree 1': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '9ee7bfd57664078cd3846b0b8b8bbb4f19761b9f128be1d2ce66b76454d3f265'),
    'lift 0,2 --max-degree 1 --format latex': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '9ee7bfd57664078cd3846b0b8b8bbb4f19761b9f128be1d2ce66b76454d3f265'),
    '--format text relations --deg 8': (0, '651280e58f276eb969dd7ce53a734111fe822ac5cf046fc51026c77f5c3fc76c', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'relations --deg 8 --format text': (0, '651280e58f276eb969dd7ce53a734111fe822ac5cf046fc51026c77f5c3fc76c', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format json relations --deg 8': (0, '37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'relations --deg 8 --format json': (0, '37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format latex relations --deg 8': (0, '651280e58f276eb969dd7ce53a734111fe822ac5cf046fc51026c77f5c3fc76c', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'relations --deg 8 --format latex': (0, '651280e58f276eb969dd7ce53a734111fe822ac5cf046fc51026c77f5c3fc76c', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format text dims --max-n 3 --max-n 5': (0, '7c35ad5941a467c6ee3ed1b51934d1c8e3f43b154ad999dfcfe0e19a5726241f', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'dims --max-n 3 --max-n 5 --format text': (0, '7c35ad5941a467c6ee3ed1b51934d1c8e3f43b154ad999dfcfe0e19a5726241f', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format json dims --max-n 3 --max-n 5': (0, '883dac419683c5de775e445ea8d0182da22dbd19a8234596560bfaae4f11b79d', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'dims --max-n 3 --max-n 5 --format json': (0, '883dac419683c5de775e445ea8d0182da22dbd19a8234596560bfaae4f11b79d', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format latex dims --max-n 3 --max-n 5': (0, 'ee5f7d2d4b52080299b16b23c19e7530247fb40d065e5ce00e30b88c34740771', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'dims --max-n 3 --max-n 5 --format latex': (0, 'ee5f7d2d4b52080299b16b23c19e7530247fb40d065e5ce00e30b88c34740771', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format text chern --k -1,2 --max-degree 4': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'da2349d1b8bddd39dd95afb7085534bb60bab3430fd3cadaff96b3916adbce5e'),
    'chern --k -1,2 --max-degree 4 --format text': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'da2349d1b8bddd39dd95afb7085534bb60bab3430fd3cadaff96b3916adbce5e'),
    '--format json chern --k -1,2 --max-degree 4': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'da2349d1b8bddd39dd95afb7085534bb60bab3430fd3cadaff96b3916adbce5e'),
    'chern --k -1,2 --max-degree 4 --format json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'da2349d1b8bddd39dd95afb7085534bb60bab3430fd3cadaff96b3916adbce5e'),
    '--format latex chern --k -1,2 --max-degree 4': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'da2349d1b8bddd39dd95afb7085534bb60bab3430fd3cadaff96b3916adbce5e'),
    'chern --k -1,2 --max-degree 4 --format latex': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'da2349d1b8bddd39dd95afb7085534bb60bab3430fd3cadaff96b3916adbce5e'),
    '--format text poly -- 0,2': (0, '3faf332aa735dc369e0d6e50156eb55b62442921a9324f049acce9798f514c92', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'poly -- 0,2 --format text': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '52df9b39b0266ebcd997d6959d952f2b53b7de7705873d7b591cd6b38bac634e'),
    '--format json poly -- 0,2': (0, 'acc64c3e84c14414da5b240956d95899443264ac889c68324265bed013e76faf', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'poly -- 0,2 --format json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'a91024b49384b0564a1bd7537c364cd624d52a3f49a740687177de421e56c3e9'),
    '--format latex poly -- 0,2': (0, 'a07832cb4d76eb813fbcca54838c8aefb5b67961fe5bb31108fd0460148713f9', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'poly -- 0,2 --format latex': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '7d57d1e40286c0bbaf3294b1473af2f390f469e08e446c42d17fb2fafed552c9'),
    '--format text lift --max-degree 6 0,1': (0, '5bdbd8789b9adffc660beff5dcca06a19a68e7b8f4292a850e18a799575620df', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'lift --max-degree 6 0,1 --format text': (0, '5bdbd8789b9adffc660beff5dcca06a19a68e7b8f4292a850e18a799575620df', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format json lift --max-degree 6 0,1': (0, '7abbb29ee5bf207acdbd8cdc67a436c61e475762c3b6e1a966d450787de7a82c', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'lift --max-degree 6 0,1 --format json': (0, '7abbb29ee5bf207acdbd8cdc67a436c61e475762c3b6e1a966d450787de7a82c', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format latex lift --max-degree 6 0,1': (0, 'b1880bddb5f6bb84858d5fb21064921cf5f98162795591a7e759c15e1a63dd07', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'lift --max-degree 6 0,1 --format latex': (0, 'b1880bddb5f6bb84858d5fb21064921cf5f98162795591a7e759c15e1a63dd07', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format text dims --max-n=7': (0, '6e075be7117237ae6a650ecc5a992f52abded8123d015ec14a364f90ff288eff', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'dims --max-n=7 --format text': (0, '6e075be7117237ae6a650ecc5a992f52abded8123d015ec14a364f90ff288eff', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format json dims --max-n=7': (0, '98fc7715c74f3248b7bfc0001b67b929854bc25fca5559d36a3ccd30bc029eca', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'dims --max-n=7 --format json': (0, '98fc7715c74f3248b7bfc0001b67b929854bc25fca5559d36a3ccd30bc029eca', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    '--format latex dims --max-n=7': (0, '7760b75c322cdf82aa598afe663799cfe34782991916a3e2e98a9905afc5c85e', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'dims --max-n=7 --format latex': (0, '7760b75c322cdf82aa598afe663799cfe34782991916a3e2e98a9905afc5c85e', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
}
# --- end of recorded --------------------------------------------------------


def record() -> None:
    path = Path(__file__)
    text = path.read_text()
    start = text.index("RECORDED: dict")
    end = text.index("# --- end of recorded")
    lines = "".join(f"    {' '.join(argv)!r}: {run_case(argv)!r},\n" for argv in CASES)
    block = f"RECORDED: dict[str, tuple[int, str, str]] = {{\n{lines}}}\n"
    path.write_text(text[:start] + block + text[end:])


def unpaired_keys() -> list[str]:
    """The keys that are a case or recorded, but not both."""
    return sorted(set(RECORDED).symmetric_difference(" ".join(a) for a in CASES))


def matches_the_record(argv: list[str]) -> bool:
    return run_case(argv) == RECORDED.get(" ".join(argv))


def check() -> int:
    """Replay every case against RECORDED; 1 if any differs, else 0."""
    differ = [" ".join(argv) for argv in CASES if not matches_the_record(argv)]
    unpaired = unpaired_keys()
    for key in differ:
        print(f"differs: {key}")
    for key in unpaired:
        print(f"a case or recorded, not both: {key}")
    print(f"{len(CASES) - len(differ)} of {len(CASES)} cases match the record")
    return 1 if differ or unpaired else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        record()
    elif sys.argv[1:] == ["--check"]:
        sys.exit(check())
    else:
        sys.exit("usage: PYTHONPATH=src python3 tests/cli_golden.py --record | --check")
