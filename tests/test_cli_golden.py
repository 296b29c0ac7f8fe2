"""Golden CLI output: exact stdout and exit code of a fixed set of calls.

``golden_cli.json`` holds, for each argv, the exit code and either the
exact stdout or (for outputs over 20000 characters, the GF(2^16) and
GF(3^10) element lists) its length and sha256.  The file was recorded from
the library before the irreducibility and Riemann-Roch membership tests were
consolidated; a refactor must reproduce it byte for byte, so never
regenerate it to make this test pass.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from agcyclic.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden_cli.json").read_text())


@pytest.mark.parametrize(
    "entry", GOLDEN, ids=[f"{i:02d}-{e['argv'][0]}" for i, e in enumerate(GOLDEN)]
)
def test_golden_cli(entry):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(entry["argv"]))
    out = buf.getvalue()
    call = " ".join(entry["argv"])
    assert code == entry["exit"], call
    if "stdout" in entry:
        assert out == entry["stdout"], call
    else:
        assert len(out) == entry["stdout_len"], call
        assert hashlib.sha256(out.encode()).hexdigest() == entry["stdout_sha256"], call
