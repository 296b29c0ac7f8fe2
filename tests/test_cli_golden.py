"""Golden CLI output: exact stdout and exit code of a fixed set of calls.

``golden_cli.json`` holds, for each argv, the exit code and either the
exact stdout or (for outputs over 20000 characters, the GF(2^16) and
GF(3^10) element lists) its length and sha256.  The first 72 entries were
recorded from the library before the irreducibility and Riemann-Roch
membership tests were consolidated, the eight ``field`` entries after them
(GF(65521), GF(7^3), GF(3^5), GF(2^12)) and the three calls with a small
``--budget-codewords`` before the field tables were rebuilt on linear
algebra and Zech logarithms, and the last eight (three ``equiv`` pairs
whose scalings have two components, over GF(7), GF(9) and GF(8), and a
``verify`` with G = 50*inf, each as text and ``--json``) before the
linear-code engine got one elimination and one span enumerator; a
refactor must reproduce them byte for byte,
so never regenerate the file to make this test pass.
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
