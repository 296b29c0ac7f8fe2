"""CLI: subcommand output, exit codes, deterministic JSON."""

import json
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agcyclic.cli import main
from agcyclic.lincode import LinearCode
from test_cli_golden import GOLDEN


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_orbit_text_output(capsys):
    code, out = run(
        capsys, "orbit", "--q", "2^2", "--modulus", "1,1,1",
        "--matrix", "1,1;b,0", "--alpha", "1",
    )
    assert code == 0
    assert out.strip() == "1, b, b+1, inf, 0"


def test_roots_of_unity_json(capsys):
    code, out = run(
        capsys, "example", "roots-of-unity", "--q", "7",
        "--n", "6", "--r", "1", "--s", "1", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert (data["n"], data["k"], data["d"], data["cyclic"]) == (6, 3, 4, True)


def test_json_output_is_deterministic(capsys):
    argv = ["construct", "--q", "5", "--matrix", "1,0;0,2", "--alpha", "1",
            "--beta", "inf", "--r", "2", "--json"]
    _, first = run(capsys, *argv)
    _, second = run(capsys, *argv)
    assert first == second


def test_verify_exit_codes(capsys):
    good = ["verify", "--q", "5", "--matrix", "1,0;0,2",
            "--places", "a=1,a=2,a=4,a=3", "--G", "1*inf"]
    assert run(capsys, *good)[0] == 0
    bad = ["verify", "--q", "5", "--matrix", "1,0;0,2",
           "--places", "a=1,a=2,a=4,a=3", "--G", "1*a=2"]
    assert run(capsys, *bad)[0] == 1


def test_usage_error_exit_code(capsys):
    assert run(capsys, "orbit", "--q", "6", "--matrix", "1,0;0,2", "--alpha", "1")[0] == 2
    assert run(capsys, "orbit", "--q", "5", "--matrix", "1,0;0,2", "--alpha", "0")[0] == 2


def test_equiv_exit_codes(capsys):
    eq = ["equiv", "--q", "5", "--gen1", "1,1,1,1;1,2,4,3", "--gen2", "1,1,1,1;1,3,4,2"]
    assert run(capsys, *eq)[0] == 0
    ineq = ["equiv", "--q", "5", "--gen1", "1,1,1,1;1,2,4,3", "--gen2", "1,0,0,0;0,1,0,0"]
    assert run(capsys, *ineq)[0] == 1
    undecided = [
        "equiv", "--q", "5",
        "--gen1", "1,0,0,0,0,0,0,0,0;0,1,0,0,0,0,0,0,0",
        "--gen2", "1,0,0,0,0,0,0,0,0;0,1,0,0,0,0,0,0,0",
    ]
    assert run(capsys, *undecided)[0] == 3


def test_ragged_generator_is_a_usage_error(capsys):
    code = main(["equiv", "--q", "7", "--gen1", "1,2;3", "--gen2", "1,2"])
    assert code == 2
    assert capsys.readouterr().err == "error: generator rows have unequal lengths\n"


def test_construct_over_the_entry_budget_is_undecided(capsys):
    """(deg G + 1) * n = (10^8 + 1) * 7 entries: refused before any row is
    built, where evaluating L(G) would not finish."""
    start = time.perf_counter()
    code = main(["construct", "--q", "7", "--matrix", "1,1;0,1", "--alpha", "0",
                 "--G", "100000000*inf"])
    assert code == 3 and time.perf_counter() - start < 2
    assert capsys.readouterr().err == (
        "budget exhausted: a generator of 700000007 entries exceeds the entry budget "
        "10000000\n"
    )


def test_construct_with_divisor_string(capsys):
    code, out = run(
        capsys, "construct", "--q", "2^2", "--matrix", "1,1;b,0",
        "--alpha", "1", "--G", "1*poly:b+1,b+1,1", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert (data["n"], data["k"], data["d"], data["cyclic"]) == (5, 3, 3, True)


def test_construct_pole_basis_same_code(capsys):
    base = ["construct", "--q", "5", "--matrix", "1,2;0,2", "--alpha", "0",
            "--beta", "2", "--r", "1", "--json"]
    code1, out1 = run(capsys, *base)
    code2, out2 = run(capsys, *(base + ["--pole-basis"]))
    assert code1 == code2 == 0
    d1, d2 = json.loads(out1), json.loads(out2)
    assert d1["weight_enumerator"] == d2["weight_enumerator"]
    assert (d1["n"], d1["k"]) == (d2["n"], d2["k"])


def test_field_and_fixedfield(capsys):
    code, out = run(capsys, "field", "--q", "3^2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["q"] == 9 and data["modulus"] == [1, 0, 1]
    code, out = run(
        capsys, "fixedfield", "--q", "5", "--matrix", "1,1;0,1", "--alpha", "0", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["z"] == "x^5 + 4x" and data["m"] == 5
    assert data["orbit_checks"]["fiber_matches_orbit"]


def test_canonical_cli(capsys):
    code, out = run(
        capsys, "canonical", "--q", "5", "--matrix", "1,0;0,3",
        "--alpha", "1", "--beta", "inf", "--r", "1", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["canonical"]["matrix"] == "1,0;0,2"
    assert data["relation"] == "EQUIVALENT"


def test_example_artin_schreier(capsys):
    code, out = run(capsys, "example", "artin-schreier", "--q", "3^2", "--s", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 3 and data["cyclic"]


@pytest.mark.parametrize("argv", [
    ["construct", "--q", "5", "--matrix", "1,0;0,2", "--alpha", "1", "--beta", "inf", "--r", "2"],
    ["construct", "--q", "5", "--matrix", "1,2;0,2", "--alpha", "0", "--beta", "2", "--r", "1",
     "--pole-basis", "--json"],
    ["construct", "--q", "2^2", "--matrix", "1,1;b,0", "--alpha", "1", "--G", "1*poly:b+1,b+1,1"],
    ["example", "roots-of-unity", "--q", "3^2", "--n", "8", "--r", "2", "--s", "3"],
    ["example", "frobenius", "--p", "2", "--m", "2", "--r", "1", "--s", "0", "--json"],
    ["example", "artin-schreier", "--q", "3^2", "--s", "2"],
], ids=["construct-beta", "construct-pole-basis", "construct-G", "example-roots-of-unity",
        "example-frobenius", "example-artin-schreier"])
def test_cli_enumerates_each_code_once(capsys, monkeypatch, argv):
    calls = []
    original = LinearCode.weight_distribution

    def counted(self, *args, **kwargs):
        calls.append(self.n)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(LinearCode, "weight_distribution", counted)
    code, _ = run(capsys, *argv)
    assert code == 0
    assert len(calls) == 1


def test_example_honours_codeword_budget(capsys):
    """--budget-codewords bounds the code's d and weight enumerator; the
    example's report keeps the default budget."""
    code, out = run(
        capsys, "example", "roots-of-unity", "--q", "7", "--n", "6", "--r", "1", "--s", "1",
        "--budget-codewords", "10", "--json",
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["d"] is None and doc["weight_enumerator"] is None
    assert doc["report"]["distance"] == 4


VALID_TOKENS = ["1", "2", "-1", "0", "3", "b", "b+2", "b^2+1"]  # b only outside GF(7)
TOKENS = VALID_TOKENS + ["x", ""]


def square_matrices(tokens):
    entry = st.sampled_from(tokens)
    return st.tuples(entry, entry, entry, entry).map(lambda e: "{},{};{},{}".format(*e))


matrix_strings = st.one_of(
    square_matrices(VALID_TOKENS),
    square_matrices(TOKENS),
    st.lists(st.lists(st.sampled_from(TOKENS), min_size=1, max_size=3), min_size=1, max_size=3)
    .map(lambda rows: ";".join(",".join(r) for r in rows)),
)
seed_strings = st.one_of(st.none(), st.sampled_from(VALID_TOKENS), st.sampled_from(TOKENS + ["inf"]))


def test_matrix_parser_fuzz_exits_cleanly():
    """Malformed, degenerate and valid --matrix and seed strings over GF(7),
    GF(8) and GF(9) end in exit 0, 1 or 2, never an escaping exception.  The
    `=` form keeps argparse from reading a leading '-' as an option."""
    exits = Counter()

    @settings(max_examples=200)
    @given(
        command=st.sampled_from(["orbit", "fixedfield"]),
        q=st.sampled_from(["7", "2^3", "3^2"]),
        matrix=matrix_strings,
        alpha=seed_strings,
    )
    def run_one(command, q, matrix, alpha):
        argv = [command, "--q", q, f"--matrix={matrix}"]
        if alpha is not None or command == "orbit":
            argv.append(f"--alpha={alpha or ''}")
        with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
            code = main(argv)
        assert code in (0, 1, 2)
        exits[code] += 1

    run_one()
    assert exits[0] >= 10 and exits[2] >= 100, exits  # both paths are reached


def captured(argv):
    """Exit code (SystemExit included) and stdout of one in-process call."""
    out = StringIO()
    with redirect_stdout(out), redirect_stderr(StringIO()):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def test_parser_state_does_not_leak_between_calls():
    """main keeps one parser per process: options of an earlier call, a
    rejected one included, never reach a later call's defaults."""
    plain = GOLDEN[20]  # construct over GF(5), default budget, text output
    assert "--json" not in plain["argv"] and "--budget-codewords" not in plain["argv"]
    small_budget = GOLDEN[29]  # --budget-codewords 10 --json
    assert captured(small_budget["argv"]) == (small_budget["exit"], small_budget["stdout"])
    rejected = [
        ["construct", "--q", "5", "--budget-codewords", "10", "--json", "--matrix"],  # argparse
        ["orbit", "--q", "7", "--matrix", "1,0;0,0", "--alpha", "1", "--json"],  # degenerate
    ]
    for argv in rejected:
        assert captured(argv)[0] == 2
        assert captured(plain["argv"]) == (plain["exit"], plain["stdout"])
    assert captured(rejected[1]) == captured(rejected[1])
    assert captured(small_budget["argv"]) == captured(small_budget["argv"])
