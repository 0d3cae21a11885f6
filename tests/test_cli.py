import argparse
import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from supersolve import absorbing, bounds, cli, solver, terms, witness
from supersolve.algebra import render_algebra
from supersolve.groups import cyclic_group, two_element_lattice
from supersolve.witness import TheoremViolation

from oracles import decomposition_doc


@pytest.fixture
def z4_file(tmp_path):
    path = tmp_path / "z4.json"
    path.write_text(render_algebra(cyclic_group(4)))
    return str(path)


@pytest.fixture
def z2_file(tmp_path):
    path = tmp_path / "z2.json"
    path.write_text(render_algebra(cyclic_group(2)))
    return str(path)


def _system_file(tmp_path, text, name="sys.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_satisfiable(tmp_path, capsys, z4_file):
    sys_path = _system_file(tmp_path, "add(add(x1,x2),x3) = #3\n")
    code, out, err = run_cli(capsys, ["solve", "--algebra", z4_file, "--system", sys_path])
    assert code == 0
    assert "(3, 0, 0)" in out
    assert "candidates tested" in out
    assert err == ""


def test_solve_json(tmp_path, capsys, z4_file):
    sys_path = _system_file(tmp_path, "add(add(x1,x2),x3) = #3\n")
    code, out, _ = run_cli(
        capsys, ["solve", "--algebra", z4_file, "--system", sys_path, "--json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "supersolve/1"
    assert doc["verdict"]["kind"] == "solution_found"
    assert doc["verdict"]["assignment"] == [3, 0, 0]
    assert doc["verdict"]["verified"] is True
    assert doc["stats"]["candidates_tested"] == 4


def test_solve_no_solution_conditional(tmp_path, capsys, z2_file):
    sys_path = _system_file(tmp_path, "add(x16, x16) = #1\n")
    code, out, _ = run_cli(capsys, ["solve", "--algebra", z2_file, "--system", sys_path])
    assert code == 1
    assert "conditional" in out


def test_solve_no_solution_exhaustive(tmp_path, capsys, z2_file):
    sys_path = _system_file(tmp_path, "add(x1, x1) = #1\n")
    code, out, _ = run_cli(capsys, ["solve", "--algebra", z2_file, "--system", sys_path])
    assert code == 1
    assert "exhaustive" in out


def test_solve_counts_layers_too_large_to_scan(tmp_path, capsys, z4_file):
    # 2*x1 + 2*x200 is even, so no candidate of weight <= 6 over x1..x200
    # solves it: only the rows over x1 and x200 are generated, every other
    # row is counted
    sys_path = _system_file(tmp_path, "add(add(x1, x1), add(x200, x200)) = #1\n")
    code, out, _ = run_cli(
        capsys, ["solve", "--algebra", z4_file, "--system", sys_path, "--bound", "6", "--json"]
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == {"kind": "no_solution_in_bounded_set", "bound": 6, "conditional": True}
    candidates = sum(math.comb(200, i) * 3**i for i in range(7))
    assert candidates == 60_697_326_654_871
    # each candidate evaluates the 7 nodes of the left side and the constant
    assert doc["stats"] == {"candidates_tested": candidates, "term_evaluations": 8 * candidates}


def test_solve_folds_cancelling_pairs_before_scanning(tmp_path, capsys, z4_file):
    # p_i = add(xi, neg(xi)) is 0 at every xi, so p1 + ... + p30 = #1 folds
    # to #0 = #1 and no variable is scanned: every candidate is counted
    text = "add(x1, neg(x1))"
    for i in range(2, 31):
        text = f"add({text}, add(x{i}, neg(x{i})))"
    argv = ["solve", "--algebra", z4_file, "--system", _system_file(tmp_path, text + " = #1\n")]
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, argv + ["--json"])
    assert time.perf_counter() - start < 1
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == {"kind": "no_solution_in_bounded_set", "bound": 12, "conditional": True}
    candidates = sum(math.comb(30, i) * 3**i for i in range(13))
    assert candidates == 57_742_167_184_399
    # each candidate fails the one equation: 4 * 30 + 29 nodes on the left, 1 on the right
    assert doc["stats"] == {"candidates_tested": candidates, "term_evaluations": 150 * candidates}
    assert 150 * candidates == 8_661_325_077_659_850


def test_solve_finds_a_late_solution_among_counted_rows(tmp_path, capsys, z4_file):
    # over x1..x200 the first solution of x197 = ... = x200 = #1 is the first
    # value tuple of the last support of weight 4; only the rows over
    # x197..x200 are generated
    text = "".join(f"x{i} = #1\n" for i in range(197, 201))
    argv = ["solve", "--algebra", z4_file, "--system", _system_file(tmp_path, text)]
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, argv + ["--bound", "4", "--json"])
    assert time.perf_counter() - start < 1
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"]["assignment"] == [0] * 196 + [1] * 4

    def rows(j):
        """Candidates of weight <= 4 whose first j of x197..x200 are 1."""
        return sum(math.comb(200 - j, i) * 3**i for i in range(5 - j))

    # the solution's 81 value tuples end the order; of the 80 after it, 26,
    # 8 and 2 set the first one, two and three of x197..x199 to 1
    after = [80, 26, 8, 2]
    candidates = rows(0) - after[0]
    assert candidates == 5_275_122_371
    # a candidate evaluates equation j + 1, two nodes, when x197..x(196 + j) are 1
    nodes = 2 * sum(rows(j) - after[j] for j in range(4))
    assert doc["stats"] == {"candidates_tested": candidates, "term_evaluations": nodes}


def test_missing_file_is_input_error(tmp_path, capsys, z4_file):
    code, out, err = run_cli(
        capsys, ["solve", "--algebra", z4_file, "--system", str(tmp_path / "nope.txt")]
    )
    assert code == 2
    assert err != ""


def test_invalid_system_is_input_error(tmp_path, capsys, z4_file):
    sys_path = _system_file(tmp_path, "mul(x1, x2) = #0\n")
    code, _, err = run_cli(capsys, ["solve", "--algebra", z4_file, "--system", sys_path])
    assert code == 2
    assert "unknown operation" in err


def test_brute_command(tmp_path, capsys, z4_file):
    sys_path = _system_file(tmp_path, "add(add(x1,x2),x3) = #3\n")
    code, out, _ = run_cli(
        capsys, ["brute", "--algebra", z4_file, "--system", sys_path, "--json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"]["assignment"] == [0, 0, 3]


def test_bound_command(capsys, z4_file):
    code, out, _ = run_cli(capsys, ["bound", "--algebra", z4_file, "-s", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["tight_bound"] == 12
    assert doc["loose_bound"] == 256
    assert doc["e"] == 257


def test_bench_deterministic_json_is_stable(tmp_path, capsys, z2_file):
    sys_path = _system_file(tmp_path, "add(x16, x16) = #1\n")
    argv = ["bench", "--algebra", z2_file, "--system", sys_path, "--json"]
    code1, out1, _ = run_cli(capsys, argv)
    code2, out2, _ = run_cli(capsys, argv)
    assert code1 == code2 == 1
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["agree"] is True
    assert doc["bounded"]["stats"]["candidates_tested"] == 17
    assert doc["brute"]["stats"]["candidates_tested"] == 65536
    assert "bounded_seconds" not in doc

    code, out, _ = run_cli(capsys, argv + ["--no-deterministic"])
    assert code == 1
    timed = json.loads(out)
    for key in ("bounded_seconds", "brute_seconds"):
        assert isinstance(timed[key], float) and timed[key] >= 0


def test_malcev_command(tmp_path, capsys, z4_file):
    code, out, _ = run_cli(capsys, ["malcev", "--algebra", z4_file, "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] is True
    assert "x1" in doc["witness"]

    lat_path = tmp_path / "lat.json"
    lat_path.write_text(render_algebra(two_element_lattice()))
    code, out, _ = run_cli(capsys, ["malcev", "--algebra", str(lat_path), "--json"])
    assert code == 1
    doc = json.loads(out)
    assert doc["found"] is False
    assert doc["complete"] is True

    # constants enlarge the clone to polynomial operations; still no Mal'cev
    code, out, _ = run_cli(
        capsys, ["malcev", "--algebra", str(lat_path), "--constants", "--json"]
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["found"] is False
    assert doc["complete"] is True
    assert doc["tables_explored"] == 20


def test_absorb_command(tmp_path, capsys):
    fn_path = tmp_path / "and.json"
    fn_path.write_text(json.dumps(
        {"domain_size": 2, "arity": 2, "prime": 2, "table": [0, 0, 0, 1]}
    ))
    code, out, _ = run_cli(capsys, ["absorb", "--function", str(fn_path), "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["absorbing_degree"] == 2
    assert doc["components"]["3"] == [0, 0, 0, 1]
    assert doc["components"]["0"] == [0, 0, 0, 0]


def test_absorb_builds_only_the_input_function(tmp_path, capsys, monkeypatch):
    # the decomposition keeps the transform's rows and builds its
    # components as TabulatedFunctions only when they are read, which
    # absorb does not do: the input is the one table validated
    table = [(i * i + i // 4) % 3 for i in range(16)]
    fn_path = tmp_path / "f.json"
    fn_path.write_text(json.dumps({"domain_size": 2, "arity": 4, "prime": 3, "table": table}))
    built = []
    original = absorbing.TabulatedFunction.__post_init__

    def counted(self):
        built.append(self.table)
        original(self)

    monkeypatch.setattr(absorbing.TabulatedFunction, "__post_init__", counted)
    code, out, err = run_cli(capsys, ["absorb", "--function", str(fn_path), "--json"])
    assert (code, err, built) == (0, "", [tuple(table)])
    monkeypatch.undo()
    f = absorbing.TabulatedFunction(2, 4, 3, tuple(table))
    dec = absorbing.decompose(f)
    assert json.loads(out)["components"] == {
        str(mask): row for mask, row in enumerate(dec.rows.tolist())
    }
    components = dec.components
    assert components == {
        mask: absorbing.TabulatedFunction(f.domain_size, f.arity, f.prime, tuple(row))
        for mask, row in enumerate(dec.rows.tolist())
    }
    assert list(components) == list(range(16))
    assert dec.components is components


# an int64 edge, and Python ints past 2**64 as the large-prime transform
# holds them in an object array
_ROW_VALUES = st.sampled_from([0, 9, 10, 99, 100, 2**63 - 1]) | st.integers(0, 2**63 - 1)
_BIG_ROW_VALUES = _ROW_VALUES | st.integers(2**64, 2**90)


@st.composite
def _int_rows(draw):
    height, width = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    big = draw(st.booleans())
    cells = draw(st.lists(
        _BIG_ROW_VALUES if big else _ROW_VALUES, min_size=height * width, max_size=height * width
    ))
    return np.array(cells, dtype=object if big else np.int64).reshape(height, width)


@settings(max_examples=200, deadline=None)
@given(_int_rows())
@example(np.zeros((1, 1), np.int64))  # the one row of an arity-0 function
@example(np.zeros((4, 9), np.int64))  # the zero function, degree -1
@example(np.array([[0], [2**64]], dtype=object))
def test_json_rows_writes_the_bytes_of_json_dumps(rows):
    expected = json.dumps(
        {str(mask): row for mask, row in enumerate(rows.tolist())}, separators=(",", ":")
    )
    assert cli._json_rows(rows) == expected


@pytest.mark.parametrize("prime", [2**61 - 1, 1208925819614629174706189, 2**200 - 1])
def test_json_rows_of_values_spread_below_a_prime(prime):
    # below 2**64 the values take the uint64 digit loop, past it 19-digit
    # parts: the zeros inside a part, and a part of zeros under a higher one
    spread = [(i + 1) ** 5 * 0x9E3779B97F4A7C15**3 for i in range(43)]
    values = [0, 7, 10**19 - 1, 10**19, 7 * 10**19 + 5, *spread]
    rows = np.array([v % prime for v in values], dtype=object).reshape(6, 8)
    expected = json.dumps(
        {str(mask): row for mask, row in enumerate(rows.tolist())}, separators=(",", ":")
    )
    for dtype in (object, np.int64) if prime < 2**63 else (object,):
        assert cli._json_rows(rows.astype(dtype)) == expected


@pytest.mark.parametrize(
    "prime", [2, 11, 2**61 - 1, 18446744073709551557, 1208925819614629174706189]
)
def test_absorb_json_is_the_json_dumps_of_the_decomposition(tmp_path, capsys, prime):
    # 2**61 - 1 runs the transform in int64 (prime << arity < 2**63); the
    # two primes past 2**63 run it on Python ints, the last with
    # components past 2**64.  The values spread over [0, prime).
    table = [(i + 1) ** 3 * 0x9E3779B97F4A7C15**2 % prime for i in range(16)]
    fn_path = tmp_path / "f.json"
    fn_path.write_text(json.dumps({"domain_size": 4, "arity": 2, "prime": prime, "table": table}))
    code, out, err = run_cli(capsys, ["absorb", "--function", str(fn_path), "--json"])
    f = absorbing.TabulatedFunction(4, 2, prime, tuple(table))
    doc = {"schema": cli.SCHEMA, "command": "absorb", **decomposition_doc(absorbing.decompose(f))}
    assert (code, out, err) == (0, json.dumps(doc, separators=(",", ":")) + "\n", "")


def test_reduce_witness_ks(tmp_path, capsys):
    in_path = tmp_path / "phi.json"
    in_path.write_text(json.dumps({
        "mode": "ks", "n": 3, "k": 1, "p": 2, "m": 1,
        "phi": {"0": [1], "1": [1], "2": [0], "4": [0]},
    }))
    code, out, _ = run_cli(capsys, ["reduce-witness", "--input", str(in_path), "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["witness"] == [1]
    assert doc["size"] == 1


def test_reduce_witness_redweight(tmp_path, capsys):
    in_path = tmp_path / "red.json"
    in_path.write_text(json.dumps({
        "mode": "redweight", "k": 1, "a": [1, 1, 1],
        "functions": [
            {"domain_size": 2, "arity": 3, "prime": 2,
             "table": [0, 1, 1, 0, 1, 0, 0, 1]},  # x1+x2+x3 mod 2
        ],
    }))
    code, out, _ = run_cli(capsys, ["reduce-witness", "--input", str(in_path), "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["witness"] == [1]


def test_reduce_witness_bad_mode(tmp_path, capsys):
    in_path = tmp_path / "bad.json"
    in_path.write_text(json.dumps({"mode": "nope"}))
    code, _, err = run_cli(capsys, ["reduce-witness", "--input", str(in_path)])
    assert code == 2
    assert "unknown mode" in err


def test_validate_command(tmp_path, capsys, z4_file):
    code, out, _ = run_cli(capsys, ["validate", "--algebra", z4_file, "--json"])
    assert code == 0
    assert json.loads(out)["ok"] is True

    sys_path = _system_file(tmp_path, "add(x1, x2) = #3\n")
    code, out, _ = run_cli(
        capsys, ["validate", "--algebra", z4_file, "--system", sys_path, "--json"]
    )
    assert code == 0
    assert json.loads(out)["system"] == {"s": 1, "n": 2}

    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x", "size": 2, "operations": [{"name": "f", "arity": 1, "table": [0, 7]}]}')
    code, _, err = run_cli(capsys, ["validate", "--algebra", str(bad)])
    assert code == 2
    assert "out of range" in err


def test_theorem_violation_exit_code(tmp_path, capsys, monkeypatch):
    in_path = tmp_path / "phi.json"
    in_path.write_text(json.dumps({
        "mode": "ks", "n": 1, "k": 0, "p": 2, "m": 1, "phi": {"0": [1]},
    }))

    def boom(phi):
        raise TheoremViolation("forced for the exit-code test")

    monkeypatch.setattr(cli.witness, "ks_find_u", boom)
    code, _, err = run_cli(capsys, ["reduce-witness", "--input", str(in_path)])
    assert code == 3
    assert "theorem violation" in err


@pytest.mark.parametrize(
    "module, name, fake, command, message",
    [
        # each node evaluates to its id, so the two sides of each equation differ
        (solver, "eval_table", lambda alg, table, a: range(len(table.nodes)), "solve",
         "candidate (1,) failed re-verification"),
        (bounds, "loose_weight_bound", lambda s, mu, cardinality: 0, "bound",
         "tight bound 12 exceeds loose bound 0; bound arithmetic is broken"),
    ],
    ids=["re-verification", "bound-arithmetic"],
)
def test_internal_faults_exit_3_with_one_line(
    tmp_path, capsys, monkeypatch, z4_file, module, name, fake, command, message
):
    monkeypatch.setattr(module, name, fake)
    argv = [command, "--algebra", z4_file]
    if command == "solve":
        argv += ["--system", _system_file(tmp_path, "add(x1, x1) = #2\n")]
    expected = f"theorem violation (implementation bug): {message}\n"
    assert run_cli(capsys, argv) == (3, "", expected)


# a witness bound of 0 leaves only U = {}, whose subsets miss the total (0,)
_KS_PHI = {"mode": "ks", "n": 3, "k": 1, "p": 2, "m": 1,
           "phi": {"0": [1], "1": [1], "2": [0], "4": [0]}}
_KS_FAULT = "no witness of size <= 0 for n=3, k=1, p=2, m=1"


def test_a_witness_search_fault_raises_theorem_violation(monkeypatch):
    monkeypatch.setattr(witness, "witness_bound", lambda k, m, p: 0)
    phi = witness.SubsetFunction(3, 1, 2, 1, {0: (1,), 1: (1,), 2: (0,), 4: (0,)})
    with pytest.raises(TheoremViolation) as info:
        witness.ks_find_u(phi)
    assert str(info.value) == _KS_FAULT


def test_a_witness_search_fault_exits_3_with_one_line(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(witness, "witness_bound", lambda k, m, p: 0)
    in_path = tmp_path / "phi.json"
    in_path.write_text(json.dumps(_KS_PHI))
    expected = f"theorem violation (implementation bug): {_KS_FAULT}\n"
    assert run_cli(capsys, ["reduce-witness", "--input", str(in_path)]) == (3, "", expected)


def test_a_failed_re_verification_raises_theorem_violation(monkeypatch):
    monkeypatch.setattr(solver, "eval_table", lambda alg, table, a: range(len(table.nodes)))
    with pytest.raises(TheoremViolation) as info:
        solver.solve_bounded(cyclic_group(4), terms.parse_system("add(x1, x1) = #2\n"))
    # library callers that catch RuntimeError still catch it
    assert isinstance(info.value, RuntimeError)


def test_brute_no_solution_exit_code(tmp_path, capsys, z2_file):
    sys_path = _system_file(tmp_path, "add(x1, x1) = #1\n")
    code, out, _ = run_cli(capsys, ["brute", "--algebra", z2_file, "--system", sys_path])
    assert code == 1
    assert "exhaustive" in out


def test_bench_satisfiable_exit_code(tmp_path, capsys, z2_file):
    sys_path = _system_file(tmp_path, "add(x1, x2) = #1\n")
    code, out, _ = run_cli(capsys, ["bench", "--algebra", z2_file, "--system", sys_path])
    assert code == 0
    assert "verdicts agree: True" in out


def test_negative_bound_rejected(tmp_path, capsys, z4_file):
    # solve_bounded owns the check and its message, as for `bound -n -5`
    sys_path = _system_file(tmp_path, "add(x1, x1) = #2\n")
    assert run_cli(
        capsys,
        ["solve", "--algebra", z4_file, "--system", sys_path, "--bound", "-1"],
    ) == (2, "", "error: bound must be >= 0, got -1\n")


def test_bound_override_used(tmp_path, capsys, z2_file):
    # weight-0 scan only: the weight-1 solution is out of reach
    sys_path = _system_file(tmp_path, "x3 = #1\n")
    code, out, _ = run_cli(
        capsys,
        ["solve", "--algebra", z2_file, "--system", sys_path, "--bound", "0", "--json"],
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == {
        "kind": "no_solution_in_bounded_set",
        "bound": 0,
        "conditional": True,
    }
    assert doc["stats"]["candidates_tested"] == 1


def test_solve_deterministic_json_byte_identical(tmp_path, capsys, z4_file):
    sys_path = _system_file(tmp_path, "add(x1, x2) = #2\n")
    argv = ["solve", "--algebra", z4_file, "--system", sys_path, "--json"]
    _, out1, _ = run_cli(capsys, argv)
    _, out2, _ = run_cli(capsys, argv)
    assert out1 == out2


_AND = {"domain_size": 2, "arity": 2, "prime": 2, "table": [0, 0, 0, 1]}


@pytest.mark.parametrize(
    "doc, message",
    [
        ([_AND], "top level must be a JSON object"),
        ({"arity": 1}, "missing field 'domain_size'"),
        ({k: v for k, v in _AND.items() if k != "prime"}, "missing field 'prime'"),
        ({**_AND, "domain_size": "2"}, "'domain_size' must be an integer"),
        ({**_AND, "arity": True}, "'arity' must be an integer"),
        ({**_AND, "table": [0, 0, "0", 1]}, "'table' must be a list of integers"),
    ],
)
def test_absorb_rejects_malformed_file(tmp_path, capsys, doc, message):
    fn_path = tmp_path / "bad.json"
    fn_path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, ["absorb", "--function", str(fn_path)])
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


_PHI = {"mode": "ks", "n": 3, "k": 1, "p": 2, "m": 1,
        "phi": {"0": [1], "1": [1], "2": [0], "4": [0]}}
_RED = {"mode": "redweight", "k": 1, "a": [1, 1, 1], "functions": [
    {"domain_size": 2, "arity": 3, "prime": 2, "table": [0, 1, 1, 0, 1, 0, 0, 1]}]}


@pytest.mark.parametrize(
    "doc, message",
    [
        ([_PHI], "top level must be a JSON object"),
        ({"n": 3}, "missing field 'mode'"),
        ({**_PHI, "mode": 1}, "'mode' must be a string"),
        ({k: v for k, v in _PHI.items() if k != "phi"}, "missing field 'phi'"),
        ({**_PHI, "k": "1"}, "'k' must be an integer"),
        ({**_PHI, "phi": [[1]]}, "'phi' must be an object of integer lists keyed by mask"),
        ({**_PHI, "phi": {"x": [1]}}, "'phi' must be an object of integer lists keyed by mask"),
        ({**_PHI, "phi": {"0": 1}}, "'phi' must be an object of integer lists keyed by mask"),
        ({k: v for k, v in _RED.items() if k != "a"}, "missing field 'a'"),
        ({**_RED, "functions": {}}, "'functions' must be a list"),
        ({**_RED, "functions": [3]}, "functions[0] must be a JSON object"),
        ({**_RED, "functions": [{"arity": 3}]}, "functions[0]: missing field 'domain_size'"),
        ({**_RED, "a": [5, 1, 1]}, "point (5, 1, 1) has a coordinate outside [0, 2)"),
        # one spelling per mask: "00" would restate mask 0, and a mask is
        # written in ASCII digits as a term's numbers are
        ({**_PHI, "n": 1, "phi": {"0": [1], "00": [0], "1": [0]}},
         "'phi' must be an object of integer lists keyed by mask"),
        ({**_PHI, "n": 1, "phi": {"0": [0], "\u0661": [1]}},
         "'phi' must be an object of integer lists keyed by mask"),
        # a key past int()'s digit limit reads as the same number would
        ({**_PHI, "n": 1, "phi": {"0": [0], "1" + "0" * 5000: [1]}},
         f"invalid JSON: an integer has more than {sys.get_int_max_str_digits()} digits"),
    ],
)
def test_reduce_witness_rejects_malformed_file(tmp_path, capsys, doc, message):
    in_path = tmp_path / "bad.json"
    in_path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, ["reduce-witness", "--input", str(in_path)])
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


# Golden bytes: stdout and exit code of one --json run per subcommand on
# fixed inputs, so a change to the CLI plumbing cannot change its output.
_GOLDEN_FILES = {
    "z4.json": render_algebra(cyclic_group(4)),
    "z2.json": render_algebra(cyclic_group(2)),
    "lat.json": render_algebra(two_element_lattice()),
    "sat.txt": "add(add(x1, x2), x3) = #3\nadd(x1, neg(x2)) = #1\n",
    "cond.txt": "add(x6, x6) = #1\n",
    "exh.txt": "add(x1, x1) = #1\n",
    "f.json": json.dumps(
        {"domain_size": 3, "arity": 2, "prime": 3, "table": [0, 1, 2, 1, 2, 0, 2, 0, 0]}
    ),
    "ks.json": json.dumps({
        "mode": "ks", "n": 3, "k": 1, "p": 3, "m": 1,
        "phi": {"0": [2], "1": [1], "2": [2], "4": [1]},
    }),
    "red.json": json.dumps({
        "mode": "redweight", "k": 2, "a": [2, 1, 1],
        "functions": [
            {"domain_size": 3, "arity": 3, "prime": 2,
             "table": [(bool(a and b) + (c == 2)) % 2
                       for a in range(3) for b in range(3) for c in range(3)]},
        ],
    }),
}

_GOLDEN = [
    (["solve", "--algebra", "z4.json", "--system", "sat.txt", "--json"], 0,
      '{"schema":"supersolve/1","command":"solve","algebra":"Z4","n":3,"s":2,'
      '"zero":0,"verdict":{"kind":"solution_found","assignment":[0,3,0],'
      '"verified":true},"stats":{"candidates_tested":7,'
      '"term_evaluations":52}}\n'),
    (["solve", "--algebra", "z2.json", "--system", "cond.txt", "--json"], 1,
      '{"schema":"supersolve/1","command":"solve","algebra":"Z2","n":6,"s":1,'
      '"zero":0,"verdict":{"kind":"no_solution_in_bounded_set","bound":1,'
      '"conditional":true},"stats":{"candidates_tested":7,'
      '"term_evaluations":28}}\n'),
    (["solve", "--algebra", "z2.json", "--system", "exh.txt", "--json"], 1,
      '{"schema":"supersolve/1","command":"solve","algebra":"Z2","n":1,"s":1,'
      '"zero":0,"verdict":{"kind":"no_solution_exhaustive"},'
      '"stats":{"candidates_tested":2,"term_evaluations":8}}\n'),
    (["solve", "--algebra", "z4.json", "--system", "sat.txt", "--zero", "2",
      "--bound", "1", "--json"], 0,
      '{"schema":"supersolve/1","command":"solve","algebra":"Z4","n":3,"s":2,'
      '"zero":2,"verdict":{"kind":"solution_found","assignment":[3,2,2],'
      '"verified":true},"stats":{"candidates_tested":4,'
      '"term_evaluations":29}}\n'),
    (["brute", "--algebra", "z4.json", "--system", "sat.txt", "--json"], 0,
      '{"schema":"supersolve/1","command":"brute","algebra":"Z4","n":3,"s":2,'
      '"verdict":{"kind":"solution_found","assignment":[0,3,0],'
      '"verified":true},"stats":{"candidates_tested":13,'
      '"term_evaluations":98}}\n'),
    (["bench", "--algebra", "z2.json", "--system", "cond.txt", "--json"], 1,
      '{"schema":"supersolve/1","command":"bench","algebra":"Z2","n":6,"s":1,'
      '"agree":true,'
      '"bounded":{"verdict":{"kind":"no_solution_in_bounded_set","bound":1,'
      '"conditional":true},"stats":{"candidates_tested":7,'
      '"term_evaluations":28}},'
      '"brute":{"verdict":{"kind":"no_solution_exhaustive"},'
      '"stats":{"candidates_tested":64,"term_evaluations":256}}}\n'),
    (["bound", "--algebra", "z4.json", "-s", "2", "-n", "5"], 0,
      '{"schema":"supersolve/1","command":"bound","algebra":"Z4","mu":2,'
      '"cardinality":4,"s":2,"n":5,"factorization":[[2,2]],"k_list":[6],'
      '"tight_bound":24,"loose_bound":512,"effective_bound":5,"e":513,'
      '"note":"bounds assume the algebra is supernilpotent"}\n'),
    (["malcev", "--algebra", "z4.json", "--json"], 0,
      '{"schema":"supersolve/1","command":"malcev","algebra":"Z4",'
      '"found":true,"witness":"add(add(x1, x3), neg(x2))","table":[0,1,2,3,3,'
      '0,1,2,2,3,0,1,1,2,3,0,1,2,3,0,0,1,2,3,3,0,1,2,2,3,0,1,2,3,0,1,1,2,3,0,'
      '0,1,2,3,3,0,1,2,3,0,1,2,2,3,0,1,1,2,3,0,0,1,2,3]}\n'),
    (["malcev", "--algebra", "lat.json", "--constants", "--json"], 1,
      '{"schema":"supersolve/1","command":"malcev","algebra":"lattice2",'
      '"found":false,"complete":true,"tables_explored":20}\n'),
    (["absorb", "--function", "f.json", "--json"], 0,
      '{"schema":"supersolve/1","command":"absorb","domain_size":3,"arity":2,'
      '"prime":3,"absorbing_degree":2,"components":{"0":[0,0,0,0,0,0,0,0,0],'
      '"1":[0,0,0,1,1,1,2,2,2],"2":[0,1,2,0,1,2,0,1,2],"3":[0,0,0,0,0,0,0,0,'
      '2]}}\n'),
    (["reduce-witness", "--input", "ks.json", "--json"], 0,
      '{"schema":"supersolve/1","command":"reduce-witness","mode":"ks",'
      '"witness":[1],"witness_mask":1,"size":1,"bound":2}\n'),
    (["reduce-witness", "--input", "red.json", "--json"], 0,
      '{"schema":"supersolve/1","command":"reduce-witness",'
      '"mode":"redweight","witness":[1,2],"witness_mask":3,"size":2,'
      '"bound":2}\n'),
    (["validate", "--algebra", "z4.json", "--system", "sat.txt", "--json"], 0,
      '{"schema":"supersolve/1","command":"validate","algebra":"Z4","size":4,'
      '"operations":[{"name":"add","arity":2},{"name":"neg","arity":1},'
      '{"name":"zero","arity":0}],"ok":true,"system":{"s":2,"n":3}}\n'),
]


@pytest.mark.parametrize(
    "argv, code, stdout", _GOLDEN, ids=[f"{i}-{argv[0]}" for i, (argv, _, _) in enumerate(_GOLDEN)]
)
def test_golden_cli_bytes(tmp_path, capsys, argv, code, stdout):
    for name, text in _GOLDEN_FILES.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in _GOLDEN_FILES else a for a in argv]
    assert run_cli(capsys, argv) == (code, stdout, "")


# Help and usage bytes (exit code, stdout, stderr) at 80 columns: the
# top-level help, each command's help, and the errors for a missing,
# unknown or incomplete command.  They hold on CPython 3.10 to 3.12;
# 3.13 changes argparse's wording.
_HELP_AND_USAGE = [
    (["--help"], 0,
     "usage: supersolve [-h]\n"
     "                  {solve,brute,bench,bound,malcev,absorb,reduce-witness,validate}\n"
     "                  ...\n"
     "\n"
     "Decide solvability of polynomial equation systems over finite algebras by\n"
     "bounded-weight search.\n"
     "\n"
     "positional arguments:\n"
     "  {solve,brute,bench,bound,malcev,absorb,reduce-witness,validate}\n"
     "    solve               bounded-weight solver\n"
     "    brute               exhaustive oracle solver\n"
     "    bench               run both solvers and compare\n"
     "    bound               print the weight-bound report as JSON\n"
     "    malcev              search the ternary term clone for a Mal'cev term\n"
     "    absorb              absorbing decomposition of a tabulated function\n"
     "    reduce-witness      find a weight-reduction witness set U\n"
     "    validate            validate input files\n"
     "\n"
     "options:\n"
     "  -h, --help            show this help message and exit\n",
     ""),
    (["solve", "--help"], 0,
     "usage: supersolve solve [-h] --algebra ALGEBRA --system SYSTEM [--json]\n"
     "                        [--zero ZERO] [--bound BOUND]\n"
     "\n"
     "options:\n"
     "  -h, --help         show this help message and exit\n"
     "  --algebra ALGEBRA  algebra JSON file\n"
     "  --system SYSTEM    equation system file\n"
     "  --json             machine-readable output\n"
     "  --zero ZERO        base element z (default 0)\n"
     "  --bound BOUND      override the weight bound\n",
     ""),
    (["brute", "--help"], 0,
     "usage: supersolve brute [-h] --algebra ALGEBRA --system SYSTEM [--json]\n"
     "\n"
     "options:\n"
     "  -h, --help         show this help message and exit\n"
     "  --algebra ALGEBRA  algebra JSON file\n"
     "  --system SYSTEM    equation system file\n"
     "  --json             machine-readable output\n",
     ""),
    (["bench", "--help"], 0,
     "usage: supersolve bench [-h] --algebra ALGEBRA --system SYSTEM [--json]\n"
     "                        [--zero ZERO] [--no-deterministic]\n"
     "\n"
     "options:\n"
     "  -h, --help          show this help message and exit\n"
     "  --algebra ALGEBRA   algebra JSON file\n"
     "  --system SYSTEM     equation system file\n"
     "  --json              machine-readable output\n"
     "  --zero ZERO\n"
     "  --no-deterministic  add the timing fields, which vary from run to run\n",
     ""),
    (["bound", "--help"], 0,
     "usage: supersolve bound [-h] --algebra ALGEBRA [-s S] [-n N]\n"
     "\n"
     "options:\n"
     "  -h, --help           show this help message and exit\n"
     "  --algebra ALGEBRA\n"
     "  -s S, --equations S  equation count\n"
     "  -n N, --variables N  variable count\n",
     ""),
    (["malcev", "--help"], 0,
     "usage: supersolve malcev [-h] --algebra ALGEBRA [--constants] [--cap CAP]\n"
     "                         [--json]\n"
     "\n"
     "options:\n"
     "  -h, --help         show this help message and exit\n"
     "  --algebra ALGEBRA\n"
     "  --constants        allow polynomial (not just term) operations\n"
     "  --cap CAP          closure size cap\n"
     "  --json\n",
     ""),
    (["absorb", "--help"], 0,
     "usage: supersolve absorb [-h] --function FUNCTION [--json]\n"
     "\n"
     "options:\n"
     "  -h, --help           show this help message and exit\n"
     "  --function FUNCTION  tabulated-function JSON file\n"
     "  --json\n",
     ""),
    (["reduce-witness", "--help"], 0,
     "usage: supersolve reduce-witness [-h] --input INPUT [--json]\n"
     "\n"
     "options:\n"
     "  -h, --help     show this help message and exit\n"
     "  --input INPUT  JSON description of phi or (fs, a, k)\n"
     "  --json\n",
     ""),
    (["validate", "--help"], 0,
     "usage: supersolve validate [-h] --algebra ALGEBRA [--system SYSTEM] [--json]\n"
     "\n"
     "options:\n"
     "  -h, --help         show this help message and exit\n"
     "  --algebra ALGEBRA\n"
     "  --system SYSTEM\n"
     "  --json\n",
     ""),
    ([], 2,
     "",
     "usage: supersolve [-h]\n"
     "                  {solve,brute,bench,bound,malcev,absorb,reduce-witness,validate}\n"
     "                  ...\n"
     "supersolve: error: the following arguments are required: command\n"),
    (["nope"], 2,
     "",
     "usage: supersolve [-h]\n"
     "                  {solve,brute,bench,bound,malcev,absorb,reduce-witness,validate}\n"
     "                  ...\n"
     "supersolve: error: argument command: invalid choice: 'nope' (choose from "
     "'solve', 'brute', 'bench', 'bound', 'malcev', 'absorb', 'reduce-witness', "
     "'validate')\n"),
    # no end-of-options marker before the command: argparse reads it as the command
    (["--", "solve", "--algebra", "a.json", "--system", "s.txt"], 2,
     "",
     "usage: supersolve [-h]\n"
     "                  {solve,brute,bench,bound,malcev,absorb,reduce-witness,validate}\n"
     "                  ...\n"
     "supersolve: error: argument command: invalid choice: '--' (choose from "
     "'solve', 'brute', 'bench', 'bound', 'malcev', 'absorb', 'reduce-witness', "
     "'validate')\n"),
    (["solve"], 2,
     "",
     "usage: supersolve solve [-h] --algebra ALGEBRA --system SYSTEM [--json]\n"
     "                        [--zero ZERO] [--bound BOUND]\n"
     "supersolve solve: error: the following arguments are required: --algebra, --system\n"),
]


@pytest.mark.skipif(
    not (3, 10) <= sys.version_info[:2] < (3, 13), reason="bytes pinned on CPython 3.10 to 3.12"
)
@pytest.mark.parametrize(
    "argv, code, stdout, stderr", _HELP_AND_USAGE, ids=[" ".join(argv) or "-" for argv, *_ in _HELP_AND_USAGE]
)
def test_help_and_usage_bytes(monkeypatch, capsys, argv, code, stdout, stderr):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert (exc.value.code, *capsys.readouterr()) == (code, stdout, stderr)


def _parse_outcome(parser, argv):
    """(namespace dict or SystemExit code, stdout, stderr) of parsing argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parser.parse_args(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


_FLAGS = [
    "--algebra", "--system", "--json", "--zero", "--bound", "--deterministic",
    "--no-deterministic", "--det", "-s", "--equations", "-n", "--variables",
    "--constants", "--cap", "--function", "--input", "-h", "--help", "--",
    "-", "--zero=3", "-s2", "--nope",
]
_TOKEN = st.one_of(
    st.sampled_from([*cli._COMMANDS, *_FLAGS, "nope"]),
    st.integers(-5, 10**7).map(str),
    st.text(max_size=4),
)
_ARGV = st.one_of(
    st.lists(_TOKEN, max_size=8),
    st.builds(
        lambda first, rest: [first, *rest],
        st.sampled_from([*cli._COMMANDS, "-h", "--", "nope"]),
        st.lists(_TOKEN, max_size=8),
    ),
)


@settings(max_examples=300, deadline=None)
@given(_ARGV)
def test_reused_parser_parses_like_a_fresh_one(argv):
    # the one parser of the process, after every example before this one
    assert _parse_outcome(cli._parser(), argv) == _parse_outcome(cli._parser.__wrapped__(), argv)


def test_main_builds_the_parser_once_per_process(monkeypatch, z4_file):
    built = []
    add_parser = argparse._SubParsersAction.add_parser
    monkeypatch.setattr(
        argparse._SubParsersAction,
        "add_parser",
        lambda self, name, **kwargs: built.append(name) or add_parser(self, name, **kwargs),
    )
    cli._parser.cache_clear()
    # main() reads sys.argv itself
    monkeypatch.setattr(sys, "argv", ["supersolve", "bound", "--algebra", z4_file])
    assert cli.main() == 0
    assert built == list(cli._COMMANDS)
    built.clear()
    # later calls, for any command or none, reuse it
    with pytest.raises(SystemExit):
        cli.main(["nope"])
    assert cli.main(["bound", "--algebra", z4_file, "-s", "2"]) == 0
    assert built == []


def _outcome(capsys, argv):
    """(exit code, stdout, stderr) of cli.main(argv), SystemExit included."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


def test_reused_parsers_carry_no_state_between_calls(tmp_path, capsys, z4_file):
    sys_path = _system_file(tmp_path, "add(x1, x2) = #3\n")
    files = ["--algebra", z4_file, "--system", sys_path]
    runs = [
        ["solve"],
        ["solve", *files, "--bound", "0", "--json"],
        ["solve", *files],
        ["-h"],
    ]
    fresh = []
    for argv in runs:
        cli._parser.cache_clear()
        fresh.append(_outcome(capsys, argv))
    cli._parser.cache_clear()
    assert [_outcome(capsys, argv) for argv in runs] == fresh
    # --bound 0 and --json of the call before do not carry over
    code, stdout, _ = fresh[2]
    assert code == 0 and stdout.startswith("solution: ")
    assert fresh[1][0] == 1 and fresh[1][1].startswith("{")


def test_help_and_usage_bytes_repeat_in_one_process(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    cli._parser.cache_clear()
    first = [_outcome(capsys, argv) for argv, *_ in _HELP_AND_USAGE]
    assert [_outcome(capsys, argv) for argv, *_ in _HELP_AND_USAGE] == first
    if (3, 10) <= sys.version_info[:2] < (3, 13):
        assert first == [tuple(case[1:]) for case in _HELP_AND_USAGE]


def test_cli_import_leaves_out_mpmath():
    src = str(pathlib.Path(cli.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-c", "import sys, supersolve.cli; print('mpmath' in sys.modules)"],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "False\n", "")



@pytest.mark.parametrize(
    "text",
    [
        "add(x10000000000000000000, x1) = add(x1, x10000000000000000000)\n",
        "x1000000000000000 = #1\n",
    ],
    ids=["past-index-size", "past-memory"],
)
def test_solve_with_an_unbuildable_assignment_is_input_error(tmp_path, z2_file, text):
    # satisfiable at low weight, but no list of n coordinates can be built
    src = str(pathlib.Path(cli.__file__).parents[1])
    sys_path = _system_file(tmp_path, text)
    result = subprocess.run(
        [sys.executable, "-m", "supersolve", "solve", "--algebra", z2_file, "--system", sys_path],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith("error: cannot build an assignment of n = ")
    assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr


def test_bound_negative_n_rejected(capsys, z4_file):
    assert run_cli(capsys, ["bound", "--algebra", z4_file, "-n", "-5"]) == (
        2, "", "error: n must be >= 0, got -5\n"
    )


@pytest.mark.parametrize("command", ["solve", "brute"])
def test_deterministic_flag_is_bench_only(tmp_path, capsys, z4_file, command):
    sys_path = _system_file(tmp_path, "x1 = #1\n")
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--algebra", z4_file, "--system", sys_path, "--no-deterministic"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-deterministic" in capsys.readouterr().err


def test_brute_past_int64_place_values(tmp_path, capsys, z2_file):
    # 2**63 candidates: the digit columns of x1..x16 have place values
    # beyond int64, and the all-zero first candidate already solves it
    sys_path = _system_file(tmp_path, "add(x64, x1) = x2\n")
    code, out, err = run_cli(
        capsys, ["brute", "--algebra", z2_file, "--system", sys_path, "--json"]
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["verdict"]["assignment"] == [0] * 64


def test_a_commented_out_equation_stays_out(tmp_path, capsys, z4_file):
    # U+2028 breaks a line for str.splitlines, not in a system file: the
    # comment runs on to the newline, and x1 = #2 is part of it
    sys_path = tmp_path / "sys.txt"
    sys_path.write_text("x1 = #1 ; was\u2028x1 = #2\n", encoding="utf-8")
    code, out, err = run_cli(
        capsys, ["solve", "--algebra", z4_file, "--system", str(sys_path), "--json"]
    )
    doc = json.loads(out)
    assert (code, err, doc["s"], doc["verdict"]["assignment"]) == (0, "", 1, [1])


def test_solve_walks_each_term_once_for_n(tmp_path, capsys, monkeypatch, z4_file):
    # parse_system builds the node table that check_system, the JSON
    # document's n and the solver's plan all read, so no fold walks the
    # trees for it, nor does the re-verification of a found solution,
    # which evaluates that table
    walks = []
    original = terms.fold

    def spy(roots, visit):
        walks.append(roots)
        return original(roots, visit)

    monkeypatch.setattr(terms, "fold", spy)
    for text, satisfiable in [
        ("add(x1, x1) = #1\nneg(x3) = x1\n", False),
        ("add(x1, x2) = #3\nneg(x3) = x1\n", True),
    ]:
        walks.clear()
        sys_path = _system_file(tmp_path, text)
        code, out, err = run_cli(
            capsys, ["solve", "--algebra", z4_file, "--system", sys_path, "--json"]
        )
        assert (code, err) == (0 if satisfiable else 1, "")
        assert json.loads(out)["n"] == 3
        assert walks == []


def test_solve_checks_each_distinct_node_at_the_boundary_and_in_the_plan(
    tmp_path, capsys, monkeypatch, z4_file
):
    # cli._load_inputs runs check_system, and so does the solver's plan: each
    # checks the 4 distinct nodes x1, add(x1, x1), #1 and the root on the
    # right, not the 8 tree nodes; the system is unsatisfiable, so no
    # re-verification
    checked = []
    original = terms.check_node

    def counting(alg, t):
        checked.append(t)
        original(alg, t)

    monkeypatch.setattr(terms, "check_node", counting)
    monkeypatch.setattr(solver, "check_node", counting)
    sys_path = _system_file(tmp_path, "add(x1, x1) = add(add(x1, x1), #1)\n")
    code, _, err = run_cli(capsys, ["solve", "--algebra", z4_file, "--system", sys_path])
    assert (code, err) == (1, "")
    assert len(checked) == 4 + 4


def _chain_verdict(assignment, evaluations):
    return {
        "verdict": {"kind": "solution_found", "assignment": assignment, "verified": True},
        "stats": {"candidates_tested": 2, "term_evaluations": evaluations},
    }


@pytest.mark.parametrize("depth, evaluations", [(600, 1_208), (100_000, 200_008)])
@pytest.mark.parametrize("command", ["solve", "brute", "bench", "validate"])
def test_deeply_nested_chain_is_solved(tmp_path, capsys, z2_file, command, depth, evaluations):
    # the term layer walks terms without recursion, so every depth that
    # parses is solved; each candidate evaluates depth + 4 nodes
    text = "neg(" * depth + "add(x1, x2)" + ")" * depth + " = #1\n"
    sys_path = _system_file(tmp_path, text)
    code, out, err = run_cli(
        capsys, [command, "--algebra", z2_file, "--system", sys_path, "--json"]
    )
    assert (code, err) == (0, "")
    head = {"schema": "supersolve/1", "command": command, "algebra": "Z2", "n": 2, "s": 1}
    expected = {
        "solve": {**head, "zero": 0, **_chain_verdict([1, 0], evaluations)},
        "brute": {**head, **_chain_verdict([0, 1], evaluations)},
        "bench": {
            **head,
            "agree": True,
            "bounded": _chain_verdict([1, 0], evaluations),
            "brute": _chain_verdict([0, 1], evaluations),
        },
        "validate": {
            "schema": "supersolve/1",
            "command": "validate",
            "algebra": "Z2",
            "size": 2,
            "operations": [
                {"name": "add", "arity": 2},
                {"name": "neg", "arity": 1},
                {"name": "zero", "arity": 0},
            ],
            "ok": True,
            "system": {"s": 1, "n": 2},
        },
    }[command]
    assert json.loads(out) == expected


def test_a_leading_byte_order_mark_is_dropped(tmp_path, capsys):
    # some editors start a UTF-8 file with U+FEFF: one leading mark is
    # dropped from every input file, which then reads as the plain one
    files = {
        "z4.json": render_algebra(cyclic_group(4)),
        "sys.txt": "add(x1, x2) = #3\nneg(x2) = #1\n",
        "f.json": json.dumps({"domain_size": 2, "arity": 2, "prime": 2, "table": [0, 0, 0, 1]}),
    }
    runs = []
    for mark in ("", "\ufeff"):
        folder = tmp_path / f"mark{len(mark)}"
        folder.mkdir()
        for name, text in files.items():
            (folder / name).write_text(mark + text, encoding="utf-8")
        algebra = ["--algebra", str(folder / "z4.json")]
        system = ["--system", str(folder / "sys.txt")]
        runs.append([
            run_cli(capsys, argv) for argv in (
                ["solve", *algebra, *system, "--json"],
                ["validate", *algebra, *system],
                ["malcev", *algebra, "--json"],
                ["absorb", "--function", str(folder / "f.json"), "--json"],
            )
        ])
    assert runs[0] == runs[1]
    assert [(code, err) for code, _, err in runs[0]] == [(0, "")] * 4


@pytest.mark.parametrize("text, message", [
    ("\ufeffx1 = #1\nx2 = \ufeff#1\n", "line 2: unexpected character '\\ufeff' at position 5"),
    ("\ufeff\ufeffx1 = #1\n", "line 1: unexpected character '\\ufeff' at position 0"),
])
def test_a_byte_order_mark_past_the_start_is_a_parse_error(
    tmp_path, capsys, z4_file, text, message
):
    sys_path = tmp_path / "sys.txt"
    sys_path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, ["solve", "--algebra", z4_file, "--system", str(sys_path)])
    assert (code, out, err) == (2, "", f"error: {message}\n")
