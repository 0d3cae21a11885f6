import json

import pytest

from supersolve import cli
from supersolve.algebra import render_algebra
from supersolve.groups import cyclic_group, two_element_lattice
from supersolve.witness import TheoremViolation


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
    assert "bounded_seconds" in json.loads(out)


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
    # rejected before any file is read: the system file does not exist
    sys_path = str(tmp_path / "nope.txt")
    assert run_cli(
        capsys,
        ["solve", "--algebra", z4_file, "--system", sys_path, "--bound", "-1"],
    ) == (2, "", "error: --bound must be >= 0\n")


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


@pytest.mark.parametrize("command", ["solve", "validate"])
def test_deeply_nested_term_is_input_error(tmp_path, capsys, z2_file, command):
    sys_path = _system_file(tmp_path, "neg(" * 2000 + "x1" + ")" * 2000 + " = x1\n")
    code, out, err = run_cli(capsys, [command, "--algebra", z2_file, "--system", sys_path])
    assert (code, out) == (2, "")
    assert err.startswith("error: line 1: term nested too deeply at position ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["solve", "brute", "bench", "validate"])
def test_term_nested_beyond_evaluators_is_input_error(tmp_path, capsys, z2_file, command):
    # parses, but is deeper than the recursive term functions reach
    sys_path = _system_file(tmp_path, "neg(" * 600 + "x1" + ")" * 600 + " = x1\n")
    code, out, err = run_cli(capsys, [command, "--algebra", z2_file, "--system", sys_path])
    assert (code, out, err) == (2, "", "error: input nested too deeply\n")
