"""Command line interface: payloads, exit codes, determinism."""

import json
import subprocess
import sys
from fractions import Fraction

import pytest

from rainbowpack import ColoredPacking, SimpleGraph, cli
from rainbowpack.cli import main, parse_graph

K3 = SimpleGraph.complete(3)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_graph_specs(tmp_path):
    assert parse_graph("k4") == SimpleGraph.complete(4)
    assert parse_graph("C5") == SimpleGraph.cycle(5)
    assert parse_graph("edge") == SimpleGraph.complete(2)
    assert parse_graph("petersen") == SimpleGraph.petersen()
    path = tmp_path / "g.json"
    path.write_text(SimpleGraph.cycle(7).to_json())
    assert parse_graph(f"json:{path}") == SimpleGraph.cycle(7)
    with pytest.raises(ValueError, match="cannot parse"):
        parse_graph("z9")


def test_construct_k5(capsys):
    code, out, _ = run(capsys, ["construct", "--family", "k5"])
    assert code == 0
    obj = json.loads(out)
    assert obj["copies"] == [[0, 1, 2, 3, 4], [0, 2, 4, 1, 3]]


def test_construct_verify_pipeline(capsys, tmp_path):
    packing_file = tmp_path / "packing.json"
    code, _, _ = run(capsys, [
        "construct", "--family", "kt", "--n", "30", "--t", "3",
        "--out", str(packing_file)])
    assert code == 0
    code, out, _ = run(capsys, [
        "verify", "--G", "k3", "--in", str(packing_file)])
    assert code == 0
    assert json.loads(out)["verdict"] == "PASS"


def test_verify_attaches_pentagon_audit(capsys, tmp_path):
    packing_file = tmp_path / "pent.json"
    run(capsys, ["construct", "--family", "c5blowup", "--m", "3",
                 "--out", str(packing_file)])
    code, out, _ = run(capsys, ["verify", "--in", str(packing_file)])
    assert code == 0
    audit = json.loads(out)["audit"]
    assert audit["doubleSum"] == 270
    assert audit["halfSumSquares"] == 270
    assert audit["qmAmBound"] == "270/1"
    assert audit["perCopy"] == [{"lhs": 30, "rhs": 40}] * 9
    assert audit["nStarTotal"] == 0


def test_verify_fail_witness_and_exit_2(capsys, tmp_path):
    # triangle 0-1-3 takes one edge from each of the three copies
    packing = ColoredPacking(6, K3, ((0, 1, 2), (1, 3, 4), (0, 3, 5)))
    packing_file = tmp_path / "bad.json"
    packing_file.write_text(packing.to_json())
    code, out, _ = run(capsys, ["verify", "--in", str(packing_file)])
    assert code == 2
    obj = json.loads(out)
    assert obj["verdict"] == "FAIL"
    witness = obj["witness"]
    assert witness["vertices"] == [0, 1, 3]
    assert sorted(e["color"] for e in witness["edges"]) == [0, 1, 2]


def test_solve_single(capsys):
    code, out, _ = run(capsys, ["solve", "--n", "5", "--F", "c5", "--G", "k3"])
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == 2 and obj["optimal"] is True
    assert obj["packing"]["copies"] == [[0, 1, 3, 4, 2], [0, 3, 2, 1, 4]]


def test_solve_sweep_csv(capsys):
    code, out, _ = run(capsys, ["solve", "--sweep", "4..6"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,value,optimal,nodes,millis"
    values = [row.split(",")[1] for row in lines[1:]]
    assert values == ["1", "2", "2"]
    assert all(row.split(",")[2] == "true" for row in lines[1:])


def test_solve_stdout_is_bitwise_deterministic(capsys):
    outs = set()
    for _ in range(3):
        _, out, _ = run(capsys, ["solve", "--n", "6", "--no-symmetry"])
        outs.add(out)
    assert len(outs) == 1


def test_gadget_payload(capsys):
    code, out, _ = run(capsys, ["gadget", "--n", "100", "--q", "1"])
    assert code == 0
    obj = json.loads(out)
    assert obj == {"certified": True,
                   "elements": [4, 10, 12, 28, 30, 36, 82, 84, 90],
                   "n": 100, "q": 1, "size": 9}
    # canonical form: sorted keys, no spaces
    assert out == ('{"certified":true,"elements":[4,10,12,28,30,36,82,84,90],'
                   '"n":100,"q":1,"size":9}\n')


def test_optimize_csv(capsys):
    code, out, _ = run(capsys, ["optimize", "--k", "3"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("k,lambda,mu,delta,alpha,beta,gamma,density")
    row = lines[1].split(",")
    assert row[0] == "3" and row[1] == "0"
    assert row[7].startswith("0.201614909382")
    assert row[8].startswith("0.2016")  # reference density column
    assert row[9].startswith("0.0306122448")  # 3/98


def test_lp_payload(capsys):
    code, out, _ = run(capsys, ["lp", "--host", "k4", "--pattern", "k3"])
    assert code == 0
    obj = json.loads(out)
    assert obj["nuStar"] == "2/1"
    assert len(obj["weights"]) == 4
    assert len(obj["duals"]) == 6
    assert sum(Fraction(y) for y in obj["duals"]) == Fraction(2)


def test_report_upper_bounds(capsys):
    code, out, _ = run(capsys, ["report", "--upper-bounds", "2..4"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,upperBoundCoeff,upperBoundCoeffFloat"
    assert lines[1] == "2,1/25,0.04"
    assert lines[2].startswith("3,3/98,")
    assert lines[3].startswith("4,2/81,")


def test_report_gadget_sizes(capsys):
    code, out, _ = run(capsys, ["report", "--gadget-sizes", "100,1000"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[1] == "100,1,9,true"
    assert lines[2] == "1000,1,34,true"


def test_report_pentagon(capsys):
    code, out, _ = run(capsys, ["report", "--pentagon", "5..5"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,value,optimal,balancedSquare"
    assert lines[1] == "5,2,true,1"


def test_construct_unbalanced(capsys):
    code, out, _ = run(capsys, [
        "construct", "--family", "unbalanced", "--alpha", "1/4",
        "--beta", "1/5", "--gamma", "1/10", "--n", "21"])
    assert code == 0
    assert json.loads(out)["n"] == 21


def test_out_file_and_cert_envelope(capsys, tmp_path):
    out_file = tmp_path / "payload.json"
    cert_file = tmp_path / "cert.json"
    argv = ["solve", "--n", "4", "--out", str(out_file),
            "--cert", str(cert_file)]
    code, out, _ = run(capsys, argv)
    assert code == 0 and out == ""
    payload = json.loads(out_file.read_text())
    assert payload["value"] == 1
    cert = json.loads(cert_file.read_text())
    assert cert["verdict"] == "PASS"
    assert cert["command"] == argv
    assert cert["payload"]["value"] == 1
    assert cert["elapsed_ms"] >= 0.0
    assert cert["version"]


def test_error_paths_exit_1(capsys, tmp_path):
    cases = [
        ["construct", "--family", "kt", "--t", "3"],      # missing --n
        ["solve", "--n", "20"],                            # solver guard
        ["lp", "--host", "k70"],                           # edge guard
        ["verify", "--G", "z9", "--in", "nope.json"],      # bad path
        ["optimize"],                                      # no k, no sweep
        ["report"],                                        # no mode
        ["gadget", "--n", "0"],                            # n < 1
        ["gadget", "--n", "-5"],
        ["report", "--gadget-sizes", "100,0"],
    ]
    bad_json = tmp_path / "junk.json"
    bad_json.write_text('{"pattern": 3}')
    for argv in cases:
        code, out, err = run(capsys, argv)
        assert code == 1, argv
        assert out == "", argv
        assert err.startswith("error:"), argv
    code, _, err = run(capsys, ["verify", "--in", str(bad_json)])
    assert code == 1 and "copies" in err


@pytest.mark.parametrize("flag", ["--threads", "--seed"])
def test_removed_flags_are_rejected(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--n", "5", flag, "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_solve_recursion_is_a_clean_error():
    # C5 copies in K9 outnumber the recursion limit of the branch and bound
    proc = subprocess.run(
        [sys.executable, "-m", "rainbowpack.cli",
         "solve", "--n", "9", "--F", "c5", "--G", "k3"],
        capture_output=True, text=True)
    assert proc.returncode in (0, 1)
    assert "Traceback" not in proc.stderr
    if proc.returncode == 1:
        assert proc.stderr.startswith("error:")


@pytest.mark.parametrize("exc", [RecursionError("too deep"), MemoryError("full"),
                                 ArithmeticError("bad pivot")])
def test_resource_and_arithmetic_errors_exit_1(capsys, monkeypatch, exc):
    def boom(args):
        raise exc

    monkeypatch.setitem(cli._HANDLERS, "gadget", boom)
    code, out, err = run(capsys, ["gadget", "--n", "14"])
    assert (code, out) == (1, "")
    assert err == f"error: {exc}\n"


def test_console_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "rainbowpack.cli", "gadget", "--n", "14"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["size"] == 8
