"""Command line interface: payloads, exit codes, determinism."""

import io
import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import rainbowpack
from rainbowpack import (ColoredPacking, GuardError, SimpleGraph, __version__, cli,
                         graphs, solver)
from rainbowpack.cli import main, parse_graph
from rainbowpack.graphs import forward_triangles

K3 = SimpleGraph.complete(3)
GREEDY30 = str(Path(__file__).parent / "data" / "greedy-k3-n30.json")


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


def test_parse_graph_rejects_specs_over_the_edge_limit(capsys):
    # the LP's 2000-edge limit bounds every command; K_63 has 1953 edges
    assert parse_graph("k63").edge_count() == 1953
    assert parse_graph("c2000").edge_count() == 2000
    for spec, edges in (("k64", 2016), ("c2001", 2001), ("K2000", 1999000)):
        with pytest.raises(GuardError, match=f"has {edges} edges"):
            parse_graph(spec)
    # rejected before K_N is built, so N^2 memory is never asked for
    code, out, err = run(capsys, ["lp", "--host", "k20000"])
    assert (code, out) == (1, "")
    assert err == ("error: graph spec 'k20000' has 199990000 edges, "
                   "more than any command takes (2000)\n")


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


def test_verify_counts_a_pentagon_packings_triangles_once(capsys, tmp_path, monkeypatch):
    # find_rainbow and pentagon_audit both need the union's triangle count;
    # the packing keeps it, so verify counts the 35-vertex union once, beside
    # the forbidden K3 and the C5 pattern
    packing_file = tmp_path / "pent.json"
    run(capsys, ["construct", "--family", "c5blowup", "--m", "7",
                 "--out", str(packing_file)])
    counted = []

    def counting(out):
        counted.append(len(out))
        return forward_triangles(out)

    monkeypatch.setattr(graphs, "forward_triangles", counting)
    code, out, _ = run(capsys, ["verify", "--in", str(packing_file)])
    assert code == 0 and "audit" in json.loads(out)
    assert sorted(counted) == [3, 5, 35]


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
    for argv, code, verdict in [
        (["solve", "--n", "4"], 0, "PASS"),
        (["solve", "--n", "8", "--F", "c5", "--G", "k3", "--budget", "50"], 0, "LOWER_BOUND"),
        (["verify", "--in", GREEDY30], 2, "FAIL"),
    ]:
        argv += ["--out", str(out_file), "--cert", str(cert_file)]
        assert run(capsys, argv) == (code, "", ""), argv
        text = cert_file.read_text()
        cert = json.loads(text)
        assert set(cert) == {"verdict", "payload", "version", "command", "elapsed_ms"}
        assert text == json.dumps(cert, sort_keys=True) + "\n"
        assert cert["verdict"] == verdict
        assert cert["payload"] == json.loads(out_file.read_text())
        assert cert["command"] == argv
        assert cert["elapsed_ms"] >= 0.0
        assert cert["version"] == __version__


def test_package_exports_are_pinned():
    # a name added to or dropped from the public surface shows up as a diff
    assert sorted(rainbowpack.__all__) == [
        "AuditError", "BlowupSpec", "ColoredPacking", "FractionalPackingProblem",
        "GuardError", "PackingError", "PentagonAudit", "QFreeSet",
        "RainbowWitness", "SearchConfig", "SearchResult", "SimpleGraph",
        "UnbalancedBlowupShape", "WeightTriple", "behrend_q_free", "blow_up",
        "c5_blowup_packing", "c5_decomposition_coeff", "canonical_json",
        "class_ratios", "density", "enumerate_copies", "find_rainbow",
        "k5_double_pentagon", "kt_packing", "lp_fractional_packing",
        "max_q_free_bruteforce", "max_rainbow_free_packing", "maximize_density",
        "pentagon_audit", "perfect_decomposition_check", "reference_triple",
        "solve_abg", "unbalanced_blowup", "upper_bound_coeff", "verify_q_free",
    ]
    assert all(hasattr(rainbowpack, name) for name in rainbowpack.__all__)


def test_error_paths_exit_1(capsys, monkeypatch, tmp_path):
    k3 = {"n": 3, "edges": [[0, 1], [0, 2], [1, 2]]}
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
        ["solve", "--sweep", "9..4"],                      # empty ranges
        ["optimize", "--sweep", "10..3"],
        ["report", "--pentagon", "7..5"],
    ]
    # malformed JSON: the wrong shape, missing fields, non-integer vertices
    for i, doc in enumerate([
        5,
        {"copies": [[0, 1, 2]]},
        {"n": 3, "copies": [[0, 1, 2]]},
        {"n": 3, "pattern": k3, "copies": 7},
        {"n": 3, "pattern": k3, "copies": [["a", 1, 2]]},
        {"n": 3, "pattern": k3, "copies": [[2.5, 1, 2]]},
        {"n": 3, "pattern": {"n": 3}, "copies": [[0, 1, 2]]},
        {"n": -5, "pattern": k3, "copies": []},            # PASS on -5 vertices
    ]):
        path = tmp_path / f"packing{i}.json"
        path.write_text(json.dumps(doc))
        cases.append(["verify", "--in", str(path)])
    no_edges = tmp_path / "no_edges.json"
    no_edges.write_text('{"n": 3}')
    not_object = tmp_path / "not_object.json"
    not_object.write_text("[1]")
    cases += [["lp", "--host", f"json:{no_edges}", "--pattern", "k3"],
              ["solve", "--n", "4", "--G", f"json:{not_object}"]]
    bad_json = tmp_path / "junk.json"
    bad_json.write_text('{"pattern": 3}')
    for argv in cases:
        code, out, err = run(capsys, argv)
        assert code == 1, argv
        assert out == "", argv
        assert err.startswith("error:"), argv
    code, _, err = run(capsys, ["verify", "--in", str(bad_json)])
    assert code == 1 and "copies" in err
    monkeypatch.setattr(sys, "stdin", io.StringIO("5\n"))   # echo 5 | verify
    code, out, err = run(capsys, ["verify"])
    assert (code, out) == (1, "") and err.startswith("error:")


def test_huge_vertex_counts_in_json_are_rejected_fast(capsys, tmp_path):
    # a three-edge packing naming 10^8 vertices would ask verify for about
    # 22 GB of forward sets; the JSON decoders refuse it before anything is built
    k3 = {"n": 3, "edges": [[0, 1], [0, 2], [1, 2]]}
    graph = tmp_path / "huge-graph.json"
    graph.write_text(json.dumps(dict(k3, n=10**8)))
    packing = tmp_path / "huge-packing.json"
    packing.write_text(json.dumps({"n": 10**8, "pattern": k3, "copies": [[0, 1, 2]]}))
    for argv in (["verify", "--in", str(packing)],
                 ["lp", "--host", f"json:{graph}", "--pattern", "k3"],
                 ["solve", "--n", "5", "--G", f"json:{graph}"]):
        t0 = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert time.perf_counter() - t0 < 1.0, argv
        assert (code, out) == (1, ""), argv
        assert err.startswith("error:") and "vertex limit" in err, argv


def test_oversized_constructions_are_rejected_fast(capsys):
    # 46.2M triangles and about 10^10 pentagons: each would ask for tens of
    # GB; the size is known from n, |A| and m before any copy is built
    for argv in (["construct", "--family", "kt", "--n", "100000", "--t", "3"],
                 ["construct", "--family", "c5blowup", "--m", "100001"]):
        t0 = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert time.perf_counter() - t0 < 1.0, argv
        assert (code, out) == (1, ""), argv
        assert err.startswith("error:") and "construction limit" in err, argv


def test_oversized_searches_are_rejected(capsys, monkeypatch):
    # behrend_q_free refuses n above 10^6 before it starts
    for argv in (["gadget", "--n", "100000000"],
                 ["construct", "--family", "kt", "--n", "100000000", "--t", "3"],
                 ["report", "--gadget-sizes", "100,100000000"]):
        t0 = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert time.perf_counter() - t0 < 1.0, argv
        assert (code, out) == (1, ""), argv
        assert err.startswith("error:") and "behrend_q_free guard" in err, argv
    # the solver takes at most 10^5 copies, C12 in K12 has about 2*10^7
    code, out, err = run(capsys, ["solve", "--n", "12", "--F", "c12", "--G", "k3"])
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "copies exceed 100000" in err
    # copy enumeration stops at _COPY_LIMIT copies (lowered here so the
    # test stays fast): C6 in K12 has 55,440 copies, and K9/C5 has 1,512,
    # under the LP's own 2000
    monkeypatch.setattr(solver, "_COPY_LIMIT", 1000)
    for argv in (["solve", "--n", "12", "--F", "c6", "--G", "k3"],
                 ["lp", "--host", "k9", "--pattern", "c5"]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error:") and "copies exceed 1000" in err, argv


def test_few_copies_of_large_patterns_are_solved(capsys):
    # one embedding per copy: 66 copies of K10 in K12, each of which has
    # 10! automorphisms, and 45 copies of K8 in K10, each edge in 28 of them
    code, out, _ = run(capsys, ["solve", "--n", "12", "--F", "k10", "--G", "k3"])
    assert code == 0
    obj = json.loads(out)
    assert (obj["value"], obj["optimal"]) == (1, True)
    code, out, _ = run(capsys, ["lp", "--host", "k10", "--pattern", "k8"])
    assert code == 0
    obj = json.loads(out)
    assert (obj["nuStar"], len(obj["weights"])) == ("45/28", 45)


@pytest.mark.parametrize("flag", ["--threads", "--seed"])
def test_removed_flags_are_rejected(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--n", "5", flag, "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_solve_recursion_is_a_clean_error():
    # K9 has 1,512 pentagons, more than the default recursion limit; the
    # search recurses only on include, so the budget stops it instead
    proc = subprocess.run(
        [sys.executable, "-m", "rainbowpack.cli",
         "solve", "--n", "9", "--F", "c5", "--G", "k3"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert '"optimal":false' in proc.stdout


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
