"""Golden CLI corpus: the stdout bytes and exit code of fixed commands.

Each case is one command line, or a pipe of two, with the sha256 of the
last stage's stdout.  Copy order, witness order, the solver's tie-break
and the LP's column order all feed these bytes, so any change to a search
order shows here even when every answer stays correct.
"""

import hashlib
import io
import sys
from pathlib import Path

import pytest

from rainbowpack.cli import main

KT60 = ["construct", "--family", "kt", "--n", "60", "--t", "3"]
# greedy edge-disjoint triangles of K30; it holds rainbow triangles
GREEDY30 = str(Path(__file__).parent / "data" / "greedy-k3-n30.json")

# name: (stages piped left to right, exit code, sha256 of the last stdout)
CASES = {
    "kt60-verify-k4": (
        [KT60, ["verify", "--G", "k4"]], 0,
        "19b672853cf67e9af453239f826ef5ca074276d449c2a364b94df862e63aa2cd"),
    "kt60-verify-c4": (
        [KT60, ["verify", "--G", "c4"]], 2,
        "fd64c38d8a720cf33995987b2271c324e82bef326b97a37067db3e8445248b5c"),
    "kt200-verify-k4": (
        [["construct", "--family", "kt", "--n", "200", "--t", "3"],
         ["verify", "--G", "k4"]], 0,
        "19b672853cf67e9af453239f826ef5ca074276d449c2a364b94df862e63aa2cd"),
    "kt400-t5": (
        [["construct", "--family", "kt", "--n", "400", "--t", "5"]], 0,
        "348faa507ca30a504c712365158b16f913c5a1cc324f4515f0724e13016dab51"),
    "kt400-t5-verify-k3": (
        [["construct", "--family", "kt", "--n", "400", "--t", "5"], ["verify"]], 0,
        "19b672853cf67e9af453239f826ef5ca074276d449c2a364b94df862e63aa2cd"),
    "c5blowup61-verify-audit": (
        [["construct", "--family", "c5blowup", "--m", "61"], ["verify"]], 0,
        "3c9a561f95d0550a99a4d0656149945b4d06434fdb908a0e291f2563714d3023"),
    "greedy30-verify-fail": (
        [["verify", "--in", GREEDY30]], 2,
        "7f7cb7de908d3d2de603b25a29630882daa20b6a6a53c285853553288806a501"),
    "greedy30-verify-k4-fail": (
        [["verify", "--G", "k4", "--in", GREEDY30]], 2,
        "4bd3ff895b6d3506757c766c923d8ac37abf4cd9dec3df43e939d5183995592b"),
    "c5blowup3-verify": (
        [["construct", "--family", "c5blowup", "--m", "3"], ["verify"]], 0,
        "3d0b5c7043708c8182655639fcbbf3fc6d7adae592eed2fe4c22617d1439db0d"),
    "solve-k3-c4-n7": (
        [["solve", "--n", "7", "--F", "k3", "--G", "c4"]], 0,
        "86d0089c277175b7b25445525910175e357aafe3c1df3c40befdae6b7940873a"),
    "solve-c5-k3-n8": (
        [["solve", "--n", "8", "--F", "c5", "--G", "k3"]], 0,
        "9b8f07cf0b46ea6f6258a2e5e02571a47252349baf35e4bdd2562e1379f90975"),
    "solve-k3-none-n7": (
        [["solve", "--n", "7", "--F", "k3", "--G", "none", "--no-symmetry"]], 0,
        "eb6b2153464515e89abbe1074f2d103bd42f91a6620621a878dc6d077a8b1cc7"),
    "lp-petersen-c5": (
        [["lp", "--host", "petersen", "--pattern", "c5"]], 0,
        "8f1fd672a8f819db0c8962dda10339b2e1fae408f029a9e29b9fadce71734369"),
    "lp-k6-c5": (
        [["lp", "--host", "k6", "--pattern", "c5"]], 0,
        "927c8e9d5e60c5cf58afbcaaaf0cef4446c35cc275035f8a7d2b36555ae474f6"),
    "lp-c5-k3-no-copies": (
        [["lp", "--host", "c5", "--pattern", "k3"]], 0,
        "843c0e2cd921a623f74e0c0f2bff956640aedbbbcecd7abb66cf74d23a83df0d"),
    "lp-k1-edge-no-edges": (
        [["lp", "--host", "k1", "--pattern", "edge"]], 0,
        "37e7e4e59fc34575ae2c06bd307f99761ac8f6592e6e3443ccc934d2d0eea7e6"),
    "gadget-100": (
        [["gadget", "--n", "100"]], 0,
        "ba8661d910a47d5a4f8f987dec9c1e4a885dff5cd57c76c8fb9ad2d15b2f221e"),
    "gadget-20000-q1": (
        [["gadget", "--n", "20000", "--q", "1"]], 0,
        "0ae7be67d78306a1e46c632d7d0f77fd5435c1730e2bc9bbc77ff240fdb6ef78"),
    "gadget-20000-q2": (
        [["gadget", "--n", "20000", "--q", "2"]], 0,
        "74318c2bbac3d7f857ea70fc784b6e756a220d06cc69653c9ee20f6cd2c8c637"),
    "report-pentagon": (
        [["report", "--pentagon", "5..7"]], 0,
        "d9f2a2734f3995c7b64f300c0fdc3643b9a6c8947249c9065b67bb89a4ba2401"),
}


def run_pipe(capsys, monkeypatch, stages) -> tuple[int, str]:
    """Run each stage in process, feeding one stage's stdout to the next."""
    out = ""
    code = 0
    for argv in stages:
        monkeypatch.setattr(sys, "stdin", io.StringIO(out))
        code = main(argv)
        out = capsys.readouterr().out
    return code, out


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_stdout(capsys, monkeypatch, name):
    stages, code, sha = CASES[name]
    got_code, out = run_pipe(capsys, monkeypatch, stages)
    assert got_code == code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha
