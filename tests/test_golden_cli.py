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
        "15083dc47dd6e74df98334dabed8705f9fb74061f2e1288f915a5322042c85fe"),
    "solve-c5-k3-n8": (
        [["solve", "--n", "8", "--F", "c5", "--G", "k3"]], 0,
        "9ec0dc5e10b304fb910438f0a0331038e12808d9acdefa04b425ea1fe9e7b9b3"),
    "solve-k3-none-n7": (
        [["solve", "--n", "7", "--F", "k3", "--G", "none", "--no-symmetry"]], 0,
        "e029e1ac2e857241df4ed343777079ee111238c56f0efd9295a146fe74dcbda3"),
    "lp-petersen-c5": (
        [["lp", "--host", "petersen", "--pattern", "c5"]], 0,
        "8f1fd672a8f819db0c8962dda10339b2e1fae408f029a9e29b9fadce71734369"),
    "lp-k6-c5": (
        [["lp", "--host", "k6", "--pattern", "c5"]], 0,
        "57dc17b6ebdffb643fbde725448ea8e3df0e8a8f1aeda0fe0707bccc03dd8c4a"),
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
