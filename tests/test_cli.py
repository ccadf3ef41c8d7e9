"""End-to-end checks of the command-line surface."""

import ast
import dis
import hashlib
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from click.testing import CliRunner

from buckettrees import dist_k, families, verify
from buckettrees.cli import main
from buckettrees.spectral import RESIDUAL_TOL
from buckettrees.trees import BucketNode, BucketTree, encode, from_doc


def run(*args):
    result = CliRunner().invoke(main, list(args))
    assert result.exit_code == 0, result.output
    return result.output


def test_grow_csv():
    out = run("grow", "--family", "recursive:b=2", "--n", "3", "--count", "2",
              "--seed", "1")
    lines = out.strip().splitlines()
    assert lines[0] == "index,tree"
    assert lines[1] == "0,{1,2}({3})"
    assert len(lines) == 3


def test_the_package_and_a_cli_call_leave_scipy_stats_unloaded():
    # scipy.stats takes about a second to import; only the tests use it
    code = textwrap.dedent("""
        import importlib, json, pkgutil, sys
        import buckettrees
        from buckettrees import cli
        for module in pkgutil.iter_modules(buckettrees.__path__):
            importlib.import_module("buckettrees." + module.name)
        cli.main(["grow", "--n", "10"], standalone_mode=False)
        print(json.dumps(sorted(name for name in sys.modules if name.startswith("scipy"))))
    """)
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    lines = out.strip().splitlines()
    assert lines[0] == "index,tree" and lines[1].startswith("0,{1,2}")
    assert json.loads(lines[-1]) == []  # not even scipy.special
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [f"{node.module}.{a.name}" for a in node.names]
                     if isinstance(node, ast.ImportFrom) else [])
            assert not any(name.startswith("scipy.stats") for name in names), path


def test_grow_doc():
    out = run("grow", "--n", "4", "--format", "doc", "--seed", "2")
    doc = json.loads(out)
    assert doc["trees"][0]["b"] == 2
    assert doc["trees"][0]["root"]["labels"] == [1, 2]


def _load_deep(text):
    """json.loads without recursion, for docs nested deeper than its limit."""
    containers, keys = [], []
    for token in re.findall(r'"(?:[^"\\]|\\.)*"|[^\s,:\][{}]+|[][{}]', text):
        if token in ("[", "{"):
            containers.append([] if token == "[" else {})
            keys.append(None)
            continue
        if token in ("]", "}"):
            keys.pop()
            value = containers.pop()
        else:
            value = json.loads(token)
        if not containers:
            return value
        top = containers[-1]
        if isinstance(top, list):
            top.append(value)
        elif keys[-1] is None:
            keys[-1] = value
        else:
            top[keys[-1]] = value
            keys[-1] = None
    raise ValueError("unterminated JSON text")


def test_grow_doc_of_a_deep_tree_round_trips():
    args = ("grow", "--family", "linear:b=1,a=0,beta=-1,m=1", "--n", "1500", "--seed", "4")
    doc = run(*args, "--format", "doc")
    tree = from_doc(_load_deep(doc)["trees"][0])
    assert tree.size == 1500
    assert "0," + encode(tree) == run(*args).splitlines()[1]
    shallow = run("grow", "--n", "30", "--count", "3", "--format", "doc")
    assert _load_deep(shallow) == json.loads(shallow)


def test_enumerate_doc_round_trips():
    args = ("enumerate", "--family", "port:b=2,alpha=1", "--n", "5")
    doc = _load_deep(run(*args, "--format", "doc"))
    rows = [line.rsplit(",", 2) for line in run(*args).strip().splitlines()[1:]]
    assert [[encode(from_doc(t["tree"])), t["weight"], t["probability"]]
            for t in doc["trees"]] == rows


def test_grow_deterministic():
    a = run("grow", "--n", "20", "--seed", "9")
    b = run("grow", "--n", "20", "--seed", "9")
    assert a == b


def test_enumerate_trees():
    out = run("enumerate", "--family", "recursive:b=2", "--n", "4")
    lines = out.strip().splitlines()
    assert lines[0] == "tree,weight,probability"
    # {1,2}({3,4}) plus the two orderings of {1,2}({3},{4})
    assert len(lines) == 4
    assert "{1,2}({3,4}),2,1/3" in lines
    assert "{1,2}({3},{4}),2,1/3" in lines


# sha256 of the CSV of `enumerate --family recursive:b=1 --n 7`: the 11!! = 10395
# ordered increasing trees on seven labels, as the previous release wrote them
_ENUMERATE_7_SHA256 = "9af00493e87a1da74afadd794910b8f1fef1218145d3bef635ed0c7256f07c3a"


def test_enumerate_csv_matches_recorded_digest(tmp_path):
    out = tmp_path / "trees.csv"
    run("enumerate", "--family", "recursive:b=1", "--n", "7", "--out", str(out))
    assert len(out.read_text().splitlines()) == 1 + 10395
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _ENUMERATE_7_SHA256


def test_enumerate_statistic_pmf():
    out = run("enumerate", "--family", "recursive:b=2", "--n", "4", "--pmf", "K")
    lines = out.strip().splitlines()
    assert lines[0] == "value,probability,float"
    table = {line.split(",")[0]: line.split(",")[1] for line in lines[1:]}
    assert table == {"1": "2/3", "2": "1/3"}


def test_pmf_k():
    out = run("pmf-k", "--family", "recursive:b=2", "--n", "4")
    assert "2,1/3" in out


def test_pmf_k_limit():
    out = run("pmf-k", "--family", "recursive:b=2", "--n", "4", "--limit")
    assert "1,2/3" in out and "2,1/3" in out


def test_pmf_k_names_its_method():
    exact = run("pmf-k", "--family", "recursive:b=2", "--n", "4")
    assert exact.splitlines() == ["m,probability,float,method",
                                  "1,2/3,0.6666666666666666,exact",
                                  "2,1/3,0.3333333333333333,exact"]
    spectral = run("pmf-k", "--family", "recursive:b=2", "--n", "10001").splitlines()
    assert spectral[0] == "m,probability,float,method"
    assert all(line.endswith(",spectral") for line in spectral[1:])
    limit = run("pmf-k", "--family", "recursive:b=2", "--n", "4", "--limit").splitlines()
    assert all(line.endswith(",limit") for line in limit[1:])
    for args, method in ((("--n", "4"), "exact"), (("--n", "10001"), "spectral"),
                         (("--n", "4", "--limit"), "limit")):
        doc = json.loads(run("pmf-k", *args, "--format", "doc"))
        assert doc["method"] == method
        assert set(doc["m"]) == {"1", "2"}


def test_pmf_k_reaches_its_ceiling():
    rows = run("pmf-k", "--family", "recursive:b=30", "--n", str(10 ** 12)).splitlines()
    assert len(rows) == 31 and all(line.endswith(",spectral") for line in rows[1:])


def test_pmf_k_is_exact_to_n_10_thousand():
    csv = run("pmf-k", "--family", "port:b=3,alpha=2", "--n", "2000").splitlines()
    assert all(line.endswith(",exact") for line in csv[1:])
    limit = sys.get_int_max_str_digits()
    doc = json.loads(run("pmf-k", "--family", "port:b=3,alpha=2", "--n", "10000",
                         "--format", "doc"))
    assert sys.get_int_max_str_digits() == limit
    assert doc["method"] == "exact"
    # the atoms' numerators pass Python's default int-to-str digit limit
    assert max(len(p.split("/")[0]) for p in doc["m"].values()) > limit
    want = dist_k.pmf_K_exact(families.port(3, 2), 10 ** 4)
    sys.set_int_max_str_digits(0)
    try:
        assert doc["m"] == {str(m): str(p) for m, p in want.mass.items()}
    finally:
        sys.set_int_max_str_digits(limit)


def test_descendants_and_conditional():
    out = run("descendants", "--family", "recursive:b=2", "--n", "4", "--j", "3")
    assert "1,2/3" in out and "2,1/3" in out
    cond = run("descendants", "--family", "recursive:b=2", "--n", "4", "--j", "3",
               "--conditional", "1")
    assert cond == out


def test_degree():
    out = run("degree", "--family", "recursive:b=2", "--n", "5", "--j", "3")
    assert "0,5/6" in out and "1,1/6" in out


def test_tau():
    out = run("tau", "--family", "recursive:b=2", "--n", "5", "--j", "3")
    assert "4,1/3" in out and "5,2/3" in out


def test_convert_round_trip():
    tree = "{1,2}({3,4}({5}),{6})"
    diamond = run("convert", "--from", "tree", "--to", "diamond", tree).strip()
    back = run("convert", "--from", "diamond", "--to", "bucket", diamond).strip()
    assert back == tree


def test_convert_round_trips_a_deep_path():
    node = BucketNode((5999, 6000))
    for label in range(5997, 0, -2):
        node = BucketNode((label, label + 1), (node,))
    tree = encode(BucketTree(2, node))
    diamond = run("convert", "--from", "tree", "--to", "diamond", tree).strip()
    assert diamond.startswith("<1 6000>(<2 5999>(")
    assert run("convert", "--from", "diamond", "--to", "bucket", diamond).strip() == tree


def test_convert_reads_stdin():
    result = CliRunner().invoke(
        main, ["convert", "--from", "tree", "--to", "bucket"], input="{1,2}({3})\n")
    assert result.exit_code == 0
    assert result.output.strip() == "{1,2}({3})"


def test_urn():
    out = run("urn", "--family", "port:b=2,alpha=1", "--steps", "10",
              "--replicates", "200", "--seed", "3")
    assert out == ("type,divisor,mean_balls,mean_node_estimate\n"
                   "1,1,5.15,5.15\n"
                   "2,3,15.85,2.925\n")


def test_urn_one_type():
    out = run("urn", "--family", "recursive:b=1", "--steps", "5")
    assert out == ("type,divisor,mean_balls,mean_node_estimate\n"
                   "1,1,6.0,6.0\n")


def test_urn_negative_steps_is_a_usage_error():
    result = CliRunner().invoke(main, ["urn", "--steps", "-3"])
    assert result.exit_code == 2 and "--steps" in result.output


def test_urn_of_a_linear_rule_is_a_usage_error():
    result = CliRunner().invoke(main, ["urn", "--family", "linear:b=2,a=1,beta=1,m=1",
                                       "--steps", "5"])
    assert result.exit_code == 2 and "needs a named family, not 'linear'" in result.output


@pytest.mark.parametrize("family, message", [
    ("recursive:b=x", "family parameter b=x is not an integer"),
    ("ary:b=2,d=2.5", "family parameter d=2.5 is not an integer"),
    ("port:b=2,alpha=x", "family parameter alpha=x is not a rational number"),
])
def test_a_family_parameter_that_does_not_parse_is_a_usage_error(family, message):
    result = CliRunner().invoke(main, ["grow", "--family", family, "--n", "3"])
    assert result.exit_code == 2 and message in result.output


def test_urn_spectrum_one_type():
    out = run("urn-spectrum", "--family", "recursive:b=1", "--b-range", "1..2")
    assert out == ("b,balance,second_real,phase_indicator,eigenvalues\n"
                   "1,1,,,1+0j\n"
                   "2,1,-2,-2,1+0j;-2+0j\n")
    for family in ("ary:b=1,d=3", "port:b=1,alpha=2"):
        lines = run("urn-spectrum", "--family", family, "--b-range", "1").splitlines()
        assert lines[1].startswith("1,") and lines[1].split(",")[2:4] == ["", ""]
    result = CliRunner().invoke(main, ["urn-spectrum", "--family", "linear:b=2,a=1,beta=1,m=1",
                                       "--b-range", "2"])
    assert result.exit_code == 2 and "needs a named family" in result.output


def test_urn_spectrum():
    out = run("urn-spectrum", "--family", "port:b=2,alpha=1", "--b-range", "2")
    lines = out.strip().splitlines()
    assert lines[0].startswith("b,balance,second_real")
    assert lines[1].startswith("2,2,-2")


def test_spectrum():
    out = run("spectrum", "--family", "recursive:b=2", "--b-range", "2..3")
    lines = out.strip().splitlines()
    assert lines[0] == "b,kappa,root,re,im,residual,phase_indicator"
    assert lines[1].split(",")[3] == "1"  # principal root of the b=2 row


# sha256 of the CSV of `spectrum --b-range 1..30` and of `urn-spectrum
# --b-range 2..30`, one family per kappa of the verification grid: first over
# every column, then with spectrum's residual column left out, so the roots
# and phase indicators stay pinned apart from the residuals' last digits
_SPECTRUM_RECORDED = {
    "recursive:b=2": ("c636d2f0cd42ba6c", "dfcd813e44756f91"),
    "ary:b=2,d=2": ("9531e3cb9aa7718c", "9f6c1edae5c1f58c"),
    "ary:b=2,d=3": ("f1f30ea4fccda9ae", "83a8f121f7d95057"),
    "port:b=2,alpha=1": ("3b73b02496c3b600", "c4c8830344e41631"),
    "port:b=2,alpha=2": ("10cd2be12aa28cd6", "24bca2243fc5fa2d"),
}


def _spectrum_digests(family: str) -> tuple[str, str]:
    spectrum = run("spectrum", "--family", family, "--b-range", "1..30")
    urn = run("urn-spectrum", "--family", family, "--b-range", "2..30")
    rows = [line.split(",") for line in spectrum.strip().splitlines()]
    residual = rows[0].index("residual")
    assert all(float(row[residual]) <= RESIDUAL_TOL for row in rows[1:])
    kept = "\n".join(",".join(row[:residual] + row[residual + 1:]) for row in rows)
    return tuple(hashlib.sha256((text + urn).encode()).hexdigest()[:16]
                 for text in (spectrum, kept))


@pytest.mark.parametrize("family", list(_SPECTRUM_RECORDED))
def test_spectrum_csvs_match_recorded_values(family):
    assert _spectrum_digests(family) == _SPECTRUM_RECORDED[family]


def test_out_file(tmp_path):
    path = tmp_path / "pmf.csv"
    run("pmf-k", "--n", "4", "--out", str(path))
    assert "2,1/3" in path.read_text()


def test_bad_family_fails():
    result = CliRunner().invoke(main, ["grow", "--family", "nope:b=2", "--n", "3"])
    assert result.exit_code != 0


BAD_INPUTS = {
    "grow --n 0": "n must be >= 1 and an integer, not n=0",
    "grow --n 3 --family foo": "unknown family kind 'foo'",
    "pmf-k --n 0": "n must be >= 1",
    "pmf-k --n 10000000000000": "above the ceiling of 10^12: the spectral route's accuracy",
    "enumerate --n 0": "n must be >= 1",
    "enumerate --n 0 --pmf K": "n must be >= 1",
    "enumerate --n 11": "pass max_n, or --max-n on the command line, to override",
    "descendants --n 5 --j 9": "label j must be in 1..5 and an integer, not j=9",
    "spectrum --b-range 0..3": "capacity bound b must be >= 1",
    "spectrum --b-range 5..2": "--b-range 5..2 is empty",
    "spectrum --b-range x": "--b-range x: expected lo..hi",
    "spectrum --b-range 2..y": "--b-range 2..y: expected lo..hi",
    "enumerate --n 4 --pmf Y": "statistic 'Y': Y needs an integer argument",
    "enumerate --n 4 --pmf K:3": "statistic 'K:3': K takes no argument",
    "grow --n 3 --count -1": "Invalid value for '--count'",
    "urn --steps 3 --replicates 0": "Invalid value for '--replicates'",
    "urn --steps 3 --replicates -1": "Invalid value for '--replicates'",
}


@pytest.mark.parametrize("args", list(BAD_INPUTS))
def test_bad_input_is_a_usage_error(args):
    result = CliRunner().invoke(main, args.split())
    assert result.exit_code == 2, result.output
    assert BAD_INPUTS[args] in result.output
    assert "Traceback" not in result.output


def test_verify_quick():
    out = run("verify", "--level", "quick", "--seed", "0")
    assert "ALL CHECKS PASSED (8/8)" in out
    assert sum(line.startswith("PASS ") for line in out.splitlines()) == 8


def _planted_failure(level, seed):
    raise ZeroDivisionError("planted")


def test_verify_keeps_the_traceback_of_a_check_that_raises(monkeypatch):
    monkeypatch.setattr(verify, "CHECKS", {"1-fine": lambda level, seed: "ok",
                                           "2-broken": _planted_failure})
    fine, broken = verify.verify_suite(level="quick")
    assert fine.passed and fine.traceback == ""
    assert not broken.passed and broken.detail == "ZeroDivisionError: planted"
    assert broken.traceback.startswith("Traceback (most recent call last):")
    assert "in _planted_failure" in broken.traceback
    result = CliRunner().invoke(main, ["verify", "--level", "quick"])
    assert result.exit_code == 1
    lines = result.output.splitlines()
    assert lines[0].startswith("PASS 1-fine") and lines[1].startswith("FAIL 2-broken")
    assert lines[2] == "    Traceback (most recent call last):"
    assert lines[-2] == "    ZeroDivisionError: planted"
    assert lines[-1] == "CHECKS FAILED (1/2)"


_LOADS = ("LOAD_DEREF", "LOAD_CLOSURE")


def _loaded_names(fn) -> set:
    """The local names fn's code reads: LOAD_FAST and its variants, and
    LOAD_DEREF and LOAD_CLOSURE, so names read inside comprehensions count."""
    names = set()
    for ins in dis.get_instructions(fn):
        if ins.opname.startswith("LOAD_FAST") or ins.opname in _LOADS:
            names.update(ins.argval if isinstance(ins.argval, tuple) else (ins.argval,))
    return names


def test_every_declared_option_is_read():
    unread = [(verb, p.name) for verb, cmd in main.commands.items()
              for p in cmd.params if p.name not in _loaded_names(cmd.callback)]
    assert unread == []
