"""End-to-end checks of the command-line surface."""

import json
import re

from click.testing import CliRunner

from buckettrees.cli import main
from buckettrees.trees import encode, from_doc


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


def test_out_file(tmp_path):
    path = tmp_path / "pmf.csv"
    run("pmf-k", "--n", "4", "--out", str(path))
    assert "2,1/3" in path.read_text()


def test_bad_family_fails():
    result = CliRunner().invoke(main, ["grow", "--family", "nope:b=2", "--n", "3"])
    assert result.exit_code != 0


def test_verify_quick():
    out = run("verify", "--level", "quick", "--seed", "0")
    assert "ALL CHECKS PASSED" in out
    assert out.count("PASS") >= 6
