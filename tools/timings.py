"""Time the package layer by layer: python tools/timings.py OUT.json

Each layer (cli, codec, grower, kernels, roots, exact, oracle) runs in a
fresh interpreter, so its first calls are cold.  The in-process layers
import the checkout's `src/`; cli runs the installed console script.
OUT.json holds the machine facts, each module's lines and public top-level
names, and a row per timed call: layer, op, family, size, seconds,
statistic ("cold": a first call; "warm": after a warm-up call; "best" or
"mean" of `repeats` calls; "total" of the `repeats` calls an op makes on
different inputs) and repeats.  Its Markdown summary goes to stdout.  A
layer that raises (a failed round-trip assert, say) leaves its traceback
under "errors", the other layers still run, and the exit status is 1.
"""

import ast
import importlib.metadata
import json
import multiprocessing
import os
import platform
import subprocess
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


class Rows(list):
    """The timed calls of one layer."""

    def __init__(self, layer: str):
        super().__init__()
        self.layer = layer

    def time(self, op, family, size, fn, statistic="cold", repeats=1):
        """Time fn as the statistic says, add its row and return fn's last result."""
        laps = []
        for _ in range(repeats if statistic == "best" else 1):
            t0 = time.perf_counter()
            for _ in range(repeats if statistic == "mean" else 1):
                out = fn()
            laps.append(time.perf_counter() - t0)
        seconds = min(laps) / (repeats if statistic == "mean" else 1)
        self.append(dict(layer=self.layer, op=op, family=family, size=size, seconds=seconds,
                         statistic=statistic, repeats=repeats))
        return out


def cli(rows):
    for args, family, size in (
            ("grow --n 10", None, 10), ("pmf-k --n 100", None, 100),
            ("convert --from tree --to diamond {1,2}({3,4}({5}),{6})", None, None),
            ("verify --level quick", None, None),
            ("descendants --family port:b=3,alpha=2 --n 2000 --j 100", "port:b=3,alpha=2", 2000),
            ("enumerate --family recursive:b=1 --n 8", "recursive:b=1", 8)):
        rows.time(f"buckettrees {args}", family, size, lambda: subprocess.run(
            ["buckettrees", *args.split()], check=True, capture_output=True))


def codec(rows):
    from buckettrees import bijections, families, grow, trees
    big = ("recursive:b=2", 10 ** 5)
    tree = grow.sample_tree(families.recursive(2), 10 ** 5, 1)
    text = rows.time("encode", *big, lambda: trees.encode(tree))
    assert rows.time("decode", *big, lambda: trees.decode(text, 2)) == tree
    # the census counts the label arrays a grown tree keeps; a first labels read builds tuples
    rows.time("census", *big, lambda: trees.census(tree))
    rows.time("first tree.labels read", *big, lambda: tree.labels)
    # decode marks the canonical tree it reads, so canonicalize returns at once
    rows.time("canonicalize(decode(text))", *big, lambda: trees.canonicalize(trees.decode(text, 2)))
    # a 10-label tree shows the array passes' fixed cost, against its tuple form
    small_tree = grow.sample_tree(families.recursive(2), 10, 1)
    small_tuples = trees.from_doc(trees.to_doc(small_tree))
    small = trees.encode(small_tree)
    for op, fn in (("decode", lambda: trees.decode(small, 2)),
                   ("encode, array tree", lambda: trees.encode(small_tree)),
                   ("encode, tuple tree", lambda: trees.encode(small_tuples))):
        rows.time(op, "recursive:b=2", 10, fn, "mean", 10 ** 4)
    corrupted = text[:-1] + "x"

    def refused():  # the array passes find the first refused character
        try:
            trees.decode(corrupted, 2)
        except trees.ParseError as exc:
            return exc
        raise AssertionError("decode took a corrupted text")
    error = rows.time("decode, last character replaced by 'x'", *big, refused)
    assert error.pos == len(text) - 1, str(error)
    diamond = rows.time("bucket_to_diamond", *big, lambda: bijections.bucket_to_diamond(tree))
    dtext = rows.time("encode_diamond", *big, lambda: bijections.encode_diamond(diamond))
    assert rows.time("decode_diamond", *big, lambda: bijections.decode_diamond(dtext)) == diamond
    rows.time("to_doc", *big, lambda: trees.to_doc(tree))


def grower(rows):
    # each pick path at b = 1 and past it, live blocks and weight groups; the
    # path rule's deep tree takes build() the most ancestor-doubling rounds
    from buckettrees import families, grow
    grow.sample_tree(families.recursive(1), 10, 1)  # pays the process's first-call costs
    for family in ("recursive:b=1", "recursive:b=2", "port:b=1,alpha=1", "port:b=2,alpha=1",
                   "port:b=3,alpha=2", "ary:b=1,d=3", "ary:b=2,d=3", "linear:b=2,a=1,beta=1,m=1",
                   "linear:b=2,a=1,beta=-2,m=3", "linear:b=1,a=0,beta=-1,m=1"):
        spec = families.parse_family(family)
        for sampler in (grow.sample_tree, grow.sample_census):
            rows.time(f"{sampler.__name__}, seed 1", family, 10 ** 5,
                      lambda: sampler(spec, 10 ** 5, 1), "warm")
    # build()'s numpy passes and the label, block and slot pick resolvers have
    # a fixed cost per call, which a 10-label tree shows
    for family in ("recursive:b=2", "port:b=2,alpha=1", "ary:b=2,d=3"):
        spec = families.parse_family(family)
        rows.time("sample_tree, seed 1", family, 10,
                  lambda: grow.sample_tree(spec, 10, 1), "best", 1000)


def kernels(rows):
    from buckettrees import families, montecarlo, urns
    # the process's first kernel call pays its first-call costs (about 13 ms)
    montecarlo.sample_K(families.recursive(3), 3, 10, 1)
    for op, family, n, copies in (("sample_K", "recursive:b=3", 200, 2 * 10 ** 4),
                                  ("sample_urn_counts", "recursive:b=3", 200, 2 * 10 ** 4),
                                  ("sample_root_degree", "port:b=1,alpha=1", 12000, 4000),
                                  ("sample_root_degree", "port:b=1,alpha=2", 12000, 4000)):
        spec = families.parse_family(family)
        rows.time(f"{op}, {copies} copies", family, n,
                  lambda: getattr(montecarlo, op)(spec, n, copies, 1), "warm")
    rows.time("simulate_urn(build_urn(spec), n steps)", "recursive:b=3", 2000,
              lambda: urns.simulate_urn(urns.build_urn(families.recursive(3)), 2000, 1), "warm")


def roots(rows):
    from fractions import Fraction
    from buckettrees import spectral, verify
    half = Fraction(-1, 2)
    for b in (10, 20, 30, 60):  # the size is b
        rows.time("indicial_roots(b, -1/2)", None, b, lambda: spectral.indicial_roots(b, half))
    # nothing caches roots, so every root is solved cold
    rows.time("check_spectral('full', 0)", None, None, lambda: verify.check_spectral("full", 0))
    grid = [(b, kap) for kap in verify.kappa_grid() for b in range(1, 31)] + [(60, half)]
    rows.time("indicial_roots over the kappa grid x b <= 30, and (60, -1/2)", None, None,
              lambda: [spectral.indicial_roots(*args) for args in grid], "total", len(grid))


def exact(rows):
    from buckettrees import dist_desc, dist_k, families
    for family, n in (("ary:b=2,d=3", 2 * 10 ** 4), ("port:b=3,alpha=2", 2 * 10 ** 4),
                      ("recursive:b=30", 10 ** 3), ("recursive:b=30", 10 ** 12),
                      ("port:b=3,alpha=2", 10 ** 3), ("port:b=3,alpha=2", 10 ** 12)):
        spec = families.parse_family(family)
        rows.time("pmf_K", family, n, lambda: dist_k.pmf_K(spec, n))
    for family, n, j in (("recursive:b=2", 1000, 100), ("recursive:b=30", 300, 60),
                         ("recursive:b=30", 2000, 100)):
        spec = families.parse_family(family)
        for law in (dist_desc.pmf_Y, dist_desc.pmf_tau, dist_desc.pmf_X):
            rows.time(f"{law.__name__}, j = {j}", family, n, lambda: law(spec, n, j))


def oracle(rows):
    from buckettrees import enumeration as en
    from buckettrees import families, verify
    one, three, port = families.recursive(1), families.recursive(3), families.port(2, 1)
    for b in (1, 2, 3):
        rows.time(f"all_trees({b}, n)", None, 8, lambda: en.all_trees(b, 8))
    en._trees.cache_clear()  # so the next call builds the tree list again
    ts = rows.time("enumerate_trees", "recursive:b=1", 8, lambda: en.enumerate_trees(one, 8))
    rows.time("distinct_unordered", "recursive:b=1", 8, lambda: en.distinct_unordered(ts))
    rows.time("exact_statistic_pmf, Y:3", "recursive:b=1", 8,
              lambda: en.exact_statistic_pmf(one, 8, "Y:3"))
    canonical = en.distinct_unordered(en.enumerate_trees(port, 7))
    rows.time("exact_probability, UNORDERED_MODEL, each canonical tree", "port:b=2,alpha=1", 7,
              lambda: [en.exact_probability(port, t, en.UNORDERED_MODEL) for t in canonical],
              "total", len(canonical))
    rows.time("exact_statistic_pmf, Y:3", "recursive:b=1", 9,
              lambda: en.exact_statistic_pmf(one, 9, "Y:3"))
    rows.time("expected_capacity_counts", "recursive:b=1", 9,
              lambda: en.expected_capacity_counts(one, 9))
    rows.time("expected_capacity_counts", "recursive:b=3", 8,  # one walk per k
              lambda: en.expected_capacity_counts(three, 8))
    # the K tally is walked once per (b, n) and weighed per family: the first
    # b = 1 family of family_grid() pays the walk, the others only their weights
    first, *others = [spec for spec in verify.family_grid() if spec.b == 1]
    rows.time("exact_statistic_pmf, K", first.describe(), 8,
              lambda: en.exact_statistic_pmf(first, 8, "K"))
    rows.time("exact_statistic_pmf, K, the other b = 1 families of family_grid()", None, 8,
              lambda: [en.exact_statistic_pmf(spec, 8, "K") for spec in others],
              "total", len(others))
    rows.time("total_weight of enumerate_trees", "recursive:b=1", 8, ts.total_weight)


LAYERS = (cli, codec, grower, kernels, roots, exact, oracle)


def _run(layer) -> list:
    layer(rows := Rows(layer.__name__))
    return list(rows)


def _machine() -> dict:
    import mpmath
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"nproc": nproc, "python": platform.python_version(),
            **{name: importlib.metadata.version(name) for name in ("numpy", "scipy", "mpmath")},
            "mpmath_backend": mpmath.libmp.BACKEND}


def _modules() -> dict:
    """Each module's line count and public top-level functions and classes, read with ast."""
    modules = {}
    for path in sorted((SRC / "buckettrees").glob("*.py")):
        text = path.read_text()
        modules[path.stem] = {"lines": text.count("\n"), "public": [
            node.name for node in ast.parse(text).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")]}
    return modules


def summary(record: dict) -> str:
    m, modules = record["machine"], record["modules"]
    public = ", ".join(f"{name} {len(module['public'])}" for name, module in modules.items())
    lines = [f"Machine: nproc {m['nproc']}, Python {m['python']}, numpy {m['numpy']}, scipy "
             f"{m['scipy']}, mpmath {m['mpmath']} (backend {m['mpmath_backend']})  ",
             f"Source lines: {sum(module['lines'] for module in modules.values())}  ",
             f"Public top-level functions and classes: {public}", "",
             "| layer | op | family | size | ms | statistic | repeats |",
             "|---|---|---|--:|--:|---|--:|"]
    lines += [f"| {c['layer']} | {c['op']} | {c['family'] or ''} | {c['size'] or ''} | "
              f"{c['seconds'] * 1e3:.4g} | {c['statistic']} | {c['repeats']} |"
              for c in record["calls"]]
    lines += [f"\nLayer {layer} failed: see the record." for layer in record["errors"]]
    return "\n".join(lines)


def main(out: str) -> int:
    sys.path.insert(0, str(SRC))  # spawned layers start from this path: they time src/
    record = {"machine": _machine(), "modules": _modules(), "calls": [], "errors": {}}
    for layer in LAYERS:
        with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
            try:
                record["calls"] += pool.submit(_run, layer).result()
            except Exception:  # record the layer's failure and time the other layers
                record["errors"][layer.__name__] = traceback.format_exc()
                print(traceback.format_exc(), file=sys.stderr)
    Path(out).write_text(json.dumps(record, indent=1) + "\n")
    print(summary(record))
    return 1 if record["errors"] else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: python {sys.argv[0]} OUT.json")
    sys.exit(main(sys.argv[1]))
