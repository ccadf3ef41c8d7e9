"""Command-line surface: sampling, enumeration, exact pmfs, conversions,
urns, spectra, and the verification suite.

Every verb takes --family in the compact form 'kind:key=value,...'
(e.g. recursive:b=2, ary:b=2,d=3, port:b=3,alpha=1/2), --seed for anything
random, --format csv|doc for the output encoding, and --out to write to a
file instead of stdout.  Exit code 0 iff all requested checks pass.
"""

from __future__ import annotations

import json
import sys

import click

from . import bijections, dist_desc, dist_k, enumeration, families, grow, \
    montecarlo, spectral, urns, verify
from .grow import RngStream
from .pmf import Pmf
from .trees import decode, encode, to_doc


def common_options(fn):
    fn = click.option("--family", "family_text", default="recursive:b=2",
                      show_default=True, help="family, e.g. ary:b=2,d=3")(fn)
    fn = click.option("--seed", default=0, show_default=True, type=int)(fn)
    fn = click.option("--format", "fmt", type=click.Choice(["csv", "doc"]),
                      default="csv", show_default=True)(fn)
    fn = click.option("--out", "out_path", type=click.Path(dir_okay=False),
                      default=None, help="write output to a file")(fn)
    return fn


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")
    else:
        click.echo(text)


def _json(value) -> str:
    """`json.dumps(value, indent=2)` without recursion, so the docs of deep
    trees serialize: a stack holds the values still to write, each with its
    depth, and the literal text between them (depth None)."""
    out: list[str] = []
    stack = [(value, 0)]
    while stack:
        value, depth = stack.pop()
        if depth is None:
            out.append(value)
            continue
        if isinstance(value, dict):
            items, brackets = [(json.dumps(k) + ": ", v) for k, v in value.items()], "{}"
        elif isinstance(value, (list, tuple)):
            items, brackets = [("", v) for v in value], "[]"
        else:
            out.append(json.dumps(value))
            continue
        if not items:
            out.append(brackets)
            continue
        pad = "\n" + "  " * (depth + 1)
        stack.append(("\n" + "  " * depth + brackets[1], None))
        for i in range(len(items) - 1, -1, -1):
            key, item = items[i]
            stack.append((item, depth + 1))
            stack.append(((brackets[0] if i == 0 else ",") + pad + key, None))
    return "".join(out)


def _csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    lines += [",".join(str(x) for x in row) for row in rows]
    return "\n".join(lines)


def _pmf_output(pmf: Pmf, fmt: str, out_path, value_name: str = "value") -> None:
    if fmt == "doc":
        doc = {value_name: {str(v): str(pmf[v]) for v in pmf.support},
               "float": {str(v): float(pmf[v]) for v in pmf.support}}
        _emit(_json(doc), out_path)
    else:
        rows = [[v, pmf[v], float(pmf[v])] for v in pmf.support]
        _emit(_csv([value_name, "probability", "float"], rows), out_path)


def _parse_b_range(text: str) -> range:
    if ".." in text:
        lo, _, hi = text.partition("..")
        return range(int(lo), int(hi) + 1)
    b = int(text)
    return range(b, b + 1)


@click.group()
def main():
    """Bucket increasing trees: samplers, oracles, exact laws, urns."""


@main.command("grow")
@common_options
@click.option("--n", required=True, type=int, help="tree size (label count)")
@click.option("--count", default=1, show_default=True, type=int)
def grow_cmd(family_text, seed, fmt, out_path, n, count):
    """Sample random trees from the family's growth process."""
    spec = families.parse_family(family_text)
    stream = RngStream(seed)
    trees = [grow.sample_tree(spec, n, stream.child(i)) for i in range(count)]
    if fmt == "doc":
        _emit(_json({"trees": [to_doc(t) for t in trees]}), out_path)
    else:
        _emit(_csv(["index", "tree"], [[i, encode(t)] for i, t in enumerate(trees)]),
              out_path)


@main.command("enumerate")
@common_options
@click.option("--n", required=True, type=int)
@click.option("--pmf", "statistic", default=None,
              help="statistic pmf instead of the tree list: K, Y:j, X:j, N:k, tau:j")
@click.option("--max-n", default=None, type=int,
              help="override the enumeration size guard")
def enumerate_cmd(family_text, seed, fmt, out_path, n, statistic, max_n):
    """Exhaustively enumerate weighted trees, or an exact statistic pmf."""
    spec = families.parse_family(family_text)
    if statistic:
        _pmf_output(enumeration.exact_statistic_pmf(spec, n, statistic, max_n=max_n),
                    fmt, out_path)
        return
    ts = enumeration.enumerate_trees(spec, n, max_n=max_n)
    total = ts.total_weight()
    if fmt == "doc":
        doc = {"family": spec.describe(), "n": n, "total_weight": str(total),
               "trees": [{"tree": to_doc(t), "weight": str(w),
                          "probability": str(w / total)} for t, w in ts.items]}
        _emit(_json(doc), out_path)
    else:
        rows = [[encode(t), w, w / total] for t, w in ts.items]
        _emit(_csv(["tree", "weight", "probability"], rows), out_path)


@main.command("pmf-k")
@common_options
@click.option("--n", required=True, type=int)
@click.option("--limit", is_flag=True, help="emit the limit law instead")
def pmf_k_cmd(family_text, seed, fmt, out_path, n, limit):
    """Exact distribution of the initial bucket size K_n."""
    spec = families.parse_family(family_text)
    if limit:
        pmf = dist_k.limit_K(spec)
    elif n <= 500:
        pmf = dist_k.pmf_K_exact(spec, n)
    else:  # exact rationals get huge; the spectral route is float but fast
        pmf = dist_k.pmf_K(spec, n)
    _pmf_output(pmf, fmt, out_path, value_name="m")


@main.command("descendants")
@common_options
@click.option("--n", required=True, type=int)
@click.option("--j", required=True, type=int)
@click.option("--conditional", "ell", default=None, type=int,
              help="condition on the bucket size of j at insertion")
def descendants_cmd(family_text, seed, fmt, out_path, n, j, ell):
    """Exact distribution of the descendants Y_{n,j}."""
    spec = families.parse_family(family_text)
    if ell is None:
        pmf = dist_desc.pmf_Y(spec, n, j)
    else:
        pmf = dist_desc.pmf_Y_conditional(spec, n, ell, j)
    _pmf_output(pmf, fmt, out_path, value_name="y")


@main.command("degree")
@common_options
@click.option("--n", required=True, type=int)
@click.option("--j", required=True, type=int)
def degree_cmd(family_text, seed, fmt, out_path, n, j):
    """Exact distribution of the out-degree X_{n,j}."""
    spec = families.parse_family(family_text)
    _pmf_output(dist_desc.pmf_X(spec, n, j), fmt, out_path, value_name="x")


@main.command("tau")
@common_options
@click.option("--n", required=True, type=int)
@click.option("--j", required=True, type=int)
def tau_cmd(family_text, seed, fmt, out_path, n, j):
    """Exact distribution of the saturation time tau_{n,j} (censored at n)."""
    spec = families.parse_family(family_text)
    _pmf_output(dist_desc.pmf_tau(spec, n, j), fmt, out_path, value_name="tau")


@main.command("convert")
@common_options
@click.option("--from", "source", required=True,
              type=click.Choice(["tree", "diamond"]))
@click.option("--to", "target", required=True,
              type=click.Choice(["bucket", "diamond"]))
@click.option("--b", "bound", default=2, show_default=True, type=int)
@click.argument("text", required=False)
def convert_cmd(family_text, seed, fmt, out_path, source, target, bound, text):
    """Convert between bucket-tree and increasing-diamond codec text.

    Reads TEXT, or standard input when TEXT is omitted.
    """
    if text is None:
        text = sys.stdin.read().strip()
    if source == "tree":
        tree = decode(text, bound)
        if target == "bucket":
            result = encode(tree)
        else:
            result = bijections.encode_diamond(bijections.bucket_to_diamond(tree))
    else:
        diamond = bijections.decode_diamond(text)
        if target == "diamond":
            result = bijections.encode_diamond(diamond)
        else:
            result = encode(bijections.diamond_to_bucket(diamond))
    _emit(result, out_path)


@main.command("urn")
@common_options
@click.option("--steps", required=True, type=click.IntRange(min=0))
@click.option("--replicates", default=1000, show_default=True, type=int)
def urn_cmd(family_text, seed, fmt, out_path, steps, replicates):
    """Simulate the bucket-type urn; mean compositions and node estimates."""
    spec = families.parse_family(family_text)
    model = urns.urn_model(spec)
    counts = montecarlo.sample_urn_counts(spec, steps + 1, replicates,
                                          RngStream(seed)).astype(float)
    est = urns.node_type_estimates(model, counts)
    rows = [[k, model.divisors[k - 1], counts[:, k - 1].mean(), est[k].mean()]
            for k in range(1, spec.b + 1)]
    if fmt == "doc":
        doc = {"family": spec.describe(), "steps": steps, "replicates": replicates,
               "types": [{"type": r[0], "divisor": r[1], "mean_balls": r[2],
                          "mean_node_estimate": r[3]} for r in rows]}
        _emit(_json(doc), out_path)
    else:
        _emit(_csv(["type", "divisor", "mean_balls", "mean_node_estimate"], rows),
              out_path)


def _with_b(spec: families.FamilySpec, b: int) -> families.FamilySpec:
    if spec.kind == families.RECURSIVE:
        return families.recursive(b)
    if spec.kind == families.ARY:
        return families.ary(b, spec.d)
    if spec.kind == families.PORT:
        return families.port(b, spec.alpha)
    raise click.UsageError(f"spectra need a named family, not {spec.kind!r}")


@main.command("urn-spectrum")
@common_options
@click.option("--b-range", "b_range", required=True, help="e.g. 2..10 or 5")
def urn_spectrum_cmd(family_text, seed, fmt, out_path, b_range):
    """Urn eigenvalues and phase indicators over a range of bucket sizes."""
    spec = families.parse_family(family_text)
    rows = []
    for b in _parse_b_range(b_range):
        sp = urns.urn_spectrum(urns.build_urn(_with_b(spec, b)))
        second = sp.eigenvalues[1].real
        phase = second / float(sp.principal)
        eigs = ";".join(f"{z.real:.12g}{z.imag:+.12g}j" for z in sp.eigenvalues)
        rows.append([b, sp.principal, f"{second:.12g}", f"{phase:.12g}", eigs])
    _emit(_csv(["b", "balance", "second_real", "phase_indicator", "eigenvalues"],
               rows), out_path)


@main.command("spectrum")
@common_options
@click.option("--b-range", "b_range", default=None, help="e.g. 2..30")
def spectrum_cmd(family_text, seed, fmt, out_path, b_range):
    """Indicial-equation roots and the phase indicator per bucket size."""
    spec = families.parse_family(family_text)
    bs = _parse_b_range(b_range) if b_range else range(spec.b, spec.b + 1)
    rows = []
    for b in bs:
        roots = spectral.indicial_roots(b, families.kappa(_with_b(spec, b)))
        phase = roots.gap_ratio() if b > 1 else ""
        for i, z in enumerate(roots.roots):
            rows.append([b, roots.kappa, i + 1, f"{z.real:.15g}", f"{z.imag:.15g}",
                         f"{roots.residuals[i]:.3g}",
                         f"{phase:.12g}" if phase != "" else ""])
    _emit(_csv(["b", "kappa", "root", "re", "im", "residual", "phase_indicator"],
               rows), out_path)


@main.command("verify")
@common_options
@click.option("--level", type=click.Choice(["quick", "full"]), default="quick",
              show_default=True)
def verify_cmd(family_text, seed, fmt, out_path, level):
    """Run the verification suite; exit code 0 iff every check passes."""
    results = verify.verify_suite(level=level, seed=seed)
    lines = [r.line() for r in results]
    ok = all(r.passed for r in results)
    lines.append(f"{'ALL CHECKS PASSED' if ok else 'CHECKS FAILED'} "
                 f"({sum(r.passed for r in results)}/{len(results)})")
    _emit("\n".join(lines), out_path)
    if not ok:
        sys.exit(1)


if __name__ == "__main__":
    main()
