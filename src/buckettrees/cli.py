"""Command-line surface: sampling, enumeration, exact pmfs, conversions,
urns, spectra, and the verification suite.

Every verb takes --out to write to a file instead of stdout, and only the
other options it reads: --family in the compact form 'kind:key=value,...'
(e.g. recursive:b=2, ary:b=2,d=3, port:b=3,alpha=1/2), --seed for anything
random, --format csv|doc for the output encoding.  Exit code 0 iff all
requested checks pass; an input the library rejects with ValueError is a
usage error, exit code 2 with its message.
"""

from __future__ import annotations

import json
import sys
import textwrap
from dataclasses import replace

import click

from . import bijections, dist_desc, dist_k, enumeration, families, grow, \
    montecarlo, spectral, urns, verify
from .pmf import Pmf
from .rng import RngStream
from .trees import decode, encode, to_doc


family_option = click.option("--family", "family_text", default="recursive:b=2",
                             show_default=True, help="family, e.g. ary:b=2,d=3")
seed_option = click.option("--seed", default=0, show_default=True, type=int)
format_option = click.option("--format", "fmt", type=click.Choice(["csv", "doc"]),
                             default="csv", show_default=True)
out_option = click.option("--out", "out_path", type=click.Path(dir_okay=False),
                          default=None, help="write output to a file")


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


def _pmf_output(pmf: Pmf, fmt: str, out_path, value_name: str = "value",
                method: str = None) -> None:
    """Write a pmf; a `method` names the route behind it, as a doc field and
    a last CSV column."""
    # exact atoms at large n have numerators of tens of thousands of digits;
    # Python's int-to-str digit limit guards parsing untrusted text, not this
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if fmt == "doc":
            doc = {value_name: {str(v): str(pmf[v]) for v in pmf.support},
                   "float": {str(v): float(pmf[v]) for v in pmf.support}}
            if method:
                doc["method"] = method
            text = _json(doc)
        else:
            header = [value_name, "probability", "float"] + (["method"] if method else [])
            rows = [[v, pmf[v], float(pmf[v])] + ([method] if method else [])
                    for v in pmf.support]
            text = _csv(header, rows)
    finally:
        sys.set_int_max_str_digits(limit)
    _emit(text, out_path)


def _parse_b_range(text: str) -> range:
    lo, dots, hi = text.partition("..")
    try:
        bs = range(int(lo), int(hi if dots else lo) + 1)
    except ValueError:
        raise ValueError(f"--b-range {text}: expected lo..hi or one b, as in 2..30") from None
    if not bs:
        raise ValueError(f"--b-range {text} is empty")
    return bs


class _Verbs(click.Group):
    """The verb group: a ValueError from the library is a usage error."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ValueError as exc:
            raise click.UsageError(str(exc)) from exc


@click.group(cls=_Verbs)
def main():
    """Bucket increasing trees: samplers, oracles, exact laws, urns."""


@main.command("grow")
@family_option
@seed_option
@format_option
@out_option
@click.option("--n", required=True, type=int, help="tree size (label count)")
@click.option("--count", default=1, show_default=True, type=click.IntRange(min=0))
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
@family_option
@format_option
@out_option
@click.option("--n", required=True, type=int)
@click.option("--pmf", "statistic", default=None,
              help="statistic pmf instead of the tree list: K, Y:j, X:j, N:k, tau:j")
@click.option("--max-n", default=None, type=int,
              help="override the enumeration size guard")
def enumerate_cmd(family_text, fmt, out_path, n, statistic, max_n):
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
@family_option
@format_option
@out_option
@click.option("--n", required=True, type=int)
@click.option("--limit", is_flag=True, help="emit the limit law instead")
def pmf_k_cmd(family_text, fmt, out_path, n, limit):
    """Distribution of the initial bucket size K_n: exact rationals up to
    n = 10^4, spectral floats above, or the limit law. The `method` column
    (doc field) says which: exact, spectral or limit. The spectral route
    costs O(b^2) per call whatever n is; n is capped at 10^12, the largest
    n at which its accuracy is tested."""
    spec = families.parse_family(family_text)
    if limit:
        pmf, method = dist_k.limit_K(spec), "limit"
    elif n <= 10 ** 4:
        pmf, method = dist_k.pmf_K_exact(spec, n), "exact"
    elif n > 10 ** 12:
        raise ValueError(f"--n {n} is above the ceiling of 10^12: the spectral "
                         "route's accuracy is tested up to n = 10^12 only")
    else:  # exact rationals get huge; the spectral route is float but fast
        pmf, method = dist_k.pmf_K(spec, n), "spectral"
    _pmf_output(pmf, fmt, out_path, value_name="m", method=method)


@main.command("descendants")
@family_option
@format_option
@out_option
@click.option("--n", required=True, type=int)
@click.option("--j", required=True, type=int)
@click.option("--conditional", "ell", default=None, type=int,
              help="condition on the bucket size of j at insertion")
def descendants_cmd(family_text, fmt, out_path, n, j, ell):
    """Exact distribution of the descendants Y_{n,j}."""
    spec = families.parse_family(family_text)
    if ell is None:
        pmf = dist_desc.pmf_Y(spec, n, j)
    else:
        pmf = dist_desc.pmf_Y_conditional(spec, n, ell, j)
    _pmf_output(pmf, fmt, out_path, value_name="y")


@main.command("degree")
@family_option
@format_option
@out_option
@click.option("--n", required=True, type=int)
@click.option("--j", required=True, type=int)
def degree_cmd(family_text, fmt, out_path, n, j):
    """Exact distribution of the out-degree X_{n,j}."""
    spec = families.parse_family(family_text)
    _pmf_output(dist_desc.pmf_X(spec, n, j), fmt, out_path, value_name="x")


@main.command("tau")
@family_option
@format_option
@out_option
@click.option("--n", required=True, type=int)
@click.option("--j", required=True, type=int)
def tau_cmd(family_text, fmt, out_path, n, j):
    """Exact distribution of the saturation time tau_{n,j} (censored at n)."""
    spec = families.parse_family(family_text)
    _pmf_output(dist_desc.pmf_tau(spec, n, j), fmt, out_path, value_name="tau")


@main.command("convert")
@out_option
@click.option("--from", "source", required=True,
              type=click.Choice(["tree", "diamond"]))
@click.option("--to", "target", required=True,
              type=click.Choice(["bucket", "diamond"]))
@click.option("--b", "bound", default=2, show_default=True, type=int)
@click.argument("text", required=False)
def convert_cmd(out_path, source, target, bound, text):
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
@family_option
@seed_option
@format_option
@out_option
@click.option("--steps", required=True, type=click.IntRange(min=0))
@click.option("--replicates", default=1000, show_default=True,
              type=click.IntRange(min=1))
def urn_cmd(family_text, seed, fmt, out_path, steps, replicates):
    """Simulate the bucket-type urn; mean compositions and node estimates."""
    spec = _named(family_text)
    model = urns.build_urn(spec)
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


def _named(family_text: str) -> families.FamilySpec:
    spec = families.parse_family(family_text)
    families.require_named(spec)
    return spec


@main.command("urn-spectrum")
@family_option
@out_option
@click.option("--b-range", "b_range", required=True, help="e.g. 2..10 or 5")
def urn_spectrum_cmd(family_text, out_path, b_range):
    """Urn eigenvalues and phase indicators over a range of bucket sizes."""
    spec = _named(family_text)
    rows = []
    for b in _parse_b_range(b_range):
        sp = urns.urn_spectrum(urns.build_urn(replace(spec, b=b)))
        second, phase = "", ""  # a one-type urn has no second eigenvalue
        if b > 1:
            second = sp.eigenvalues[1].real
            second, phase = f"{second:.12g}", f"{second / float(sp.principal):.12g}"
        eigs = ";".join(f"{z.real:.12g}{z.imag:+.12g}j" for z in sp.eigenvalues)
        rows.append([b, sp.principal, second, phase, eigs])
    _emit(_csv(["b", "balance", "second_real", "phase_indicator", "eigenvalues"],
               rows), out_path)


@main.command("spectrum")
@family_option
@out_option
@click.option("--b-range", "b_range", default=None, help="e.g. 2..30")
def spectrum_cmd(family_text, out_path, b_range):
    """Indicial-equation roots and the phase indicator per bucket size."""
    spec = _named(family_text)
    bs = _parse_b_range(b_range) if b_range else range(spec.b, spec.b + 1)
    rows = []
    for b in bs:
        roots = spectral.indicial_roots(b, families.kappa(replace(spec, b=b)))
        phase = roots.gap_ratio() if b > 1 else ""
        for i, z in enumerate(roots.roots):
            rows.append([b, roots.kappa, i + 1, f"{z.real:.15g}", f"{z.imag:.15g}",
                         f"{roots.residuals[i]:.3g}",
                         f"{phase:.12g}" if phase != "" else ""])
    _emit(_csv(["b", "kappa", "root", "re", "im", "residual", "phase_indicator"],
               rows), out_path)


@main.command("verify")
@seed_option
@out_option
@click.option("--level", type=click.Choice(verify.LEVELS), default="quick",
              show_default=True)
def verify_cmd(seed, out_path, level):
    """Run the verification suite; exit code 0 iff every check passes."""
    results = verify.verify_suite(level=level, seed=seed)
    lines = []
    for r in results:
        lines.append(r.line())
        if r.traceback:
            lines.append(textwrap.indent(r.traceback.rstrip("\n"), "    "))
    ok = all(r.passed for r in results)
    lines.append(f"{'ALL CHECKS PASSED' if ok else 'CHECKS FAILED'} "
                 f"({sum(r.passed for r in results)}/{len(results)})")
    _emit("\n".join(lines), out_path)
    if not ok:
        sys.exit(1)


if __name__ == "__main__":
    main()
