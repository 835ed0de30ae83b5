"""Command-line interface.

Subcommands:

* ``check <law> <files...>`` -- run one axiom checker; exit 0 on pass,
  1 on failure (the witness goes to stdout as JSON).
* ``construct <recipe> <files...> -o OUT`` -- run a construction and write
  the result document.
* ``search <spec-file>`` -- stream certified results as JSON lines.
* ``verify-theorem <T1..T12> [files...] [--all-catalogue]`` -- print one
  report per instance.
* ``catalogue [list | export <id> -o OUT]`` -- access the built-in examples.

Each law, recipe and theorem is one table row: its file converters in
order, the flags it reads and one call.  A document error names the file by
position and path; a flag that the command does not read is a usage error.

Exit codes: 0 success / all passed, 1 a check or conclusion failed,
2 usage, document or input errors, 3 a construction hypothesis failed,
4 an internal error (two computations that must agree differ: a bug).
"""

from __future__ import annotations

import argparse
import sys
from functools import partial

from . import serialize as ser
from .constructions import (
    InternalInconsistencyError,
    PreconditionError,
    abrb_operator,
    analoglie_prelie,
    delta_r,
    dendriform_circ,
    dendriform_from_paren_rb,
    dendriform_sum,
    gengd_novikov,
    infprelie_bullet,
    moregendend_triple,
    mu_delta_map,
    simprop_dendriform,
    yau_twist_assoc,
)
from .discovery import catalogue, catalogue_entry, search
from .exactlin import LinearMap, Tensor2
from .structures import (
    HomAlgebra,
    HomCoalgebra,
    InvalidParameterError,
    check_aybe,
    check_bihom_associative,
    check_bihom_dendriform,
    check_hom_coassociative,
    check_hom_lie,
    check_hom_novikov,
    check_hom_prelie,
    check_inf_hom_bialgebra,
    check_infinitesimal_compat,
)
from .theorems import catalogue_instances, verify_theorem

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4


class SystemExit2(Exception):
    """Usage errors surfaced with exit code 2."""


def _print_doc(doc: ser.Document, compact: bool = True) -> None:
    sys.stdout.write(ser.serialize(doc, compact=compact))
    if compact:
        sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# check, construct and verify-theorem: converters, one shared step, tables
# ---------------------------------------------------------------------------

_ALG, _HOM, _MAP, _R = (ser.to_bihom_algebra, ser.to_hom_algebra,
                        ser.to_linear_map, ser.to_tensor2)
_COALG, _BIALG, _DEND, _PRELIE, _LIE = (
    partial(ser.to_bundle, kind=kind)
    for kind in ("hom-coalgebra", "inf-hom-bialgebra", "dendriform",
                 "hom-prelie", "hom-lie"))


def _mu(doc: ser.Document):
    return ser.to_bihom_algebra(doc).mu


def _restricted(law: str):
    """The algebra converter of ``hom-assoc`` and ``assoc``."""
    def convert(doc: ser.Document):
        a = ser.to_bihom_algebra(doc)
        if not a.is_hom():
            raise SystemExit2(f"law {law!r} needs equal structure maps")
        if law == "assoc" and not a.alpha.is_identity():
            raise SystemExit2("law 'assoc' needs identity structure maps")
        return a
    return convert


def _t12_file(doc: ser.Document) -> tuple:
    """T12's one file: an inf-hom-bialgebra's Hom-algebra and ``r``."""
    b = ser.to_bundle(doc, "inf-hom-bialgebra")
    if doc.payload["r"] is None:
        raise SystemExit2("T12 needs the Yang-Baxter element: pass an "
                          "inf-hom-bialgebra with an \"r\" field, or "
                          "two files (algebra + tensor2)")
    return HomAlgebra(b.mu, b.alpha), doc.payload["r"]


def _named(where: str, step, arg):
    """``step(arg)``, with a document or usage error naming ``where``."""
    try:
        return step(arg)
    except (ser.DocumentError, SystemExit2) as exc:
        exc.args = (f"{exc} ({where})",)
        raise


def _convert(what: str, forms: tuple, paths: list[str]) -> list:
    """Load every file, check the count against ``forms`` (one converter per
    file; T12 gives one tuple per count) and convert in order.  A converter
    may return a tuple of objects.  Document and usage errors name the file."""
    docs = [_named(f"file {n}: {path}", ser.load_path, path)
            for n, path in enumerate(paths, 1)]
    if not isinstance(forms[0], tuple):
        forms = (forms,)
    form = next((f for f in forms if len(f) == len(docs)), None)
    if form is None:
        counts = " or ".join(str(len(f)) for f in forms)
        raise SystemExit2(f"{what} takes {counts} file(s)")
    objs = []
    for n, (convert, doc) in enumerate(zip(form, docs), 1):
        out = _named(f"file {n}: {paths[n - 1]}", convert, doc)
        objs += out if isinstance(out, tuple) else [out]
    return objs


def _eta(path: str | None) -> LinearMap | None:
    """The ``--eta`` map, if one is given."""
    return _named(f"--eta: {path}", lambda p: ser.to_linear_map(
        ser.load_path(p)), path) if path else None


_FLAGS = {"eta": "--eta", "n": "-n", "k": "-k", "negate_r": "--negate-r"}


def _flags(what: str, reads: tuple, args) -> dict:
    """The values of the flags ``what`` reads; any other flag that is set
    (to a non-default value) is a usage error."""
    for dest, flag in _FLAGS.items():
        if dest not in reads and getattr(args, dest, None):
            raise SystemExit2(f"{flag} does not apply to {what}")
    return {dest: getattr(args, dest) for dest in reads}


# Rows call library functions inside a lambda body, so that the module-level
# name is looked up at call time (tests and tracing rebind these names).
_CHECKS = {
    "bihom-assoc": ((_ALG,), lambda a: check_bihom_associative(a)),
    "hom-assoc": ((_restricted("hom-assoc"),),
                  lambda a: check_bihom_associative(a)),
    "assoc": ((_restricted("assoc"),), lambda a: check_bihom_associative(a)),
    "hom-coassoc": ((_COALG,), lambda c: check_hom_coassociative(c)),
    "inf-compat": ((_BIALG,), lambda b: check_infinitesimal_compat(b)),
    "inf-bialgebra": ((_BIALG,), lambda b: check_inf_hom_bialgebra(b)),
    "dendriform": ((_DEND,), lambda d: check_bihom_dendriform(d)),
    "hom-prelie": ((_PRELIE,), lambda p: check_hom_prelie(p)),
    "hom-novikov": ((_PRELIE,), lambda p: check_hom_novikov(p)),
    "hom-lie": ((_LIE,), lambda l: check_hom_lie(l)),
    "aybe": ((_ALG, _R), lambda a, r: check_aybe(a, r)),
}

# A recipe's call returns its document, or {output suffix: document}.
_RECIPES = {
    "yau-twist": ((_mu, _MAP, _MAP), (), lambda m, f, g: (
        ser.doc_from_bihom(yau_twist_assoc(m, f, g)))),
    "dendriform-sum": ((_DEND,), (),
                       lambda d: ser.doc_from_bihom(dendriform_sum(d))),
    "dendriform-circ": ((_DEND,), (),
                        lambda d: ser.doc_from_bundle(dendriform_circ(d))),
    "dendriform-from-rb": ((_mu, _MAP, _MAP, _MAP), (), lambda m, s, t, r: (
        ser.doc_from_bundle(dendriform_from_paren_rb(m, s, t, r)))),
    "simprop": ((_ALG, _MAP, _MAP, _MAP), ("eta",), lambda a, s, t, r, eta: (
        ser.doc_from_bundle(simprop_dendriform(a, s, t, _eta(eta), r)))),
    "moregendend": ((_HOM, _MAP), ("n",), lambda h, r, n: (
        lambda dend, total, circ: {
            ".dendriform.json": ser.doc_from_bundle(dend),
            ".sum.json": ser.doc_from_bihom(total.as_bihom()),
            ".prelie.json": ser.doc_from_bundle(circ)})(
        *moregendend_triple(h, n, r))),
    "analoglie": ((_LIE, _MAP), ("n",), lambda l, r, n: (
        ser.doc_from_bundle(analoglie_prelie(l, n, r)))),
    "abrb": ((_ALG, _R), (),
             lambda a, r: ser.doc_from_linear_map(abrb_operator(a, r))),
    "gengd": ((_HOM, _MAP), ("k",),
              lambda h, d, k: ser.doc_from_bundle(gengd_novikov(h, k, d))),
    "mu-delta": ((_BIALG,), (),
                 lambda b: ser.doc_from_linear_map(mu_delta_map(b))),
    "bullet": ((_BIALG,), (),
               lambda b: ser.doc_from_bundle(infprelie_bullet(b))),
    "delta-r": ((_HOM, _R), ("negate_r",), lambda h, r, negate_r: (
        ser.doc_from_bundle(HomCoalgebra(delta_r(h, -r if negate_r else r),
                                         h.alpha)))),
}

# A theorem's call returns the keyword arguments of ``verify_theorem``.
_THEOREMS = {
    "T1": ((_mu, _MAP, _MAP), (),
           lambda m, f, g: {"m": m, "alpha": f, "beta": g}),
    "T2": ((_DEND,), (), lambda d: {"d": d}),
    "T3": ((_mu, _MAP, _MAP, _MAP), (),
           lambda m, s, t, r: {"m": m, "sigma": s, "tau": t, "R": r}),
    "T4": ((_mu, _MAP, _MAP, _MAP), (),
           lambda m, s, t, d: {"m": m, "sigma": s, "tau": t, "D": d}),
    "T5": ((_mu, _MAP, _MAP, _MAP), (),
           lambda m, s, t, r: {"m": m, "sigma": s, "tau": t, "R": r}),
    "T6": ((_mu, _MAP, _MAP), (),
           lambda m, s, r: {"m": m, "sigma": s, "R": r}),
    "T7": ((_ALG, _MAP, _MAP, _MAP), ("eta",),
           lambda a, s, t, r, eta: {
               "a": a, "sigma": s, "tau": t, "R": r, "eta": _eta(eta)}),
    "T8": ((_LIE, _MAP), ("n",), lambda l, r, n: {"l": l, "n": n, "R": r}),
    "T9": ((_ALG, _R), (), lambda a, r: {"a": a, "r": r}),
    "T10": ((_BIALG,), (), lambda b: {"b": b}),
    "T11": ((_BIALG, _MAP), (), lambda b, f: {"b": b, "alpha": f}),
    "T12": (((_t12_file,), (_HOM, _R)), ("negate_r",),
            lambda h, r, negate_r: {"h": h, "r": -r if negate_r else r}),
}


def _run_check(args) -> int:
    convs, call = _CHECKS[args.law]
    verdict = call(*_convert(f"law {args.law!r}", convs, args.files))
    _print_doc(ser.doc_check_report(args.law, verdict))
    return EXIT_PASS if verdict.passed else EXIT_FAIL


def _run_construct(args) -> int:
    convs, reads, call = _RECIPES[args.recipe]
    what = f"recipe {args.recipe!r}"
    made = call(*_convert(what, convs, args.files),
                **_flags(what, reads, args))
    for suffix, doc in (made if isinstance(made, dict)
                        else {"": made}).items():
        ser.dump_path(doc, args.output + suffix)
    return EXIT_PASS


def _run_verify(args) -> int:
    tid = args.theorem
    if args.all_catalogue:
        if args.files:
            raise SystemExit2("--all-catalogue takes no instance files")
        _flags("--all-catalogue", (), args)
        instances = catalogue_instances(tid)
    elif not args.files:
        raise SystemExit2("pass instance files or --all-catalogue")
    else:
        forms, reads, call = _THEOREMS[tid]
        what = f"theorem {tid!r}"
        kwargs = call(*_convert(what, forms, args.files),
                      **_flags(what, reads, args))
        instances = [(kwargs, ",".join(args.files))]

    worst = EXIT_PASS
    for kwargs, desc in instances:
        report = verify_theorem(tid, **{"desc": desc, **kwargs})
        _print_doc(ser.doc_theorem_report(report))
        if not report.passed:
            code = (EXIT_PRECONDITION if report.failed_hypothesis
                    else EXIT_FAIL)
            worst = max(worst, code)
    return worst


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def _run_search(args) -> int:
    doc = ser.load_path(args.spec)
    if doc.kind != "search-spec":
        raise SystemExit2(f"expected a search-spec document, got {doc.kind!r}")
    spec = doc.payload["spec"]
    if args.budget is not None:
        import dataclasses
        spec = dataclasses.replace(spec, budget=args.budget)
    ambient_doc = doc.payload["ambient"]
    if ambient_doc.kind == "hom-lie":
        ambient = ser.to_bundle(ambient_doc, "hom-lie")
    else:
        ambient = ser.to_bihom_algebra(ambient_doc)
    for result in search(spec, ambient):
        if isinstance(result, Tensor2):
            _print_doc(ser.doc_from_tensor2(result))
        elif isinstance(result, LinearMap):
            _print_doc(ser.doc_from_linear_map(result))
        else:
            f, g = result
            line = [ser.serialize(ser.doc_from_linear_map(f), compact=True),
                    ser.serialize(ser.doc_from_linear_map(g), compact=True)]
            sys.stdout.write("[" + ",".join(line) + "]\n")
    return EXIT_PASS


# ---------------------------------------------------------------------------
# catalogue
# ---------------------------------------------------------------------------

def _run_catalogue(args) -> int:
    if args.action == "list":
        for e in catalogue():
            flags = " [negative-control]" if e.negative_control else ""
            sys.stdout.write(f"{e.id}\t{e.kind}{flags}\t{e.provenance}\n")
        return EXIT_PASS
    entry = catalogue_entry(args.id)
    doc = ser.catalogue_document(entry)
    if args.output:
        ser.dump_path(doc, args.output)
    else:
        _print_doc(doc, compact=False)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _exponent(text: str) -> int:
    """argparse type of -n and -k: a nonnegative int."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"must be a nonnegative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bihomcheck",
        description="exact verification and construction of twisted "
                    "algebraic structures")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run one axiom checker")
    p_check.add_argument("law", choices=_CHECKS)
    p_check.add_argument("files", nargs="+")
    p_check.set_defaults(func=_run_check)

    p_con = sub.add_parser("construct", help="run a construction")
    p_con.add_argument("recipe", choices=_RECIPES)
    p_con.add_argument("files", nargs="+")
    p_con.add_argument("-o", "--output", required=True,
                       help="output file (prefix for moregendend)")
    p_con.add_argument("--eta", help="optional eta map file (simprop)")
    p_con.add_argument("-n", type=_exponent, default=0,
                       help="power of the structure map (moregendend/analoglie)")
    p_con.add_argument("-k", type=_exponent, default=0,
                       help="derivation twist exponent (gengd)")
    p_con.add_argument("--negate-r", action="store_true",
                       help="use the opposite sign convention for r (delta-r)")
    p_con.set_defaults(func=_run_construct)

    p_search = sub.add_parser("search", help="stream certified grid results")
    p_search.add_argument("spec", help="search-spec document")
    p_search.add_argument("--budget", type=int, default=None,
                          help="override the candidate-count budget")
    p_search.set_defaults(func=_run_search)

    p_ver = sub.add_parser("verify-theorem", help="run a registry pipeline")
    p_ver.add_argument("theorem", choices=_THEOREMS)
    p_ver.add_argument("files", nargs="*")
    p_ver.add_argument("--all-catalogue", action="store_true",
                       help="run on every generated catalogue instance")
    p_ver.add_argument("--eta", help="optional eta map file (T7)")
    p_ver.add_argument("-n", type=_exponent, default=0, help="power exponent (T8)")
    p_ver.add_argument("--negate-r", action="store_true",
                       help="use the opposite sign convention for r (T12)")
    p_ver.set_defaults(func=_run_verify)

    p_cat = sub.add_parser("catalogue", help="built-in examples")
    p_cat.add_argument("action", choices=("list", "export"))
    p_cat.add_argument("id", nargs="?")
    p_cat.add_argument("-o", "--output")
    p_cat.set_defaults(func=_run_catalogue)

    return parser


# (exception types, stderr prefix, exit code); the first match wins, so the
# library's ValueError subclasses come before the catch-all ValueError row:
# a ShapeError, a SearchSpaceTooLargeError.
_ERRORS = (
    ((SystemExit2, FileNotFoundError, KeyError), "error", EXIT_USAGE),
    (ser.DocumentError, "document error", EXIT_USAGE),
    ((PreconditionError, InvalidParameterError), "precondition violated",
     EXIT_PRECONDITION),
    (InternalInconsistencyError, "internal error", EXIT_INTERNAL),
    (ValueError, "error", EXIT_USAGE),
)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "catalogue" and args.action == "export" and not args.id:
        parser.error("catalogue export needs an entry id")
    try:
        return args.func(args)
    except Exception as exc:
        for types, prefix, code in _ERRORS:
            if isinstance(exc, types):
                print(f"{prefix}: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
