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

Exit codes: 0 success / all passed, 1 a check or conclusion failed,
2 usage, document or input errors, 3 a construction hypothesis failed,
4 an internal error (two computations that must agree differ: a bug).
"""

from __future__ import annotations

import argparse
import sys

from . import serialize as ser
from .constructions import (
    InternalInconsistencyError,
    PreconditionError,
    abrb_operator,
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
from .discovery import (
    SearchSpaceTooLargeError,
    catalogue,
    catalogue_entry,
    search,
)
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
from .theorems import THEOREM_IDS, catalogue_instances, verify_theorem

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4


def _load(path: str) -> ser.Document:
    return ser.load_path(path)


def _print_doc(doc: ser.Document, compact: bool = True) -> None:
    sys.stdout.write(ser.serialize(doc, compact=compact))
    if compact:
        sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

_CHECK_LAWS = ("bihom-assoc", "hom-assoc", "assoc", "hom-coassoc",
               "inf-compat", "inf-bialgebra", "dendriform", "hom-prelie",
               "hom-novikov", "hom-lie", "aybe")


def _run_check(args) -> int:
    law = args.law
    docs = [_load(f) for f in args.files]

    def need(count: int):
        if len(docs) != count:
            raise SystemExit2(f"law {law!r} takes {count} file(s)")

    if law in ("bihom-assoc", "hom-assoc", "assoc"):
        need(1)
        a = ser.to_bihom_algebra(docs[0])
        if law != "bihom-assoc" and not a.is_hom():
            raise SystemExit2(f"law {law!r} needs equal structure maps")
        if law == "assoc" and not a.alpha.is_identity():
            raise SystemExit2("law 'assoc' needs identity structure maps")
        verdict = check_bihom_associative(a)
    elif law == "hom-coassoc":
        need(1)
        verdict = check_hom_coassociative(ser.to_bundle(docs[0], "hom-coalgebra"))
    elif law in ("inf-compat", "inf-bialgebra"):
        need(1)
        b = ser.to_bundle(docs[0], "inf-hom-bialgebra")
        verdict = (check_infinitesimal_compat(b) if law == "inf-compat"
                   else check_inf_hom_bialgebra(b))
    elif law == "dendriform":
        need(1)
        verdict = check_bihom_dendriform(ser.to_bundle(docs[0], "dendriform"))
    elif law == "hom-prelie":
        need(1)
        verdict = check_hom_prelie(ser.to_bundle(docs[0], "hom-prelie"))
    elif law == "hom-novikov":
        need(1)
        verdict = check_hom_novikov(ser.to_bundle(docs[0], "hom-prelie"))
    elif law == "hom-lie":
        need(1)
        verdict = check_hom_lie(ser.to_bundle(docs[0], "hom-lie"))
    elif law == "aybe":
        need(2)
        a = ser.to_bihom_algebra(docs[0])
        verdict = check_aybe(a, ser.to_tensor2(docs[1]))
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit2(f"unknown law {law!r}")

    _print_doc(ser.doc_check_report(law, verdict))
    return EXIT_PASS if verdict.passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

_RECIPES = ("yau-twist", "dendriform-sum", "dendriform-circ",
            "dendriform-from-rb", "simprop", "moregendend", "analoglie",
            "abrb", "gengd", "mu-delta", "bullet", "delta-r")


def _run_construct(args) -> int:
    recipe = args.recipe
    docs = [_load(f) for f in args.files]

    def need(count: int):
        if len(docs) != count:
            raise SystemExit2(f"recipe {recipe!r} takes {count} file(s)")

    def out(doc: ser.Document):
        ser.dump_path(doc, args.output)

    if recipe == "yau-twist":
        need(3)
        a = ser.to_bihom_algebra(docs[0])
        twisted = yau_twist_assoc(a.mu, ser.to_linear_map(docs[1]),
                                  ser.to_linear_map(docs[2]))
        out(ser.doc_from_bihom(twisted))
    elif recipe == "dendriform-sum":
        need(1)
        d = ser.to_bundle(docs[0], "dendriform")
        out(ser.doc_from_bihom(dendriform_sum(d)))
    elif recipe == "dendriform-circ":
        need(1)
        d = ser.to_bundle(docs[0], "dendriform")
        out(ser.doc_from_bundle(dendriform_circ(d)))
    elif recipe == "dendriform-from-rb":
        need(4)
        a = ser.to_bihom_algebra(docs[0])
        dend = dendriform_from_paren_rb(a.mu, ser.to_linear_map(docs[1]),
                                        ser.to_linear_map(docs[2]),
                                        ser.to_linear_map(docs[3]))
        out(ser.doc_from_bundle(dend))
    elif recipe == "simprop":
        need(4)
        a = ser.to_bihom_algebra(docs[0])
        eta = ser.to_linear_map(_load(args.eta)) if args.eta else None
        dend = simprop_dendriform(a, ser.to_linear_map(docs[1]),
                                  ser.to_linear_map(docs[2]), eta,
                                  ser.to_linear_map(docs[3]))
        out(ser.doc_from_bundle(dend))
    elif recipe == "moregendend":
        need(2)
        h = ser.to_hom_algebra(docs[0])
        dend, total, circ = moregendend_triple(h, args.n,
                                               ser.to_linear_map(docs[1]))
        ser.dump_path(ser.doc_from_bundle(dend),
                      args.output + ".dendriform.json")
        ser.dump_path(ser.doc_from_bihom(total.as_bihom()),
                      args.output + ".sum.json")
        ser.dump_path(ser.doc_from_bundle(circ), args.output + ".prelie.json")
    elif recipe == "analoglie":
        need(2)
        from .constructions import analoglie_prelie
        prelie = analoglie_prelie(ser.to_bundle(docs[0], "hom-lie"), args.n,
                                  ser.to_linear_map(docs[1]))
        out(ser.doc_from_bundle(prelie))
    elif recipe == "abrb":
        need(2)
        a = ser.to_bihom_algebra(docs[0])
        out(ser.doc_from_linear_map(abrb_operator(a, ser.to_tensor2(docs[1]))))
    elif recipe == "gengd":
        need(2)
        h = ser.to_hom_algebra(docs[0])
        out(ser.doc_from_bundle(gengd_novikov(h, args.k,
                                              ser.to_linear_map(docs[1]))))
    elif recipe == "mu-delta":
        need(1)
        b = ser.to_bundle(docs[0], "inf-hom-bialgebra")
        out(ser.doc_from_linear_map(mu_delta_map(b)))
    elif recipe == "bullet":
        need(1)
        b = ser.to_bundle(docs[0], "inf-hom-bialgebra")
        out(ser.doc_from_bundle(infprelie_bullet(b)))
    elif recipe == "delta-r":
        need(2)
        h = ser.to_hom_algebra(docs[0])
        r = ser.to_tensor2(docs[1])
        if args.negate_r:
            r = -r
        delta = delta_r(h, r)
        out(ser.doc_from_bundle(HomCoalgebra(delta, h.alpha)))
    else:  # pragma: no cover
        raise SystemExit2(f"unknown recipe {recipe!r}")
    return EXIT_PASS


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def _run_search(args) -> int:
    doc = _load(args.spec)
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
# verify-theorem
# ---------------------------------------------------------------------------

def _theorem_instances_from_files(tid: str, docs: list[ser.Document],
                                  args) -> list[tuple[dict, str]]:
    name = ",".join(args.files)

    def need(*counts):
        if len(docs) not in counts:
            raise SystemExit2(f"theorem {tid!r} takes "
                              f"{' or '.join(map(str, counts))} file(s)")

    def maps(*idx):
        return [ser.to_linear_map(docs[i]) for i in idx]

    if tid == "T1":
        need(3)
        a = ser.to_bihom_algebra(docs[0])
        f, g = maps(1, 2)
        return [({"m": a.mu, "alpha": f, "beta": g}, name)]
    if tid == "T2":
        need(1)
        return [({"d": ser.to_bundle(docs[0], "dendriform")}, name)]
    if tid in ("T3", "T5"):
        need(4)
        a = ser.to_bihom_algebra(docs[0])
        s, t, r = maps(1, 2, 3)
        return [({"m": a.mu, "sigma": s, "tau": t, "R": r}, name)]
    if tid == "T4":
        need(4)
        a = ser.to_bihom_algebra(docs[0])
        s, t, d = maps(1, 2, 3)
        return [({"m": a.mu, "sigma": s, "tau": t, "D": d}, name)]
    if tid == "T6":
        need(3)
        a = ser.to_bihom_algebra(docs[0])
        s, r = maps(1, 2)
        return [({"m": a.mu, "sigma": s, "R": r}, name)]
    if tid == "T7":
        need(4)
        a = ser.to_bihom_algebra(docs[0])
        s, t, r = maps(1, 2, 3)
        eta = ser.to_linear_map(_load(args.eta)) if args.eta else None
        return [({"a": a, "sigma": s, "tau": t, "eta": eta, "R": r}, name)]
    if tid == "T8":
        need(2)
        return [({"l": ser.to_bundle(docs[0], "hom-lie"), "n": args.n,
                  "R": ser.to_linear_map(docs[1])}, name)]
    if tid == "T9":
        need(2)
        return [({"a": ser.to_bihom_algebra(docs[0]),
                  "r": ser.to_tensor2(docs[1])}, name)]
    if tid == "T10":
        need(1)
        b = ser.to_bundle(docs[0], "inf-hom-bialgebra")
        return [({"b": b}, name)]
    if tid == "T11":
        need(2)
        b = ser.to_bundle(docs[0], "inf-hom-bialgebra")
        return [({"b": b, "alpha": ser.to_linear_map(docs[1])}, name)]
    if tid == "T12":
        need(1, 2)
        if len(docs) == 1:
            b = ser.to_bundle(docs[0], "inf-hom-bialgebra")
            r = docs[0].payload["r"]
            if r is None:
                raise SystemExit2("T12 needs the Yang-Baxter element: pass an "
                                  "inf-hom-bialgebra with an \"r\" field, or "
                                  "two files (algebra + tensor2)")
            h = HomAlgebra(b.mu, b.alpha)
        else:
            h = ser.to_hom_algebra(docs[0])
            r = ser.to_tensor2(docs[1])
        if args.negate_r:
            r = -r
        return [({"h": h, "r": r}, name)]
    raise SystemExit2(f"unknown theorem id {tid!r}")


def _run_verify(args) -> int:
    tid = args.theorem
    if args.all_catalogue:
        instances = catalogue_instances(tid)
    else:
        if not args.files:
            raise SystemExit2("pass instance files or --all-catalogue")
        docs = [_load(f) for f in args.files]
        instances = _theorem_instances_from_files(tid, docs, args)
        if args.negate_r and tid != "T12":
            raise SystemExit2("--negate-r only applies to T12 / delta-r")

    worst = EXIT_PASS
    for kwargs, desc in instances:
        kwargs = dict(kwargs)
        kwargs.setdefault("desc", desc)
        report = verify_theorem(tid, **kwargs)
        _print_doc(ser.doc_theorem_report(report))
        if not report.passed:
            code = (EXIT_PRECONDITION if report.failed_hypothesis
                    else EXIT_FAIL)
            worst = max(worst, code)
    return worst


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

class SystemExit2(Exception):
    """Usage errors surfaced with exit code 2."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bihomcheck",
        description="exact verification and construction of twisted "
                    "algebraic structures")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run one axiom checker")
    p_check.add_argument("law", choices=_CHECK_LAWS)
    p_check.add_argument("files", nargs="+")
    p_check.set_defaults(func=_run_check)

    p_con = sub.add_parser("construct", help="run a construction")
    p_con.add_argument("recipe", choices=_RECIPES)
    p_con.add_argument("files", nargs="+")
    p_con.add_argument("-o", "--output", required=True,
                       help="output file (prefix for moregendend)")
    p_con.add_argument("--eta", help="optional eta map file (simprop)")
    p_con.add_argument("-n", type=int, default=0,
                       help="power of the structure map (moregendend/analoglie)")
    p_con.add_argument("-k", type=int, default=0,
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
    p_ver.add_argument("theorem", choices=THEOREM_IDS)
    p_ver.add_argument("files", nargs="*")
    p_ver.add_argument("--all-catalogue", action="store_true",
                       help="run on every generated catalogue instance")
    p_ver.add_argument("--eta", help="optional eta map file (T7)")
    p_ver.add_argument("-n", type=int, default=0, help="power exponent (T8)")
    p_ver.add_argument("--negate-r", action="store_true",
                       help="use the opposite sign convention for r (T12)")
    p_ver.set_defaults(func=_run_verify)

    p_cat = sub.add_parser("catalogue", help="built-in examples")
    p_cat.add_argument("action", choices=("list", "export"))
    p_cat.add_argument("id", nargs="?")
    p_cat.add_argument("-o", "--output")
    p_cat.set_defaults(func=_run_catalogue)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "catalogue" and args.action == "export" and not args.id:
        parser.error("catalogue export needs an entry id")
    try:
        return args.func(args)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ser.DocumentError as exc:
        print(f"document error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PreconditionError, InvalidParameterError) as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except InternalInconsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except SearchSpaceTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        # other input the library rejects: a ShapeError from mismatched
        # dimensions, an unknown BIHOMCHECK_KERNEL, an invalid ambient
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
