"""The four benchmark workloads.

Each workload has a fixed pool of operations ("ops").  ``setup`` builds the
pool from the package's public functions; ``run_op`` performs one op and
returns its output as bytes, which the harness compares against the digests
stored in ``expected/<workload>.json``.  The seed only orders the pool.

* ``registry``: one op verifies one catalogue instance of T1..T12 and
  serializes the report, as ``verify-theorem Tn --all-catalogue`` prints it.
* ``grid-search``: one op is one ``discovery.search`` call on integer data
  that takes the numpy fast path.
* ``exact-search``: one op is one ``discovery.search`` call on a
  half-integer grid, which forces the exact path.
* ``cli-docs``: one op is one in-process ``cli.main(argv)`` call on
  documents written during set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
from dataclasses import dataclass, replace
from fractions import Fraction

WORKLOADS = ("registry", "grid-search", "exact-search", "cli-docs")

CLI_DIR = os.path.join(".perfbench_work", "cli-docs")


@dataclass
class Op:
    """One pool member: a name (the key of its expected output) and the
    data ``run_op`` needs."""
    name: str
    data: tuple


# ---------------------------------------------------------------------------
# Shared structures
# ---------------------------------------------------------------------------

def _poly3():
    """Unital span of 1, x, x^2 with x^3 = 0."""
    from bihomcheck.exactlin import BilinearOp, LinearMap
    from bihomcheck.structures import BiHomAlgebra

    mu = BilinearOp.from_products(3, {
        (0, 0): (1, 0, 0),
        (0, 1): (0, 1, 0), (1, 0): (0, 1, 0),
        (0, 2): (0, 0, 1), (2, 0): (0, 0, 1),
        (1, 1): (0, 0, 1),
    })
    ident = LinearMap.identity(3)
    return BiHomAlgebra(mu, ident, ident, unit=(Fraction(1), Fraction(0),
                                                 Fraction(0)))


def _ambients():
    from bihomcheck.discovery import catalogue_entry, twist_factory
    from bihomcheck.exactlin import LinearMap

    entry = catalogue_entry
    return {
        "poly3": _poly3(),
        "n2": entry("n2").structure,
        "dx2": entry("dx2").structure,
        "m2": entry("m2").structure,
        # Hom instance: dual numbers twisted by x -> -x on both sides
        "dx2-neg": twist_factory(entry("dx2"), (entry("neg_x").structure,
                                                entry("neg_x").structure)),
        # BiHom instance: matrix algebra, one-sided conjugation twist
        "m2-conj": twist_factory(entry("m2"), (entry("conj_d").structure,
                                               LinearMap.identity(4))),
    }


def _slots(dim, skip=()):
    return tuple((i, j) for i in range(dim) for j in range(dim)
                 if (i, j) not in skip)


def _scalars(*values):
    return tuple(Fraction(v) for v in values)


def _target(kind: str, dim: int):
    """A search target by name; the twisted kinds use x -> -x of the dual
    numbers and so need ``dim == 2``."""
    from bihomcheck.discovery import (AlgebraMapPairTarget, AybeTarget,
                                      DerivationTarget, RBTarget,
                                      catalogue_entry)
    from bihomcheck.exactlin import LinearMap
    from bihomcheck.structures import (AlphaPowerDerivation, AlphaPowerRB,
                                       BraceRB, ParenRB, TauSigmaDerivation)

    ident = LinearMap.identity(dim)
    if kind == "derivation":
        return DerivationTarget(AlphaPowerDerivation(ident, 0))
    if kind == "rota-baxter-w0":
        return RBTarget(AlphaPowerRB(ident, 0))
    if kind == "paren-rb":
        return RBTarget(ParenRB(ident, ident))
    if kind == "yang-baxter":
        return AybeTarget()
    if kind == "map-pairs":
        return AlgebraMapPairTarget()
    neg_x = catalogue_entry("neg_x").structure
    if kind == "brace-rb":
        return RBTarget(BraceRB(neg_x, ident))
    if kind == "tau-sigma-derivation":
        return DerivationTarget(TauSigmaDerivation(neg_x, ident))
    if kind == "alpha-power-rb":
        return RBTarget(AlphaPowerRB(neg_x, 1))
    raise ValueError(f"unknown target {kind!r}")


# (name, target, ambient, coefficients, support).  Each pool has an odd
# number of specs, so that the median request falls among the samples of one
# spec rather than between two specs of different cost.
_UPPER3 = tuple((i, j) for i in range(3) for j in range(3) if i <= j)
_WIDE = (-2, -1, 0, 1, 2)
_GRID_SPECS = (
    ("derivation/poly3/5^7", "derivation", "poly3", _WIDE,
     _slots(3, skip=((0, 1), (0, 2)))),
    ("rota-baxter-w0/poly3/5^7", "rota-baxter-w0", "poly3", _WIDE,
     _slots(3, skip=((0, 1), (0, 2)))),
    ("map-pairs/poly3-upper/3^10", "map-pairs", "poly3", (-1, 0, 1),
     _UPPER3[1:]),
    ("yang-baxter/m2/3^10", "yang-baxter", "m2", (-1, 0, 1),
     _slots(4)[:10]),
    ("derivation/m2/3^10", "derivation", "m2", (-1, 0, 1), _slots(4)[:10]),
    ("rota-baxter-w0/m2/3^9", "rota-baxter-w0", "m2", (-1, 0, 1),
     _slots(4)[:9]),
    ("paren-rb/poly3/3^9", "paren-rb", "poly3", (-1, 0, 1), _slots(3)),
    ("tau-sigma-derivation/dx2/11^4", "tau-sigma-derivation", "dx2",
     tuple(range(-5, 6)), None),
    ("alpha-power-rb/dx2-neg/11^4", "alpha-power-rb", "dx2-neg",
     tuple(range(-5, 6)), None),
    ("yang-baxter/m2-conj/3^9", "yang-baxter", "m2-conj", (-1, 0, 1),
     _slots(4)[:9]),
    ("map-pairs/dx2/5^8", "map-pairs", "dx2", _WIDE, None),
)

_HALF = (-1, Fraction(-1, 2), 0, Fraction(1, 2), 1)
_HALF3 = (Fraction(-1, 2), 0, Fraction(1, 2))
_EXACT_SPECS = (
    ("derivation/poly3/h5^3", "derivation", "poly3", _HALF,
     ((1, 1), (2, 1), (2, 2))),
    ("rota-baxter-w0/poly3/h3^5", "rota-baxter-w0", "poly3", _HALF3,
     _slots(3)[4:]),
    ("paren-rb/poly3/h3^5", "paren-rb", "poly3", _HALF3, _slots(3)[4:]),
    ("yang-baxter/dx2/h5^4", "yang-baxter", "dx2", _HALF, None),
    ("yang-baxter/m2/h3^5", "yang-baxter", "m2", _HALF3, _slots(4)[:5]),
    ("derivation/m2/h3^4", "derivation", "m2", _HALF3, _slots(4)[:4]),
    ("rota-baxter-w0/m2/h3^4", "rota-baxter-w0", "m2", _HALF3,
     _slots(4)[:4]),
    ("brace-rb/dx2/h5^4", "brace-rb", "dx2", _HALF, None),
    ("tau-sigma-derivation/dx2/h5^4", "tau-sigma-derivation", "dx2", _HALF,
     None),
    ("alpha-power-rb/dx2-neg/h5^4", "alpha-power-rb", "dx2-neg", _HALF,
     None),
    ("yang-baxter/m2-conj/h3^5", "yang-baxter", "m2-conj", _HALF3,
     _slots(4)[:5]),
)


def _build_specs(table):
    from bihomcheck.discovery import SearchSpec

    ambients = _ambients()
    ops = []
    for name, target, ambient_id, coeffs, support in table:
        ambient = ambients[ambient_id]
        spec = SearchSpec(_target(target, ambient.dim),
                          coefficients=_scalars(*coeffs), support=support)
        ops.append(Op(name, (spec, ambient)))
    return ops


def candidates(spec, ambient) -> int:
    """Grid size of a search, from the spec's public fields."""
    from bihomcheck.discovery import AlgebraMapPairTarget

    n_slots = (len(spec.support) if spec.support is not None
               else ambient.dim ** 2)
    if isinstance(spec.target, AlgebraMapPairTarget):
        n_slots *= 2
    return len(spec.coefficients) ** n_slots


def scaled_copy(spec, ambient):
    """The same target on a grid of at most 3^4 candidates, for the
    fast-path/exact-path agreement check."""
    from bihomcheck.discovery import AlgebraMapPairTarget

    pairs = isinstance(spec.target, AlgebraMapPairTarget)
    slots = (spec.support if spec.support is not None
             else _slots(ambient.dim))
    return replace(spec, coefficients=_scalars(-1, 0, 1),
                   support=slots[:2 if pairs else 4])


# ---------------------------------------------------------------------------
# cli-docs documents and commands
# ---------------------------------------------------------------------------

_CLI_SPECS = (
    ("spec-aybe-dx2.json", "yang-baxter", "dx2", (-1, 0, 1), None),
    ("spec-derivation-m2.json", "derivation", "m2", (-1, 0, 1),
     _slots(4)[:8]),
    ("spec-pairs-n2.json", "map-pairs", "n2", (-1, 0, 1), None),
    ("spec-aybe-dx2-half.json", "yang-baxter", "dx2", _HALF3, None),
)


def _write_cli_documents(root: str) -> None:
    """Catalogue exports, twisted instances, search specs and malformed
    documents under ``root``."""
    from bihomcheck import serialize as ser
    from bihomcheck.discovery import (SearchSpec, catalogue, catalogue_entry,
                                      twist_factory)
    from bihomcheck.exactlin import LinearMap, Tensor2

    def dump(doc, name):
        ser.dump_path(doc, os.path.join(root, name))

    def text(name, body):
        with open(os.path.join(root, name), "w", encoding="utf-8") as fh:
            fh.write(body)

    for entry in catalogue():
        dump(ser.catalogue_document(entry), f"{entry.id}.json")
    entry = catalogue_entry
    neg_x, conj_d = entry("neg_x").structure, entry("conj_d").structure
    dump(ser.doc_from_bihom(twist_factory(entry("dx2"), (neg_x, neg_x))),
         "dx2-neg.json")
    dump(ser.doc_from_bihom(twist_factory(entry("m2"),
                                          (conj_d, LinearMap.identity(4)))),
         "m2-conj.json")
    dump(ser.doc_from_linear_map(LinearMap.diagonal((0, 1))), "p01.json")
    dump(ser.doc_from_linear_map(LinearMap.zero(4, 4)), "zero4.json")
    dump(ser.doc_from_linear_map(LinearMap.zero(2, 2)), "zero2.json")
    dump(ser.doc_from_tensor2(Tensor2.zero(2)), "r0-2.json")
    dump(ser.doc_from_tensor2(Tensor2.from_pairs(2, {(1, 1): 1})), "rx-2.json")
    dump(ser.doc_from_tensor2(Tensor2.from_pairs(2, {(0, 0): 1})), "r1-2.json")
    dump(ser.doc_from_tensor2(Tensor2.from_pairs(4, {(1, 1): 1})),
         "r12-4.json")
    # search specs, one per target family, a few hundred to a few thousand
    # candidates each; the half-integer one runs on the exact path
    for name, target, ambient_id, coeffs, support in _CLI_SPECS:
        spec = SearchSpec(_target(target, entry(ambient_id).structure.dim),
                          coefficients=_scalars(*coeffs), support=support)
        dump(ser.Document("search-spec", {
            "spec": spec, "ambient": ser.catalogue_document(entry(ambient_id))}),
            name)
    # malformed documents: each must end in exit 2 with a JSON-pointer path
    good = json.loads(ser.serialize(ser.catalogue_document(entry("n2"))))
    text("bad-json.json", '{"schema_version": "1", "kind": ')
    text("bad-field.json", json.dumps(dict(good, extra=1)))
    bad_scalar = json.loads(json.dumps(good))
    bad_scalar["payload"]["mu"][0][0][0] = "2/4"
    text("bad-scalar.json", json.dumps(bad_scalar))
    bad_dim = json.loads(json.dumps(good))
    bad_dim["payload"]["mu"] = bad_dim["payload"]["mu"][:1]
    text("bad-dim.json", json.dumps(bad_dim))
    text("bad-kind.json", json.dumps(dict(good, kind="monoid")))
    text("bad-version.json", json.dumps(dict(good, schema_version="2")))


def _cli_commands():
    """(name, argv, output files) of every cli-docs op; paths are relative
    to ``CLI_DIR``."""
    check = [
        ("bihom-assoc", ["m2.json"]), ("bihom-assoc", ["dx2-neg.json"]),
        ("bihom-assoc", ["m2-conj.json"]), ("hom-assoc", ["dx2-neg.json"]),
        ("assoc", ["n2.json"]), ("assoc", ["dx2.json"]),
        ("inf-compat", ["dx2-infbialg.json"]),
        ("inf-bialgebra", ["dx2-infbialg.json"]),
        ("inf-bialgebra", ["m2-qt.json"]),
        ("aybe", ["m2.json", "r12-4.json"]), ("aybe", ["dx2.json", "rx-2.json"]),
        ("aybe", ["dx2.json", "r1-2.json"]),
    ]
    cmds = [(f"check {law} {' '.join(files)}", ["check", law, *files], ())
            for law, files in check]
    # negative controls: exit 1 with the smallest failing tuple
    cmds += [(f"check {law} na2.json", ["check", law, "na2.json"], ())
             for law in ("bihom-assoc", "assoc")]
    construct = [
        ("yau-twist", ["dx2.json", "neg_x.json", "id2.json"], "twist.json"),
        ("yau-twist", ["m2.json", "conj_d.json", "id4.json"], "twist4.json"),
        ("abrb", ["dx2.json", "r0-2.json"], "abrb.json"),
        ("abrb", ["m2.json", "r12-4.json"], "abrb4.json"),
        ("bullet", ["m2-qt.json"], "bullet.json"),
        ("bullet", ["dx2-infbialg.json"], "bullet2.json"),
        ("mu-delta", ["m2-qt.json"], "mu-delta.json"),
        ("delta-r", ["m2.json", "r12-4.json"], "delta.json"),
        ("delta-r", ["m2.json", "r12-4.json", "--negate-r"], "delta-neg.json"),
        ("moregendend", ["n2.json", "p01.json", "-n", "1"], "mgd"),
        ("gengd", ["n2.json", "zero2.json"], "gengd.json"),
        ("gengd", ["m2.json", "zero4.json"], "gengd4.json"),  # exit 3
    ]
    for recipe, args, out in construct:
        files = ((f"{out}.dendriform.json", f"{out}.sum.json",
                  f"{out}.prelie.json") if recipe == "moregendend" else (out,))
        cmds.append((f"construct {recipe} {' '.join(args)}",
                     ["construct", recipe, *args, "-o", out], files))
    for spec in ("spec-aybe-dx2.json", "spec-derivation-m2.json",
                 "spec-pairs-n2.json", "spec-aybe-dx2-half.json"):
        cmds.append((f"search {spec}", ["search", spec], ()))
    verify = [
        ("T12", ["m2-qt.json"]), ("T12", ["m2-qt.json", "--negate-r"]),
        ("T12", ["dx2.json", "r1-2.json"]),  # exit 3: hypothesis fails
        ("T9", ["m2.json", "r12-4.json"]), ("T10", ["m2-qt.json"]),
        ("T11", ["m2-qt.json", "conj_d.json"]),
        ("T3", ["n2.json", "id2.json", "id2.json", "p01.json"]),
        ("T1", ["dx2.json", "id2.json", "neg_x.json"]),
        ("T10", ["--all-catalogue"]), ("T11", ["--all-catalogue"]),
    ]
    cmds += [(f"verify-theorem {tid} {' '.join(args)}",
              ["verify-theorem", tid, *args], ()) for tid, args in verify]
    cmds.append(("catalogue list", ["catalogue", "list"], ()))
    cmds.append(("catalogue export m2-qt", ["catalogue", "export", "m2-qt"],
                 ()))
    # bad inputs: exit 2, never a traceback
    bad = [
        ["check", "bihom-assoc", "bad-json.json"],
        ["check", "bihom-assoc", "bad-field.json"],
        ["check", "bihom-assoc", "bad-scalar.json"],
        ["check", "bihom-assoc", "bad-dim.json"],
        ["check", "bihom-assoc", "bad-kind.json"],
        ["check", "bihom-assoc", "bad-version.json"],
        ["check", "bihom-assoc", "no-such-file.json"],
        ["check", "aybe", "m2.json"],
        ["check", "hom-assoc", "m2-conj.json"],
        ["verify-theorem", "T9"],
        ["catalogue", "export", "zzz"],
        ["search", "m2.json"],
        # argparse errors raise SystemExit(2)
        ["check", "no-such-law", "m2.json"],
        ["frobnicate"],
        ["verify-theorem", "T99", "--all-catalogue"],
        [],
    ]
    cmds += [("bad: " + " ".join(argv), argv, ()) for argv in bad]
    return cmds


# ---------------------------------------------------------------------------
# Set-up and ops
# ---------------------------------------------------------------------------

def setup(workload: str, workdir: str = CLI_DIR) -> list[Op]:
    """Build the op pool of a workload (the package is already imported)."""
    if workload == "registry":
        from bihomcheck.theorems import THEOREM_IDS, catalogue_instances
        return [Op(f"{tid}#{i}", (tid, kwargs))
                for tid in THEOREM_IDS
                for i, (kwargs, _desc) in enumerate(catalogue_instances(tid))]
    if workload == "grid-search":
        return _build_specs(_GRID_SPECS)
    if workload == "exact-search":
        return _build_specs(_EXACT_SPECS)
    if workload == "cli-docs":
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        _write_cli_documents(workdir)
        return [Op(name, (argv, files, workdir))
                for name, argv, files in _cli_commands()]
    raise ValueError(f"unknown workload {workload!r}")


def teardown(workload: str, workdir: str = CLI_DIR) -> None:
    if workload == "cli-docs":
        shutil.rmtree(workdir, ignore_errors=True)


def run_op(workload: str, op: Op):
    """Perform one op; returns the raw result for ``output_of``."""
    if workload == "registry":
        from bihomcheck import serialize, theorems
        tid, kwargs = op.data
        report = theorems.verify_theorem(tid, **kwargs)
        return serialize.serialize(serialize.doc_theorem_report(report),
                                   compact=True)
    if workload in ("grid-search", "exact-search"):
        from bihomcheck import discovery
        spec, ambient = op.data
        return discovery.search(spec, ambient)
    from bihomcheck import cli
    argv, _files, workdir = op.data
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


def output_of(workload: str, op: Op, result) -> dict:
    """The checked output of an op: what a user of that flow would see."""
    from bihomcheck import serialize as ser
    from bihomcheck.exactlin import LinearMap, Tensor2

    if workload == "registry":
        return {"stdout": result + "\n"}
    if workload in ("grid-search", "exact-search"):
        lines = []
        for obj in result:  # rendered as ``bihomcheck search`` prints them
            if isinstance(obj, Tensor2):
                lines.append(ser.serialize(ser.doc_from_tensor2(obj), True))
            elif isinstance(obj, LinearMap):
                lines.append(ser.serialize(ser.doc_from_linear_map(obj), True))
            else:
                lines.append("[" + ",".join(
                    ser.serialize(ser.doc_from_linear_map(m), True)
                    for m in obj) + "]")
        return {"results": len(result),
                "stdout": "".join(line + "\n" for line in lines)}
    code, stdout = result
    _argv, files, workdir = op.data
    out = {"exit": code, "stdout": stdout}
    for name in files:  # a refused construction writes nothing
        path = os.path.join(workdir, name)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                out[f"file:{name}"] = fh.read()
            os.remove(path)
    return out
