"""Stable JSON schema for every domain object.

Scalars travel as strings ``"p"`` or ``"p/q"`` in lowest terms so no
floating-point representation can creep in.  Matrices are row-major lists
of lists carrying a mandatory ``"convention"`` field (columns are images of
basis vectors) to prevent silent transposition; structure-constant cubes
are triple-nested lists indexed ``[i][j][k]``.

The field table ``_FIELDS`` defines the format of every structure kind:
after the leading ``dim``, its ordered ``(field, codec, optional)`` rows
fix which fields a payload has, the order they are validated and emitted
in, and how each is encoded.  Rota-Baxter and derivation kinds inside a
search spec carry the fields of their dataclass, an ``int`` field being an
exponent and every other field a matrix.

``parse`` validates strictly -- unknown fields, non-canonical scalars and
dimension mismatches are rejected with a JSON-pointer style path --
and ``serialize`` emits the canonical form (stable key order,
lowest-term scalars), so ``serialize o parse`` canonicalizes and
``parse o serialize`` is the identity.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, fields
from fractions import Fraction

from .discovery import (
    AlgebraMapPairTarget,
    AybeTarget,
    DerivationTarget,
    RBTarget,
    SearchSpec,
)
from .exactlin import (
    BilinearOp,
    CheckVerdict,
    Comultiplication,
    LinearMap,
    Scalar,
    Tensor2,
    Vector,
)
from .structures import (
    AlphaBetaRB,
    AlphaPowerDerivation,
    AlphaPowerRB,
    BiHomAlgebra,
    BiHomDendriform,
    BraceRB,
    HomAlgebra,
    HomCoalgebra,
    HomLie,
    HomPreLie,
    InfHomBialgebra,
    LieAlphaPowerRB,
    ParenRB,
    TauSigmaDerivation,
)

SCHEMA_VERSION = "1"
CONVENTION = "columns-are-images"

_SCALAR_RE = re.compile(r"^(0|-?[1-9][0-9]*)(?:/([1-9][0-9]*))?$")


class DocumentError(ValueError):
    """Schema violation; carries the JSON-pointer path of the offender."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


@dataclass(frozen=True)
class Document:
    kind: str
    payload: dict


# ---------------------------------------------------------------------------
# Scalar and grid primitives
# ---------------------------------------------------------------------------

def parse_scalar(value, path: str) -> Scalar:
    if not isinstance(value, str):
        raise DocumentError(path, f"scalar must be a string, got {type(value).__name__}")
    m = _SCALAR_RE.match(value)
    if not m:
        raise DocumentError(path, f"malformed scalar {value!r}")
    p = int(m.group(1))
    q = int(m.group(2)) if m.group(2) else 1
    if math.gcd(abs(p), q) != 1:
        raise DocumentError(path, f"scalar {value!r} is not in lowest terms")
    return p if q == 1 else Fraction(p, q)


def format_scalar(x: Scalar) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _expect(obj, typ, path: str, what: str):
    if not isinstance(obj, typ):
        raise DocumentError(path, f"expected {what}, got {type(obj).__name__}")
    return obj


def _parse_vector(value, dim: int, path: str) -> Vector:
    _expect(value, list, path, "a list")
    if len(value) != dim:
        raise DocumentError(path, f"expected length {dim}, got {len(value)}")
    return tuple(parse_scalar(v, f"{path}/{i}") for i, v in enumerate(value))


def _vector_obj(vector) -> list:
    return [format_scalar(x) for x in vector]


def _parse_grid(value, dim: int, path: str) -> Tensor2:
    grid = _expect(value, list, path, "a grid")
    if len(grid) != dim:
        raise DocumentError(path, f"expected {dim} rows, got {len(grid)}")
    return Tensor2(tuple(_parse_vector(row, dim, f"{path}/{i}")
                         for i, row in enumerate(grid)))


def _grid_obj(rows) -> list:
    return [_vector_obj(row) for row in rows]


def _parse_matrix(value, dim_out: int, dim_in: int, path: str) -> LinearMap:
    _expect(value, dict, path, "a matrix object")
    _reject_unknown(value, {"convention", "entries"}, path)
    if "convention" not in value:
        raise DocumentError(f"{path}/convention", "missing mandatory field")
    if value["convention"] != CONVENTION:
        raise DocumentError(f"{path}/convention",
                            f"must be {CONVENTION!r}, got {value['convention']!r}")
    entries = value.get("entries")
    _expect(entries, list, f"{path}/entries", "a list of rows")
    if len(entries) != dim_out:
        raise DocumentError(f"{path}/entries",
                            f"expected {dim_out} rows, got {len(entries)}")
    rows = tuple(_parse_vector(row, dim_in, f"{path}/entries/{i}")
                 for i, row in enumerate(entries))
    return LinearMap(rows)


def _matrix_obj(m: LinearMap) -> dict:
    return {"convention": CONVENTION, "entries": _grid_obj(m.entries)}


def _parse_cube(value, dim: int, path: str):
    _expect(value, list, path, "a cube")
    if len(value) != dim:
        raise DocumentError(path, f"expected {dim} planes, got {len(value)}")
    planes = []
    for i, plane in enumerate(value):
        _expect(plane, list, f"{path}/{i}", "a list of rows")
        if len(plane) != dim:
            raise DocumentError(f"{path}/{i}",
                                f"expected {dim} rows, got {len(plane)}")
        planes.append(tuple(_parse_vector(row, dim, f"{path}/{i}/{j}")
                            for j, row in enumerate(plane)))
    return tuple(planes)


def _cube_obj(cube) -> list:
    return [_grid_obj(plane) for plane in cube]


def _reject_unknown(obj: dict, allowed: set, path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise DocumentError(f"{path}/{key}", "unknown field")


def _parse_dim(payload: dict, path: str) -> int:
    dim = payload.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise DocumentError(f"{path}/dim", "must be a positive integer")
    return dim


def _parse_exponent(p: dict, field: str, path: str) -> int:
    v = p.get(field)
    if not isinstance(v, int) or isinstance(v, bool) or v < 0:
        raise DocumentError(f"{path}/{field}", "must be a nonnegative integer")
    return v


# ---------------------------------------------------------------------------
# Structure kinds: one field table
# ---------------------------------------------------------------------------

# A codec is (parse(value, dim, path), emit(value)) for one payload field.
_PRODUCT = (lambda v, dim, path: BilinearOp(_parse_cube(v, dim, path)),
            lambda op: _cube_obj(op.cube))
_COPRODUCT = (lambda v, dim, path: Comultiplication(_parse_cube(v, dim, path)),
              lambda op: _cube_obj(op.cube))
_MATRIX = (lambda v, dim, path: _parse_matrix(v, dim, dim, path), _matrix_obj)
_VECTOR = (_parse_vector, _vector_obj)
_GRID = (_parse_grid, lambda t: _grid_obj(t.coeffs))

# Payloads are "dim" followed by these fields, in this order.  An absent
# optional field parses to None, and a None optional field is not emitted.
_FIELDS = {
    "algebra": (("mu", _PRODUCT, False), ("unit", _VECTOR, True)),
    "bihom-algebra": (("mu", _PRODUCT, False), ("alpha", _MATRIX, False),
                      ("beta", _MATRIX, False), ("unit", _VECTOR, True)),
    "hom-coalgebra": (("delta", _COPRODUCT, False), ("alpha", _MATRIX, False)),
    "inf-hom-bialgebra": (("mu", _PRODUCT, False), ("delta", _COPRODUCT, False),
                          ("alpha", _MATRIX, False), ("r", _GRID, True)),
    "dendriform": (("prec", _PRODUCT, False), ("succ", _PRODUCT, False),
                   ("alpha", _MATRIX, False), ("beta", _MATRIX, False)),
    "hom-prelie": (("mu", _PRODUCT, False), ("alpha", _MATRIX, False)),
    "hom-lie": (("bracket", _PRODUCT, False), ("alpha", _MATRIX, False)),
}


def _parse_fields(kind: str, p: dict, path: str) -> dict:
    table = _FIELDS[kind]
    _reject_unknown(p, {"dim", *(name for name, _, _ in table)}, path)
    dim = _parse_dim(p, path)
    return {name: None if optional and name not in p
            else read(p.get(name), dim, f"{path}/{name}")
            for name, (read, _), optional in table}


def _emit_fields(kind: str, p: dict) -> dict:
    table = _FIELDS[kind]
    out = {"dim": p[table[0][0]].dim}
    for name, (_, emit), optional in table:
        if not optional or p.get(name) is not None:
            out[name] = emit(p[name])
    return out


# ---------------------------------------------------------------------------
# Other payload schemas
# ---------------------------------------------------------------------------

def _parse_linear_map(p: dict, path: str) -> dict:
    _reject_unknown(p, {"dim_in", "dim_out", "convention", "entries"}, path)
    for field in ("dim_in", "dim_out"):
        v = p.get(field)
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise DocumentError(f"{path}/{field}", "must be a positive integer")
    m = _parse_matrix({"convention": p.get("convention"),
                       "entries": p.get("entries")},
                      p["dim_out"], p["dim_in"], path)
    return {"map": m}


def _parse_tensor2(p: dict, path: str) -> dict:
    _reject_unknown(p, {"dim", "coeffs"}, path)
    dim = _parse_dim(p, path)
    return {"tensor": _parse_grid(p.get("coeffs"), dim, f"{path}/coeffs")}


_RB_KINDS = {"paren": ParenRB, "brace": BraceRB, "alpha-power": AlphaPowerRB,
             "alpha-beta": AlphaBetaRB, "lie-alpha-power": LieAlphaPowerRB}
_DERIVATION_KINDS = {"tau-sigma": TauSigmaDerivation,
                     "alpha-power": AlphaPowerDerivation}
_KIND_NAMES = {cls: name for table in (_RB_KINDS, _DERIVATION_KINDS)
               for name, cls in table.items()}

_TARGETS = {"aybe": AybeTarget, "rb": RBTarget, "derivation": DerivationTarget,
            "algebra-map-pair": AlgebraMapPairTarget}
_TARGET_NAMES = {cls: name for name, cls in _TARGETS.items()}
_TARGET_KINDS = {"rb": _RB_KINDS, "derivation": _DERIVATION_KINDS}


def _is_exponent(field) -> bool:
    return field.type in (int, "int")


def _parse_kind(table: dict, p, dim: int, path: str):
    _expect(p, dict, path, "a kind object")
    name = p.get("name")
    if not isinstance(name, str) or name not in table:
        raise DocumentError(f"{path}/name",
                            f"unknown kind {name!r}; expected one of "
                            f"{sorted(table)}")
    cls = table[name]
    _reject_unknown(p, {"name", *(f.name for f in fields(cls))}, path)
    return cls(*(_parse_exponent(p, f.name, path) if _is_exponent(f)
                 else _parse_matrix(p.get(f.name), dim, dim, f"{path}/{f.name}")
                 for f in fields(cls)))


def _kind_obj(kind) -> dict:
    out = {"name": _KIND_NAMES[type(kind)]}
    for f in fields(kind):
        value = getattr(kind, f.name)
        out[f.name] = value if _is_exponent(f) else _matrix_obj(value)
    return out


def _parse_search_spec(p: dict, path: str) -> dict:
    _reject_unknown(p, {"ambient", "target", "coefficients", "dim_cap",
                        "support", "budget"}, path)
    ambient = _parse_document(p.get("ambient"), f"{path}/ambient")
    if ambient.kind not in ("algebra", "bihom-algebra", "hom-lie"):
        raise DocumentError(f"{path}/ambient/kind",
                            "ambient must be an algebra, bihom-algebra or hom-lie")
    dim = ambient.payload[_FIELDS[ambient.kind][0][0]].dim
    tpath = f"{path}/target"
    target_obj = _expect(p.get("target"), dict, tpath, "a target object")
    ttype = target_obj.get("type")
    if not isinstance(ttype, str) or ttype not in _TARGETS:
        raise DocumentError(f"{tpath}/type", f"unknown target {ttype!r}")
    cls = _TARGETS[ttype]
    _reject_unknown(target_obj, {"type", *(f.name for f in fields(cls))}, tpath)
    targs = {}
    if ttype in _TARGET_KINDS:
        targs["kind"] = _parse_kind(_TARGET_KINDS[ttype], target_obj.get("kind"),
                                    dim, f"{tpath}/kind")
    if "commute_with" in target_obj:
        lst = _expect(target_obj["commute_with"], list,
                      f"{tpath}/commute_with", "a list")
        targs["commute_with"] = tuple(
            _parse_matrix(m, dim, dim, f"{tpath}/commute_with/{i}")
            for i, m in enumerate(lst))
    target = cls(**targs)

    coeff_list = _expect(p.get("coefficients"), list, f"{path}/coefficients",
                         "a list of scalars")
    coeffs = tuple(parse_scalar(c, f"{path}/coefficients/{i}")
                   for i, c in enumerate(coeff_list))
    kwargs = {"target": target, "coefficients": coeffs}
    if "dim_cap" in p:
        cap = p["dim_cap"]
        if not isinstance(cap, int) or isinstance(cap, bool):
            raise DocumentError(f"{path}/dim_cap", "must be an integer")
        kwargs["dim_cap"] = cap
    if "support" in p:
        sup = _expect(p["support"], list, f"{path}/support", "a list of pairs")
        pairs = []
        for i, item in enumerate(sup):
            _expect(item, list, f"{path}/support/{i}", "an index pair")
            if len(item) != 2 or not all(isinstance(x, int) and not isinstance(x, bool)
                                         for x in item):
                raise DocumentError(f"{path}/support/{i}",
                                    "must be a pair of integers")
            pairs.append((item[0], item[1]))
        kwargs["support"] = tuple(pairs)
    if "budget" in p:
        b = p["budget"]
        if not isinstance(b, int) or isinstance(b, bool) or b < 1:
            raise DocumentError(f"{path}/budget", "must be a positive integer")
        kwargs["budget"] = b
    try:
        spec = SearchSpec(**kwargs)
    except ValueError as exc:
        raise DocumentError(path, str(exc)) from None
    if ttype == "aybe" and ambient.kind == "hom-lie":
        raise DocumentError(f"{tpath}/type", "target 'aybe' needs an algebra "
                                             "or bihom-algebra ambient")
    return {"spec": spec, "ambient": ambient}


def _parse_report(p: dict, path: str) -> dict:
    # reports round-trip as validated plain data
    allowed = {"report_type", "law", "passed", "witness", "theorem_id",
               "instance", "checks"}
    _reject_unknown(p, allowed, path)
    if not isinstance(p.get("passed"), bool):
        raise DocumentError(f"{path}/passed", "must be a boolean")
    return {"data": dict(p)}


_PARSERS = {
    "linear-map": _parse_linear_map,
    "tensor2": _parse_tensor2,
    "search-spec": _parse_search_spec,
    "report": _parse_report,
}

KINDS = (*_FIELDS, *_PARSERS)


def _parse_document(obj, path: str) -> Document:
    _expect(obj, dict, path, "a document object")
    _reject_unknown(obj, {"schema_version", "kind", "payload"}, path)
    if obj.get("schema_version") != SCHEMA_VERSION:
        raise DocumentError(f"{path}/schema_version",
                            f"must be {SCHEMA_VERSION!r}")
    kind = obj.get("kind")
    if kind not in KINDS:
        raise DocumentError(f"{path}/kind", f"unknown kind {kind!r}")
    payload = _expect(obj.get("payload"), dict, f"{path}/payload", "an object")
    if kind in _FIELDS:
        return Document(kind, _parse_fields(kind, payload, f"{path}/payload"))
    return Document(kind, _PARSERS[kind](payload, f"{path}/payload"))


def parse(text: str | bytes) -> Document:
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DocumentError("/", f"not UTF-8: {exc}") from None
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # besides syntax errors: nesting too deep, integers too long
        raise DocumentError("/", f"malformed JSON: {exc}") from None
    return _parse_document(obj, "")


def load_path(path: str) -> Document:
    with open(path, "rb") as fh:
        return parse(fh.read())


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _payload_obj(doc: Document) -> dict:
    kind, p = doc.kind, doc.payload
    if kind in _FIELDS:
        return _emit_fields(kind, p)
    if kind == "linear-map":
        m: LinearMap = p["map"]
        return {"dim_in": m.dim_in, "dim_out": m.dim_out,
                "convention": CONVENTION, "entries": _grid_obj(m.entries)}
    if kind == "tensor2":
        t: Tensor2 = p["tensor"]
        return {"dim": t.dim, "coeffs": _grid_obj(t.coeffs)}
    if kind == "search-spec":
        return _search_spec_obj(p["spec"], p["ambient"])
    if kind == "report":
        return dict(p["data"])
    raise ValueError(f"unknown kind {kind!r}")


def _search_spec_obj(spec: SearchSpec, ambient: Document) -> dict:
    target = spec.target
    tobj = {"type": _TARGET_NAMES[type(target)]}
    if tobj["type"] in _TARGET_KINDS:
        tobj["kind"] = _kind_obj(target.kind)
    if getattr(target, "commute_with", ()):
        tobj["commute_with"] = [_matrix_obj(m) for m in target.commute_with]
    out = {"ambient": _document_obj(ambient), "target": tobj,
           "coefficients": _vector_obj(spec.coefficients),
           "dim_cap": spec.dim_cap}
    if spec.support is not None:
        out["support"] = [list(pair) for pair in spec.support]
    if spec.budget != SearchSpec(target).budget:
        out["budget"] = spec.budget
    return out


def _document_obj(doc: Document) -> dict:
    return {"schema_version": SCHEMA_VERSION, "kind": doc.kind,
            "payload": _payload_obj(doc)}


def serialize(doc: Document, compact: bool = False) -> str:
    obj = _document_obj(doc)
    if compact:
        return json.dumps(obj, separators=(",", ":"))
    return json.dumps(obj, indent=2) + "\n"


def dump_path(doc: Document, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(doc))


# ---------------------------------------------------------------------------
# Builders and converters between documents and bundles
# ---------------------------------------------------------------------------

_BUNDLES = {"hom-coalgebra": HomCoalgebra, "inf-hom-bialgebra": InfHomBialgebra,
            "dendriform": BiHomDendriform, "hom-prelie": HomPreLie,
            "hom-lie": HomLie}
_BUNDLE_KINDS = {cls: kind for kind, cls in _BUNDLES.items()}


def doc_from_bundle(bundle, r: Tensor2 | None = None) -> Document:
    """The document of a Hom-coalgebra, dendriform, Hom-pre-Lie or Hom-Lie
    bundle, or of an infinitesimal Hom-bialgebra with its optional
    Yang-Baxter element ``r``."""
    kind = _BUNDLE_KINDS[type(bundle)]
    payload = {f.name: getattr(bundle, f.name) for f in fields(bundle)}
    if kind == "inf-hom-bialgebra":
        payload["r"] = r
    return Document(kind, payload)


def to_bundle(doc: Document, kind: str):
    """The bundle of a ``kind`` document (one of the kinds ``doc_from_bundle``
    emits).  An inf-hom-bialgebra's ``r`` stays in ``doc.payload["r"]``."""
    if doc.kind != kind:
        raise DocumentError("/kind", f"expected {kind}, got {doc.kind!r}")
    cls = _BUNDLES[kind]
    return cls(*(doc.payload[f.name] for f in fields(cls)))


def doc_from_bihom(a: BiHomAlgebra) -> Document:
    if a.alpha.is_identity() and a.beta.is_identity():
        return Document("algebra", {"mu": a.mu, "unit": a.unit})
    return Document("bihom-algebra", {"mu": a.mu, "alpha": a.alpha,
                                      "beta": a.beta, "unit": a.unit})


def doc_from_linear_map(m: LinearMap) -> Document:
    return Document("linear-map", {"map": m})


def doc_from_tensor2(t: Tensor2) -> Document:
    return Document("tensor2", {"tensor": t})


def to_bihom_algebra(doc: Document) -> BiHomAlgebra:
    """Lift algebra / bihom-algebra / inf-hom-bialgebra documents to a
    (Bi)Hom-associative bundle."""
    if doc.kind == "algebra":
        mu = doc.payload["mu"]
        ident = LinearMap.identity(mu.dim)
        return BiHomAlgebra(mu, ident, ident, doc.payload.get("unit"))
    if doc.kind == "bihom-algebra":
        p = doc.payload
        return BiHomAlgebra(p["mu"], p["alpha"], p["beta"], p.get("unit"))
    if doc.kind == "inf-hom-bialgebra":
        p = doc.payload
        return BiHomAlgebra(p["mu"], p["alpha"], p["alpha"])
    raise DocumentError("/kind", f"expected an algebra document, got {doc.kind!r}")


def to_hom_algebra(doc: Document) -> HomAlgebra:
    a = to_bihom_algebra(doc)
    if not a.is_hom():
        raise DocumentError("/payload", "structure maps differ; not a Hom algebra")
    return HomAlgebra(a.mu, a.alpha)


def to_linear_map(doc: Document) -> LinearMap:
    if doc.kind != "linear-map":
        raise DocumentError("/kind", f"expected linear-map, got {doc.kind!r}")
    return doc.payload["map"]


def to_tensor2(doc: Document) -> Tensor2:
    if doc.kind != "tensor2":
        raise DocumentError("/kind", f"expected tensor2, got {doc.kind!r}")
    return doc.payload["tensor"]


# ---------------------------------------------------------------------------
# Verdict / report rendering
# ---------------------------------------------------------------------------

def witness_obj(verdict: CheckVerdict) -> dict | None:
    if verdict.witness is None:
        return None
    w = verdict.witness
    return {"indices": list(w.indices),
            "lhs": _vector_obj(w.lhs), "rhs": _vector_obj(w.rhs)}


def doc_check_report(law: str, verdict: CheckVerdict) -> Document:
    data = {"report_type": "check", "law": law, "passed": verdict.passed}
    if not verdict.passed:
        data["witness"] = dict(witness_obj(verdict), law=verdict.law)
    return Document("report", {"data": data})


def doc_theorem_report(report) -> Document:
    checks = []
    for name, verdict in report.sub_verdicts:
        item = {"name": name, "passed": verdict.passed}
        if not verdict.passed:
            item["law"] = verdict.law
            item["witness"] = witness_obj(verdict)
        checks.append(item)
    data = {"report_type": "theorem", "theorem_id": report.theorem_id,
            "instance": report.instance_description,
            "passed": report.passed, "checks": checks}
    return Document("report", {"data": data})


def catalogue_document(entry) -> Document:
    """Serialize a catalogue entry as its natural document kind."""
    if entry.kind == "algebra":
        return doc_from_bihom(entry.structure)
    if entry.kind == "inf-bialgebra":
        return doc_from_bundle(entry.structure, entry.r)
    if entry.kind == "map":
        return doc_from_linear_map(entry.structure)
    raise ValueError(f"cannot serialize catalogue entry kind {entry.kind!r}")
