import json
from fractions import Fraction

import pytest

from bihomcheck.discovery import (
    AlgebraMapPairTarget,
    AybeTarget,
    DerivationTarget,
    RBTarget,
    SearchSpec,
    catalogue,
    catalogue_entry,
)
from bihomcheck.exactlin import BilinearOp, LinearMap, Tensor2
from bihomcheck.serialize import (
    Document,
    DocumentError,
    catalogue_document,
    doc_from_linear_map,
    doc_from_tensor2,
    format_scalar,
    parse,
    parse_scalar,
    serialize,
    to_bihom_algebra,
    to_linear_map,
    to_tensor2,
)
from bihomcheck.structures import (
    AlphaBetaRB,
    AlphaPowerDerivation,
    AlphaPowerRB,
    BraceRB,
    LieAlphaPowerRB,
    ParenRB,
    TauSigmaDerivation,
)

F = Fraction
HALF = LinearMap(((F(1, 2), F(0)), (F(1), F(-1))))

# case -> (kind, expected payload keys in emitted order)
SAMPLES = {
    "algebra": ("algebra", ["dim", "mu"]),
    "algebra-unit": ("algebra", ["dim", "mu", "unit"]),
    "bihom-algebra": ("bihom-algebra", ["dim", "mu", "alpha", "beta"]),
    "bihom-algebra-unit": ("bihom-algebra",
                           ["dim", "mu", "alpha", "beta", "unit"]),
    "hom-coalgebra": ("hom-coalgebra", ["dim", "delta", "alpha"]),
    "inf-hom-bialgebra": ("inf-hom-bialgebra",
                          ["dim", "mu", "delta", "alpha"]),
    "inf-hom-bialgebra-r": ("inf-hom-bialgebra",
                            ["dim", "mu", "delta", "alpha", "r"]),
    "dendriform": ("dendriform", ["dim", "prec", "succ", "alpha", "beta"]),
    "hom-prelie": ("hom-prelie", ["dim", "mu", "alpha"]),
    "hom-lie": ("hom-lie", ["dim", "bracket", "alpha"]),
    "linear-map": ("linear-map", ["dim_in", "dim_out", "convention", "entries"]),
    "tensor2": ("tensor2", ["dim", "coeffs"]),
}

# target case -> (target type, kind name or None)
SPEC_TARGETS = {
    "aybe": ("aybe", None),
    "algebra-map-pair": ("algebra-map-pair", None),
    "paren": ("rb", "paren"),
    "brace": ("rb", "brace"),
    "alpha-power": ("rb", "alpha-power"),
    "alpha-beta": ("rb", "alpha-beta"),
    "lie-alpha-power": ("rb", "lie-alpha-power"),
    "tau-sigma": ("derivation", "tau-sigma"),
    "derivation-alpha-power": ("derivation", "alpha-power"),
}


def _sample(case):
    """A document of every kind; field values are arbitrary, not lawful."""
    dx2 = catalogue_entry("dx2").structure
    n2 = catalogue_entry("n2").structure
    inf = catalogue_entry("dx2-infbialg").structure
    sgn = catalogue_entry("sgn").structure
    id2 = LinearMap.identity(2)
    lie = BilinearOp.from_products(2, {(0, 1): (0, 1), (1, 0): (0, -1)})
    payloads = {
        "algebra": {"mu": n2.mu, "unit": None},
        "algebra-unit": {"mu": dx2.mu, "unit": dx2.unit},
        "bihom-algebra": {"mu": dx2.mu, "alpha": HALF, "beta": sgn,
                          "unit": None},
        "bihom-algebra-unit": {"mu": dx2.mu, "alpha": HALF, "beta": id2,
                               "unit": (F(1), F(-1, 2))},
        "hom-coalgebra": {"delta": inf.delta, "alpha": HALF},
        "inf-hom-bialgebra": {"mu": inf.mu, "delta": inf.delta,
                              "alpha": inf.alpha, "r": None},
        "inf-hom-bialgebra-r": {"mu": inf.mu, "delta": inf.delta, "alpha": HALF,
                                "r": Tensor2.from_pairs(2, {(0, 1): F(1, 3)})},
        "dendriform": {"prec": n2.mu, "succ": dx2.mu, "alpha": HALF,
                       "beta": sgn},
        "hom-prelie": {"mu": n2.mu, "alpha": HALF},
        "hom-lie": {"bracket": lie, "alpha": id2},
        "linear-map": {"map": LinearMap(((F(1), F(0), F(-2, 3)),
                                         (F(0), F(5), F(1))))},
        "tensor2": {"tensor": Tensor2.from_pairs(2, {(1, 0): F(-7, 2)})},
    }
    if case in payloads:
        return Document(SAMPLES[case][0], payloads[case])
    kinds = {
        "paren": ParenRB(id2, HALF),
        "brace": BraceRB(HALF, sgn),
        "alpha-power": AlphaPowerRB(HALF, 2),
        "alpha-beta": AlphaBetaRB(HALF, sgn),
        "lie-alpha-power": LieAlphaPowerRB(sgn, 1),
        "tau-sigma": TauSigmaDerivation(sgn, HALF),
        "derivation-alpha-power": AlphaPowerDerivation(HALF, 0),
    }
    targets = {"aybe": AybeTarget(), "algebra-map-pair": AlgebraMapPairTarget()}
    ttype = SPEC_TARGETS[case][0]
    if ttype == "rb":
        targets[case] = RBTarget(kinds[case], commute_with=(sgn,))
    elif ttype == "derivation":
        targets[case] = DerivationTarget(kinds[case])
    ambient = _sample("hom-lie" if case == "lie-alpha-power"
                      else "bihom-algebra-unit")
    spec = SearchSpec(targets[case], coefficients=(F(0), F(1, 2)))
    return Document("search-spec", {"spec": spec, "ambient": ambient})


def _edit(obj, pointer, value=None):
    """Set the field at a JSON pointer, or delete it when value is None."""
    *parents, last = pointer.strip("/").split("/")
    for key in parents:
        obj = obj[int(key) if isinstance(obj, list) else key]
    last = int(last) if isinstance(obj, list) else last
    if value is None:
        del obj[last]
    else:
        obj[last] = value


class TestScalars:
    def test_integer_forms(self):
        assert parse_scalar("0", "/x") == 0
        assert parse_scalar("-7", "/x") == -7
        assert parse_scalar("3/2", "/x") == F(3, 2)
        assert parse_scalar("-3/2", "/x") == F(-3, 2)

    @pytest.mark.parametrize("bad", ["2/4", "-0", "0.5", "1/0", "1/-2", "01",
                                     "+1", "", "1 /2", "a"])
    def test_rejects_noncanonical(self, bad):
        with pytest.raises(DocumentError):
            parse_scalar(bad, "/x")

    def test_numbers_rejected(self):
        with pytest.raises(DocumentError):
            parse_scalar(3, "/x")

    def test_format_round_trip(self):
        for value in (F(0), F(-7), F(3, 2), F(-22, 7)):
            assert parse_scalar(format_scalar(value), "/x") == value

    def test_denominator_one_canonicalizes(self):
        assert parse_scalar("3/1", "/x") == 3
        assert format_scalar(F(3, 1)) == "3"


class TestRoundTrip:
    def test_catalogue_documents(self):
        for entry in catalogue():
            doc = catalogue_document(entry)
            text = serialize(doc)
            again = parse(text)
            assert again == doc
            assert serialize(again) == text

    @pytest.mark.parametrize("compact", [False, True])
    @pytest.mark.parametrize("case", [*SAMPLES, *SPEC_TARGETS])
    def test_every_kind(self, case, compact):
        doc = _sample(case)
        text = serialize(doc, compact=compact)
        again = parse(text)
        assert again == doc
        assert serialize(again, compact=compact) == text
        payload = json.loads(text)["payload"]
        if case in SAMPLES:
            assert list(payload) == SAMPLES[case][1]
        else:
            ttype, name = SPEC_TARGETS[case]
            target = payload["target"]
            assert target["type"] == ttype
            assert target.get("kind", {}).get("name") == name

    def test_compact_round_trip(self):
        doc = catalogue_document(catalogue_entry("m2-qt"))
        assert parse(serialize(doc, compact=True)) == doc

    def test_bytes_input(self):
        doc = doc_from_tensor2(Tensor2.from_pairs(2, {(0, 1): F(1, 3)}))
        assert parse(serialize(doc).encode()) == doc

    def test_search_spec_round_trip(self, n2, id2, sgn):
        spec = SearchSpec(RBTarget(BraceRB(id2, sgn), commute_with=(sgn,)),
                          coefficients=(F(-1), F(0), F(1), F(1, 2)),
                          support=((0, 0), (1, 1)), budget=5000)
        ambient = catalogue_document(catalogue_entry("n2"))
        doc = Document("search-spec", {"spec": spec, "ambient": ambient})
        again = parse(serialize(doc))
        assert again.payload["spec"] == spec
        assert again.payload["ambient"] == ambient


class TestValidation:
    def _doc_obj(self, entry_id="n2"):
        return json.loads(serialize(catalogue_document(catalogue_entry(entry_id))))

    def test_lowest_terms_enforced_with_path(self):
        obj = self._doc_obj()
        obj["payload"]["mu"][0][0][1] = "2/4"
        with pytest.raises(DocumentError) as exc:
            parse(json.dumps(obj))
        assert exc.value.path == "/payload/mu/0/0/1"

    def test_wrong_inner_length_names_path(self):
        obj = self._doc_obj()
        obj["payload"]["mu"][1][0] = ["0"]
        with pytest.raises(DocumentError) as exc:
            parse(json.dumps(obj))
        assert exc.value.path == "/payload/mu/1/0"

    def test_unknown_field_rejected(self):
        obj = self._doc_obj()
        obj["payload"]["weight"] = "1"
        with pytest.raises(DocumentError) as exc:
            parse(json.dumps(obj))
        assert exc.value.path == "/payload/weight"

    # each case: (document, edits applied in order, path of the first error);
    # unknown fields are reported first, then dim, then fields in order
    @pytest.mark.parametrize("case, edits, path", [
        ("hom-coalgebra", [("/payload/delta", None)], "/payload/delta"),
        ("dendriform", [("/payload/beta", None), ("/payload/succ", None)],
         "/payload/succ"),
        ("inf-hom-bialgebra-r", [("/payload/alpha", None),
                                 ("/payload/dim", None)], "/payload/dim"),
        ("hom-lie", [("/payload/alpha", None), ("/payload/mu", "x")],
         "/payload/mu"),
        ("bihom-algebra", [("/payload/r", [])], "/payload/r"),
        ("hom-prelie", [("/payload/dim", 0)], "/payload/dim"),
        ("hom-prelie", [("/payload/dim", 0), ("/payload/unit", [])],
         "/payload/unit"),
        ("algebra-unit", [("/payload/unit", ["1"])], "/payload/unit"),
        ("inf-hom-bialgebra-r", [("/payload/r/1", ["0"])], "/payload/r/1"),
        ("paren", [("/payload/target/kind/tau", None)],
         "/payload/target/kind/tau"),
        ("paren", [("/payload/target/kind/n", 1)], "/payload/target/kind/n"),
        ("aybe", [("/payload/target/kind", {})], "/payload/target/kind"),
        ("tau-sigma", [("/payload/target/commute_with", [])],
         "/payload/target/commute_with"),
        ("brace", [("/payload/target/kind/name", "widget")],
         "/payload/target/kind/name"),
        ("tau-sigma", [("/payload/target/kind/name", "paren")],
         "/payload/target/kind/name"),
        ("alpha-beta", [("/payload/target/type", "widget")],
         "/payload/target/type"),
        ("alpha-power", [("/payload/target/kind/n", -1)],
         "/payload/target/kind/n"),
        ("lie-alpha-power", [("/payload/target/kind/n", -1)],
         "/payload/target/kind/n"),
        ("derivation-alpha-power", [("/payload/target/kind/k", -1)],
         "/payload/target/kind/k"),
        ("alpha-beta", [("/payload/target/commute_with/0/entries", [])],
         "/payload/target/commute_with/0/entries"),
    ])
    def test_error_path(self, case, edits, path):
        obj = json.loads(serialize(_sample(case)))
        for pointer, value in edits:
            _edit(obj, pointer, value)
        with pytest.raises(DocumentError) as exc:
            parse(json.dumps(obj))
        assert exc.value.path == path

    def test_missing_convention(self):
        obj = json.loads(serialize(doc_from_linear_map(LinearMap.identity(2))))
        del obj["payload"]["convention"]
        with pytest.raises(DocumentError) as exc:
            parse(json.dumps(obj))
        assert "convention" in exc.value.path

    def test_wrong_convention_value(self):
        obj = json.loads(serialize(doc_from_linear_map(LinearMap.identity(2))))
        obj["payload"]["convention"] = "rows-are-images"
        with pytest.raises(DocumentError):
            parse(json.dumps(obj))

    def test_bad_schema_version(self):
        obj = self._doc_obj()
        obj["schema_version"] = "2"
        with pytest.raises(DocumentError) as exc:
            parse(json.dumps(obj))
        assert exc.value.path == "/schema_version"

    def test_unknown_kind(self):
        obj = self._doc_obj()
        obj["kind"] = "widget"
        with pytest.raises(DocumentError):
            parse(json.dumps(obj))

    def test_malformed_json(self):
        with pytest.raises(DocumentError) as exc:
            parse("{not json")
        assert "malformed JSON" in str(exc.value)

    @pytest.mark.parametrize("text", ["[" * 100000, '{"dim": 1' + "0" * 5000 + "}"])
    def test_unreadable_json(self, text):
        with pytest.raises(DocumentError) as exc:
            parse(text)
        assert exc.value.path == "/"

    @pytest.mark.parametrize("name", [["paren"], {}])
    def test_unhashable_kind_name(self, name):
        obj = json.loads(serialize(_sample("paren")))
        obj["payload"]["target"]["kind"]["name"] = name
        with pytest.raises(DocumentError) as exc:
            parse(json.dumps(obj))
        assert exc.value.path == "/payload/target/kind/name"

    def test_aybe_needs_an_associative_ambient(self):
        obj = json.loads(serialize(_sample("lie-alpha-power")))
        obj["payload"]["target"] = {"type": "aybe"}
        with pytest.raises(DocumentError) as exc:
            parse(json.dumps(obj))
        assert exc.value.path == "/payload/target/type"

    def test_non_utf8(self):
        with pytest.raises(DocumentError):
            parse(b"\xff\xfe{}")

    def test_dim_mismatch_in_matrix(self):
        obj = json.loads(serialize(catalogue_document(catalogue_entry("m2-qt"))))
        obj["payload"]["alpha"]["entries"] = [["1", "0"], ["0", "1"]]
        with pytest.raises(DocumentError) as exc:
            parse(json.dumps(obj))
        assert exc.value.path.startswith("/payload/alpha")


class TestReportDocuments:
    def test_check_report_round_trip(self):
        from bihomcheck.serialize import doc_check_report
        from bihomcheck.structures import check_bihom_associative
        verdict = check_bihom_associative(catalogue_entry("na2").structure)
        doc = doc_check_report("bihom-assoc", verdict)
        assert parse(serialize(doc)) == doc

    def test_theorem_report_round_trip(self, m2):
        from bihomcheck.serialize import doc_theorem_report
        from bihomcheck.theorems import run_t9
        report = run_t9(m2, Tensor2.from_pairs(4, {(1, 1): 1}))
        doc = doc_theorem_report(report)
        assert parse(serialize(doc)) == doc


class TestConverters:
    def test_algebra_lifts_to_bihom(self):
        doc = catalogue_document(catalogue_entry("dx2"))
        a = to_bihom_algebra(doc)
        assert a.alpha.is_identity() and a.unit == (F(1), F(0))

    def test_kind_mismatch(self):
        doc = doc_from_tensor2(Tensor2.zero(2))
        with pytest.raises(DocumentError):
            to_linear_map(doc)
        with pytest.raises(DocumentError):
            to_bihom_algebra(doc)
        assert to_tensor2(doc) == Tensor2.zero(2)
