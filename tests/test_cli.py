import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bihomcheck.cli import main
from bihomcheck.discovery import catalogue_entry
from bihomcheck.serialize import (
    catalogue_document,
    dump_path,
    parse,
    serialize,
)


@pytest.fixture()
def export(tmp_path):
    def _export(entry_id, name=None):
        path = tmp_path / f"{name or entry_id}.json"
        dump_path(catalogue_document(catalogue_entry(entry_id)), str(path))
        return str(path)
    return _export


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCheck:
    def test_failing_check_prints_witness(self, capsys, export):
        code, out, _ = run(capsys, "check", "bihom-assoc", export("na2"))
        assert code == 1
        report = json.loads(out)
        assert report["payload"]["passed"] is False
        assert report["payload"]["witness"]["indices"] == [0, 0, 0]

    def test_passing_check(self, capsys, export):
        code, out, _ = run(capsys, "check", "bihom-assoc", export("m2"))
        assert code == 0
        assert json.loads(out)["payload"]["passed"] is True

    def test_aybe_check_two_files(self, capsys, export, tmp_path):
        from bihomcheck.exactlin import Tensor2
        from bihomcheck.serialize import doc_from_tensor2
        r = tmp_path / "r.json"
        dump_path(doc_from_tensor2(Tensor2.from_pairs(4, {(1, 1): 1})), str(r))
        code, out, _ = run(capsys, "check", "aybe", export("m2"), str(r))
        assert code == 0

    def test_inf_bialgebra_check(self, capsys, export):
        code, _, _ = run(capsys, "check", "inf-bialgebra", export("m2-qt"))
        assert code == 0

    def test_wrong_file_count(self, capsys, export):
        code, _, err = run(capsys, "check", "aybe", export("m2"))
        assert code == 2 and "error" in err

    def test_deeply_nested_json_exits_2(self, capsys, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000)
        code, out, err = run(capsys, "check", "bihom-assoc", str(deep))
        assert code == 2 and out == ""
        assert err.startswith("document error: /: ")

    def test_dimension_mismatch_exits_2(self, capsys, export, tmp_path):
        from bihomcheck.exactlin import Tensor2
        from bihomcheck.serialize import doc_from_tensor2
        r = tmp_path / "r2.json"
        dump_path(doc_from_tensor2(Tensor2.zero(2)), str(r))
        code, out, err = run(capsys, "check", "aybe", export("m2"), str(r))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "bihom-assoc", "no-such.json")
        assert code == 2

    def test_wrong_kind_names_the_file(self, capsys, export):
        m2 = export("m2")
        code, out, err = run(capsys, "check", "aybe", m2, m2)
        assert code == 2 and out == ""
        assert err.startswith("document error: /kind: expected tensor2, ")
        assert err.endswith(f" (file 2: {m2})\n")


class TestConstruct:
    def test_abrb_zero_solution(self, capsys, export, tmp_path):
        from bihomcheck.exactlin import Tensor2
        from bihomcheck.serialize import doc_from_tensor2
        r = tmp_path / "r0.json"
        dump_path(doc_from_tensor2(Tensor2.zero(2)), str(r))
        out_path = tmp_path / "R.json"
        code, _, _ = run(capsys, "construct", "abrb", export("dx2"), str(r),
                         "-o", str(out_path))
        assert code == 0
        doc = parse(out_path.read_text())
        assert doc.kind == "linear-map"
        assert all(x == 0 for row in doc.payload["map"].entries for x in row)

    def test_yau_twist(self, capsys, export, tmp_path):
        from bihomcheck.serialize import doc_from_linear_map
        neg = tmp_path / "neg.json"
        ident = tmp_path / "id.json"
        dump_path(doc_from_linear_map(catalogue_entry("neg_x").structure),
                  str(neg))
        dump_path(doc_from_linear_map(catalogue_entry("id2").structure),
                  str(ident))
        out_path = tmp_path / "twist.json"
        code, _, _ = run(capsys, "construct", "yau-twist", export("dx2"),
                         str(neg), str(ident), "-o", str(out_path))
        assert code == 0
        assert parse(out_path.read_text()).kind == "bihom-algebra"

    def test_precondition_exit_code(self, capsys, export, tmp_path):
        from bihomcheck.exactlin import LinearMap
        from bihomcheck.serialize import doc_from_linear_map
        zero = tmp_path / "zero.json"
        dump_path(doc_from_linear_map(LinearMap.zero(4, 4)), str(zero))
        out_path = tmp_path / "g.json"
        # matrix algebra is not commutative: gengd must refuse
        code, _, err = run(capsys, "construct", "gengd", export("m2"),
                           str(zero), "-o", str(out_path))
        assert code == 3
        assert "mu-commutative" in err

    def test_internal_inconsistency_exits_4(self, capsys, export, tmp_path,
                                            monkeypatch):
        from bihomcheck import cli
        from bihomcheck.constructions import InternalInconsistencyError

        def disagree(b):
            raise InternalInconsistencyError(
                "the two closed forms of the bullet product differ")

        monkeypatch.setattr(cli, "infprelie_bullet", disagree)
        out_path = tmp_path / "bullet.json"
        code, out, err = run(capsys, "construct", "bullet", export("m2-qt"),
                             "-o", str(out_path))
        assert code == 4 and out == "" and not out_path.exists()
        assert err == ("internal error: the two closed forms of the bullet "
                       "product differ\n")

    def test_bullet(self, capsys, export, tmp_path):
        out_path = tmp_path / "bullet.json"
        code, _, _ = run(capsys, "construct", "bullet", export("m2-qt"),
                         "-o", str(out_path))
        assert code == 0
        doc = parse(out_path.read_text())
        assert doc.kind == "hom-prelie"

    def test_moregendend_writes_three_files(self, capsys, export, tmp_path):
        from bihomcheck.exactlin import LinearMap
        from bihomcheck.serialize import doc_from_linear_map
        r = tmp_path / "rn2.json"
        dump_path(doc_from_linear_map(LinearMap.diagonal((0, 1))), str(r))
        prefix = tmp_path / "out"
        code, _, _ = run(capsys, "construct", "moregendend", export("n2"),
                         str(r), "-n", "1", "-o", str(prefix))
        assert code == 0
        for suffix in (".dendriform.json", ".sum.json", ".prelie.json"):
            assert (tmp_path / ("out" + suffix)).exists()


class TestSearch:
    @staticmethod
    def write_spec(tmp_path):
        ambient = catalogue_document(catalogue_entry("dx2"))
        spec_doc = {
            "schema_version": "1", "kind": "search-spec",
            "payload": {
                "ambient": json.loads(serialize(ambient)),
                "target": {"type": "aybe"},
                "coefficients": ["-1", "0", "1"],
                "dim_cap": 4,
            },
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec_doc))
        return spec_path

    def test_streams_solutions(self, capsys, tmp_path):
        spec_path = self.write_spec(tmp_path)
        code, out, _ = run(capsys, "search", str(spec_path))
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert len(lines) == 7
        assert all(doc["kind"] == "tensor2" for doc in lines)

    def test_aybe_on_hom_lie_exits_2(self, capsys, tmp_path):
        spec_path = self.write_spec(tmp_path)
        spec = json.loads(spec_path.read_text())
        # the two-dimensional Lie algebra [e0, e1] = e1
        spec["payload"]["ambient"] = {
            "schema_version": "1", "kind": "hom-lie",
            "payload": {"dim": 2,
                        "bracket": [[["0", "0"], ["0", "1"]],
                                    [["0", "-1"], ["0", "0"]]],
                        "alpha": {"convention": "columns-are-images",
                                  "entries": [["1", "0"], ["0", "1"]]}}}
        spec_path.write_text(json.dumps(spec))
        code, out, err = run(capsys, "search", str(spec_path))
        assert code == 2 and out == ""
        assert err.startswith("document error: /payload/target/type: ")

    @pytest.mark.parametrize("field, value", [
        ("support", [[1, 1], [1, 1]]), ("coefficients", ["0", "0", "1"])])
    def test_repeated_grid_entry_exits_2(self, capsys, tmp_path, field, value):
        spec_path = self.write_spec(tmp_path)
        spec = json.loads(spec_path.read_text())
        spec["payload"][field] = value
        spec_path.write_text(json.dumps(spec))
        code, out, err = run(capsys, "search", str(spec_path))
        assert code == 2 and out == ""
        assert err.startswith("document error: ") and "repeated" in err

    def test_fast_path_disagreement_exits_4(self, capsys, tmp_path, monkeypatch):
        import itertools

        from bihomcheck import kernels
        monkeypatch.setattr(kernels, "SMALL_SPACE", 0)
        # a prefilter that lets every one of the 3^4 candidates through
        monkeypatch.setattr(kernels, "fast_survivors", lambda problem: list(
            itertools.product(range(3), repeat=4)))
        spec_path = self.write_spec(tmp_path)
        code, out, err = run(capsys, "search", str(spec_path))
        assert code == 4 and out == ""
        assert err.startswith("internal error: ") and "kernel bug" in err
        assert "Traceback" not in err


class TestVerifyTheorem:
    @pytest.mark.parametrize("tid, entries", [
        ("T1", ["dx2"]), ("T11", ["m2-qt"]), ("T10", ["m2-qt", "m2-qt"]),
        ("T12", ["m2", "m2", "m2"])])
    def test_wrong_file_count(self, capsys, export, tid, entries):
        files = [export(e, f"{e}-{i}") for i, e in enumerate(entries)]
        code, out, err = run(capsys, "verify-theorem", tid, *files)
        assert code == 2 and out == ""
        assert err.startswith(f"error: theorem '{tid}' takes ")

    def test_t12_single_file(self, capsys, export):
        code, out, _ = run(capsys, "verify-theorem", "T12", export("m2-qt"))
        assert code == 0
        report = json.loads(out)
        checks = {c["name"]: c["passed"] for c in report["payload"]["checks"]}
        assert checks["conclusion:bullet-equals-circ"]

    def test_t12_negated_convention_also_passes(self, capsys, export):
        # the equation set is symmetric under r -> -r on this instance
        code, _, _ = run(capsys, "verify-theorem", "T12", export("m2-qt"),
                         "--negate-r")
        assert code == 0

    def test_all_catalogue_t10(self, capsys):
        code, out, _ = run(capsys, "verify-theorem", "T10", "--all-catalogue")
        assert code == 0
        assert len(out.splitlines()) == 3

    def test_hypothesis_failure_exit_3(self, capsys, export, tmp_path):
        from bihomcheck.exactlin import Tensor2
        from bihomcheck.serialize import doc_from_tensor2
        bad = tmp_path / "bad-r.json"
        dump_path(doc_from_tensor2(Tensor2.from_pairs(2, {(0, 0): 1})),
                  str(bad))
        code, out, _ = run(capsys, "verify-theorem", "T12", export("dx2"),
                           str(bad))
        assert code == 3
        report = json.loads(out)
        assert report["payload"]["passed"] is False

    def test_requires_files_or_flag(self, capsys):
        code, _, err = run(capsys, "verify-theorem", "T9")
        assert code == 2

    def test_all_catalogue_rejects_files(self, capsys, export):
        code, out, err = run(capsys, "verify-theorem", "T10", export("n2"),
                             "no-such.json", "--all-catalogue")
        assert code == 2 and out == ""
        assert err == "error: --all-catalogue takes no instance files\n"


class TestEtaFile:
    """A bad ``--eta`` file is named like a positional one."""

    @pytest.fixture()
    def files(self, export, tmp_path):
        from bihomcheck.exactlin import LinearMap
        from bihomcheck.serialize import doc_from_linear_map
        ident = tmp_path / "id2.json"
        dump_path(doc_from_linear_map(LinearMap.identity(2)), str(ident))
        return export("n2"), str(ident)

    def test_verify_theorem(self, capsys, files):
        n2, ident = files
        code, out, err = run(capsys, "verify-theorem", "T7", n2, ident, ident,
                             ident, "--eta", n2)
        assert code == 2 and out == ""
        assert err == ("document error: /kind: expected linear-map, got "
                       f"'algebra' (--eta: {n2})\n")

    def test_construct(self, capsys, files, tmp_path):
        n2, ident = files
        out_path = tmp_path / "split.json"
        code, out, err = run(capsys, "construct", "simprop", n2, ident, ident,
                             ident, "--eta", n2, "-o", str(out_path))
        assert code == 2 and out == "" and not out_path.exists()
        assert err == ("document error: /kind: expected linear-map, got "
                       f"'algebra' (--eta: {n2})\n")


class TestUnusedFlags:
    def test_recipe_rejects_flag_it_does_not_read(self, capsys, export,
                                                  tmp_path):
        from bihomcheck.exactlin import Tensor2
        from bihomcheck.serialize import doc_from_tensor2
        r = tmp_path / "r0.json"
        dump_path(doc_from_tensor2(Tensor2.zero(2)), str(r))
        out_path = tmp_path / "R.json"
        argv = ["construct", "abrb", export("dx2"), str(r), "-o", str(out_path)]
        code, out, err = run(capsys, *argv, "--negate-r")
        assert code == 2 and out == "" and not out_path.exists()
        assert err == "error: --negate-r does not apply to recipe 'abrb'\n"
        # a flag left at its default value is not "set"
        code, _, _ = run(capsys, *argv, "-n", "0")
        assert code == 0 and out_path.exists()

    def test_theorem_rejects_flag_it_does_not_read(self, capsys, export,
                                                   tmp_path):
        from bihomcheck.exactlin import LinearMap
        from bihomcheck.serialize import doc_from_linear_map
        ident = tmp_path / "id.json"
        dump_path(doc_from_linear_map(LinearMap.identity(2)), str(ident))
        code, out, err = run(capsys, "verify-theorem", "T3", export("n2"),
                             str(ident), str(ident), str(ident),
                             "--eta", str(ident))
        assert code == 2 and out == ""
        assert err == "error: --eta does not apply to theorem 'T3'\n"


class TestExponents:
    """-n and -k take a nonnegative int; anything else is a usage error."""

    @pytest.fixture()
    def files(self, export, tmp_path):
        from bihomcheck.exactlin import BilinearOp, LinearMap
        from bihomcheck.serialize import doc_from_bundle, doc_from_linear_map
        from bihomcheck.structures import HomLie
        lie = tmp_path / "lie.json"
        dump_path(doc_from_bundle(HomLie(BilinearOp.zero(2),
                                         LinearMap.identity(2))), str(lie))
        return {"dx2": export("dx2"), "neg_x": export("neg_x"),
                "lie": str(lie)}

    @pytest.mark.parametrize("argv", [
        ["construct", "moregendend", "dx2", "neg_x", "-n", "-1"],
        ["construct", "analoglie", "lie", "neg_x", "-n", "-1"],
        ["construct", "gengd", "dx2", "neg_x", "-k", "-2"],
        ["construct", "gengd", "dx2", "neg_x", "-k", "two"],
        ["verify-theorem", "T8", "lie", "neg_x", "-n", "-1"],
    ])
    def test_negative_exponent_is_a_usage_error(self, capsys, files,
                                                tmp_path, argv):
        argv = [files.get(a, a) for a in argv]
        if argv[0] == "construct":
            argv += ["-o", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "must be a nonnegative integer" in err
        assert not list(tmp_path.glob("out*"))

    def test_zero_exponent_is_accepted(self, capsys, files, tmp_path):
        code, _, _ = run(capsys, "construct", "gengd", files["dx2"],
                         files["neg_x"], "-k", "0",
                         "-o", str(tmp_path / "out.json"))
        assert code == 3  # neg_x is not a derivation: a hypothesis failure


class TestCatalogueCommand:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "catalogue", "list")
        assert code == 0
        assert "na2" in out and "negative-control" in out

    def test_list_does_not_import_numpy(self):
        # numpy is the largest part of start-up; only a search needs it
        script = ("import contextlib, io, sys\n"
                  "from bihomcheck.cli import main\n"
                  "with contextlib.redirect_stdout(io.StringIO()):\n"
                  "    assert main(['catalogue', 'list']) == 0\n"
                  "assert 'numpy' not in sys.modules, 'numpy was imported'\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    def test_export_round_trip(self, capsys, tmp_path):
        path = tmp_path / "n2.json"
        code, _, _ = run(capsys, "catalogue", "export", "n2", "-o", str(path))
        assert code == 0
        assert parse(path.read_text()).kind == "algebra"

    def test_export_unknown(self, capsys):
        code, _, err = run(capsys, "catalogue", "export", "zzz")
        assert code == 2
