"""Robustness properties: bad input ends in a documented outcome, never a
traceback.

* ``parse`` on a mutated document either returns a ``Document`` or raises
  ``DocumentError``.
* ``cli.main`` on an argv drawn from the parser's own choices and a fixed
  set of written documents returns an exit code in 0..3.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bihomcheck import cli
from bihomcheck.discovery import catalogue
from bihomcheck.exactlin import LinearMap, Tensor2
from bihomcheck.serialize import (
    DocumentError,
    catalogue_document,
    doc_from_linear_map,
    doc_from_tensor2,
    dump_path,
    parse,
    serialize,
)

FUZZ = settings(deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])

# ---------------------------------------------------------------------------
# parse on mutated documents
# ---------------------------------------------------------------------------

SEEDS = [json.loads(serialize(catalogue_document(e))) for e in catalogue()] + [
    json.loads(serialize(doc_from_tensor2(Tensor2.from_pairs(2, {(0, 1): 1})))),
]

leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3),
    st.sampled_from(["0", "1", "-1", "1/2", "2/4", "x", "", "algebra",
                     "columns-are-images", "tensor2", "rows-are-images"]),
    st.builds(list), st.builds(dict), st.builds(lambda: [["0"]]))


def _containers(obj, path=()):
    """Every (path, container) of a JSON tree, the root included."""
    if isinstance(obj, (dict, list)):
        yield path, obj
        items = obj.items() if isinstance(obj, dict) else enumerate(obj)
        for key, child in items:
            yield from _containers(child, path + (key,))


@st.composite
def mutated(draw):
    obj = copy.deepcopy(draw(st.sampled_from(SEEDS)))
    for _ in range(draw(st.integers(1, 3))):
        containers = list(_containers(obj))
        _, node = draw(st.sampled_from(containers))
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        action = draw(st.sampled_from(("replace", "delete", "add")))
        if action == "add" or not keys:
            if isinstance(node, dict):
                node[draw(st.sampled_from(("extra", "dim", "r", "unit")))] = (
                    draw(leaves))
            else:
                node.insert(draw(st.integers(0, len(node))), draw(leaves))
            continue
        key = draw(st.sampled_from(keys))
        if action == "delete":
            del node[key]
        else:
            node[key] = draw(leaves)
    return json.dumps(obj)


@settings(FUZZ, max_examples=600)
@given(mutated())
def test_parse_raises_only_document_error(text):
    try:
        parse(text)
    except DocumentError:
        pass


# ---------------------------------------------------------------------------
# cli.main on argv over the parser's choices
# ---------------------------------------------------------------------------

def _choices():
    """{subcommand: (names, optional flags)} read from ``build_parser()``."""
    parser = cli.build_parser()
    subs = next(a for a in parser._actions if a.choices and a.dest == "command")
    out = {}
    for command in ("check", "construct", "verify-theorem"):
        sub = subs.choices[command]
        names = next(a.choices for a in sub._actions
                     if a.choices and a.dest != "help")
        flags = [a.option_strings[0] for a in sub._actions if a.option_strings
                 and a.dest not in ("help", "output", "all_catalogue")]
        out[command] = (sorted(names), flags)
    return out


CHOICES = _choices()


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    root = tmp_path_factory.mktemp("robustness")
    docs = {e.id: catalogue_document(e) for e in catalogue()}
    docs.update({
        "r0-2": doc_from_tensor2(Tensor2.zero(2)),
        "r1-2": doc_from_tensor2(Tensor2.from_pairs(2, {(0, 0): 1})),
        "r12-4": doc_from_tensor2(Tensor2.from_pairs(4, {(1, 1): 1})),
        "p01": doc_from_linear_map(LinearMap.diagonal((0, 1))),
        "zero4x2": doc_from_linear_map(LinearMap.zero(4, 2)),
    })
    paths = []
    for name, doc in docs.items():
        dump_path(doc, str(root / f"{name}.json"))
        paths.append(str(root / f"{name}.json"))
    (root / "bad.json").write_text('{"kind": ')
    paths += [str(root / "bad.json"), str(root / "missing.json")]
    return root, sorted(paths)


# file lists of matching dimensions, so that many commands get past their
# file checks: (algebra | bialgebra) followed by maps or one tensor
SHAPED = {
    2: {"a": ("n2", "na2", "dx2", "dx2-infbialg"), "b": ("dx2-infbialg",),
        "m": ("id2", "sgn", "neg_x", "p01"), "r": ("r0-2", "r1-2")},
    4: {"a": ("m2", "m2-qt"), "b": ("m2-qt",), "m": ("id4", "conj_d"),
        "r": ("r12-4",)},
}
SHAPES = ("a", "ar", "am", "amm", "ammm", "b", "bm")


@st.composite
def argvs(draw, root, paths):
    command = draw(st.sampled_from(sorted(CHOICES)))
    names, flags = CHOICES[command]
    minimum = 0 if command == "verify-theorem" else 1
    if draw(st.booleans()):
        files = draw(st.lists(st.sampled_from(paths), min_size=minimum,
                              max_size=4))
    else:
        pool = SHAPED[draw(st.sampled_from((2, 4)))]
        files = [str(root / f"{draw(st.sampled_from(pool[k]))}.json")
                 for k in draw(st.sampled_from(SHAPES))]
    argv = [command, draw(st.sampled_from(names)), *files]
    chosen = st.lists(st.sampled_from(flags), max_size=2, unique=True)
    for flag in draw(chosen) if flags else ():
        if flag == "--eta":
            argv += [flag, draw(st.sampled_from(paths))]
        elif flag in ("-n", "-k"):
            argv += [flag, str(draw(st.integers(0, 2)))]
        else:
            argv.append(flag)
    if command == "construct":
        argv += ["-o", str(root / "out.json")]
    return argv


@settings(FUZZ, max_examples=200)
@given(data=st.data())
def test_cli_exits_with_a_documented_code(documents, data):
    root, paths = documents
    argv = data.draw(argvs(root, paths))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3), argv
