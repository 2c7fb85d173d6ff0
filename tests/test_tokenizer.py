"""The one tokenizer (``citygml2objv2_ray.text``): each form equals the
DuckDB expression it mirrors, string by string; every text twin stays
equal to DuckDB on a corpus with non-ASCII whitespace and case edges and
null texts; and a lint keeps the package from growing a second tokenizer."""

from __future__ import annotations

import ast
import random
import re
import shutil
import unicodedata
from pathlib import Path

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import reference_oracle as ro
from test_oracle import SF, compare, duck, registry  # noqa: F401

from citygml2objv2_ray import dedup as dd
from citygml2objv2_ray import text as tx

PACKAGE = Path(__file__).resolve().parents[1] / "citygml2objv2_ray"

# text edges where Python's str.split/strip/lower and DuckDB disagree:
# NBSP, U+001C, \v, U+2028 and U+3000 are whitespace to Python but not to
# RE2's \s (U+3000 and NBSP are Zs, so trim strips them); tab and newline
# are \s but not Zs; İ lowers to "i̇" in Python, "i" in utf8proc
EDGES = [
    "\u00a0", "\x1c", "\x0b", "\u2028", "\u3000a\u3000", "\ta\t", "\n", "İ", "ẞ",
    "", " ", "\t", "  \t\n\r\f  ", "a  b", " a b ", "\ta b\t", "\u00a0a b\u00a0",
    "A\u00a0B", "x\u3000y", "it's a dog's life 123!!", "  !", " \u00a0!", "don't 've",
    "ÀÉÎ õü ×÷ ÿ", "İstanbul STRAẞE", "a\x1cb c", "\x0bfoo bar\x0b",
]
ZS = [chr(c) for c in range(0x3100) if unicodedata.category(chr(c)) == "Zs"]
EDGES += ZS + [z + "a" + z for z in ZS] + ["a" + z + " b" for z in ZS] + [" " + z + "!" for z in ZS]


def _fuzz(n: int, seed: int = 1) -> list[str]:
    rng = random.Random(seed)
    alpha = list("ab AZ9'!.\t\n\r\f\x0b\x1c\x85\u2028") + ZS + ["İ", "ẞ", "é", "ÿ", "×"]
    return ["".join(rng.choice(alpha) for _ in range(rng.randint(0, 12))) for _ in range(n)]


FORMS = {
    "W": (
        lambda t: tx.words(t).to_pylist(),
        "list_filter(regexp_split_to_array(lower(text), '\\s+'), x -> x <> '')",
    ),
    "C": (
        lambda t: tx.token_count(t).to_pylist(),
        "CASE WHEN trim(text) = '' THEN 0 ELSE "
        "array_length(regexp_split_to_array(trim(text), '\\s+')) END",
    ),
    "N": (
        lambda t: tx.normalize(t).to_pylist(),
        "regexp_replace(lower(trim(text)), '\\s+', ' ', 'g')",
    ),
    "S": (
        lambda t: tx.space_terms(t).to_pylist(),
        "CASE WHEN trim(text) <> '' THEN string_split(trim(text), ' ') END",
    ),
    "L": (
        lambda t: tx.letter_words(t).to_pylist(),
        "list_transform(regexp_extract_all(text, '[a-zA-ZÀ-ÿ]+'), w -> lower(w))",
    ),
    "bpe": (
        lambda t: tx.bpe_token_count(t).to_pylist(),
        "len(list_filter(regexp_extract_all(text, '"
        + tx.BPE_PATTERN_SQL.replace("'", "''")
        + "'), t -> trim(t) <> ''))",
    ),
}


@pytest.mark.parametrize("form", sorted(FORMS))
def test_form_equals_its_duckdb_expression(form):
    """On the edges, every Zs code point, '', whitespace-only, null and a
    seeded fuzz over those characters; every form is null on a null text,
    as in SQL."""
    texts = EDGES + _fuzz(500) + [None]
    fn, sql = FORMS[form]
    tab = pa.table({"i": pa.array(range(len(texts))), "text": pa.array(texts, pa.string())})
    con = duckdb.connect()
    con.register("t", tab)
    want = con.execute(f"SELECT {sql} AS v FROM t ORDER BY i").arrow()["v"].to_pylist()
    got = fn(tab["text"])
    bad = [(texts[i], got[i], want[i]) for i in range(len(texts)) if got[i] != want[i]]
    assert not bad, bad[:10]


def test_batch_kernels_equal_per_doc_references():
    """The char shingles, word 3-gram ids and SimHash of one batch equal
    the per-doc references of ``reference_oracle`` on the edges, the fuzz,
    texts of 0 to 40 words, '' and null (null reads as ''). Texts whose
    Python lowercase differs from utf8proc's (İ) are left out: the
    references lower with ``str.lower``."""
    rng = random.Random(2)
    vocab = ["alpha", "beta", "gamma", "d"]
    texts = EDGES + _fuzz(300) + [" ".join(rng.choices(vocab, k=rng.randint(0, 40))) for _ in range(60)]
    texts = [t for t in texts if t.lower() == pc.utf8_lower(pa.scalar(t)).as_py()]
    refs = texts + [""]
    texts = texts + [None]
    for batch_fn, ref in (
        (dd.char_shingles_batch, ro.char_shingles),
        (dd.word_ngram_ids_batch, ro.word_ngram_ids),
    ):
        got = batch_fn(texts)
        assert len(got) == len(refs)
        for t, g in zip(refs, got):
            w = ref(t)
            assert g.dtype == np.uint64 and np.array_equal(g, w), (batch_fn.__name__, t)
    assert np.array_equal(dd.simhash64_batch(texts), [ro.simhash64(t) for t in refs])


def test_batch_kernels_on_batches_without_grams():
    """A batch with no 3-word text (a short trailing batch) gives one empty
    gram-id array per row, and an empty batch gives none."""
    got = dd.word_ngram_ids_batch(["a b", "", None])
    assert len(got) == 3 and all(g.dtype == np.uint64 and not len(g) for g in got)
    assert dd.word_ngram_ids_batch([]) == [] and dd.char_shingles_batch([]) == []
    assert len(dd.simhash64_batch([])) == 0


# doc_id -> (prefix, suffix): the edges above on docs of the sf0.001
# near-dup pairs, on a benchmark doc of q_decontaminate (0), on docs that
# start with a heavy-hitter word and on docs q_corpus_prep keeps (16)
EDGE_DOCS = {
    0: ("\u00a0", ""),
    5: ("\x1c", ""),
    8: ("\x0b", ""),
    16: ("\t", "\t"),
    26: ("\u3000", "\u3000"),
    33: ("\u2028", ""),
    45: ("\n", ""),
    82: ("İ", ""),
    120: ("ẞ", ""),
}
# null texts: a plain doc, the near-dup partner of doc 0, a benchmark doc of
# q_decontaminate and a member of the 8-12-120-360 near-dup cluster
NULL_DOCS = {3, 50, 199, 360}


@pytest.fixture(scope="module")
def edge_sf(tmp_path_factory) -> str:
    out = tmp_path_factory.mktemp("edge") / "sf"
    shutil.copytree(SF, out)
    docs = pq.read_table(out / "documents.parquet")
    text = docs["text"].to_pylist()
    for i, d in enumerate(docs["doc_id"].to_pylist()):
        if d in EDGE_DOCS:
            pre, post = EDGE_DOCS[d]
            text[i] = pre + text[i] + post
        elif d in NULL_DOCS:
            text[i] = None
    col = docs.schema.get_field_index("text")
    pq.write_table(docs.set_column(col, "text", pa.array(text, pa.string())), out / "documents.parquet")
    return str(out)


def test_text_twins_match_duckdb_on_edge_corpus(registry, edge_sf):  # noqa: F811
    reg, oracle = registry
    names = sorted(n for n, sql in oracle.items() if re.search(r"\btext\b", sql))
    assert len(names) >= 16, names
    con = duck(edge_sf)
    failures = []
    for name in names:
        try:
            compare(reg[name](edge_sf), con.execute(oracle[name]).df(), name)
        except AssertionError as e:
            failures.append(str(e).splitlines()[0])
    assert not failures, f"{len(failures)} of {len(names)} text twins differ: {failures}"


def _second_tokenizers(tree: ast.AST):
    """Lines that tokenize text outside ``text.py``: a pandas
    ``.str.lower/split/strip(``, a ``.lower().split(`` chain, or a Python
    ``re`` call whose pattern contains ``\\s``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            continue
        f = node.func
        if f.attr in ("lower", "split", "strip") and isinstance(f.value, ast.Attribute) and f.value.attr == "str":
            yield node.lineno, f".str.{f.attr}("
        elif (
            f.attr == "split"
            and isinstance(f.value, ast.Call)
            and isinstance(f.value.func, ast.Attribute)
            and f.value.func.attr == "lower"
        ):
            yield node.lineno, ".lower().split("
        elif (
            isinstance(f.value, ast.Name)
            and f.value.id == "re"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and "\\s" in str(node.args[0].value)
        ):
            yield node.lineno, f"re.{f.attr}(\\s)"


def test_text_py_is_the_only_tokenizer():
    found = [
        f"{p.relative_to(PACKAGE)}:{line} {what}"
        for p in sorted(PACKAGE.rglob("*.py"))
        if p.name != "text.py" or p.parent != PACKAGE
        for line, what in _second_tokenizers(ast.parse(p.read_text(), str(p)))
    ]
    assert not found, found


def test_lint_sees_each_pattern():
    src = (
        "import re\n"
        "a = df.text.str.lower()\n"
        "b = s.lower().split()\n"
        "c = re.compile(r'\\s+')\n"
        "d = el.text.split()\n"  # coordinate parsing: not a tokenizer
    )
    assert sorted(line for line, _ in _second_tokenizers(ast.parse(src))) == [2, 3, 4]
