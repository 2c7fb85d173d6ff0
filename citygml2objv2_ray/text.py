"""Text-analysis operators over the ``documents`` table (build brief:
language-ID, quality scoring, token counting, document fingerprinting) —
and the package's ONE tokenizer.

What counts as a word is decided here and nowhere else. Each form below is
an Arrow compute expression that mirrors one SQL expression of the DuckDB
twins, built on the same libraries DuckDB uses, so the twins stay bit-equal
on any text, not just ASCII:

- ``utf8_lower`` is utf8proc, like DuckDB's ``lower`` (they differ only on
  the 43 code points Unicode 14+ gave a lowercase, e.g. U+2C2F, U+A7C0 —
  Arrow 16.1 and DuckDB 1.0 bundle different utf8proc tables);
- the regex kernels run RE2, like DuckDB's ``regexp_*``: ``\\s`` is
  ``[\\t\\n\\f\\r ]`` (not NBSP, ``\\v`` or U+2028 as in Python's ``re``);
- ``trim`` strips exactly the 17 Unicode ``Zs`` code points (``ZS``): not
  tab or newline, as ``str.strip`` does.

The forms (W, C, N, S, L) take any column (Arrow, pandas, numpy, list) and
propagate nulls as SQL does; list forms are flattened with ``flat`` into
tokens + each token's row, so kernels never loop over rows in Python.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# small per-language stopword lists for the n-gram/stopword language heuristic
STOPWORDS: dict[str, frozenset[str]] = {
    "en": frozenset("the and of to a in is it you that was for on are with".split()),
    "de": frozenset("der die und das ist nicht ein ich sie mit auf für von zu den".split()),
    "fr": frozenset("le la et les des en un une du est que pour dans ce il".split()),
    "es": frozenset("el la de que y en un una es los del se las por con".split()),
}

# the 17 Unicode Zs code points: what DuckDB's trim() strips
ZS = "".join(
    map(chr, [0x20, 0xA0, 0x1680, *range(0x2000, 0x200B), 0x202F, 0x205F, 0x3000])
)
_LETTER = "a-zA-ZÀ-ÿ"
_PUNCT_RE = r"[.,!?]"


def as_text(texts) -> pa.Array:
    """One contiguous ``large_string`` Arrow array of a batch column."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    if not isinstance(texts, pa.Array):
        texts = pa.array(texts, pa.large_string(), from_pandas=True)
    return texts.cast(pa.large_string())


def flat(lists: pa.Array) -> tuple[pa.Array, np.ndarray]:
    """A list column → (its values, each value's row index)."""
    return pc.list_flatten(lists), pc.list_parent_indices(lists).to_numpy()


def _nonempty(lists: pa.Array, fn=None) -> pa.Array:
    """``list_filter(lists, x -> x <> '')``, then ``fn`` over the values."""
    vals = pc.list_flatten(lists)
    keep = pc.binary_length(vals).to_numpy() > 0
    kept = np.concatenate([[0], np.cumsum(keep)])
    lens = pc.list_value_length(lists).fill_null(0).to_numpy()
    offs = kept[np.concatenate([[0], np.cumsum(lens)])]
    vals = vals.filter(pa.array(keep))
    return pa.ListArray.from_arrays(
        pa.array(offs, pa.int32()), fn(vals) if fn else vals, mask=lists.is_null()
    )


def words(texts) -> pa.Array:
    """W: ``list_filter(regexp_split_to_array(lower(text), '\\s+'), x -> x <> '')``.
    The empty pieces are dropped, so splitting on each ``\\s`` character
    gives the same words as splitting on runs of them, and Arrow's literal
    split is cheaper than its RE2 split."""
    low = pc.utf8_lower(as_text(texts))
    return _nonempty(pc.split_pattern(pc.replace_substring_regex(low, r"[\t\n\f\r]", " "), " "))


def token_count(texts) -> pa.Array:
    """C: ``CASE WHEN trim(text) = '' THEN 0 ELSE
    array_length(regexp_split_to_array(trim(text), '\\s+')) END`` (int64,
    null where the text is null)."""
    t = pc.utf8_trim(as_text(texts), ZS)
    n = pc.add(pc.count_substring_regex(t, r"\s+"), 1)  # pieces = separators + 1
    return pc.if_else(pc.equal(t, ""), 0, n).cast(pa.int64())


def normalize(texts) -> pa.Array:
    """N: ``regexp_replace(lower(trim(text)), '\\s+', ' ', 'g')``."""
    return pc.replace_substring_regex(
        pc.utf8_lower(pc.utf8_trim(as_text(texts), ZS)), r"\s+", " "
    )


def space_terms(texts) -> pa.Array:
    """S: ``string_split(trim(text), ' ')``, null where ``trim(text) = ''``."""
    t = pc.utf8_trim(as_text(texts), ZS)
    return pc.split_pattern(pc.if_else(pc.equal(t, ""), pa.scalar(None, t.type), t), " ")


def letter_words(texts) -> pa.Array:
    """L: ``list_transform(regexp_extract_all(text, '[a-zA-ZÀ-ÿ]+'), w ->
    lower(w))`` — the matches are the non-empty pieces left when every run
    of non-letters becomes one space."""
    sep = pc.replace_substring_regex(as_text(texts), f"[^{_LETTER}]+", " ")
    return _nonempty(pc.split_pattern(sep, " "), pc.utf8_lower)


# BPE-ish pre-tokenizer (GPT-2 shaped, lookahead-free for RE2): contraction
# suffixes, space-prefixed letter runs, digit runs, punctuation runs,
# whitespace runs
BPE_PATTERN_SQL = rf"'(?:s|t|re|ve|m|ll|d)| ?[{_LETTER}]+| ?[0-9]+| ?[^\s{_LETTER}0-9]+|\s+"
# the same pattern for Python's re, with RE2's \s spelled out
_BPE_RE = re.compile(BPE_PATTERN_SQL.replace(r"[^\s", r"[^\t\n\f\r ").replace(r"\s", r"[\t\n\f\r ]"))


def bpe_token_count(texts) -> pa.Array:
    """``len(list_filter(regexp_extract_all(text, BPE_PATTERN_SQL), t ->
    trim(t) <> ''))`` (int64, null where the text is null)."""
    return pa.array(
        [
            None if t is None else sum(1 for m in _BPE_RE.findall(t) if m.strip(ZS))
            for t in as_text(texts).to_pylist()
        ],
        pa.int64(),
    )


def punct_stats(texts) -> tuple[pa.Array, pa.Array]:
    """(n_chars, n_punct): ``length(text)`` and the count of sentence
    punctuation [.,!?] (int64, null where the text is null)."""
    t = as_text(texts)
    return pc.utf8_length(t), pc.count_substring_regex(t, _PUNCT_RE)


def stopword_counts(lists: pa.Array) -> np.ndarray:
    """(rows, languages) count of each row's words in each language's
    stopword list, languages in ``STOPWORDS`` order."""
    vals, row = flat(lists)
    enc = pc.dictionary_encode(vals)
    codes = enc.indices.to_numpy()
    out = np.zeros((len(lists), len(STOPWORDS)), dtype=np.int64)
    for j, ws in enumerate(STOPWORDS.values()):
        hit = pc.is_in(enc.dictionary, pa.array(sorted(ws))).to_numpy(zero_copy_only=False)
        out[:, j] = np.bincount(row[hit[codes]], minlength=len(lists))
    return out


class TextScorer:
    """Language ID + token count + fingerprint of a document batch (the
    ``q_langid`` stage): the language is the first of en/de/fr/es with the
    highest stopword share of the L words, ``unknown`` at <= 0.03."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        text = batch["text"]
        lw = letter_words(text)
        nw = pc.list_value_length(lw).fill_null(0).to_numpy()
        score = stopword_counts(lw) / np.maximum(nw, 1)[:, None]
        best = score.argmax(axis=1)
        langs = np.array(list(STOPWORDS), dtype=object)
        pred = np.where((nw == 0) | (score.max(axis=1) <= 0.03), "unknown", langs[best])
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "lang_pred": pa.array(pred, pa.string()),
                "n_tokens": token_count(text),
                "fingerprint": fingerprint64(text),
            }
        )


def fingerprint64(texts) -> pa.Array:
    """Deterministic 64-bit document fingerprint: the first 8 bytes of the
    md5 of N (signed big-endian) — stable across engines/runs, NOT Python's
    salted hash, so the DuckDB oracle can recompute it. Null where the
    text is null."""
    norm = normalize(texts).cast(pa.large_binary())
    return pa.array(
        [
            None if b is None else int.from_bytes(hashlib.md5(b).digest()[:8], "big", signed=True)
            for b in norm.to_pylist()
        ],
        pa.int64(),
    )


def md5_hex(texts) -> list[str | None]:
    """md5 of the raw text — matches DuckDB's ``md5(text)`` exactly (the
    exact-dedup key); None where the text is null."""
    return [None if t is None else hashlib.md5(t.encode()).hexdigest() for t in as_text(texts).to_pylist()]
