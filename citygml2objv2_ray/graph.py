"""Distributed connected components over sparse pair graphs — the
"duplicate clusters" primitive a 100-TB dedup pipeline needs on top of
near-dup PAIRS (MinHash / n-gram / phash all emit pairs; keeping one doc
per transitive cluster needs components).

Algorithm: hash-to-min label propagation (Rastogi et al., "Finding
Connected Components in Map-Reduce in Logarithmic Rounds", ICDE 2013 —
public literature), expressed Ray-Data-first. State is an edge-set
dataset of ``(key, member)`` rows meaning ``member ∈ C(key)``; one round
is ONE ``ops.shuffle_groups`` call keyed on ``key`` (coarse hash
super-groups, never one Ray group per real key) with the per-round set
algebra fully vectorized inside each group:

    m(v)  = min(C(v) ∪ {v})
    emit  (x, m(v)) for every x ∈ C(v) ∪ {v}   -- send the min to all
    emit  (m(v), x) for every x ∈ C(v) ∪ {v}   -- send the set to the min

Convergence in O(log n) rounds; at the fixpoint every non-minimum node
holds exactly ``{component_min}`` and the minimum holds its component.
Termination is detected with an ORDER-INSENSITIVE signature (row count +
sum of mixed pair hashes mod 2^61-1) computed as a per-block partial
reduce — the driver holds one tiny row per block per round, never edges.

Per-(key, member) global dedup needs no extra shuffle: ``key`` fully
determines the super-group, so all copies of a pair meet in the same
group and are dropped by the in-group ``drop_duplicates`` at the start
of the next round.

Partitioning assumption (documented per the engine's custom-operator
rule): at convergence the component minimum's group holds that
component's full member list — fine for dedup graphs whose components
are bounded duplicate clusters; a giant component (web-graph-shaped
input) would need the large-star/small-star variant instead.
"""

from __future__ import annotations

import warnings

import numpy as np
import pandas as pd

import ray.data as rd

from . import dedup as dd
from .ops import shuffle_groups

_MERS = (1 << 61) - 1
_GOLD = np.uint64(0x9E3779B97F4A7C15)


def _per_key_min(keys: np.ndarray, members: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sort rows by key and reduce: returns (sorted keys, sorted members,
    per-row min-of-its-key's-set, run starts). The key itself joins its
    own set, so the min is ``min(members_of_key ∪ {key})``."""
    order = np.argsort(keys, kind="stable")
    k, m = keys[order], members[order]
    starts = np.flatnonzero(np.concatenate([[True], k[1:] != k[:-1]]))
    runs = np.diff(np.concatenate([starts, [len(k)]]))
    mins = np.minimum(np.minimum.reduceat(m, starts), k[starts])
    return k, m, np.repeat(mins, runs), starts


def _round_step(g: pd.DataFrame) -> pd.DataFrame:
    g = g.drop_duplicates(["key", "member"])
    keys = g.key.to_numpy().astype(np.int64)
    members = g.member.to_numpy().astype(np.int64)
    k, m, mk, starts = _per_key_min(keys, members)
    uk, umin = k[starts], mk[starts]
    # x ranges over C(key) ∪ {key}: the member rows plus one self row/key
    xs = np.concatenate([m, uk])
    mins = np.concatenate([mk, umin])
    return pd.DataFrame(
        {
            "key": np.concatenate([xs, mins]),
            "member": np.concatenate([mins, xs]),
        }
    ).drop_duplicates()


def _signature(edges: rd.Dataset) -> tuple[int, int]:
    """Order/partitioning-insensitive (count, checksum mod 2^61-1) of the
    (key, member) multiset: per-block partial sums, tiny driver merge."""

    def part(df: pd.DataFrame) -> pd.DataFrame:
        h = dd.splitmix64(
            df.key.to_numpy().astype(np.uint64) * _GOLD
            ^ dd.splitmix64(df.member.to_numpy().astype(np.uint64))
        )
        chk = int(sum(int(x) for x in h) % _MERS)
        return pd.DataFrame({"chk": [chk], "cnt": [len(df)]})

    parts = edges.map_batches(part, batch_format="pandas").to_pandas()
    if "chk" not in parts.columns:  # empty input: the UDF never ran
        return 0, 0
    return int(parts.chk.astype(object).sum() % _MERS), int(parts.cnt.sum())


def connected_components(
    pairs: rd.Dataset, n_hint: int, max_rounds: int = 30, stats_out: dict | None = None
) -> rd.Dataset:
    """Hash-to-min connected components of the undirected graph given as
    a dataset with int64 ``doc_a``/``doc_b`` columns (one row per edge;
    extra columns ignored). Returns a dataset of ``(doc_id,
    component_id)`` for every node appearing in an edge, where
    ``component_id`` is the component's minimum node id. ``n_hint``
    (approximate corpus rows) sizes the super-group shuffle fan-out."""

    def symmetrize(df: pd.DataFrame) -> pd.DataFrame:
        a = df.doc_a.to_numpy().astype(np.int64)
        b = df.doc_b.to_numpy().astype(np.int64)
        return pd.DataFrame({"key": np.concatenate([a, b]), "member": np.concatenate([b, a])})

    edges = pairs.map_batches(symmetrize, batch_format="pandas").materialize()
    prev = None
    rounds = 0
    for _ in range(max_rounds):
        edges = shuffle_groups("connected_components", [edges], ["key"], _round_step, n_hint).materialize()
        rounds += 1
        sig = _signature(edges)
        if sig == prev:
            break
        prev = sig
    else:  # pragma: no cover - O(log n) rounds in practice
        warnings.warn(f"connected_components: no fixpoint in {max_rounds} rounds")
    if stats_out is not None:
        stats_out["rounds"] = rounds

    def label_group(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["key", "member"])
        k, _, mk, starts = _per_key_min(
            g.key.to_numpy().astype(np.int64), g.member.to_numpy().astype(np.int64)
        )
        return pd.DataFrame({"doc_id": k[starts], "component_id": mk[starts]})

    return shuffle_groups("connected_components.label", [edges], ["key"], label_group, n_hint)
