"""Direct unit tests for the scale-hygiene operators in ops.py, and the
lints that keep ``ops.supergroup_agg`` the only grouped aggregate,
``ops.shuffle_groups`` the only super-group shuffle and partitioned join,
``ops.topk`` the only hand-rolled top-k, and the near-dup verify free of a
row-count gate."""

from __future__ import annotations

import ast
import logging
import re
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

import ray.data as rd

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture()
def events_ds(ray_session, sf_dir):
    return rd.read_parquet(f"{sf_dir}/events.parquet")


def decisions(caplog) -> list[tuple[str, str, int, int, int]]:
    """(site, branch, partial rows, partial bytes, cap) of every gather
    decision logged since the last ``caplog.clear()``."""
    pat = re.compile(r"(\S+): (gather|shuffle), (\d+) partial rows, (\d+) partial bytes, cap (\d+)")
    return [
        (m[1], m[2], int(m[3]), int(m[4]), int(m[5]))
        for r in caplog.records
        if r.name == "citygml2objv2_ray.ops" and (m := pat.fullmatch(r.getMessage()))
    ]


def shuffles(caplog) -> list[tuple[str, int, str, int, str, bool]]:
    """(site, sides, rows, fan-out, plan blocks, coalesced) of every
    ``shuffle_groups`` call logged since the last ``caplog.clear()``."""
    pat = re.compile(
        r"(\S+): shuffle_groups, (\d+) sides, (\S+) rows, fan-out (\d+), (\S+) plan blocks, (coalesce|no coalesce)"
    )
    return [
        (m[1], int(m[2]), m[3], int(m[4]), m[5], m[6] == "coalesce")
        for r in caplog.records
        if r.name == "citygml2objv2_ray.ops" and (m := pat.fullmatch(r.getMessage()))
    ]


def both_branches(monkeypatch, caplog):
    """Run the loop body with the gather cap at 0 (every site shuffles) and
    at its default (small inputs gather), checking the branch each took."""
    from citygml2objv2_ray import ops

    caplog.set_level(logging.INFO, logger="citygml2objv2_ray.ops")
    for branch, share in (("shuffle", 0.0), ("gather", ops.GATHER_SHARE)):
        monkeypatch.setattr(ops, "GATHER_SHARE", share)
        caplog.clear()
        yield branch
        assert {d[1] for d in decisions(caplog)} == {branch}


class TestPartialGroupbySum:
    def test_matches_plain_groupby(self, events_ds, sf_dir, monkeypatch, caplog):
        """A grouped sum of per-batch partial sums (``sum_by`` as partial
        and merge) equals a plain groupby on both branches."""
        import pyarrow.parquet as pq

        from citygml2objv2_ray.ops import sum_by, supergroup_agg

        df = pq.read_table(f"{sf_dir}/events.parquet", columns=["event_type", "value"]).to_pandas()
        want = (
            df.groupby("event_type")
            .agg(value=("value", "sum"), n=("value", "size"))
            .reset_index()
        )
        ones = events_ds.select_columns(["event_type", "value"]).map_batches(
            lambda d: d.assign(n=1), batch_format="pandas"
        )
        for _ in both_branches(monkeypatch, caplog):
            got = supergroup_agg("test", ones, ["event_type"], sum_by(["event_type"]), sum_by(["event_type"]))
            got = got.sort_values("event_type").reset_index(drop=True)
            assert got.event_type.tolist() == want.event_type.tolist()
            assert np.allclose(got.value, want.value)
            assert got.n.tolist() == want.n.tolist()

    def test_all_filtered_input_keeps_the_output_columns(self, events_ds, monkeypatch, caplog):
        """No batch survives the filter, so Ray leaves the partial blocks
        without a schema: both branches still return a zero-row frame
        with the merge's columns."""
        import pyarrow as pa
        import pyarrow.compute as pc

        from citygml2objv2_ray.ops import sum_by, supergroup_agg

        none = events_ds.map_batches(
            lambda b: b.filter(pc.less(b["value"], pa.scalar(-1e300))), batch_format="pyarrow"
        )

        def partial(d: pd.DataFrame) -> pd.DataFrame:
            return d.groupby("event_type", as_index=False).agg(n=("value", "size"), s=("value", "sum"))

        for _ in both_branches(monkeypatch, caplog):
            got = supergroup_agg("test", none, ["event_type"], partial, sum_by(["event_type"]))
            assert len(got) == 0 and list(got.columns) == ["event_type", "n", "s"]


class TestTopk:
    """``ops.topk`` is SQL's ``ROW_NUMBER() OVER (PARTITION BY by ORDER BY
    order_by) <= k``, sorted by (``by``, ``order_by``)."""

    SQL = """
        SELECT * EXCLUDE (rn) FROM (
            SELECT *, ROW_NUMBER() OVER ({part} ORDER BY {order}) AS rn FROM events
        ) WHERE rn <= {k} ORDER BY {by}{order}
    """

    @pytest.mark.parametrize(
        "k, order_by, descending, by",
        [
            (7, ["ts", "event_id"], [False, True], []),
            (2, ["value", "event_id"], [True, False], ["user_id"]),
            (3, ["ts", "event_id"], [True, True], ["event_type", "user_id"]),
        ],
        ids=["global", "per_group", "two_keys"],
    )
    def test_matches_row_number_on_both_branches(
        self, events_ds, sf_dir, monkeypatch, caplog, k, order_by, descending, by
    ):
        """Per-group partials are gathered under the cap and shuffled at a
        cap of 0, a global top-k's are always gathered: every case gives
        DuckDB's frame, dtypes and row order included."""
        from test_oracle import duck

        from citygml2objv2_ray import ops

        order = ", ".join(f"{c} DESC" if d else c for c, d in zip(order_by, descending))
        want = duck(sf_dir).execute(self.SQL.format(
            part=f"PARTITION BY {', '.join(by)}" if by else "", order=order, k=k,
            by="".join(f"{c}, " for c in by),
        )).df()
        caplog.set_level(logging.INFO, logger="citygml2objv2_ray.ops")
        for share in (0.0, ops.GATHER_SHARE):
            monkeypatch.setattr(ops, "GATHER_SHARE", share)
            caplog.clear()
            got = ops.topk("test", events_ds, k, order_by, descending, by)
            pd.testing.assert_frame_equal(got, want)
            assert [b for *_, b, _, _, _ in decisions(caplog)] == (
                ["shuffle" if share == 0 else "gather"] if by else []
            )

    @pytest.mark.parametrize("by", [[], ["user_id"]], ids=["global", "per_group"])
    def test_zero_rows_give_the_typed_empty_frame(self, events_ds, by):
        from citygml2objv2_ray import ops

        none = events_ds.filter(expr="value < -1e300")
        got = ops.topk("test", none, 3, ["ts", "event_id"], [False, False], by)
        want = events_ds.limit(1).to_pandas().iloc[:0]
        pd.testing.assert_frame_equal(got, want.reset_index(drop=True))


class TestBroadcastFilter:
    def test_semi_and_anti_partition(self, events_ds, ray_session):
        from citygml2objv2_ray.ops import broadcast_semi_anti_filter

        keys = {"click", "view"}
        ds = events_ds.select_columns(["event_id", "event_type"])
        semi = broadcast_semi_anti_filter(ds, "event_type", keys).to_pandas()
        anti = broadcast_semi_anti_filter(ds, "event_type", keys, anti=True).to_pandas()
        assert set(semi.event_type) <= {"click", "view"}
        assert not set(anti.event_type) & {"click", "view"}
        assert len(semi) + len(anti) == events_ds.count()


class TestSupergroupFanout:
    def test_derive_num_groups_clamps(self):
        from citygml2objv2_ray.ops import derive_num_groups

        assert derive_num_groups(None) == 64
        assert derive_num_groups(0) == 64
        assert derive_num_groups(10_000) == 64          # below target → min
        assert derive_num_groups(100_000_000) == 100    # scales with input
        assert derive_num_groups(10**12) == 4096        # capped

    def test_result_invariant_to_num_groups(self, ray_session, monkeypatch, caplog):
        """Gather or shuffle is a pure plan choice: the aggregate must be
        identical gathered and shuffled at num_groups ∈ {16, 64, 256}
        (VERDICT r2 item 3)."""
        from citygml2objv2_ray import ops
        from citygml2objv2_ray.ops import supergroup_agg

        rng = np.random.default_rng(5)
        df = pd.DataFrame(
            {
                "k": rng.integers(0, 3000, size=20_000).astype(np.int64),
                "v": rng.normal(size=20_000),
            }
        )
        want = (
            df.groupby("k", as_index=False)
            .agg(s=("v", "sum"), n=("v", "size"))
            .sort_values("k")
            .reset_index(drop=True)
        )

        def partial(d: pd.DataFrame) -> pd.DataFrame:
            return d.groupby("k", as_index=False).agg(s=("v", "sum"), n=("v", "size"))

        def merge(d: pd.DataFrame) -> pd.DataFrame:
            return d.groupby("k", as_index=False).agg(s=("s", "sum"), n=("n", "sum"))

        ds = rd.from_pandas(df).repartition(8)
        for branch in both_branches(monkeypatch, caplog):
            for ng in (1, 7, 16, 64, 256) if branch == "shuffle" else (None,):
                for blocks in (None, 10**6) if branch == "shuffle" else (None,):
                    monkeypatch.setattr(ops, "derive_num_groups", lambda n, ng=ng: ng)
                    monkeypatch.setattr(ops, "_plan_blocks", lambda ds, blocks=blocks: blocks)
                    got = supergroup_agg("test", ds, ["k"], partial, merge)
                    got = got.sort_values("k").reset_index(drop=True)
                    assert got.k.tolist() == want.k.tolist()
                    assert np.allclose(got.s, want.s)
                    assert got.n.tolist() == want.n.tolist()

    @pytest.mark.parametrize("coalesce", [False, True], ids=["no_coalesce", "coalesce"])
    @pytest.mark.parametrize("fanout", [1, 7, None], ids=["fanout1", "fanout7", "fanout_default"])
    def test_queries_invariant_to_fanout_and_coalesce(
        self, ray_session, sf_dir, shuffle_defaults, monkeypatch, caplog, fanout, coalesce
    ):
        """Every query built on ``shuffle_groups`` gives the frame of its
        default plan whatever the super-group fan-out and whether the
        union is coalesced first (near-dup verify on the shuffle path)."""
        from citygml2objv2_ray import ops

        _shuffle_verify(monkeypatch)
        if fanout:
            monkeypatch.setattr(ops, "derive_num_groups", lambda n: fanout)
        monkeypatch.setattr(ops, "_plan_blocks", lambda ds: 10**6 if coalesce else None)
        caplog.set_level(logging.INFO, logger="citygml2objv2_ray.ops")
        for name, want in shuffle_defaults.items():
            caplog.clear()
            got = _run_shuffle_query(name, sf_dir)
            assert got.equals(want), name
            verify = [b for s, b, *_ in decisions(caplog) if s == "verify_pairs"]
            assert verify == (["shuffle"] if name in NEARDUP_QUERIES else []), name
            logged = shuffles(caplog)
            assert logged, f"{name} ran no shuffle_groups"
            assert {c for *_, c in logged} == {coalesce}, name
            if fanout:
                assert {f for _, _, _, f, _, _ in logged} == {fanout}, name


# the queries routed through ops.shuffle_groups
SHUFFLE_QUERIES = [
    "q_phash_neardup", "q_tfidf_top_terms", "q_asof_join", "q_minhash_neardup",
    "q_ngram_jaccard", "q_dup_components", "q_dedup_corpus", "q_components",
    "q_join_native", "q_heavy_hitters",
]
# the ones whose candidate pairs go through relational_ml.verify_pairs
NEARDUP_QUERIES = {"q_minhash_neardup", "q_ngram_jaccard", "q_dup_components", "q_dedup_corpus"}


def _shuffle_verify(monkeypatch):
    """Send both near-dup pipelines down the shuffle verify tail: a
    broadcast share of 0 puts every text table over the cap."""
    from citygml2objv2_ray import ops

    monkeypatch.setattr(ops, "BROADCAST_SHARE", 0.0)


def _run_shuffle_query(name: str, sf_dir: str) -> pd.DataFrame:
    """Registry query ``name`` with the shared n-gram pair cache emptied,
    so the n-gram queries recompute their pairs under the current plan."""
    import __ray_entry__ as entry
    from citygml2objv2_ray import relational_ml

    relational_ml._NGRAM_PAIRS_CACHE.clear()
    return entry.queries()[name](sf_dir)


@pytest.fixture(scope="module")
def shuffle_defaults(ray_session, sf_dir) -> dict[str, pd.DataFrame]:
    """Each shuffle query's frame at the default fan-out and coalesce."""
    with pytest.MonkeyPatch.context() as mp:
        _shuffle_verify(mp)
        return {name: _run_shuffle_query(name, sf_dir) for name in SHUFFLE_QUERIES}


class TestShuffleGroups:
    def test_sides_meet_per_key_and_fn_never_sees_the_tag(self, ray_session, monkeypatch, caplog):
        """Rows of every side with equal keys reach one ``fn`` call, which
        gets no ``_sg`` column; each call logs its one decision."""
        from citygml2objv2_ray import ops

        monkeypatch.setattr(ops, "derive_num_groups", lambda n: 7)
        caplog.set_level(logging.INFO, logger="citygml2objv2_ray.ops")
        left = pd.DataFrame({"k": np.arange(200) % 23, "side": 0})
        right = pd.DataFrame({"k": np.arange(50) % 23, "side": 1})

        def per_group(g: pd.DataFrame) -> pd.DataFrame:
            assert list(g.columns) == ["k", "side"]
            return g.groupby("k", as_index=False).agg(n=("side", "size"), r=("side", "sum"))

        sides = [rd.from_pandas(left).repartition(5), rd.from_pandas(right).repartition(3)]
        got = ops.shuffle_groups("test", sides, ["k"], per_group, 250).to_pandas()
        got = got.sort_values("k").reset_index(drop=True)
        both = pd.concat([left, right])
        want = both.groupby("k", as_index=False).agg(n=("side", "size"), r=("side", "sum"))
        assert got.equals(want)  # one row per key: no key was split across groups
        assert shuffles(caplog) == [("test", 2, "250", 7, "8", False)]

    def test_plan_blocks_count_a_reads_requested_blocks(self, ray_session, sf_dir):
        """A parquet read asked for 40 blocks yields 40, which Ray's own
        plan estimate counts as one per file; unions add up."""
        from citygml2objv2_ray.ops import _plan_blocks

        docs = rd.read_parquet(f"{sf_dir}/documents.parquet", override_num_blocks=40)
        small = rd.range(10).repartition(3)
        both = docs.map_batches(lambda d: d, batch_format="pandas").union(small)
        assert both._plan.initial_num_blocks() == 4
        assert _plan_blocks(both) == 43
        assert docs.materialize().num_blocks() == 40

    def test_coalesces_only_over_twice_the_fanout(self, ray_session, monkeypatch, caplog):
        from citygml2objv2_ray import ops

        monkeypatch.setattr(ops, "derive_num_groups", lambda n: 4)
        caplog.set_level(logging.INFO, logger="citygml2objv2_ray.ops")
        for blocks, merged in ((8, False), (9, True)):
            ds = rd.range(90).repartition(blocks)
            caplog.clear()
            got = ops.shuffle_groups("test", [ds], ["id"], lambda g: g, None).to_pandas()
            assert sorted(got.id) == list(range(90))
            assert shuffles(caplog) == [("test", 1, "None", 4, str(blocks), merged)]


class TestHotKey:
    def test_hot_key_counts_survive(self, ray_session, monkeypatch, caplog):
        """A hot key leaves one partial row per batch, so it needs no
        salting on either branch."""
        from citygml2objv2_ray.ops import sum_by, supergroup_agg

        # Zipf-ish: one hot key with 5000 rows, 50 cold keys with 10 each
        rng = np.random.default_rng(0)
        keys = ["hot"] * 5000 + [f"k{i}" for i in range(50) for _ in range(10)]
        rng.shuffle(keys)
        ds = rd.from_pandas(pd.DataFrame({"key": keys, "n": 1})).repartition(8)
        for _ in both_branches(monkeypatch, caplog):
            out = supergroup_agg("test", ds, ["key"], sum_by(["key"]), sum_by(["key"]))
            out = out.set_index("key").n
            assert out["hot"] == 5000
            assert all(out[f"k{i}"] == 10 for i in range(50))
            assert out.sum() == 5500


class TestBloomFilter:
    def test_no_false_negatives_and_fp_rate(self):
        from citygml2objv2_ray.ops import BloomFilter

        rng = np.random.default_rng(3)
        members = rng.choice(10**9, size=20_000, replace=False).astype(np.int64)
        bf = BloomFilter(n_bits=1 << 20, k=4)
        bf.add(members)
        assert bf.contains(members).all()  # never a false negative
        probe = rng.integers(10**9, 2 * 10**9, size=50_000)
        fp = bf.contains(probe).mean()
        assert fp < 0.01  # 20k keys in 2^20 bits, k=4 -> ~0.1% expected

    def test_merge_is_union(self):
        from citygml2objv2_ray.ops import BloomFilter

        a, b = BloomFilter(1 << 14, 3), BloomFilter(1 << 14, 3)
        ka = np.arange(0, 500, dtype=np.int64)
        kb = np.arange(500, 1000, dtype=np.int64)
        a.add(ka)
        b.add(kb)
        a.merge(b)
        assert a.contains(np.concatenate([ka, kb])).all()

    def test_distributed_build_matches_local_and_prefilter_exact(self, ray_session):
        from citygml2objv2_ray.ops import (
            BloomFilter,
            bloom_build_distributed,
            bloom_prefilter,
        )

        rng = np.random.default_rng(7)
        keys = rng.choice(100_000, size=5_000, replace=False).astype(np.int64)
        ds = rd.from_pandas(pd.DataFrame({"k": keys})).repartition(8)
        dist = bloom_build_distributed(ds, "k", n_bits=1 << 16, k=3)
        local = BloomFilter(1 << 16, 3)
        local.add(keys)
        assert np.array_equal(dist.bits, local.bits)  # partition-order free

        big = pd.DataFrame({"k": rng.integers(0, 200_000, size=30_000)})
        kept = bloom_prefilter(
            rd.from_pandas(big).repartition(6), "k", dist
        ).to_pandas()
        member = np.isin(big.k.to_numpy(), keys)
        # every true member survives; survivors are the bloom's exact
        # positive set (true matches + deterministic false positives)
        assert np.isin(keys, kept.k.to_numpy()).sum() == len(
            np.intersect1d(keys, big.k.to_numpy())
        )
        assert member.sum() <= len(kept) < len(big)


class TestSupergroupFullHistoryOps:
    """The full-history supergroup family (quantiles, funnel, outer merges)
    must be invariant to the super-group fan-out AND match a plain-pandas
    brute force — the merge sees each key's complete history by
    construction, whatever num_groups is."""

    def test_group_quantiles_invariant(self, ray_session, monkeypatch, caplog):
        from citygml2objv2_ray import ops
        from citygml2objv2_ray.ops import supergroup_agg

        rng = np.random.default_rng(11)
        df = pd.DataFrame(
            {
                "k": rng.integers(0, 500, size=10_000).astype(np.int64),
                "v": rng.normal(size=10_000).round(6),
            }
        )

        def brute(g: pd.DataFrame) -> tuple:
            v = np.sort(g.v.to_numpy())
            n = v.size
            return v[(n + 1) // 2 - 1], v[(n * 9 + 9) // 10 - 1]

        want = {
            int(k): brute(g) for k, g in df.groupby("k")
        }

        def quantiles(g: pd.DataFrame) -> pd.DataFrame:
            g = g.sort_values(["k", "v"], kind="stable")
            k = g.k.to_numpy()
            v = g.v.to_numpy()
            new = np.concatenate([[True], k[1:] != k[:-1]])
            starts = np.flatnonzero(new)
            counts = np.diff(np.append(starts, k.size))
            return pd.DataFrame(
                {
                    "k": k[starts],
                    "p50": v[starts + (counts + 1) // 2 - 1],
                    "p90": v[starts + (counts * 9 + 9) // 10 - 1],
                }
            )

        ds = rd.from_pandas(df).repartition(8)
        for branch in both_branches(monkeypatch, caplog):
            for ng in (4, 64) if branch == "shuffle" else (None,):
                monkeypatch.setattr(ops, "derive_num_groups", lambda n, ng=ng: ng)
                got = supergroup_agg("test", ds, ["k"], lambda d: d, quantiles)
                assert len(got) == len(want)
                for _, row in got.iterrows():
                    w50, w90 = want[int(row.k)]
                    assert row.p50 == w50 and row.p90 == w90

    def test_set_ops_bitmask_invariant(self, ray_session, monkeypatch, caplog):
        """Distinct (key, bit) pairs + per-key sum == OR of disjoint bits,
        on both branches, at any fan-out and any input duplication."""
        from citygml2objv2_ray import ops
        from citygml2objv2_ray.ops import supergroup_agg

        rng = np.random.default_rng(7)
        n = 5_000
        df = pd.DataFrame(
            {
                "k": rng.integers(0, 400, size=n).astype(np.int64),
                "bit": rng.choice([1, 2], size=n).astype(np.int64),
            }
        )
        want = (
            df.drop_duplicates()
            .groupby("k")["bit"].sum()
            .astype(int)
            .to_dict()
        )

        def partial(d: pd.DataFrame) -> pd.DataFrame:
            return d.drop_duplicates()

        def merge(d: pd.DataFrame) -> pd.DataFrame:
            return d.drop_duplicates().groupby("k", as_index=False)["bit"].sum()

        ds = rd.from_pandas(df).repartition(8)
        for branch in both_branches(monkeypatch, caplog):
            for ng in (4, 64) if branch == "shuffle" else (None,):
                monkeypatch.setattr(ops, "derive_num_groups", lambda n, ng=ng: ng)
                got = supergroup_agg("test", ds, ["k"], partial, merge)
                assert {int(r.k): int(r.bit) for _, r in got.iterrows()} == want


GONE = {"partial_groupby_sum", "salted_groupby", "exact_dedup_first", "broadcast_join_rows", "num_rows_hint"}


def _grouped_aggregates(tree: ast.AST):
    """(kind, line) of every Ray ``.groupby(...).aggregate(`` chain (pyarrow's
    ``group_by`` and a global ``Dataset.aggregate`` are not) and every
    identifier that names a removed grouped-aggregate helper or option."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "aggregate"
            and isinstance(node.func.value, ast.Call)
            and isinstance(node.func.value.func, ast.Attribute)
            and node.func.value.func.attr == "groupby"
        ):
            yield "groupby_aggregate", node.lineno
        names = {
            ast.Name: "id", ast.Attribute: "attr", ast.FunctionDef: "name",
            ast.keyword: "arg", ast.alias: "name", ast.arg: "arg",
        }
        name = getattr(node, names.get(type(node), ""), None)
        if name in GONE:
            yield name, getattr(node, "lineno", None)


def test_supergroup_agg_is_the_only_grouped_aggregate():
    """Every grouped aggregate goes through ``ops.supergroup_agg``, which
    gathers or shuffles on the measured partial size: no Ray
    ``groupby(...).aggregate(`` chain, and none of the helpers or options
    it replaced."""
    paths = sorted((REPO / "citygml2objv2_ray").rglob("*.py")) + [REPO / "__ray_entry__.py"]
    found = [
        f"{p.relative_to(REPO)}:{line} {kind}"
        for p in paths
        for kind, line in _grouped_aggregates(ast.parse(p.read_text(), str(p)))
    ]
    assert not found, found


@pytest.mark.parametrize(
    "src, want",
    [
        ("ds.groupby('k').aggregate(Sum('v'))", [("groupby_aggregate", 1)]),
        ("ds.groupby(['a', 'b']).aggregate(*aggs).to_pandas()", [("groupby_aggregate", 1)]),
        ("t.group_by(['k']).aggregate([('v', 'sum')])", []),
        ("ds.aggregate(Sum('v'))", []),
        ("ds.groupby('_sg').map_groups(f)", []),
        ("from .ops import salted_groupby", [("salted_groupby", 1)]),
        ("f(ds, num_rows_hint=3)", [("num_rows_hint", 1)]),
        ("cfg.broadcast_join_rows", [("broadcast_join_rows", 1)]),
    ],
    ids=["chain", "multi_key_chain", "pyarrow_group_by", "global_aggregate", "map_groups",
         "import", "keyword", "config_field"],
)
def test_grouped_aggregate_lint_sees_each_pattern(src, want):
    assert list(_grouped_aggregates(ast.parse(src))) == want


# (file, outermost def or class) where each super-group idiom may appear;
# "*" is the whole file. The Ray groupby sites besides the helper are
# per-key map_groups, not super-group shuffles. No Ray ``Dataset.join``
# appears anywhere: every partitioned join is a ``shuffle_groups``. A
# per-polygon ``clean_ring`` call stays in ``geom`` (rings are cleaned by
# the flat-ring kernel), and ``triangulate_polygon(s)``, the per-polygon
# triangulation front end, appears nowhere.
SHUFFLE_ALLOWED = {
    "tag_literal": {("citygml2objv2_ray/ops.py", "*")},
    "hash_pandas_object": {
        ("citygml2objv2_ray/ops.py", "*"),
        ("citygml2objv2_ray/streaming.py", "route_stream"),
        ("citygml2objv2_ray/state/checkpoint.py", "PartitionedWriter"),
    },
    "coalesce": {("citygml2objv2_ray/ops.py", "*")},
    "clean_ring": {("citygml2objv2_ray/geom.py", "*")},
    "ray_groupby": {
        ("citygml2objv2_ray/ops.py", "shuffle_groups"),
        ("citygml2objv2_ray/relational_ml.py", "q_embedding_neardup"),
        ("citygml2objv2_ray/relational_ext.py", "q_embedding_neardup_lsh"),
    },
    "ray_join": set(),
}
# Ray's Dataset.join types: one of these strings as the second positional
# argument of a ``.join(`` call marks a Ray join, not a str or path join
RAY_JOIN_TYPES = {
    "inner", "left_outer", "right_outer", "full_outer",
    "left_semi", "right_semi", "left_anti", "right_anti",
}


def _call_name(func: ast.AST) -> str | None:
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _shuffle_idioms(tree: ast.Module):
    """(kind, outermost def or class, line) of every hand-rolled piece of a
    super-group shuffle: a ``_sg``/``_dg`` literal or keyword, a ``hash_pandas_object``
    call, a ``repartition(..., shuffle=False)`` coalesce, a Ray
    ``.groupby(...).map_groups(`` chain, and any ``supergroup_of`` name;
    of a second partitioned join: a Ray ``Dataset.join`` call (a ``.join(``
    with a ``num_partitions``, ``on`` or ``right_on`` keyword or a join
    type as its second argument) and any ``derive_join_partitions`` name;
    and of a per-polygon ring pass: a ``clean_ring`` call and any
    ``triangulate_polygon(s)`` name."""
    for top in tree.body:
        scope = getattr(top, "name", None)
        for node in ast.walk(top):
            line = getattr(node, "lineno", None)
            if (isinstance(node, ast.Constant) and node.value in ("_sg", "_dg")) or (
                isinstance(node, ast.keyword) and node.arg in ("_sg", "_dg")
            ):
                yield "tag_literal", scope, line
            if "supergroup_of" in (getattr(node, "id", None), getattr(node, "attr", None),
                                   getattr(node, "name", None)):
                yield "supergroup_of", scope, line
            if {"triangulate_polygon", "triangulate_polygons"} & {
                getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)
            }:
                yield "per_polygon_triangulate", scope, line
            if "derive_join_partitions" in (getattr(node, "id", None), getattr(node, "attr", None),
                                            getattr(node, "name", None)):
                yield "ray_join", scope, line
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node.func)
            if name == "join" and (
                {k.arg for k in node.keywords} & {"num_partitions", "on", "right_on"}
                or (
                    len(node.args) > 1
                    and isinstance(node.args[1], ast.Constant)
                    and node.args[1].value in RAY_JOIN_TYPES
                )
            ):
                yield "ray_join", scope, line
            elif name == "hash_pandas_object":
                yield "hash_pandas_object", scope, line
            elif name == "clean_ring":
                yield "clean_ring", scope, line
            elif name == "repartition" and any(
                k.arg == "shuffle" and isinstance(k.value, ast.Constant) and k.value.value is False
                for k in node.keywords
            ):
                yield "coalesce", scope, line
            elif (
                name == "map_groups"
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Call)
                and _call_name(node.func.value.func) == "groupby"
            ):
                yield "ray_groupby", scope, line


def test_shuffle_groups_is_the_only_super_group_shuffle():
    """Every keyed shuffle that is not an aggregate, every partitioned
    join included, goes through ``ops.shuffle_groups``: one hash, one
    coalesce rule, one tag column, no Ray ``Dataset.join``; and no package
    code cleans or triangulates one polygon at a time."""
    paths = sorted((REPO / "citygml2objv2_ray").rglob("*.py")) + [REPO / "__ray_entry__.py", REPO / "bench.py"]
    found = [
        (str(p.relative_to(REPO)), kind, scope, line)
        for p in paths
        for kind, scope, line in _shuffle_idioms(ast.parse(p.read_text(), str(p)))
    ]
    assert {k for _, k, _, _ in found} >= {"ray_groupby", "hash_pandas_object"}, "the parse saw no shuffle"
    stray = [
        f"{p}:{line} {kind} in {scope}"
        for p, kind, scope, line in found
        if not {(p, scope), (p, "*")} & SHUFFLE_ALLOWED.get(kind, set())
    ]
    assert not stray, stray


@pytest.mark.parametrize(
    "src, want",
    [
        ("def f(df):\n    return df.assign(_sg=h % ng)\n", [("tag_literal", "f", 2)]),
        (
            "def f(ds, ng):\n"
            "    def tag(df):\n"
            "        h = pd.util.hash_pandas_object(df[['k']], index=False).to_numpy()\n"
            "        return df.assign(**{'_sg': h % ng})\n"
            "    ds = ds.map_batches(tag).repartition(ng, shuffle=False)\n"
            "    return ds.groupby('_sg').map_groups(g)\n",
            [("tag_literal", "f", 4), ("tag_literal", "f", 6), ("hash_pandas_object", "f", 3),
             ("coalesce", "f", 5), ("ray_groupby", "f", 6)],
        ),
        ("out['_dg'] = dd.supergroup_of(k, 64)\n", [("tag_literal", None, 1), ("supergroup_of", None, 1)]),
        ("from .dedup import supergroup_of\n", [("supergroup_of", None, 1)]),
        ("class W:\n    def m(self, ds):\n        return ds.repartition(8)\n", []),
        ("def f(df):\n    return df.groupby('k').sum()\n", []),
        ("def f(r):\n    return geom.clean_ring(r, 9)\n", [("clean_ring", "f", 2)]),
        (
            "from .geom import triangulate_polygons\ntris = geom.triangulate_polygon(r)\n",
            [("per_polygon_triangulate", None, 1), ("per_polygon_triangulate", None, 2)],
        ),
        ('orders.join(cust, "inner", num_partitions=8, on=("k",))', [("ray_join", None, 1)]),
        ("a.join(b, 'left_semi')", [("ray_join", None, 1)]),
        ("def f(a, b):\n    return a.join(b, right_on=('k',))\n", [("ray_join", "f", 2)]),
        (
            "from .ops import derive_join_partitions as _djp\nn = ops.derive_join_partitions(9)\n",
            [("ray_join", None, 1), ("ray_join", None, 2)],
        ),
        ('p = os.path.join(a, b)\ns = ", ".join(xs)\n', []),
    ],
    ids=["assign_keyword", "reinlined_helper", "dg_and_supergroup_of", "import", "shuffling_repartition",
         "pandas_groupby", "clean_ring_call", "per_polygon_triangulate", "ray_join", "join_type_only",
         "join_keyword_only", "join_partitions_name", "path_and_str_join"],
)
def test_shuffle_lint_sees_each_pattern(src, want):
    assert sorted(_shuffle_idioms(ast.parse(src)), key=str) == sorted(want, key=str)


# (file, outermost def) where each hand-rolled top-k idiom may appear; "*"
# is the whole file. The flagship kNN and the in-process reference top-k
# keep their argpartition; every other ``ORDER BY … LIMIT k`` is ``ops.topk``
# (whose partial keeps ties in a stable order) or ``ann.topk_search``.
TOPK_ALLOWED = {
    "argpartition": {("citygml2objv2_ray/spatial.py", "*"), ("citygml2objv2_ray/dedup.py", "cosine_topk")},
    "head_chain": {("citygml2objv2_ray/ops.py", "topk")},
}


def _topk_idioms(tree: ast.Module):
    """(kind, outermost def or class, line) of every ``argpartition`` name
    and every ``.head(`` called on a chain that holds a ``.sort_values(``,
    ``.groupby(`` or ``.nsmallest(`` call."""
    for top in tree.body:
        scope = getattr(top, "name", None)
        for node in ast.walk(top):
            if "argpartition" in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)):
                yield "argpartition", scope, node.lineno
            if isinstance(node, ast.Call) and _call_name(node.func) == "head" and isinstance(node.func, ast.Attribute):
                link = node.func.value
                while isinstance(link, (ast.Call, ast.Attribute, ast.Subscript)):
                    if isinstance(link, ast.Call) and _call_name(link.func) in ("sort_values", "groupby", "nsmallest"):
                        yield "head_chain", scope, node.lineno
                        break
                    link = link.func if isinstance(link, ast.Call) else link.value


def test_topk_is_the_only_hand_rolled_top_k():
    """Every distributed ``ORDER BY … LIMIT k [PARTITION BY …]`` in the
    package goes through ``ops.topk``: no ``argpartition`` outside the
    flagship kNN and ``dedup.cosine_topk``, and no ``.head(`` on a sorted,
    grouped or ``nsmallest`` chain outside ``ops.topk``."""
    paths = sorted((REPO / "citygml2objv2_ray").rglob("*.py"))
    found = [
        (str(p.relative_to(REPO)), kind, scope, line)
        for p in paths
        for kind, scope, line in _topk_idioms(ast.parse(p.read_text(), str(p)))
    ]
    assert {k for _, k, _, _ in found} == {"argpartition", "head_chain"}, "the parse saw no top-k"
    stray = [
        f"{p}:{line} {kind} in {scope}"
        for p, kind, scope, line in found
        if not {(p, scope), (p, "*")} & TOPK_ALLOWED[kind]
    ]
    assert not stray, stray


@pytest.mark.parametrize(
    "src, want",
    [
        ("def f(s, k):\n    return np.argpartition(-s, k - 1)[:k]\n", [("argpartition", "f", 2)]),
        ("from numpy import argpartition as ap\n", [("argpartition", None, 1)]),
        ("import numpy as np\npart = np.argpartition(d, 3, axis=1)\n", [("argpartition", None, 2)]),
        ("def f(s):\n    return np.partition(s, 3), np.argsort(s)[:3]\n", []),
    ],
    ids=["attribute", "imported_alias", "module_level", "partition_and_argsort"],
)
def test_argpartition_lint_sees_each_pattern(src, want):
    assert sorted(_topk_idioms(ast.parse(src)), key=str) == sorted(want, key=str)


@pytest.mark.parametrize(
    "src, want",
    [
        ("def f(df):\n    return df.sort_values(['a', 'b'], ascending=[False, True]).head(10)\n",
         [("head_chain", "f", 2)]),
        ("def f(df):\n    return df.groupby('u', sort=False).head(1)\n", [("head_chain", "f", 2)]),
        ("out = df.nsmallest(9, 'k', keep='all').sort_values(['k']).head(9)\n", [("head_chain", None, 1)]),
        ("top = parts.sort_values('_h', kind='stable').head(k).drop(columns='_h')\n", [("head_chain", None, 1)]),
        ("g = df[df.x > 0].groupby('k')['v'].head(3)\n", [("head_chain", None, 1)]),
        ("def f(df):\n    df = df.sort_values('a')\n    return df.head(3)\n", []),
        ("print(df.head())\n", []),
    ],
    ids=["sorted", "grouped", "nsmallest", "chained_after", "subscripted_group", "two_statements", "plain_head"],
)
def test_head_chain_lint_sees_each_pattern(src, want):
    assert sorted(_topk_idioms(ast.parse(src)), key=str) == sorted(want, key=str)


# the near-dup verify's old row-count gate and its per-call override
ROW_GATES = {"broadcast_verify_rows", "verify_mode"}


def _row_gates(tree: ast.AST):
    """(name, line) of every identifier, parameter, keyword or string that
    names the near-dup verify's old row-count gate or its override."""
    fields = {
        ast.Name: "id", ast.Attribute: "attr", ast.FunctionDef: "name",
        ast.keyword: "arg", ast.alias: "name", ast.arg: "arg", ast.Constant: "value",
    }
    for node in ast.walk(tree):
        name = getattr(node, fields.get(type(node), ""), None)
        if isinstance(name, str) and name in ROW_GATES:
            yield name, node.lineno


def test_verify_is_decided_on_measured_bytes_only():
    """The near-dup verify is broadcast or partitioned on the measured
    bytes of its texts (``relational_ml.verify_pairs``): no function takes
    a ``verify_mode`` and nothing names ``broadcast_verify_rows``."""
    paths = sorted((REPO / "citygml2objv2_ray").rglob("*.py")) + [REPO / "bench.py", REPO / "__ray_entry__.py"]
    found = [
        f"{p.relative_to(REPO)}:{line} {name}"
        for p in paths
        for name, line in _row_gates(ast.parse(p.read_text(), str(p)))
    ]
    assert not found, found


@pytest.mark.parametrize(
    "src, want",
    [
        (
            "def pairs(docs, nd, threshold=0.6, verify_mode='auto'):\n"
            "    if verify_mode == 'broadcast' or (\n"
            "        verify_mode == 'auto' and nd <= DEFAULT_CONFIG.broadcast_verify_rows\n"
            "    ):\n"
            "        return 1\n",
            [("verify_mode", 1), ("verify_mode", 2), ("verify_mode", 3), ("broadcast_verify_rows", 3)],
        ),
        ("pairs(ds, n, 0.6, verify_mode='shuffle')", [("verify_mode", 1)]),
        ("replace(cfg, broadcast_verify_rows=0)", [("broadcast_verify_rows", 1)]),
        ("getattr(cfg, 'broadcast_verify_rows')", [("broadcast_verify_rows", 1)]),
        ("verify_pairs(pairs, docs, nd, 0.6, f)", []),
    ],
    ids=["reinlined_gate", "keyword", "config_replace", "getattr", "verify_pairs"],
)
def test_row_gate_lint_sees_each_pattern(src, want):
    assert sorted(_row_gates(ast.parse(src))) == sorted(want)
