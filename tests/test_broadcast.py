"""Small sides of a map: the one ``ops.Broadcast`` helper, its per-process
cache policy, and a lint that keeps it the only place the package puts an
object into Ray or fetches a broadcast back."""

from __future__ import annotations

import ast
import logging
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "citygml2objv2_ray"

# (file, function) of the only ray.put / ray.get calls allowed: the helper,
# and the gets that collect a Dataset's blocks or wait on actor futures
ALLOWED = {
    "put": {("citygml2objv2_ray/ops.py", "Broadcast.__init__")},
    "get": {
        ("citygml2objv2_ray/ops.py", "Broadcast.get"),
        ("citygml2objv2_ray/streaming.py", "route"),
        ("citygml2objv2_ray/streaming.py", "run_sharded"),
    },
}


class TestBroadcast:
    def test_get_builds_once_per_site(self, ray_session, monkeypatch):
        from citygml2objv2_ray import ops

        monkeypatch.setattr(ops, "_BROADCASTS", {})
        calls = []

        def build(v):
            calls.append(v)
            return sorted(v)

        a = ops.Broadcast("a", {3, 1, 2}, build=build)
        assert a.get() == [1, 2, 3] and a.get() is a.get()
        assert calls == [{1, 2, 3}]
        b = ops.Broadcast("b", {"x": 1})
        assert b.get() == {"x": 1}
        assert sorted(ops._BROADCASTS) == ["a", "b"]

    def test_new_broadcast_replaces_the_sites_entry(self, ray_session, monkeypatch):
        from citygml2objv2_ray import ops

        monkeypatch.setattr(ops, "_BROADCASTS", {})
        first = ops.Broadcast("s", [1])
        assert first.get() == [1]
        second = ops.Broadcast("s", [2])
        assert second.get() == [2]
        assert list(ops._BROADCASTS) == ["s"]
        assert ops._BROADCASTS["s"][0] == second.ref.hex()
        assert first.get() == [1]  # an older job's task still reads its own value
        assert ops._BROADCASTS["s"][0] == first.ref.hex()

    def test_tasks_read_it_in_the_workers(self, ray_session):
        import ray.data as rd

        from citygml2objv2_ray.ops import Broadcast

        offset = Broadcast("test_offset", 100, build=lambda v: v + 1)
        ds = rd.range(64, override_num_blocks=8).map_batches(
            lambda b: {"id": b["id"] + offset.get()}, batch_format="numpy"
        )
        assert sorted(r["id"] for r in ds.take_all()) == list(range(101, 165))


def test_semi_anti_filter_with_no_keys(ray_session):
    """An empty key set keeps no row of a string column, and its anti
    filter keeps every row (the convert of a document without openings)."""
    import ray.data as rd

    from citygml2objv2_ray.ops import broadcast_semi_anti_filter

    ds = rd.from_items([{"poly_id": "a"}, {"poly_id": "b"}])
    assert broadcast_semi_anti_filter(ds, "poly_id", set()).count() == 0
    assert broadcast_semi_anti_filter(ds, "poly_id", set(), anti=True).count() == 2


def _ray_calls(tree: ast.AST):
    """(kind, enclosing Class.function, line) of every ``ray.put`` /
    ``ray.get`` call (``import ray as x`` and ``from ray import get``
    included) and every mention of ``ObjectRef``."""
    ray_names, direct = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            ray_names |= {a.asname or a.name for a in node.names if a.name == "ray"}
        elif isinstance(node, ast.ImportFrom) and node.module == "ray":
            direct.update({a.asname or a.name: a.name for a in node.names if a.name in ("put", "get")})

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope and isinstance(node, ast.ClassDef) else child.name
            if isinstance(child, ast.Call):
                c = child.func
                if isinstance(c, ast.Attribute) and c.attr in ("put", "get") and (
                    isinstance(c.value, ast.Name) and c.value.id in ray_names
                ):
                    yield c.attr, scope, child.lineno
                elif isinstance(c, ast.Name) and c.id in direct:
                    yield direct[c.id], scope, child.lineno
            if (isinstance(child, ast.Attribute) and child.attr == "ObjectRef") or (
                isinstance(child, ast.Name) and child.id == "ObjectRef"
            ):
                yield "ObjectRef", scope, child.lineno
            yield from visit(child, inner)

    yield from visit(tree, None)


def _found():
    paths = sorted(PACKAGE.rglob("*.py")) + [REPO / "__ray_entry__.py"]
    return [
        (str(p.relative_to(REPO)), kind, fn, line)
        for p in paths
        for kind, fn, line in _ray_calls(ast.parse(p.read_text(), str(p)))
    ]


def test_broadcast_is_the_only_put():
    """Every small side a map task reads goes through ``ops.Broadcast``:
    no other code puts an object into Ray, fetches one back per batch or
    tests for an ``ObjectRef``."""
    found = _found()
    assert {(p, fn) for p, kind, fn, _ in found if kind == "put"}, "the parse saw no ray.put"
    stray = [
        f"{p}:{line} {kind} in {fn}()"
        for p, kind, fn, line in found
        if (p, fn) not in ALLOWED.get(kind, set())
    ]
    assert not stray, stray


@pytest.mark.parametrize(
    "src, want",
    [
        ("import ray\ndef f(x):\n    r = ray.put(x)\n", [("put", "f", 3)]),
        ("import ray as _r\ndef f(r):\n    return _r.get(r)\n", [("get", "f", 3)]),
        ("from ray import get as g\nclass A:\n    def m(self, r):\n        return g(r)\n", [("get", "A.m", 4)]),
        ("import ray\ndef f(r):\n    return r if isinstance(r, ray.ObjectRef) else r\n", [("ObjectRef", "f", 3)]),
        ("import ray\ndef f(d):\n    return d.get('k'), ray.data\n", []),
    ],
    ids=["put", "aliased_get", "imported_get", "objectref_test", "dict_get"],
)
def test_lint_sees_each_pattern(src, want):
    assert list(_ray_calls(ast.parse(src))) == want


def _both_sides_of_the_cap(monkeypatch, caplog, name: str, site: str, share: str = "GATHER_SHARE"):
    """Run registry query ``name`` with the cap (the ``ops`` constant
    ``share`` of the object store) one byte above and then exactly at the
    bytes ``site`` measures: the first run gathers (or broadcasts) at
    ``site``, the second shuffles (or joins), and both give the DuckDB
    twin's frame. The n-gram pair cache is emptied before each run.
    Returns the two frames."""
    import ray
    from test_oracle import SF, compare, duck
    from test_ops import decisions

    from citygml2objv2_ray import ops, relational, relational_ext, relational_ml  # noqa: F401

    def run():
        relational_ml._NGRAM_PAIRS_CACHE.clear()
        return relational.REGISTRY[name](SF)

    caplog.set_level(logging.INFO, logger="citygml2objv2_ray.ops")
    store = ray.cluster_resources()["object_store_memory"]
    want = duck(SF).execute(relational.ORACLE[name]).df()
    run()
    (nbytes,) = {b for s, _, _, b, _ in decisions(caplog) if s == site}
    got = []
    for cap, branch in ((nbytes + 1, "gather"), (nbytes, "shuffle")):
        monkeypatch.setattr(ops, share, (cap + 0.5) / store)
        caplog.clear()
        got.append(run())
        assert [(b, c) for s, b, _, _, c in decisions(caplog) if s == site] == [(branch, cap)]
        compare(got[-1], want, f"{name} at cap {cap}")
    return got


def test_bloom_join_is_the_same_on_both_sides_of_its_gate(ray_session, monkeypatch, caplog):
    """``q_bloom_join`` merges its materialized selective side map-side
    when it measures under the gather cap and joins both sides in one
    ``ops.shuffle_groups`` at or over it: both give the same frame."""
    a, b = _both_sides_of_the_cap(monkeypatch, caplog, "q_bloom_join", "q_bloom_join.sel")
    assert a.equals(b)


@pytest.mark.parametrize("fanout", [1, 7])
@pytest.mark.parametrize("name, site", [("q_semi_join", "q_semi_join"), ("q_bloom_join", "q_bloom_join.join")])
def test_partitioned_joins_match_the_twin_at_any_fanout(ray_session, monkeypatch, caplog, name, site, fanout):
    """With a gather cap of 0 both gated joins take their partitioned
    branch, one ``shuffle_groups`` over both sides, and give the DuckDB
    twin's frame at super-group fan-out 1 and 7."""
    from test_oracle import SF, compare, duck
    from test_ops import shuffles

    from citygml2objv2_ray import ops, relational, relational_ext  # noqa: F401

    monkeypatch.setattr(ops, "GATHER_SHARE", 0.0)
    monkeypatch.setattr(ops, "derive_num_groups", lambda n: fanout)
    caplog.set_level(logging.INFO, logger="citygml2objv2_ray.ops")
    got = relational.REGISTRY[name](SF)
    compare(got, duck(SF).execute(relational.ORACLE[name]).df(), f"{name} at fan-out {fanout}")
    assert [(s, f) for s, n, _, f, _, _ in shuffles(caplog) if n == 2] == [(site, fanout)]


@pytest.mark.parametrize("name", ["q_window_hourly", "q_semi_join"])
def test_gather_and_shuffle_give_the_same_frame(ray_session, monkeypatch, caplog, name):
    """A grouped aggregate (float sums rounded to 4 dp) and a semi join
    are the same frame on both sides of the cap."""
    a, b = _both_sides_of_the_cap(monkeypatch, caplog, name, name)
    assert a.equals(b)


def test_ngram_verify_is_the_same_on_both_sides_of_its_cap(ray_session, monkeypatch, caplog):
    """``q_ngram_jaccard`` broadcasts its texts when they measure under
    the broadcast cap and runs the two-shuffle verify tail at or over it:
    both give the same frame."""
    a, b = _both_sides_of_the_cap(monkeypatch, caplog, "q_ngram_jaccard", "verify_pairs", "BROADCAST_SHARE")
    assert a.equals(b)
