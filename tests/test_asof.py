"""Distributed as-of join (ops.asof_join): brute-force parity, unmatched
drops, tie determinism, partition invariance, dtypes over empty groups."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

import ray.data as rd

from citygml2objv2_ray import ops
from citygml2objv2_ray.ops import asof_join


def _brute(left: pd.DataFrame, right: pd.DataFrame) -> pd.DataFrame:
    rows = []
    for _, lr in left.iterrows():
        cand = right[(right.k == lr.k) & (right.t <= lr.t)]
        if cand.empty:
            continue
        best_t = cand.t.max()
        at = cand[cand.t == best_t].sort_values("rv").iloc[-1]
        rows.append((lr.t, lr.k, lr.lv, at.rv, at.rx))
    return (
        pd.DataFrame(rows, columns=["t", "k", "lv", "rv", "rx"])
        .sort_values(["k", "t", "lv"])
        .reset_index(drop=True)
    )


def _run(left: pd.DataFrame, right: pd.DataFrame, monkeypatch, num_groups: int | None = None) -> pd.DataFrame:
    """The join of ``left`` and ``right`` on ``num_groups`` super-groups
    (the default fan-out when None)."""
    if num_groups:
        monkeypatch.setattr(ops, "derive_num_groups", lambda n: num_groups)

    def pad_l(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(
            rv=np.full(len(df), -1, np.int64),
            rx=np.zeros(len(df), np.float64),
            _side=np.zeros(len(df), np.int8),
        )

    def pad_r(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(
            lv=np.full(len(df), -1, np.int64),
            _side=np.ones(len(df), np.int8),
        )

    out = asof_join(
        rd.from_pandas(pad_l(left)).repartition(4),
        rd.from_pandas(pad_r(right)).repartition(3),
        on="t",
        by="k",
        left_payload=["lv"],
        right_payload=["rv", "rx"],
        rows=len(left) + len(right),
    ).to_pandas()
    return out.sort_values(["k", "t", "lv"]).reset_index(drop=True)


@pytest.fixture(scope="module")
def frames():
    rng = np.random.default_rng(11)
    n_l, n_r = 600, 250
    left = pd.DataFrame(
        {
            "t": rng.integers(0, 1000, n_l).astype(np.int64),
            "k": rng.integers(0, 25, n_l).astype(np.int64),  # keys 0..24
            "lv": np.arange(n_l, dtype=np.int64),
        }
    )
    right = pd.DataFrame(
        {
            # keys 5..29: keys 0..4 on the left have NO right rows at all
            "t": rng.integers(100, 900, n_r).astype(np.int64),
            "k": rng.integers(5, 30, n_r).astype(np.int64),
            "rv": np.arange(n_r, dtype=np.int64),
            "rx": rng.normal(size=n_r).round(3),
        }
    )
    # planted: exact-timestamp match and a (k, t) tie on the right
    right.loc[0, ["t", "k"]] = [left.loc[0, "t"], left.loc[0, "k"] + 5]
    left.loc[1, ["t", "k"]] = [500, 7]
    right.loc[1:2, "t"] = 400
    right.loc[1:2, "k"] = 7
    return left, right


class TestAsofJoin:
    def test_brute_force_parity(self, ray_session, frames, monkeypatch):
        left, right = frames
        got = _run(left, right, monkeypatch, num_groups=8)
        want = _brute(left, right)
        pd.testing.assert_frame_equal(
            got[["t", "k", "lv", "rv", "rx"]], want, check_dtype=False
        )
        # unmatched left rows (keys without right history / too-early t)
        # really were dropped, and some exist
        assert len(got) < len(left)
        assert got.rv.ge(0).all()

    def test_partition_invariance(self, ray_session, frames, monkeypatch):
        left, right = frames
        a = _run(left, right, monkeypatch, num_groups=2)
        b = _run(left, right, monkeypatch, num_groups=16)
        pd.testing.assert_frame_equal(a, b)

    def test_sparse_keys_keep_dtypes(self, ray_session, frames, monkeypatch):
        """7 ``by`` keys over the default 64 super-groups leave most groups
        empty; the collected frame has the dtypes of the dense case."""
        left, right = frames
        assert ops.derive_num_groups(len(left) + len(right)) == 64
        few = left.k.isin(range(5, 12)), right.k.isin(range(5, 12))
        sparse = _run(left[few[0]], right[few[1]], monkeypatch)
        dense = _run(left, right, monkeypatch, num_groups=2)
        assert sparse.k.nunique() == 7
        assert sparse.dtypes.to_dict() == dense.dtypes.to_dict()
        pd.testing.assert_frame_equal(sparse, dense[dense.k.isin(range(5, 12))].reset_index(drop=True))

    def test_tie_takes_max_tiebreak(self, ray_session, monkeypatch):
        left = pd.DataFrame({"t": [10], "k": [1], "lv": [0]}).astype(np.int64)
        right = pd.DataFrame(
            {
                "t": [10, 10, 9],
                "k": [1, 1, 1],
                "rv": [3, 7, 5],
                "rx": [0.3, 0.7, 0.5],
            }
        ).astype({"t": np.int64, "k": np.int64, "rv": np.int64})
        got = _run(left, right, monkeypatch, num_groups=4)
        assert len(got) == 1
        assert int(got.rv.iloc[0]) == 7 and float(got.rx.iloc[0]) == 0.7
