"""Cross-snapshot incremental dedup (pipelines/snapshots.py): a new crawl
snapshot drops urls already ingested by prior runs' checkpointed output —
the reference's skip_if_exists resume (gee.py:267-274) at corpus scale —
composed with the per-partition kill-and-resume layer."""

import glob
import os

import numpy as np
import pandas as pd
import pytest
import ray

from geetiles_ray.pipelines import snapshots as snap
from geetiles_ray.state import manifest as mf


def _write_snapshot(df: pd.DataFrame, out: str, n_partitions: int = 4):
    mf.checkpointed_write(ray.data.from_pandas(df), out, key_col="url",
                          n_partitions=n_partitions)


@pytest.fixture()
def snap1(tmp_path):
    df = pd.DataFrame({
        "url": [f"http://h{i % 7}.example/p{i}" for i in range(300)],
        "val": np.arange(300),
    })
    out = str(tmp_path / "snap1")
    _write_snapshot(df, out)
    return df, out


class TestDedupAgainstSnapshots:
    def test_exact_under_saturated_bloom(self, snap1):
        """nbits=64 saturates the Bloom filter (~every probe a false
        positive) — the exact verify path must still produce precisely
        the brute pandas anti-join."""
        df1, out1 = snap1
        df2 = pd.DataFrame({
            # 150 overlap (every other prior url), 200 new
            "url": [f"http://h{i % 7}.example/p{i}" for i in range(0, 300, 2)]
                   + [f"http://new{i}.example/x" for i in range(200)],
            "val": np.arange(350),
        })
        got = snap.dedup_against_snapshots(
            ray.data.from_pandas(df2), [out1], key="url",
            nbits=64).to_pandas()
        want = df2[~df2.url.isin(df1.url)]
        assert sorted(got.url) == sorted(want.url)
        pd.testing.assert_frame_equal(
            got.sort_values("url").reset_index(drop=True),
            want.sort_values("url").reset_index(drop=True))

    def test_default_bloom_and_multiple_priors(self, snap1, tmp_path):
        df1, out1 = snap1
        df1b = pd.DataFrame({
            "url": [f"http://other{i}.example/" for i in range(100)],
            "val": np.arange(100),
        })
        out2 = str(tmp_path / "snap1b")
        _write_snapshot(df1b, out2)
        df3 = pd.DataFrame({
            "url": list(df1.url[:50]) + list(df1b.url[:50])
                   + ["http://fresh.example/a", "http://fresh.example/b"],
            "val": np.arange(102),
        })
        got = snap.dedup_against_snapshots(
            ray.data.from_pandas(df3), [out1, out2], key="url").to_pandas()
        assert sorted(got.url) == ["http://fresh.example/a",
                                   "http://fresh.example/b"]

    def test_no_priors_is_passthrough(self):
        ds = ray.data.from_pandas(pd.DataFrame({"url": ["a"], "val": [1]}))
        assert snap.dedup_against_snapshots(ds, [], key="url") is ds

    def test_all_new_never_exchanges_schema_stable(self, snap1):
        """Entirely-new snapshot: survivors side is empty — the union must
        still carry one explicit schema (typed empty, not null columns)."""
        _, out1 = snap1
        df = pd.DataFrame({"url": [f"http://brand{i}.example/" for i in
                                   range(40)], "val": np.arange(40)})
        got = snap.dedup_against_snapshots(
            ray.data.from_pandas(df), [out1], key="url")
        out = got.to_pandas()
        assert sorted(out.url) == sorted(df.url)
        assert str(out.val.dtype) == "int64"


class TestIngestSnapshotResume:
    def test_snapshot2_drops_snapshot1_urls_and_kill_resumes(self, tmp_path):
        """The VERDICT round-4 item #7 gate: snapshot 2 drops urls already
        ingested in snapshot 1, and a killed snapshot-2 run resumed with
        the same --prior_dirs rewrites ONLY its missing partitions while
        preserving the incremental-dedup result byte-for-byte."""
        from geetiles_ray import cli

        s1 = str(tmp_path / "s1")
        s2 = str(tmp_path / "s2")
        common = ["--chip_size_meters", "20000", "--n_partitions", "6"]
        cli.main(["ingest", "--n_pages", "2000", "--dest_dir", s1] + common)
        urls1 = set(mf.read_checkpointed(s1).select_columns(["url"])
                    .to_pandas().url)

        # generate_pages is prefix-stable: snapshot 2 (3000 pages) contains
        # snapshot 1's 2000 pages plus 1000 genuinely new ones
        cli.main(["ingest", "--n_pages", "3000", "--dest_dir", s2,
                  "--prior_dirs", s1] + common)
        back2 = mf.read_checkpointed(s2).to_pandas()
        assert not set(back2.url) & urls1          # all snap1 urls dropped
        assert len(back2) > 0                       # the new tail survived
        full = set()
        for p in glob.glob(os.path.join(s2, "part=*/data.parquet")):
            full.add(p)
        baseline = back2.sort_values("url").reset_index(drop=True)

        # kill: two partitions of snapshot 2 never completed
        for pid in (1, 4):
            os.remove(mf.manifest_path(s2, pid))
            os.remove(os.path.join(s2, f"part={pid:05d}", "data.parquet"))
        cli.main(["ingest", "--n_pages", "3000", "--dest_dir", s2,
                  "--prior_dirs", s1] + common)
        resumed = mf.read_checkpointed(s2).to_pandas() \
            .sort_values("url").reset_index(drop=True)
        pd.testing.assert_frame_equal(resumed, baseline)
        # untouched partitions were skipped, not rewritten
        m = mf.load_manifests(s2)
        assert set(m) == set(range(6))
