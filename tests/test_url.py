"""URL parsing + per-domain stats (functions/url.py)."""

import pandas as pd
import ray.data

from geetiles_ray.functions import url as urlmod
from geetiles_ray.pipelines import dedup


class TestParseUrls:
    def test_components(self):
        s = pd.Series([
            "https://en.site3.example/p/42?ref=r1",
            "http://bare.example/",
            "https://deep.a.b.site.example/x/y#frag",
            "ftp://files.example",          # no path at all
            "not a url",                     # unparseable → empty strings
            "https://single/x",              # dotless host → no domain
        ])
        p = urlmod.parse_urls(s)
        assert list(p.scheme) == ["https", "http", "https", "ftp", "", "https"]
        assert list(p.host) == ["en.site3.example", "bare.example",
                                "deep.a.b.site.example", "files.example",
                                "", "single"]
        assert list(p.domain) == ["site3.example", "bare.example",
                                  "site.example", "files.example", "", ""]
        assert list(p.path) == ["/p/42", "/", "/x/y", "", "", "/x"]

    def test_port_and_userinfo_stripped(self):
        s = pd.Series([
            "https://example.com:8080/x",
            "https://user@host.example/y",
            "https://u:pw@en.site.example:443/z",
            "http://bad.example:/trailing-colon",
        ])
        p = urlmod.parse_urls(s)
        assert list(p.host) == ["example.com", "host.example",
                                "en.site.example", "bad.example"]
        assert list(p.domain) == ["example.com", "host.example",
                                  "site.example", "bad.example"]

    def test_add_url_columns_stage(self):
        df = pd.DataFrame({"url": ["https://a.b.example/p", "x"],
                           "v": [1, 2]})
        out = urlmod.add_url_columns(ray.data.from_pandas(df)) \
            .to_pandas().sort_values("v").reset_index(drop=True)
        assert list(out.columns) == ["url", "v", "scheme", "host",
                                     "domain", "path"]
        assert out.domain[0] == "b.example" and out.domain[1] == ""

    def test_domain_stats_brute(self):
        rows = []
        for i in range(60):
            lang = ["en", "es", "fr"][i % 3]
            rows.append({"url": f"https://{lang}.site{i % 4}.example/p/{i}",
                         "lang": lang, "n_chars": 10 + i})
        df = pd.DataFrame(rows)
        got = urlmod.domain_stats(ray.data.from_pandas(df))
        exp = df.copy()
        exp["domain"] = "site" + (df.index % 4).astype(str) + ".example"
        exp["host"] = df.lang + "." + exp.domain
        b = exp.groupby("domain").agg(
            n_pages=("url", "size"), n_hosts=("host", "nunique"),
            n_langs=("lang", "nunique"), sum_chars=("n_chars", "sum"),
        ).reset_index().sort_values("domain").reset_index(drop=True)
        pd.testing.assert_frame_equal(got, b.astype({
            "n_pages": "int64", "n_hosts": "int64",
            "n_langs": "int64", "sum_chars": "int64"}))

    def test_domain_stats_over_hash_range_fold(self, monkeypatch):
        monkeypatch.setattr(dedup, "ONE_TASK_FOLD_ROWS", 0)
        self.test_domain_stats_brute()


class TestCanonicalize:
    def c(self, u):
        return urlmod.canonicalize_urls(pd.Series([u]))[0]

    def test_full_mess(self):
        assert self.c("HTTPS://u:p@WWW.Ex.COM:443/a/b/?utm_source=x&id=3#f") \
            == "https://www.ex.com/a/b/?id=3"

    def test_only_tracking_params_drop_query_entirely(self):
        assert self.c("http://h.example/p?utm_a=1&gclid=2") \
            == "http://h.example/p"

    def test_non_default_port_kept(self):
        assert self.c("http://h.example:8080/p") == "http://h.example:8080/p"
        assert self.c("https://h.example:80/p") == "https://h.example:80/p"

    def test_null_stays_null(self):
        got = urlmod.canonicalize_urls(
            pd.Series([None, "HTTP://A.example/x/", None]))
        assert got.isna().tolist() == [True, False, True]
        assert got[1] == "http://a.example/x"

    def test_trailing_slash_and_root(self):
        assert self.c("http://h.example/a/") == "http://h.example/a"
        # root slash: preceding char is the host's last letter → stripped
        assert self.c("http://h.example/") == "http://h.example"
        # '://' double slash never matches ([^:/] guard)
        assert self.c("http://") == "http://"

    def test_mid_url_params_kept(self):
        assert self.c("http://h.example/p?id=1&ref=spam&z=2") \
            == "http://h.example/p?id=1&z=2"

    def test_ampersand_in_path_preserved(self):
        # '&' is a legal path char (RFC 3986) — the tracking-param chain
        # must only rewrite the query substring (round-4 advisor finding)
        assert self.c("http://h.example/a&b") == "http://h.example/a&b"
        assert self.c("http://h.example/a&b?id=1") \
            == "http://h.example/a&b?id=1"
        assert self.c("http://h.example/a&b?utm_a=1&id=2") \
            == "http://h.example/a&b?id=2"

    def test_unparseable_passthrough(self):
        assert self.c("not a url#frag") == "not a url"

    def test_path_case_preserved(self):
        assert self.c("HTTP://H.EX/Path/File") == "http://h.ex/Path/File"
