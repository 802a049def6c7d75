"""One stateful-stage shape: plain-task ``map_batches`` over a per-worker
broadcast cache (``arrowio.worker_cached``), and no actor-pool knobs."""

import ast
import os
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pyarrow as pa
import pytest
import ray
import ray.data

from geetiles_ray.functions import arrowio

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestWorkerCached:
    def test_builds_once_per_ref_and_rebuilds_for_a_new_ref(self, monkeypatch):
        monkeypatch.setattr(arrowio, "_WORKER_CACHE", {})
        calls = []

        def build(v):
            calls.append(v)
            return v * 2

        a, b = ray.put(1), ray.put(2)
        assert arrowio.worker_cached(a, build) == 2
        assert arrowio.worker_cached(a, build) == 2
        assert calls == [1]
        assert arrowio.worker_cached(b, build) == 4
        assert calls == [1, 2]
        assert arrowio.worker_cached(a) == 2    # one ref, one build

    def test_size_bound_evicts_oldest(self, monkeypatch):
        monkeypatch.setattr(arrowio, "_WORKER_CACHE", {})
        calls = []
        refs = [ray.put(i) for i in range(arrowio.WORKER_CACHE_SIZE + 1)]
        for r in refs:
            arrowio.worker_cached(r, lambda v: calls.append(v) or v)
        assert len(arrowio._WORKER_CACHE) == arrowio.WORKER_CACHE_SIZE
        assert refs[0].hex() not in arrowio._WORKER_CACHE
        arrowio.worker_cached(refs[-1], lambda v: calls.append(v) or v)
        assert len(calls) == len(refs)          # newest still cached
        arrowio.worker_cached(refs[0], lambda v: calls.append(v) or v)
        assert calls[-1] == 0                   # evicted one is rebuilt
        assert len(arrowio._WORKER_CACHE) == arrowio.WORKER_CACHE_SIZE

    def test_one_build_per_worker_process_in_tasks(self):
        ref = ray.put(7)

        def build(v):
            return (os.getpid(), np.random.default_rng().integers(1 << 62), v)

        def f(batch: pa.Table) -> pa.Table:
            pid, token, v = arrowio.worker_cached(ref, build)
            n = len(batch)
            return pa.table({"pid": [pid] * n, "token": [int(token)] * n,
                             "v": [v] * n})

        out = ray.data.range(400, override_num_blocks=40) \
            .map_batches(f, batch_format="pyarrow", batch_size=10) \
            .to_pandas()
        assert (out["v"] == 7).all()
        # every batch a process ran saw that process's one build
        assert (out.groupby("pid")["token"].nunique() == 1).all()


def test_stateful_stages_finish_at_one_cpu():
    """Every formerly actor-pooled text and image stage in a fresh 1-CPU
    Ray session: a fixed pool held the only CPU and starved its own
    upstream read, so these never finished there."""
    code = textwrap.dedent("""
        import pandas as pd, ray, ray.data
        ray.init(address="local", num_cpus=1, include_dashboard=False,
                 logging_level="ERROR")
        from geetiles_ray.pipelines import analytics, bpe, text
        from geetiles_ray.stages import multimodal
        docs = pd.DataFrame({"doc_id": range(60), "text": [
            f"the cat and the dog number {i % 7} le chat" for i in range(60)]})
        ds = ray.data.from_pandas(docs).map_batches(
            lambda b: b, batch_format="pyarrow", batch_size=20)
        assert set(text.lang_id(ds).to_pandas()["lang_pred"]) <= {"en", "fr"}
        oov = analytics.oov_rate(ds, vocab_size=5).to_pandas()
        assert len(oov) == 60 and (oov.n_oov <= oov.n_tokens).all()
        assert len(analytics.tfidf_topk(ds, k=2).to_pandas()) == 120
        lp = text.unigram_logprob(ds).to_pandas()
        assert (lp.n_tokens == 9).all(), lp.n_tokens.tolist()
        bc = bpe.bpe_token_counts(ds).to_pandas()
        assert (bc.n_bpe_tokens >= bc.n_words).all()
        blobs = ray.data.from_pandas(pd.DataFrame({
            "identifier": [str(i) for i in range(40)],
            "payload": [bytes([i]) * 100 for i in range(40)]}))
        feats = multimodal.image_features(
            multimodal.decode_images(blobs, hw=(8, 8))).to_pandas()
        assert len(feats) == 40
        ray.shutdown()
    """)
    env = {**os.environ, "PYTHONPATH": ROOT}
    env.pop("RAY_ADDRESS", None)
    proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)   # the child's Ray daemons too
        proc.communicate()
        pytest.fail("stateful stages did not finish at num_cpus=1 in 60 s")
    assert proc.returncode == 0, out[-3000:]


# where a `concurrency=` may appear: assign_pages (its use_actors=True
# pool; perfbench calls it with concurrency=), flagship.run which forwards
# to it, and render_tiles' int task cap (the reference's --n_processes
# download cap)
_CONCURRENCY_FUNCS = {"assign_pages", "render_tiles", "flagship.run"}


class _ShapeGuard(ast.NodeVisitor):
    def __init__(self, module: str, classes: set[str]):
        self.module, self.classes = module, classes
        self.stack: list[str] = []
        self.errors: list[str] = []

    def _where(self) -> str:
        return self.stack[-1] if self.stack else "<module>"

    def _allowed(self, name: str) -> bool:
        if name == "run":
            name = f"{self.module}.run"
        return name in _CONCURRENCY_FUNCS

    def _fail(self, node, what: str) -> None:
        self.errors.append(f"{self.module}.py:{node.lineno} "
                           f"({self._where()}): {what}")

    def visit_FunctionDef(self, node):
        names = [a.arg for a in node.args.args + node.args.kwonlyargs]
        if "concurrency" in names and not self._allowed(node.name):
            self._fail(node, "concurrency parameter")
        if node.name == "_pool_size":
            self._fail(node, "_pool_size")
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    def visit_Call(self, node):
        func = node.func
        callee = (func.attr if isinstance(func, ast.Attribute)
                  else getattr(func, "id", ""))
        if isinstance(func, ast.Attribute) and isinstance(func.value,
                                                          ast.Name):
            dotted = f"{func.value.id}.{func.attr}"
        else:
            dotted = callee
        in_actor_path = "assign_pages" in self.stack
        for kw in node.keywords:
            if kw.arg in ("fn_constructor_kwargs", "fn_constructor_args") \
                    and not in_actor_path:
                self._fail(node, kw.arg)
            if kw.arg == "concurrency" and not (
                    self._allowed(self._where())
                    or callee in ("assign_pages", "render_tiles")
                    or dotted == "flagship.run"):
                self._fail(node, f"concurrency= in a call to {dotted}")
        if callee == "map_batches" and not in_actor_path:
            fn = node.args[0] if node.args else next(
                (k.value for k in node.keywords if k.arg == "fn"), None)
            name = (fn.id if isinstance(fn, ast.Name)
                    else fn.attr if isinstance(fn, ast.Attribute) else None)
            if name in self.classes:
                self._fail(node, f"class {name} passed to map_batches")
        self.generic_visit(node)


def test_one_stateful_stage_shape():
    """Lint over geetiles_ray/: no actor-pool constructor arguments, no
    class object handed to ``map_batches`` and no ``concurrency=``
    outside ``assign_pages``, ``flagship.run`` and ``render_tiles``."""
    pkg = os.path.join(ROOT, "geetiles_ray")
    trees = {}
    for d, _, files in os.walk(pkg):
        for f in files:
            if f.endswith(".py"):
                path = os.path.join(d, f)
                with open(path) as fh:
                    trees[os.path.relpath(path, pkg)[:-3]
                          .replace(os.sep, ".")] = ast.parse(fh.read())
    classes = {n.name for t in trees.values() for n in ast.walk(t)
               if isinstance(n, ast.ClassDef)}
    errors = []
    for mod, tree in sorted(trees.items()):
        guard = _ShapeGuard(mod.rsplit(".", 1)[-1], classes)
        guard.visit(tree)
        errors += guard.errors
    assert not errors, "\n".join(errors)
