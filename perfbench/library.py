"""Every direct call the benchmark makes into the osnids library.

The timed runs drive the program through its CLI in a child process. The
few things that cannot go through the CLI live here, so a change to the
library's names needs one file changed:

* the CLI's in-process entry point (config template, traced runs);
* single-row verdicts, each a one-row slice through the batch API;
* the meta-classifier fits made once per family in a traced run;
* the list of public functions a traced run wraps in spans.
"""

from __future__ import annotations

import io
import time
from contextlib import contextmanager, redirect_stdout

import numpy as np

from osnids import capture, cli, clustering, evaluation, learners, meta, persistence, trees


def cli_main(argv: list[str]) -> int:
    """`osnids` in this process; its progress lines are dropped, so the
    benchmark's own standard output stays its result."""
    with redirect_stdout(io.StringIO()):
        return cli.main(argv)


WARMUP_VERDICTS = 10


def single_verdicts(bundle_dir, sset_path, indices):
    """Score each listed row alone through the batch API.

    Returns per-verdict latencies in ms and (O bits, v, decision, p) tuples.
    The bundle and the set are loaded once, outside the timed calls, and a
    few untimed calls go first so lazy set-up is not counted.
    """
    base, meta_ens = persistence.load_bundle(bundle_dir)
    samples = persistence.load_sample_set(sset_path).samples
    for i in indices[:WARMUP_VERDICTS]:
        meta.predict_batch(base, meta_ens, samples[i : i + 1])
    latencies, out = [], []
    for i in indices:
        t0 = time.perf_counter()
        verdicts, mf = meta.predict_batch(base, meta_ens, samples[i : i + 1])
        latencies.append((time.perf_counter() - t0) * 1e3)
        out.append((verdicts[0].outputs, verdicts[0].v, verdicts[0].decision, mf[0]))
    return latencies, out


class Tracer:
    """In-memory spans: name, start, end, CPU time and the enclosing span."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "parent": self._stack[-1] if self._stack else None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"], cpu0 = time.perf_counter(), time.process_time()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            rec["cpu"] = time.process_time() - cpu0
            self._stack.pop()

    def wrap(self, module, attr: str, name: str, note=None) -> None:
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = original(*args, **kwargs)
                if note is not None:
                    rec.update(note(result, args, kwargs))
                return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def unwrap(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def names(self) -> set[str]:
        return {s["name"] for s in self.spans}


def _tsne_note(result, args, kwargs):
    params = args[1] if len(args) > 1 else kwargs["params"]
    return {"iterations": params.iterations}


# (module, function, span name, note): the public functions a traced run
# times. A function reached under two module names is wrapped under both.
LAYER_CALLS = [
    (capture, "parse_capture", "capture.parse", lambda r, a, k: {"packets": len(r)}),
    (capture, "label_packets", "capture.label", None),
    (capture, "deduplicate", "capture.dedup", None),
    (capture, "undersample_benign", "capture.undersample", None),
    (clustering, "tsne_embed", "clustering.tsne", _tsne_note),
    (clustering, "select_cluster_count", "clustering.kmeans_sweep", lambda r, a, k: {"selected_n": r.selected_n}),
    (learners, "sample_tensors", "learners.tensor_build", None),
    (learners, "train_base_ensemble", "learners.train_base", None),
    (learners, "train_scorer", "learners.train_scorer", lambda r, a, k: {"epochs": len(r.training_meta["loss_curve"])}),
    (learners, "meta_feature_matrix", "learners.meta_features", None),
    (meta, "meta_feature_matrix", "learners.meta_features", None),
    (meta, "train_meta_classifiers", "meta.train", None),
    (meta, "predict_batch", "meta.predict_batch", None),
    (evaluation, "predict_batch", "meta.predict_batch", None),
    (evaluation, "evaluate", "evaluation.evaluate", None),
    (evaluation, "naive_baseline", "evaluation.baseline", None),
    (persistence, "load_sample_set", "persistence.sset_load", None),
    (persistence, "save_sample_set", "persistence.sset_save", None),
    (persistence, "load_bundle", "persistence.bundle_load", None),
]


def install_layer_spans(tracer: Tracer) -> None:
    for module, attr, name, note in LAYER_CALLS:
        tracer.wrap(module, attr, name, note)


def fit_meta_families(tracer: Tracer, bundle_dir, d2_path, cfg: dict) -> dict:
    """Fit each meta family once on D2's meta-features through its public
    class, in a span `meta.fit.<family>`. Returns the tree families' node counts."""
    base, _ = persistence.load_bundle(bundle_dir)
    d2 = persistence.load_sample_set(d2_path).samples
    X = learners.meta_feature_matrix(base, d2)
    y = np.array([0.0 if s.label == 0 else 1.0 for s in d2])
    m = cfg["meta"]
    families = {
        "logistic": meta.LogisticMetaClassifier(),
        "random_forest": trees.RandomForest(n_trees=m["forest_trees"], max_depth=m["forest_depth"], seed=cfg["seed"]),
        "boost_depthwise": trees.GradientBoostedTrees(
            growth="depthwise", rounds=m["boost_rounds"], learning_rate=m["boost_learning_rate"], max_depth=m["boost_depth"]
        ),
        "boost_leafwise": trees.GradientBoostedTrees(
            growth="leafwise", rounds=m["boost_rounds"], learning_rate=m["boost_learning_rate"], max_leaves=m["boost_leaves"]
        ),
    }
    nodes = {}
    for family, clf in families.items():
        with tracer.span(f"meta.fit.{family}"):
            clf.fit(X, y)
        if family != "logistic":
            nodes[family] = sum(len(t) for t in clf.trees)
    return nodes
