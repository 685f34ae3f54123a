"""Open-set network intrusion detection.

Benign traffic is modeled as N sub-clusters (t-SNE embedding + k-means);
one binary base learner per cluster turns a packet into an N-vector of
membership probabilities; four meta-classifiers vote on those
meta-features to label the packet benign or unknown attack.
"""

from .capture import (
    FLOW_DTYPE,
    RawPacketRecord,
    UnmatchedReport,
    deduplicate,
    extract_payload_features,
    label_packets,
    parse_capture,
    read_flow_csv,
    undersample_benign,
)
from .clustering import (
    ClusteringReport,
    EmbeddingParams,
    annotate_clusters,
    kmeans,
    select_cluster_count,
    silhouette_score,
    tsne_embed,
)
from .evaluation import (
    EvalReport,
    SyntheticConfig,
    evaluate,
    generate_synthetic,
    naive_baseline,
)
from .learners import (
    BaseEnsemble,
    BinaryScorer,
    TrainingConfig,
    meta_feature_matrix,
    train_base_ensemble,
)
from .meta import (
    BENIGN,
    UNKNOWN_ATTACK,
    MetaConfig,
    MetaEnsemble,
    Verdict,
    predict_batch,
    train_meta_classifiers,
    vote,
)
from .persistence import load_bundle, load_sample_set, save_bundle, save_sample_set
from .samples import BENIGN_CLASS_ID, BENIGN_CLASS_NAME, RECORD_DTYPE, SampleSet, make_records
from .splits import SplitResult, SplitSpec, build_splits, split_manifest

__version__ = "0.1.0"
