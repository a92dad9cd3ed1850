"""Parameter layout: the names, and so the checkpoint header and the order
in which the initializer draws, for every variant and ordering."""
import numpy as np
import pytest

from duograph.errors import NoRelations
from duograph.graph import NodeType, RelationClass, RelationSpec, build_graph
from duograph.model import ORDERINGS, VARIANTS, ModelConfig, TaskKind, TaskSpec
from duograph.params import build_params

# one-layer layouts on the `tiny_graph` fixture (colleague, cite, wrote)
INTRA_FULL = [
    "layer0.intra.colleague.attn", "layer0.intra.colleague.gain", "layer0.intra.colleague.bias",
    "layer0.A.local_score", "layer0.A.global_logits", "layer0.A.mix_logit",
    "layer0.A.res_intra.gain", "layer0.A.res_intra.bias",
    "layer0.intra.cite.attn", "layer0.intra.cite.gain", "layer0.intra.cite.bias",
    "layer0.B.local_score", "layer0.B.global_logits", "layer0.B.mix_logit",
    "layer0.B.res_intra.gain", "layer0.B.res_intra.bias",
]
INTRA_NO_GLOBAL = [
    "layer0.intra.colleague.attn", "layer0.intra.colleague.gain", "layer0.intra.colleague.bias",
    "layer0.A.local_score", "layer0.A.res_intra.gain", "layer0.A.res_intra.bias",
    "layer0.intra.cite.attn", "layer0.intra.cite.gain", "layer0.intra.cite.bias",
    "layer0.B.local_score", "layer0.B.res_intra.gain", "layer0.B.res_intra.bias",
]
INTRA_NO_HIER = [
    "layer0.intra.colleague.attn", "layer0.intra.colleague.gain", "layer0.intra.colleague.bias",
    "layer0.A.res_intra.gain", "layer0.A.res_intra.bias",
    "layer0.intra.cite.attn", "layer0.intra.cite.gain", "layer0.intra.cite.bias",
    "layer0.B.res_intra.gain", "layer0.B.res_intra.bias",
]
INTER_HEADS = [
    "layer0.A.common_map", "layer0.B.common_map",
    "layer0.inter.wrote.to_A.attn", "layer0.inter.wrote.to_A.gain", "layer0.inter.wrote.to_A.bias",
    "layer0.inter.wrote.to_B.attn", "layer0.inter.wrote.to_B.gain", "layer0.inter.wrote.to_B.bias",
]
INTER_SCORED = [
    "layer0.A.inter_score", "layer0.A.res_inter.gain", "layer0.A.res_inter.bias",
    "layer0.B.inter_score", "layer0.B.res_inter.gain", "layer0.B.res_inter.bias",
]
INTER_NO_HIER = [
    "layer0.A.res_inter.gain", "layer0.A.res_inter.bias",
    "layer0.B.res_inter.gain", "layer0.B.res_inter.bias",
]
UNIFIED = [
    "layer0.uni.colleague.to_A.attn", "layer0.uni.colleague.to_A.gain",
    "layer0.uni.colleague.to_A.bias",
    "layer0.uni.wrote.to_A.attn", "layer0.uni.wrote.to_A.gain", "layer0.uni.wrote.to_A.bias",
    "layer0.A.local_score", "layer0.A.global_logits", "layer0.A.mix_logit",
    "layer0.A.res.gain", "layer0.A.res.bias",
    "layer0.uni.cite.to_B.attn", "layer0.uni.cite.to_B.gain", "layer0.uni.cite.to_B.bias",
    "layer0.uni.wrote.to_B.attn", "layer0.uni.wrote.to_B.gain", "layer0.uni.wrote.to_B.bias",
    "layer0.B.local_score", "layer0.B.global_logits", "layer0.B.mix_logit",
    "layer0.B.res.gain", "layer0.B.res.bias",
]
PROJ = ["layer0.A.proj", "layer0.B.proj"]
MERGE = ["layer0.A.merge", "layer0.B.merge"]
HEADS = ["head.pv.weight", "head.ad.query", "head.ad.cand"]

LAYOUTS = {
    "full": PROJ + INTRA_FULL + INTER_HEADS + INTER_SCORED,
    "no-global": PROJ + INTRA_NO_GLOBAL + INTER_HEADS + INTER_SCORED,
    "no-hier": PROJ + INTRA_NO_HIER + INTER_HEADS + INTER_NO_HIER,
    "no-dual": PROJ + UNIFIED,
}

TASKS = [TaskSpec("pv", TaskKind.SINGLE_LABEL, NodeType.B, n_classes=2),
         TaskSpec("ad", TaskKind.LINK_RANKING, NodeType.A)]


@pytest.mark.parametrize("ordering", ORDERINGS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_layout_per_variant_and_ordering(tiny_graph, variant, ordering):
    config = ModelConfig(input_dim=2, hidden_dim=4, num_layers=1, variant=variant,
                         ordering=ordering)
    merge = MERGE if ordering == "parallel" and variant != "no-dual" else []
    expected = LAYOUTS[variant] + merge + HEADS
    assert [n for n, _ in build_params(tiny_graph, config, TASKS).named] == expected


def test_cross_attention_created_relation_major():
    # with two cross relations the directions of one relation come before
    # the next relation, unlike the type-major within-class attention
    relations = [
        RelationSpec("colleague", RelationClass.INTRA_A, NodeType.A, NodeType.A),
        RelationSpec("cite", RelationClass.INTRA_B, NodeType.B, NodeType.B),
        RelationSpec("wrote", RelationClass.INTER, NodeType.A, NodeType.B),
        RelationSpec("reviewed", RelationClass.INTER, NodeType.B, NodeType.A),
    ]
    feats = {NodeType.A: np.zeros((2, 2)), NodeType.B: np.zeros((2, 2))}
    graph = build_graph({NodeType.A: 2, NodeType.B: 2}, feats, relations, [])
    ps = build_params(graph, ModelConfig(input_dim=2, hidden_dim=4, num_layers=1), [])
    assert [n for n, _ in ps.named if n.startswith("layer0.inter.") and n.endswith(".attn")] == [
        "layer0.inter.reviewed.to_A.attn", "layer0.inter.reviewed.to_B.attn",
        "layer0.inter.wrote.to_A.attn", "layer0.inter.wrote.to_B.attn"]


@pytest.mark.parametrize("variant", VARIANTS)
def test_class_without_within_class_relation_rejected_at_build(variant):
    # the only relation is `cite` within B: class A has nothing to attend over,
    # which used to leave a zero-width layer0.A.global_logits for forward to trip on
    relations = [RelationSpec("cite", RelationClass.INTRA_B, NodeType.B, NodeType.B)]
    feats = {NodeType.A: np.zeros((2, 2)), NodeType.B: np.zeros((2, 2))}
    graph = build_graph({NodeType.A: 2, NodeType.B: 2}, feats, relations, [("cite", 0, 1)])
    stage = "unified" if variant == "no-dual" else "intra"
    config = ModelConfig(input_dim=2, hidden_dim=4, num_layers=1, variant=variant)
    with pytest.raises(NoRelations, match=f"node class A has no relations for the {stage} stage"):
        build_params(graph, config, TASKS)
