"""Single executable exposing every pipeline stage as a subcommand.

Exit codes: 0 success, 1 usage error (bad flags or flag values, such as a
float flag given ``nan`` or ``inf``), 2 data or validation error (a named
input file violates its contract), 3 I/O error.

Every subcommand prints a one-line human summary to standard output and can
write a machine-readable JSON report with a ``{"tool_version", "command",
"inputs", "results"}`` envelope to ``--out`` (for ``eval`` and ``reid`` the
report is the primary product and ``--out`` is required). ``inputs`` echoes
every flag except ``--out``, defaults included, keyed by its argparse name
(hyphens become underscores), with paths as given. Reports contain no
timestamps or absolute-path echoes beyond the flags as given, so a rerun
with identical inputs and seeds is byte-identical.

The parser is built on the first ``run`` and reused for the rest of the process.
"""

from __future__ import annotations

import argparse
import functools
import sys
from itertools import islice
from math import isfinite, nan
from pathlib import Path

import numpy as np

from . import __version__
from .det_metrics import (
    evaluate,
    load_detections_jsonl,
    load_ground_truth_jsonl,
    write_detections_jsonl,
)
from .errors import DataValidationError, MotionStackError
from .frame_pipeline import MANIFEST_NAME, VARIANTS, FrameSequence, InputConfig, build_dataset, normalize_variant
from .jsonio import _echo, check_boxes, expect, read_json, read_jsonl, write_json
from .metric_learning import (
    DEFAULT_HIDDEN,
    DEFAULT_MERGE_THRESHOLD,
    NET_MANIFEST_NAME,
    EmbeddingNet,
    TrainConfig,
    load_feature_table,
    load_net,
    load_triplets_jsonl,
    mine_triplets,
    pca_project_2d,
    propose_merges,
    save_net,
    separation_metrics,
    tracklet_centroids,
    tracklet_embeddings,
    train,
    write_scatter_csv,
    write_triplets_jsonl,
)
from .roi_features import OUT_SIZE, SAMPLING_RATIO, FeatureMap, pool_boxes
from .synth_scenes import (
    BACKGROUND_MODES,
    SceneConfig,
    generate,
    perturb_detections,
)
from .tensor_io import read_tensor, write_tensor
from .tracklets import (
    MIN_TRACKLET_LEN,
    enumerate_keys,
    filter_min_length,
    load_identity_map,
    load_tracklets_json,
)
from .weight_surgery import MODES, expand_first_layer, load_conv_layer, save_conv_layer


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit(2); a ValueError exits 1
        raise ValueError(message)


_NOT_INPUTS = ("func", "command", "synth_command", "out")


def _emit_report(args, results: dict) -> None:
    if args.out is None:
        return
    command = " ".join(filter(None, (args.command, getattr(args, "synth_command", None))))
    inputs = {
        key: str(value) if isinstance(value, Path) else value
        for key, value in vars(args).items()
        if key not in _NOT_INPUTS
    }
    write_json(
        {"tool_version": __version__, "command": command, "inputs": inputs, "results": results},
        args.out,
    )


def _finite_float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        value = nan
    if not isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {_echo(raw)}")
    return value


def _seed(raw: str) -> int:
    if not raw.isdecimal():  # digits only, so no sign: a seed is never negative
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {_echo(raw)}")
    return int(raw)


def _parse_switch(raw: str) -> tuple[int, int]:
    try:
        obj, frame = map(int, raw.split(":"))
    except ValueError:  # not two parts, or a part that is no integer
        raise argparse.ArgumentTypeError(f"expected OBJECT:FRAME, two integers, got {_echo(raw)}") from None
    return obj, frame


def _parse_hidden(raw: str) -> tuple[int, ...]:
    try:
        widths = tuple(int(p) for p in raw.split(",") if p.strip())
    except ValueError:
        widths = ()
    if not widths:
        raise argparse.ArgumentTypeError(f"expected comma-separated integer layer widths, got {_echo(raw)}")
    return widths


def _variant(raw: str) -> str:
    try:
        return normalize_variant(raw)
    except ValueError as exc:  # argparse would print only the function's name
        raise argparse.ArgumentTypeError(str(exc)) from None


def _load_boxes_json(path: str) -> np.ndarray:
    doc = read_json(path)
    raw = expect(doc.get("boxes") if isinstance(doc, dict) else doc, list, f"{path}: boxes")
    boxes = check_boxes(raw, f"{path}: boxes")
    if not len(boxes):
        raise DataValidationError(f"{path}: no boxes to pool")
    return boxes


def _load_net_for(path: Path, table) -> EmbeddingNet:
    net = load_net(path)
    if net.in_dim != table.dim:
        raise DataValidationError(f"{path}: net expects {net.in_dim}-d features, got {table.dim}-d")
    return net


def _embed(net: EmbeddingNet, path: Path, tracklets, table):
    # ``tracklet_embeddings``, with embeddings past float32 named by the net's file, ``path``.
    try:
        return tracklet_embeddings(net, tracklets, table)
    except DataValidationError as exc:  # the table holds every key, so only an overflow is left
        raise DataValidationError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# subcommand implementations; each returns (results, summary)


def _cmd_stack(args):
    config = InputConfig(variant=args.variant, n=args.n, delta=args.delta)
    if config.range_warning:
        print(
            "warning: parameters outside the evaluated range (n 1..10, delta 1..5)",
            file=sys.stderr,
        )
    source = FrameSequence.from_dir(args.frames)
    manifest = build_dataset(source, config, args.out_dir, labels_dir=args.labels)
    results = {
        "num_items": len(manifest["items"]),
        "config": manifest["config"],
        "manifest": MANIFEST_NAME,
    }
    summary = (
        f"stack: wrote {len(manifest['items'])} tensors "
        f"({config.variant}, {config.channels} channels) to {args.out_dir}"
    )
    return results, summary


def _cmd_surgery(args):
    layer = load_conv_layer(args.weights)
    expanded = expand_first_layer(layer, args.n, args.mode, seed=args.seed)
    save_conv_layer(expanded, args.out_weights)
    results = {
        "in_shape": list(layer.weight.shape),
        "out_shape": list(expanded.weight.shape),
        "bias": expanded.bias is not None,
    }
    summary = (
        f"surgery: {args.mode} n={args.n}: {list(layer.weight.shape)} -> "
        f"{list(expanded.weight.shape)} written to {args.out_weights}"
    )
    return results, summary


def _cmd_eval(args):
    dets = load_detections_jsonl(args.dets)
    gts = load_ground_truth_jsonl(args.gt)
    report = evaluate(dets, gts)
    summary = (
        f"eval: map50={report['map50']:.4f} map5095={report['map5095']:.4f} "
        f"precision={report['precision']:.4f} recall={report['recall']:.4f}"
    )
    return report, summary


def _cmd_features(args):
    if not args.scale > 0:
        raise ValueError(f"--scale must be positive, got {args.scale}")
    fmap = FeatureMap(read_tensor(args.map, band=True), spatial_scale=args.scale)  # rows read as pool_boxes asks
    boxes = _load_boxes_json(args.boxes)
    try:
        vectors = pool_boxes(fmap, boxes, args.out_h, args.out_w, args.sampling_ratio)
    except DataValidationError as exc:  # a box that breaks at --scale
        raise DataValidationError(f"{args.boxes}: {exc}") from None
    write_tensor(vectors, args.out_features)
    results = {"num_boxes": int(vectors.shape[0]), "channels": int(vectors.shape[1])}
    summary = (
        f"features: pooled {vectors.shape[0]} boxes to {vectors.shape[1]}-d vectors "
        f"in {args.out_features}"
    )
    return results, summary


def _cmd_mine(args):
    tracklets = load_tracklets_json(args.tracklets)
    kept = filter_min_length(tracklets, args.min_len)
    triplets = mine_triplets(kept, args.seed, args.per_anchor)
    write_triplets_jsonl(triplets, args.out_triplets)
    results = {
        "num_tracklets": len(tracklets),
        "num_kept": len(kept),
        "num_triplets": len(triplets),
    }
    summary = (
        f"mine: {len(triplets)} triplets from {len(kept)}/{len(tracklets)} tracklets "
        f"(min length {args.min_len}) in {args.out_triplets}"
    )
    return results, summary


def _cmd_train(args):
    if args.per_anchor < 1:  # provenance only: the triplets file fixes the real rate
        raise ValueError(f"per_anchor must be >= 1, got {args.per_anchor}")
    tracklets = load_tracklets_json(args.tracklets)
    table = load_feature_table(tracklets, args.features)
    triplets = load_triplets_jsonl(args.triplets)
    net = EmbeddingNet.init(
        table.dim, hidden=args.hidden, seed=args.seed, normalize_output=args.normalize_output
    )
    config = TrainConfig(
        margin=args.margin,
        learning_rate=args.lr,
        epochs=args.epochs,
        batch_size=args.batch_size,
        seed=args.seed,
    )
    try:
        net, trace = train(net, table, triplets, config)
    except DataValidationError as exc:  # a key with no feature row: name the line of its triplet
        where, _ = next(islice(read_jsonl(args.triplets), exc.position // 3, None))
        raise DataValidationError(f"{where}: {'apn'[exc.position % 3]}: {exc}") from None
    manifest_path = save_net(net, args.out_dir)
    results = {
        "num_triplets": len(triplets),
        "layer_dims": net.layer_dims,
        "loss_trace": trace,
        "initial_loss": trace[0],
        "final_loss": trace[-1],
        "net": manifest_path.name,
    }
    summary = (
        f"train: {args.epochs} epochs on {len(triplets)} triplets, "
        f"loss {trace[0]:.6f} -> {trace[-1]:.6f}, net saved to {args.out_dir}"
    )
    return results, summary


def _cmd_reid(args):
    if args.threshold < 0:  # before any file is read, worded as propose_merges words it
        raise ValueError(f"threshold must be nonnegative, got {args.threshold}")
    tracklets = load_tracklets_json(args.tracklets)
    table = load_feature_table(tracklets, args.features)
    net = _load_net_for(args.net, table)
    group_of: dict[int, int] = {}
    if args.identity_map:
        ids = set(tracklets.id.tolist())
        for gi, group in enumerate(load_identity_map(args.identity_map)):
            for tid in group:
                if tid not in ids:
                    raise DataValidationError(
                        f"{args.identity_map}: groups[{gi}]: id {_echo(tid)} names no tracklet in {args.tracklets}"
                    )
                group_of[tid] = gi
    # Embedded group by group, groups in order of first appearance and each group's
    # tracklets in file order, so each separation group is one slice of the matrix.
    members: dict[object, list[int]] = {}
    for pos, tid in enumerate(tracklets.id.tolist()):
        members.setdefault(group_of.get(tid, f"ungrouped_{tid}"), []).append(pos)
    grouped = tracklets.take(np.array([pos for group in members.values() for pos in group], dtype=np.intp))
    matrix, embeddings = _embed(net, args.net, grouped, table)
    del table  # the features, not needed past the embeddings
    bounds = grouped.firsts[np.cumsum([0, *map(len, members.values())])].tolist()
    centroids = tracklet_centroids(embeddings)
    merges = propose_merges(centroids, tracklets, args.threshold)
    try:
        separation = separation_metrics({g: matrix[lo:hi] for g, lo, hi in zip(members, bounds, bounds[1:])})
    except DataValidationError as exc:  # fewer than two identities: named by the file that groups them
        raise DataValidationError(f"{args.identity_map or args.tracklets}: {exc}") from None

    results = {
        "threshold": args.threshold,
        "merges": [list(pair) for pair in merges],
        "separation": separation,
        "grouping": "identity_map" if args.identity_map else "tracklet_id",
        "num_tracklets": len(tracklets),
    }
    summary = (
        f"reid: {len(merges)} merge proposals at threshold {args.threshold}, "
        f"intra/inter ratio {separation['ratio']:.4f}"
    )
    return results, summary


def _cmd_project(args):
    tracklets = load_tracklets_json(args.tracklets)
    table = load_feature_table(tracklets, args.features)
    keys = enumerate_keys(tracklets)
    if args.net is None:
        points = table.matrix[table.rows(keys)]  # float32; pca_project_2d widens a block of rows at a time
    else:
        points = _embed(_load_net_for(args.net, table), args.net, tracklets, table)[0]
    del table  # the features, not needed past the points
    try:
        coords = pca_project_2d(points)
    except DataValidationError as exc:  # fewer than two frames
        raise DataValidationError(f"{args.tracklets}: {exc}") from None
    write_scatter_csv(keys, coords, args.out_csv)
    results = {"num_points": len(keys), "embedded": args.net is not None}
    summary = f"project: wrote {len(keys)} points to {args.out_csv}"
    return results, summary


def _cmd_synth_generate(args):
    config = SceneConfig(
        width=args.width,
        height=args.height,
        num_frames=args.num_frames,
        num_objects=args.num_objects,
        radius_range=(args.radius_min, args.radius_max),
        velocity_range=(args.vel_min, args.vel_max),
        id_switch_events=tuple(args.switch),
        seed=args.seed,
        background=args.background,
        feature_dim=args.feature_dim,
    )
    results = generate(config, args.out_dir)
    summary = (
        f"synth generate: {results['num_frames']} frames, "
        f"{results['num_tracklets']} tracklets, "
        f"{results['num_ground_truth']} gt boxes in {args.out_dir}"
    )
    return results, summary


def _cmd_synth_perturb(args):
    if (args.canvas_width is None) != (args.canvas_height is None):
        raise ValueError("--canvas-width and --canvas-height must be given together")
    canvas = None
    if args.canvas_width is not None:
        if args.canvas_width < 1 or args.canvas_height < 1:
            raise ValueError("canvas dimensions must be positive")
        canvas = (args.canvas_width, args.canvas_height)
    gts = load_ground_truth_jsonl(args.gt)
    dets = perturb_detections(
        gts, args.drop_rate, args.jitter_px, args.fp_rate, seed=args.seed, canvas=canvas
    )
    write_detections_jsonl(dets, args.out_dets)
    num_true = int(np.count_nonzero(dets.score == 1.0))
    results = {
        "num_ground_truth": len(gts),
        "num_detections": len(dets),
        "num_true": num_true,
        "num_false_positives": len(dets) - num_true,
    }
    summary = (
        f"synth perturb: {len(dets)} detections ({len(dets) - num_true} false positives) "
        f"from {len(gts)} gt boxes in {args.out_dets}"
    )
    return results, summary


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(
        prog="motionstack",
        description="Motion-aware detection toolkit: frame stacking, first-layer "
        "weight surgery, detection metrics, RoI features, and tracklet "
        "re-identification.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command", parser_class=_Parser)

    p = sub.add_parser("stack", help="build stacked input tensors from a PPM frame directory")
    p.add_argument("--frames", type=Path, required=True, help="directory of *.ppm frames")
    p.add_argument(
        "--variant",
        type=_variant,
        required=True,
        choices=VARIANTS,
        help="stacking layout (hyphens accepted, e.g. rgb-seq)",
    )
    p.add_argument("--n", type=int, default=1, help="frames per stack for sequence variants")
    p.add_argument("--delta", type=int, default=1, help="frame gap for pair variants")
    p.add_argument("--labels", type=Path, default=None, help="directory of per-frame label files")
    p.add_argument("--out-dir", type=Path, required=True, help="output directory for tensors + manifest")
    p.add_argument("--out", type=Path, default=None, help="JSON report path")
    p.set_defaults(func=_cmd_stack)

    p = sub.add_parser("surgery", help="expand a first conv layer for stacked inputs")
    p.add_argument("--weights", type=Path, required=True, help="input conv layer (.mten + sidecar)")
    p.add_argument("--mode", required=True, choices=MODES, help="replicate tiles and rescales; random redraws")
    p.add_argument("--n", type=int, required=True, help="stacking factor")
    p.add_argument("--seed", type=_seed, default=0, help="seed for random mode")
    p.add_argument("--out-weights", type=Path, required=True, help="output conv layer path")
    p.add_argument("--out", type=Path, default=None, help="JSON report path")
    p.set_defaults(func=_cmd_surgery)

    p = sub.add_parser("eval", help="COCO-style detection evaluation")
    p.add_argument("--dets", type=Path, required=True, help="detections JSON-lines")
    p.add_argument("--gt", type=Path, required=True, help="ground-truth JSON-lines")
    p.add_argument("--out", type=Path, required=True, help="JSON report path")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("features", help="pool per-box descriptors from a feature map")
    p.add_argument("--map", type=Path, required=True, help="feature map MTENSOR [C, Hf, Wf]")
    p.add_argument("--scale", type=_finite_float, required=True, help="feature pixels per image pixel")
    p.add_argument("--boxes", type=Path, required=True, help="JSON file with image-coordinate boxes")
    p.add_argument("--out-h", type=int, default=OUT_SIZE, help="pooled grid height")
    p.add_argument("--out-w", type=int, default=OUT_SIZE, help="pooled grid width")
    p.add_argument("--sampling-ratio", type=int, default=SAMPLING_RATIO, help="samples per bin side")
    p.add_argument("--out-features", type=Path, required=True, help="output MTENSOR [N, C]")
    p.add_argument("--out", type=Path, default=None, help="JSON report path")
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("mine", help="sample training triplets from tracklets")
    p.add_argument("--tracklets", type=Path, required=True, help="tracklets JSON")
    p.add_argument("--seed", type=_seed, default=0, help="sampling seed")
    p.add_argument("--per-anchor", type=int, default=1, help="triplets per anchor frame")
    p.add_argument(
        "--min-len", type=int, default=MIN_TRACKLET_LEN, help="minimum tracklet length to keep"
    )
    p.add_argument("--out-triplets", type=Path, required=True, help="output triplets JSON-lines")
    p.add_argument("--out", type=Path, default=None, help="JSON report path")
    p.set_defaults(func=_cmd_mine)

    p = sub.add_parser("train", help="train the embedding net on mined triplets")
    p.add_argument("--features", type=Path, required=True, help="feature matrix MTENSOR [T, D]")
    p.add_argument("--tracklets", type=Path, required=True, help="tracklets JSON")
    p.add_argument("--triplets", type=Path, required=True, help="triplets JSON-lines")
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs, help="training epochs")
    p.add_argument("--lr", type=_finite_float, default=TrainConfig.learning_rate, help="learning rate")
    p.add_argument("--margin", type=_finite_float, default=TrainConfig.margin, help="triplet loss margin")
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size, help="minibatch size")
    p.add_argument("--seed", type=_seed, default=TrainConfig.seed, help="init and shuffle seed")
    p.add_argument("--per-anchor", type=int, default=1, help="recorded mining rate (provenance)")
    p.add_argument(
        "--hidden", type=_parse_hidden, default=DEFAULT_HIDDEN, help="hidden widths, e.g. 512,256"
    )
    p.add_argument(
        "--normalize-output", action="store_true", help="L2-normalize embeddings at inference"
    )
    p.add_argument("--out-dir", type=Path, required=True, help="directory for the saved net")
    p.add_argument("--out", type=Path, default=None, help="JSON report path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("reid", help="propose tracklet merges from embedding centroids")
    p.add_argument("--features", type=Path, required=True, help="feature matrix MTENSOR [T, D]")
    p.add_argument("--tracklets", type=Path, required=True, help="tracklets JSON")
    p.add_argument("--net", type=Path, required=True, help=f"trained net manifest ({NET_MANIFEST_NAME})")
    p.add_argument(
        "--threshold",
        type=_finite_float,
        default=DEFAULT_MERGE_THRESHOLD,
        help="centroid distance cutoff for merge proposals",
    )
    p.add_argument(
        "--identity-map",
        type=Path,
        default=None,
        help="true identity groups JSON; groups separation stats by identity instead of tracklet",
    )
    p.add_argument("--out", type=Path, required=True, help="JSON report path")
    p.set_defaults(func=_cmd_reid)

    p = sub.add_parser("project", help="2-d PCA scatter of features or embeddings")
    p.add_argument("--features", type=Path, required=True, help="feature matrix MTENSOR [T, D]")
    p.add_argument("--tracklets", type=Path, required=True, help="tracklets JSON")
    p.add_argument("--net", type=Path, default=None, help="optional net manifest; project embeddings")
    p.add_argument("--out-csv", type=Path, required=True, help="output id,frame,x,y CSV")
    p.add_argument("--out", type=Path, default=None, help="JSON report path")
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("synth", help="synthetic scenes and detection perturbation")
    synth_sub = p.add_subparsers(dest="synth_command", required=True, metavar="action", parser_class=_Parser)

    g = synth_sub.add_parser("generate", help="render a scene with full ground truth")
    scene = SceneConfig()
    g.add_argument("--width", type=int, default=scene.width, help="canvas width in pixels")
    g.add_argument("--height", type=int, default=scene.height, help="canvas height in pixels")
    g.add_argument("--num-frames", type=int, default=scene.num_frames, help="frames to render")
    g.add_argument("--num-objects", type=int, default=scene.num_objects, help="moving blobs")
    g.add_argument("--radius-min", type=int, default=scene.radius_range[0], help="smallest blob radius")
    g.add_argument("--radius-max", type=int, default=scene.radius_range[1], help="largest blob radius")
    g.add_argument("--vel-min", type=_finite_float, default=scene.velocity_range[0], help="slowest speed, px/frame")
    g.add_argument("--vel-max", type=_finite_float, default=scene.velocity_range[1], help="fastest speed, px/frame")
    g.add_argument(
        "--switch",
        type=_parse_switch,
        action="append",
        default=list(scene.id_switch_events),
        metavar="OBJECT:FRAME",
        help="inject an id switch (repeatable)",
    )
    g.add_argument("--seed", type=_seed, default=scene.seed, help="scene seed")
    g.add_argument("--background", choices=BACKGROUND_MODES, default=scene.background, help="background mode")
    g.add_argument("--feature-dim", type=int, default=scene.feature_dim, help="feature vector width")
    g.add_argument("--out-dir", type=Path, required=True, help="scene output directory")
    g.add_argument("--out", type=Path, default=None, help="JSON report path")
    g.set_defaults(func=_cmd_synth_generate)

    g = synth_sub.add_parser("perturb", help="degrade ground truth into detections")
    g.add_argument("--gt", type=Path, required=True, help="ground-truth JSON-lines")
    g.add_argument("--drop-rate", type=_finite_float, default=0.0, help="box drop probability")
    g.add_argument("--jitter-px", type=_finite_float, default=0.0, help="corner jitter amplitude")
    g.add_argument("--fp-rate", type=_finite_float, default=0.0, help="false positives per frame")
    g.add_argument("--seed", type=_seed, default=0, help="perturbation seed")
    g.add_argument("--canvas-width", type=int, default=None, help="false-positive box bound")
    g.add_argument("--canvas-height", type=int, default=None, help="false-positive box bound")
    g.add_argument("--out-dets", type=Path, required=True, help="output detections JSON-lines")
    g.add_argument("--out", type=Path, default=None, help="JSON report path")
    g.set_defaults(func=_cmd_synth_perturb)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        results, summary = args.func(args)
        _emit_report(args, results)
        print(summary)
        return 0
    except SystemExit as exc:  # argparse --help
        return int(exc.code) if exc.code else 0
    except MotionStackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # Input files raise MotionStackError, so a bare ValueError is a usage error: the
        # parser's, a flag check here, or a flag value a library call rejects (surgery --n 0).
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
