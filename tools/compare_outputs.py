"""Run README's command chain from two source trees and diff their outputs byte for byte.

    python tools/compare_outputs.py PARENT CHANGE --seeds 1 7 9173
    python tools/compare_outputs.py TREE TREE --seeds 7 --change-env OPENBLAS_NUM_THREADS=1

PARENT and CHANGE are checkouts of motionstack; they may be the same tree
when ``--change-env NAME=VALUE`` (repeatable) sets a variable for the
change's commands only, so that one tree is compared under two environments. For each seed the script
writes one set of seeded inputs (a 64x3x7x7 conv layer, a 256x60x80 feature
map with 2,000 boxes and 500 edge-case boxes, a tall 8x400x48 feature map
with 1,200 boxes at every height, a dense detection/ground-truth
pair, five malformed record files, four tracklets without ``feature_rows``
with their features and identity map, and six files that break the int64
or nonnegative rule of their integers), then runs every
``motionstack`` command of the chain below once per tree, as a subprocess
with ``PYTHONPATH=<tree>/src`` in its own output directory and with relative
paths only:

* ``synth generate`` of a 320x240x300 clip with 12 objects and 6 id
  switches, ``synth perturb`` and ``eval``, then ``synth perturb`` at its
  boundaries: every box kept under 40 px jitter, and every box dropped;
* ``eval`` of the dense pair: 1,200 boxes of classes 0, -3 and 2**63 - 1
  over 40 frames, the last numbered 2**63 - 1, and 2,400 detections scored
  in 0.01 steps;
* ``stack`` in all four layouts and ``surgery`` in both modes;
* ``features`` of the 2,000 boxes, then of 500 boxes that hang past each
  edge, are sub-pixel wide or are larger than the map, so that clamped
  windows and a window spanning the whole map are compared too, then of the
  tall map's boxes, whose windows move down 400 rows, so that the band of
  rows ``features`` holds is refilled at many row steps;
* ``mine``, ``train`` (plain and ``--normalize-output``), ``reid`` with the
  scene's identity map, a partial one and none, and ``project`` of the
  features and of the embeddings;
* ``mine`` and ``reid`` with the scene's identity map on the scene's
  tracklets in reversed file order, so that the order of a mined negative
  pool (ascending id, not file order) and of the separation groups is
  compared too (``synth generate`` writes tracklets in ascending id order);
* ``reid`` and both ``project`` forms on the four tracklets without
  ``feature_rows``, whose feature rows follow enumeration order (the
  scene's tracklets all carry ``feature_rows``);
* ``eval``, ``train`` and ``reid`` of each malformed record, tracklet and
  identity-map file, and ``stack`` of
  two defective frame directories made from the scene's first three frames
  (two files sharing a frame index; a frame of another size) and with a
  missing ``--labels`` directory, so that their exit codes and error lines
  are compared too.

Each command's exit code, standard output and standard error go to a log
file inside the output directory, so they are compared with the artifacts.
The script prints one line per seed; for a seed whose outputs differ, that
line is followed by one line per file (in sorted path order) whose bytes
differ or that only one tree wrote, so a change that alters one file on
purpose still shows that every other file matched. It exits 0 when every
seed matched and 1 otherwise. A seed's directories are deleted once
they match and kept when they differ; at the default size they hold about
2 GB, mostly stacks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

STACK_LAYOUTS = ("rgb-seq", "rgb-int", "diff-seq", "diff-int")
SURGERY_MODES = ("replicate", "random")


def _write_mtensor(arr: np.ndarray, path: Path) -> None:
    # The MTENSOR layout of README's "Data formats", written here so that
    # neither tree under comparison produces the shared inputs.
    code = {np.dtype("<u1"): "u8", np.dtype("<f4"): "f32"}[arr.dtype]
    header = json.dumps({"dtype": code, "shape": list(arr.shape)}, separators=(",", ":")).encode()
    header += b" " * (-(12 + len(header)) % 64)
    path.write_bytes(b"MTENSOR\x00" + struct.pack("<I", len(header)) + header + arr.tobytes())


def write_inputs(directory: Path, seed: int) -> None:
    """The inputs no command makes: a conv layer with bias, a feature map and its boxes, and record files."""
    rng = np.random.default_rng([seed, 2])
    _write_mtensor(rng.normal(0.0, 0.05, size=(64, 3, 7, 7)).astype("<f4"), directory / "conv1.mten")
    _write_mtensor(rng.normal(0.0, 0.01, size=64).astype("<f4"), directory / "conv1.bias.mten")
    sidecar = {"c_out": 64, "c_in": 3, "kh": 7, "kw": 7, "bias": True}
    (directory / "conv1.json").write_text(json.dumps(sidecar), encoding="utf-8")
    _write_mtensor(rng.standard_normal((256, 60, 80), dtype=np.float32), directory / "fmap.mten")
    wh = rng.uniform(8.0, 64.0, size=(2000, 2))
    xy = rng.uniform(0.0, 1.0, size=(2000, 2)) * (np.array([320.0, 240.0]) - wh)
    boxes = np.round(np.hstack([xy, xy + wh]), 2).tolist()
    (directory / "boxes.json").write_text(json.dumps({"boxes": boxes}), encoding="utf-8")
    write_edge_boxes(directory, seed)
    write_tall_map(directory, seed)
    write_dense_pair(directory, seed)
    write_malformed_records(directory)
    write_enumeration_inputs(directory, seed)
    write_outside_int64(directory)


def write_edge_boxes(directory: Path, seed: int) -> None:
    """``edge_boxes.json``: 500 boxes on ``fmap.mten``'s 320x240 image that test the window edges.

    Sides run from 0.1 px to 800 px, log-uniform, so some boxes are narrower
    than a feature pixel and some larger than the image; centres run from
    half the image before its top-left corner to half past its bottom-right,
    so boxes hang past every edge or lie wholly outside it. The last box
    covers the whole image and more.
    """
    rng = np.random.default_rng([seed, 5])
    wh = np.exp(rng.uniform(np.log(0.1), np.log(800.0), size=(499, 2)))
    xy = rng.uniform(-0.5, 1.5, size=(499, 2)) * np.array([320.0, 240.0]) - wh / 2
    boxes = np.round(np.hstack([xy, xy + wh]), 2).tolist() + [[-100.0, -100.0, 500.0, 400.0]]
    (directory / "edge_boxes.json").write_text(json.dumps({"boxes": boxes}), encoding="utf-8")


def write_tall_map(directory: Path, seed: int) -> None:
    """``tall_fmap.mten``, an 8x400x48 map, and ``tall_boxes.json``: 1,200 boxes on its 192x1600 image.

    Three boxes start near each of the 400 feature rows, from half a row above
    the image's top to half a row past its bottom, 0.5 px to 64 px tall
    (log-uniform) and 0.5 px to 240 px wide, so windows of every height end at
    every row, and some hang past the top, bottom and side edges.
    """
    rng = np.random.default_rng([seed, 7])
    _write_mtensor(rng.standard_normal((8, 400, 48), dtype=np.float32), directory / "tall_fmap.mten")
    y = np.repeat(np.arange(400) * 4.0, 3) + rng.uniform(-2.0, 2.0, size=1200)
    h = np.exp(rng.uniform(np.log(0.5), np.log(64.0), size=1200))
    w = rng.uniform(0.5, 240.0, size=1200)
    x = rng.uniform(-40.0, 192.0, size=1200) - w / 2
    boxes = np.round(np.stack([x, y, x + w, y + h], axis=1), 2).tolist()
    (directory / "tall_boxes.json").write_text(json.dumps({"boxes": boxes}), encoding="utf-8")


def write_dense_pair(directory: Path, seed: int) -> None:
    """``dense_gt.jsonl`` and ``dense_dets.jsonl``: crowded frames, three classes, tied scores.

    30 boxes in each of 40 frames, the last frame numbered 2**63 - 1, and
    classes 0, -3 and 2**63 - 1, int64's top. Detections are jittered copies of random boxes
    (a quarter of them with a random class) plus 400 random boxes, every
    score a multiple of 0.01.
    """
    rng = np.random.default_rng([seed, 3])
    classes = np.array([0, -3, 2**63 - 1])
    gt_frame = np.repeat(np.array([*range(39), 2**63 - 1]), 30)
    gt_class = classes[rng.integers(3, size=len(gt_frame))]
    wh = rng.uniform(12.0, 48.0, size=(len(gt_frame), 2))
    xy = rng.uniform(0.0, 1.0, size=wh.shape) * (np.array([320.0, 240.0]) - wh)
    gt_box = np.hstack([xy, xy + wh])
    src = rng.integers(len(gt_frame), size=2000)
    det_class = np.where(rng.uniform(size=len(src)) < 0.25, classes[rng.integers(3, size=len(src))], gt_class[src])
    fp_wh = rng.uniform(12.0, 48.0, size=(400, 2))
    fp_xy = rng.uniform(0.0, 1.0, size=fp_wh.shape) * (np.array([320.0, 240.0]) - fp_wh)
    det_box = np.vstack([gt_box[src] + rng.uniform(-4.0, 4.0, size=(len(src), 4)), np.hstack([fp_xy, fp_xy + fp_wh])])
    det_frame = np.concatenate([gt_frame[src], gt_frame[rng.integers(len(gt_frame), size=400)]])
    det_class = np.concatenate([det_class, classes[rng.integers(3, size=400)]])
    det_score = np.round(rng.uniform(0.0, 1.0, size=len(det_box)), 2)
    gt_lines = [
        json.dumps({"frame": f, "bbox": b, "class": c})
        for f, b, c in zip(gt_frame.tolist(), np.round(gt_box, 2).tolist(), gt_class.tolist())
    ]
    det_lines = [
        json.dumps({"frame": f, "bbox": b, "score": s, "class": c})
        for f, b, s, c in zip(det_frame.tolist(), np.round(det_box, 2).tolist(), det_score.tolist(), det_class.tolist())
    ]
    (directory / "dense_gt.jsonl").write_text("".join(line + "\n" for line in gt_lines), encoding="utf-8")
    (directory / "dense_dets.jsonl").write_text("".join(line + "\n" for line in det_lines), encoding="utf-8")


def write_malformed_records(directory: Path) -> None:
    """Record files that each break one rule, all but the triplet files made from the dense pair.

    ``bad_box_dets.jsonl`` has x2 == x1 on line 600, past the first block of
    lines the loaders check at once; ``bad_line_gt.jsonl`` has a list for
    line 3; ``bad_json_dets.jsonl`` has line 10 cut short;
    ``bad_triplets.jsonl`` holds two triplets and a third without ``n``; and
    ``miss_triplets.jsonl`` holds a triplet of the scene, a blank line, and
    triplets naming tracklets the scene lacks, as ``n`` on line 3 and as
    ``a`` on line 4.
    """
    dets = (directory / "dense_dets.jsonl").read_text(encoding="utf-8").splitlines()
    gts = (directory / "dense_gt.jsonl").read_text(encoding="utf-8").splitlines()
    record = json.loads(dets[599])
    record["bbox"][2] = record["bbox"][0]
    files = {
        "bad_box_dets.jsonl": dets[:599] + [json.dumps(record)] + dets[600:],
        "bad_line_gt.jsonl": gts[:2] + ["[1, 2]"] + gts[3:],
        "bad_json_dets.jsonl": dets[:9] + [dets[9][:-1]] + dets[10:],
        "bad_triplets.jsonl": ['{"a": [0, 0], "p": [0, 1], "n": [1, 0]}'] * 2 + ['{"a": [0, 0], "p": [0, 1]}'],
        "miss_triplets.jsonl": [
            '{"a": [0, 0], "p": [0, 1], "n": [1, 0]}', "",
            '{"a": [0, 1], "p": [0, 2], "n": [99, 0]}', '{"a": [98, 0], "p": [0, 2], "n": [1, 0]}',
        ],
    }
    for name, lines in files.items():
        (directory / name).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def write_enumeration_inputs(directory: Path, seed: int) -> None:
    """``enum_tracklets.json`` without ``feature_rows``, its ``enum_features.mten`` and ``enum_map.json``.

    Four tracklets of 205 frames in all, one with id 2**63 - 1, two of them
    overlapping in time; their feature rows follow enumeration order (file
    order, frames ascending). The features are 32-d, the width of the
    scene's, so the net trained on the scene embeds them.
    """
    rng = np.random.default_rng([seed, 4])
    tracklets = []
    for tid, start, end in ((2**63 - 1, 0, 39), (3, 20, 74), (0, 80, 139), (7, 150, 199)):
        xy = rng.uniform(0.0, 200.0, size=(end - start + 1, 2))
        boxes = np.round(np.hstack([xy, xy + 20.0]), 2).tolist()
        tracklets.append({"id": tid, "start": start, "end": end, "boxes": boxes})
    (directory / "enum_tracklets.json").write_text(json.dumps({"tracklets": tracklets}), encoding="utf-8")
    _write_mtensor(rng.normal(size=(205, 32)).astype("<f4"), directory / "enum_features.mten")
    (directory / "enum_map.json").write_text(json.dumps({"groups": [[2**63 - 1, 0], [3, 7]]}), encoding="utf-8")


def write_outside_int64(directory: Path) -> None:
    """Files that each hold an integer outside int64, or a negative feature row, and then a second defect.

    A value one past int64 is rejected where it stands:
    ``past_class_dets.jsonl`` has class 2**63 on line 600 of the dense
    detections, ``past_frame_gt.jsonl`` frame -2**63 - 1 on line 3 of the
    dense ground truth, and ``past_triplets.jsonl`` frame 2**63 on line 600.
    ``past_start_tracklets.json`` moves the enumeration tracklet 3 to start
    2**63, ``past_row_tracklets.json`` gives the enumeration tracklets
    ``feature_rows`` with row 2**63 in the first, and
    ``neg_row_tracklets.json`` row -1 in the second; ``past_map.json`` puts id
    2**63 in the second group. Each but the negative row is followed by a
    defect that every tree rejects (a list line, a triplet without ``n``, an
    id of true, a string id), so a tree that took the value exits 2 too.
    """
    dets = (directory / "dense_dets.jsonl").read_text(encoding="utf-8").splitlines()
    gts = (directory / "dense_gt.jsonl").read_text(encoding="utf-8").splitlines()
    det, gt = json.loads(dets[599]), json.loads(gts[2])
    det["class"], gt["frame"] = 2**63, -(2**63) - 1
    triplet = '{"a": [0, 0], "p": [0, 1], "n": [1, 0]}'
    files = {
        "past_class_dets.jsonl": dets[:599] + [json.dumps(det)] + dets[600:899] + ["[1, 2]"] + dets[900:],
        "past_frame_gt.jsonl": gts[:2] + [json.dumps(gt)] + gts[3:4] + ["[1, 2]"] + gts[5:],
        "past_triplets.jsonl": [triplet] * 599 + ['{"a": [0, 1], "p": [0, 9223372036854775808], "n": [1, 0]}',
                                                  '{"a": [0, 0], "p": [0, 1]}'],
    }
    for name, lines in files.items():
        (directory / name).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    tracklets = json.loads((directory / "enum_tracklets.json").read_text(encoding="utf-8"))["tracklets"]
    first = 0
    for t in tracklets:
        t["feature_rows"] = list(range(first, first + len(t["boxes"])))
        first += len(t["boxes"])
    docs = {name: json.loads(json.dumps(tracklets)) for name in ("past_start", "past_row", "neg_row")}
    docs["past_start"][1].update(start=2**63, end=2**63 + 54)
    docs["past_row"][0]["feature_rows"][5] = 2**63
    docs["neg_row"][1]["feature_rows"][3] = -1
    for name, doc in docs.items():
        if name != "neg_row":
            doc[3]["id"] = True
        (directory / f"{name}_tracklets.json").write_text(json.dumps({"tracklets": doc}), encoding="utf-8")
    groups = {"groups": [[2**63 - 1, 0], [3, 2**63], ["7"]]}
    (directory / "past_map.json").write_text(json.dumps(groups), encoding="utf-8")


def write_scene_inputs(directory: Path) -> None:
    """The inputs made from the scene: reversed tracklets, a partial identity map and two defective frame directories.

    ``rev_tracklets.json`` holds the scene's tracklets in reversed file
    order. ``partial_map.json`` holds every other group of the scene's identity
    map, so the rest stay ungrouped. ``frames_shared`` and ``frames_sized``
    hold copies of the scene's first three frames; in ``frames_shared``,
    ``copy_1.ppm`` repeats frame 1, and in ``frames_sized`` frame 2 is 4x2.
    """
    doc = json.loads((directory / "scene" / "tracklets.json").read_text(encoding="utf-8"))
    doc["tracklets"].reverse()
    (directory / "rev_tracklets.json").write_text(json.dumps(doc), encoding="utf-8")
    groups = json.loads((directory / "scene" / "identity_map.json").read_text(encoding="utf-8"))["groups"]
    (directory / "partial_map.json").write_text(json.dumps({"groups": groups[::2]}), encoding="utf-8")
    first = sorted((directory / "scene" / "frames").glob("*.ppm"))[:3]
    for name in ("frames_shared", "frames_sized"):
        (directory / name).mkdir()
        for path in first:
            shutil.copyfile(path, directory / name / path.name)
    shutil.copyfile(first[1], directory / "frames_shared" / "copy_1.ppm")
    (directory / "frames_sized" / first[2].name).write_bytes(b"P6\n4 2\n255\n" + bytes(24))


def chain(seed: int) -> list[list[str]]:
    """The argv of every command, in run order; paths are relative to the output directory."""
    rng = np.random.default_rng([seed, 1])
    objects = sorted(int(o) for o in rng.choice(12, 6, replace=False))
    switches = [a for o in objects for a in ("--switch", f"{o}:{int(rng.integers(60, 241))}")]
    scene = ["--features", "scene/features.mten", "--tracklets", "scene/tracklets.json"]
    enum = ["--features", "enum_features.mten", "--tracklets", "enum_tracklets.json"]
    commands = [
        ["synth", "generate", "--width", "320", "--height", "240", "--num-frames", "300",
         "--num-objects", "12", *switches, "--seed", str(seed), "--out-dir", "scene",
         "--out", "generate.json"],
        ["synth", "perturb", "--gt", "scene/gt.jsonl", "--drop-rate", "0.2", "--jitter-px", "1.0",
         "--fp-rate", "0.3", "--seed", str(seed), "--canvas-width", "320", "--canvas-height", "240",
         "--out-dets", "dets.jsonl", "--out", "perturb.json"],
        # Every box kept, with corners jittered far enough to collapse boxes, and
        # the canvas inferred from the ground truth; then every box dropped.
        ["synth", "perturb", "--gt", "scene/gt.jsonl", "--drop-rate", "0", "--jitter-px", "40",
         "--fp-rate", "1", "--seed", str(seed), "--out-dets", "dets_kept.jsonl", "--out", "perturb_kept.json"],
        ["synth", "perturb", "--gt", "scene/gt.jsonl", "--drop-rate", "1", "--fp-rate", "0",
         "--seed", str(seed), "--out-dets", "dets_dropped.jsonl", "--out", "perturb_dropped.json"],
        ["eval", "--dets", "dets.jsonl", "--gt", "scene/gt.jsonl", "--out", "eval.json"],
        ["eval", "--dets", "dense_dets.jsonl", "--gt", "dense_gt.jsonl", "--out", "eval_dense.json"],
    ]
    for layout in STACK_LAYOUTS:
        commands.append(["stack", "--frames", "scene/frames", "--variant", layout, "--n", "5",
                         "--delta", "2", "--out-dir", f"stacks_{layout}", "--out", f"stack_{layout}.json"])
    for mode in SURGERY_MODES:
        commands.append(["surgery", "--weights", "conv1.mten", "--mode", mode, "--n", "5",
                         "--seed", str(seed), "--out-weights", f"conv1_{mode}.mten",
                         "--out", f"surgery_{mode}.json"])
    commands += [
        ["features", "--map", "fmap.mten", "--scale", "0.25", "--boxes", "boxes.json",
         "--out-features", "pooled.mten", "--out", "features.json"],
        ["features", "--map", "fmap.mten", "--scale", "0.25", "--boxes", "edge_boxes.json",
         "--out-features", "pooled_edge.mten", "--out", "features_edge.json"],
        ["features", "--map", "tall_fmap.mten", "--scale", "0.25", "--boxes", "tall_boxes.json",
         "--out-features", "pooled_tall.mten", "--out", "features_tall.json"],
        ["mine", "--tracklets", "scene/tracklets.json", "--seed", str(seed), "--per-anchor", "2",
         "--out-triplets", "triplets.jsonl", "--out", "mine.json"],
        ["mine", "--tracklets", "rev_tracklets.json", "--seed", str(seed), "--per-anchor", "2",
         "--out-triplets", "rev_triplets.jsonl", "--out", "mine_rev.json"],
    ]
    for net, flags in (("net", []), ("net_unit", ["--normalize-output"])):
        commands.append(["train", *scene, "--triplets", "triplets.jsonl", "--epochs", "3", "--lr", "0.05",
                         "--per-anchor", "2", "--seed", str(seed), *flags, "--out-dir", net,
                         "--out", f"train_{net}.json"])
    for name, net, grouping in (
        ("map", "net", ["--identity-map", "scene/identity_map.json"]),
        ("partial", "net", ["--identity-map", "partial_map.json"]),
        ("none", "net", []),
        ("unit", "net_unit", ["--identity-map", "scene/identity_map.json"]),
    ):
        commands.append(["reid", *scene, "--net", f"{net}/net.json", *grouping, "--out", f"reid_{name}.json"])
    commands.append(["reid", "--features", "scene/features.mten", "--tracklets", "rev_tracklets.json",
                     "--net", "net/net.json", "--identity-map", "scene/identity_map.json", "--out", "reid_rev.json"])
    commands += [
        ["project", *scene, "--out-csv", "scatter_features.csv", "--out", "project_features.json"],
        ["project", *scene, "--net", "net/net.json", "--out-csv", "scatter_net.csv",
         "--out", "project_net.json"],
        ["reid", *enum, "--net", "net/net.json", "--identity-map", "enum_map.json", "--out", "reid_enum.json"],
        ["project", *enum, "--out-csv", "scatter_enum_features.csv", "--out", "project_enum_features.json"],
        ["project", *enum, "--net", "net/net.json", "--out-csv", "scatter_enum_net.csv",
         "--out", "project_enum_net.json"],
        ["eval", "--dets", "bad_box_dets.jsonl", "--gt", "dense_gt.jsonl", "--out", "eval_bad_box.json"],
        ["eval", "--dets", "dense_dets.jsonl", "--gt", "bad_line_gt.jsonl", "--out", "eval_bad_line.json"],
        ["eval", "--dets", "bad_json_dets.jsonl", "--gt", "dense_gt.jsonl", "--out", "eval_bad_json.json"],
        ["train", *scene, "--triplets", "bad_triplets.jsonl", "--out-dir", "net_bad", "--out", "train_bad.json"],
        ["train", *scene, "--triplets", "miss_triplets.jsonl", "--out-dir", "net_miss", "--out", "train_miss.json"],
        ["eval", "--dets", "past_class_dets.jsonl", "--gt", "dense_gt.jsonl", "--out", "eval_past_class.json"],
        ["eval", "--dets", "dense_dets.jsonl", "--gt", "past_frame_gt.jsonl", "--out", "eval_past_frame.json"],
        ["train", *scene, "--triplets", "past_triplets.jsonl", "--out-dir", "net_past", "--out", "train_past.json"],
    ]
    for name in ("past_start", "past_row", "neg_row"):
        commands.append(["reid", "--features", "enum_features.mten", "--tracklets", f"{name}_tracklets.json",
                         "--net", "net/net.json", "--out", f"reid_{name}.json"])
    commands += [
        ["reid", *enum, "--net", "net/net.json", "--identity-map", "past_map.json", "--out", "reid_past_map.json"],
        ["stack", "--frames", "frames_shared", "--variant", "rgb-seq", "--out-dir", "stacks_shared"],
        ["stack", "--frames", "frames_sized", "--variant", "rgb-seq", "--out-dir", "stacks_sized"],
        ["stack", "--frames", "scene/frames", "--variant", "rgb-seq", "--labels", "no_labels",
         "--out-dir", "stacks_no_labels"],
    ]
    return commands


def run_chain(tree: Path, out: Path, seed: int, extra_env: dict[str, str] | None = None) -> None:
    """Run the chain from ``tree``'s sources in ``out``, logging each command to ``out/logs``.

    ``extra_env`` is added to this process's environment for every command.
    """
    env = {**os.environ, **(extra_env or {})}
    env.update(PYTHONPATH=str(tree.resolve() / "src"), PYTHONDONTWRITEBYTECODE="1")
    (out / "logs").mkdir()
    for step, argv in enumerate(chain(seed)):
        done = subprocess.run(
            [sys.executable, "-m", "motionstack.cli", *argv], cwd=out, env=env, capture_output=True, text=True
        )
        log = f"$ motionstack {' '.join(argv)}\nexit {done.returncode}\n"
        log += f"--- stdout\n{done.stdout}--- stderr\n{done.stderr}"
        (out / "logs" / f"{step:02d}_{argv[0]}.txt").write_text(log, encoding="utf-8")
        if argv[:2] == ["synth", "generate"] and done.returncode == 0:
            write_scene_inputs(out)


def differences(a: Path, b: Path) -> list[str]:
    """Every relative path, in sorted order, that only one tree holds or whose bytes differ."""
    files_a = {p.relative_to(a).as_posix() for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b).as_posix() for p in b.rglob("*") if p.is_file()}
    out = []
    for name in sorted(files_a | files_b):
        if name not in files_a or name not in files_b:
            out.append(f"{name} (only in {'the change' if name in files_b else 'the parent'})")
        elif (a / name).read_bytes() != (b / name).read_bytes():
            out.append(name)
    return out


def env_assignment(text: str) -> tuple[str, str]:
    """``NAME=VALUE`` as ``(NAME, VALUE)``; the value may be empty, the name may not."""
    name, sep, value = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(f"expected NAME=VALUE, got {text!r}")
    return name, value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("parent", type=Path, help="source tree whose outputs are the reference")
    parser.add_argument("change", type=Path, help="source tree under test")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1], help="seeds to run (default 1)")
    parser.add_argument("--work", type=Path, default=None, help="output directory (default: a temporary one)")
    parser.add_argument("--change-env", type=env_assignment, action="append", default=[],
                        metavar="NAME=VALUE", help="set a variable for the change's commands only (repeatable)")
    args = parser.parse_args(argv)
    for tree in (args.parent, args.change):
        if not (tree / "src" / "motionstack" / "cli.py").is_file():
            parser.error(f"{tree} is not a motionstack checkout")
    work = Path(tempfile.mkdtemp(prefix="compare_outputs_")) if args.work is None else args.work
    differs = 0
    for seed in args.seeds:
        seed_dir = work / f"seed{seed}"
        outs = {side: seed_dir / side for side in ("parent", "change")}
        sides = (("parent", args.parent, {}), ("change", args.change, dict(args.change_env)))
        for side, tree, extra_env in sides:
            outs[side].mkdir(parents=True)
            write_inputs(outs[side], seed)
            run_chain(tree, outs[side], seed, extra_env)
        diffs = differences(outs["parent"], outs["change"])
        count = sum(1 for p in outs["parent"].rglob("*") if p.is_file())
        if not diffs:
            print(f"seed {seed}: identical, {count} files")
            shutil.rmtree(seed_dir)
        else:
            differs += 1
            print(f"seed {seed}: {len(diffs)} of {count} files differ (outputs kept in {seed_dir}):")
            for name in diffs:
                print(f"  {name}")
    if args.work is None and not any(work.iterdir()):
        work.rmdir()
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
