"""The four benchmark workloads: seeded inputs, the CLI calls of one pass, output checks.

Each workload is a fixed sequence of ``motionstack`` subcommands at a fixed
size. ``make_inputs`` writes everything a pass reads into one directory from
the seed alone; ``commands`` lists the argv of each subcommand of one pass;
``check`` verifies the outputs of the last pass against independent
references and returns one message per failed check.

Run as a script, this module is one benchmark set-up in a fresh interpreter:
``python3 perfbench/workloads.py WORKLOAD SEED DIR`` imports motionstack and
writes the workload's inputs into DIR.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# The clip: 320x240, 300 frames, 12 objects, 6 of them split by an id switch.
SCENE_SIZE = {"width": 320, "height": 240, "num_frames": 300, "num_objects": 12}
NUM_SWITCHES = 6


def scene_args(seed: int, num_frames: int) -> dict:
    """Scene seed and id-switch events drawn from the benchmark seed.

    Switches land in the middle 60% of the clip, so every fragment is far
    above the minimum tracklet length and mining keeps all of them.
    """
    rng = np.random.default_rng([seed, 1])
    objects = sorted(int(o) for o in rng.choice(SCENE_SIZE["num_objects"], NUM_SWITCHES, replace=False))
    lo, hi = num_frames // 5, num_frames - num_frames // 5
    frames = [int(f) for f in rng.integers(lo, hi + 1, size=NUM_SWITCHES)]
    return {"seed": int(rng.integers(1 << 31)), "switches": list(zip(objects, frames))}


def _write_conv1(path: Path, seed: int) -> None:
    from motionstack.weight_surgery import ConvLayerWeights, save_conv_layer

    rng = np.random.default_rng([seed, 2])
    weight = rng.normal(0.0, 0.05, size=(64, 3, 7, 7)).astype(np.float32)
    bias = rng.normal(0.0, 0.01, size=64).astype(np.float32)
    save_conv_layer(ConvLayerWeights(weight=weight, bias=bias), path)


def _generate_scene(out_dir: Path, seed: int, num_frames: int) -> None:
    from motionstack.synth_scenes import SceneConfig, generate

    args = scene_args(seed, num_frames)
    size = {**SCENE_SIZE, "num_frames": num_frames}
    config = SceneConfig(**size, id_switch_events=tuple(args["switches"]), seed=args["seed"])
    generate(config, out_dir)


def _report(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))["results"]


class Workload:
    """What every workload provides; sizes are class constants of each subclass."""

    name: str
    item: str
    items: int
    why: str

    def make_inputs(self, seed: int, inputs: Path) -> None:
        raise NotImplementedError

    def commands(self, seed: int, inputs: Path, out: Path) -> list[list[str]]:
        raise NotImplementedError

    def check(self, seed: int, inputs: Path, out: Path) -> list[str]:
        raise NotImplementedError


class ClipPrep(Workload):
    name = "clip_prep"
    item = "frames"
    why = (
        "video side: synth 320x240x300 clip, 12 objects, 6 switches; perturb; eval; stack "
        "diff-seq n=5 (~345 MB); surgery 64x3x7x7 n=5. Sparse eval slots: evaluator changes barely show"
    )

    num_frames = SCENE_SIZE["num_frames"]

    @property
    def items(self) -> int:
        return self.num_frames

    def make_inputs(self, seed, inputs):
        _write_conv1(inputs / "conv1.mten", seed)

    def commands(self, seed, inputs, out):
        scene = scene_args(seed, self.num_frames)
        size = {**SCENE_SIZE, "num_frames": self.num_frames}
        switches = [a for o, f in scene["switches"] for a in ("--switch", f"{o}:{f}")]
        return [
            ["synth", "generate", "--width", str(size["width"]), "--height", str(size["height"]),
             "--num-frames", str(size["num_frames"]), "--num-objects", str(size["num_objects"]),
             *switches, "--seed", str(scene["seed"]), "--out-dir", str(out / "scene"),
             "--out", str(out / "generate.json")],
            ["synth", "perturb", "--gt", str(out / "scene" / "gt.jsonl"), "--drop-rate", "0.2",
             "--jitter-px", "1.0", "--fp-rate", "0.3", "--seed", str(seed),
             "--out-dets", str(out / "dets.jsonl"), "--out", str(out / "perturb.json")],
            ["eval", "--dets", str(out / "dets.jsonl"), "--gt", str(out / "scene" / "gt.jsonl"),
             "--out", str(out / "eval.json")],
            ["stack", "--frames", str(out / "scene" / "frames"), "--variant", "diff-seq", "--n", "5",
             "--out-dir", str(out / "stacks"), "--out", str(out / "stack.json")],
            ["surgery", "--weights", str(inputs / "conv1.mten"), "--mode", "replicate", "--n", "5",
             "--out-weights", str(out / "conv1_n5.mten"), "--out", str(out / "surgery.json")],
        ]

    def check(self, seed, inputs, out):
        from motionstack.frame_pipeline import FrameSequence, InputConfig, build_input
        from motionstack.tensor_io import read_ppm, read_tensor
        from motionstack.weight_surgery import load_conv_layer

        failures = []
        t = int(np.random.default_rng([seed, 3]).integers(self.num_frames))
        stack = read_tensor(out / "stacks" / f"stack_{t}.mten")
        source = FrameSequence.from_dir(out / "scene" / "frames")
        if not np.array_equal(stack, build_input(source, t, InputConfig("diff_seq", n=5)).tensor):
            failures.append(f"stack: stack_{t}.mten differs from build_input recomputed")
        # The same stack from the documented formula: frame t, then the
        # byte-range differences floor((I_s+1 - I_s + 255) / 2), newest first.
        planes = [
            read_ppm(out / "scene" / "frames" / f"frame_{max(t - k, 0):06d}.ppm").rgb().transpose(2, 0, 1)
            for k in range(5)
        ]
        parts = [planes[0]] + [
            (planes[k - 1].astype(np.int16) - planes[k] + 255) // 2 for k in range(1, 5)
        ]
        if not np.array_equal(stack, np.concatenate(parts).astype(np.uint8)):
            failures.append(f"stack: stack_{t}.mten differs from the difference formula")
        if _report(out / "stack.json")["num_items"] != self.num_frames:
            failures.append("stack: wrong number of stacks")
        wide = load_conv_layer(out / "conv1_n5.mten").weight
        narrow = load_conv_layer(inputs / "conv1.mten").weight
        if wide.shape != (64, 15, 7, 7) or not np.allclose(wide, np.tile(narrow, (1, 5, 1, 1)) / 5, atol=1e-7):
            failures.append("surgery: widened conv1 is not the 1/5-scaled replicate")
        num_gt = self.num_frames * SCENE_SIZE["num_objects"]
        if _report(out / "eval.json")["num_ground_truth"] != num_gt:
            failures.append("eval: wrong ground-truth count")
        return failures


class CrowdedEval(Workload):
    name = "crowded_eval"
    item = "detections"
    why = (
        "dense eval: 10k dets vs 5k GT over 100 frames, 50 GT/frame, 3 classes, scores in "
        "0.01 steps; the per-threshold IoU loop dominates. Evaluator changes show here"
    )

    items = 10_000
    frames = 100
    gt_per_frame = 50
    classes = 3
    # Frames the oracle referees; the full oracle run takes minutes.
    oracle_frames = 5

    def make_inputs(self, seed, inputs):
        """Ground truth plus true, duplicate and false-positive detections.

        Half the detections jitter one box each; a quarter are looser
        duplicates of random boxes; a quarter are random boxes with random
        classes. Scores are quantized to 0.01, so ties occur.
        """
        rng = np.random.default_rng([seed, 4])
        canvas = np.array([640.0, 480.0])
        num_gt = self.frames * self.gt_per_frame
        gt_frame = np.repeat(np.arange(self.frames), self.gt_per_frame)
        gt_class = rng.integers(self.classes, size=num_gt)
        wh = rng.uniform(16.0, 64.0, size=(num_gt, 2))
        xy = rng.uniform(0.0, 1.0, size=(num_gt, 2)) * (canvas - wh)
        gt_box = np.hstack([xy, xy + wh])

        n_true = min(num_gt, self.items // 2)
        n_dup = (self.items - n_true) // 2
        n_fp = self.items - n_true - n_dup
        src = np.concatenate([rng.permutation(num_gt)[:n_true], rng.integers(num_gt, size=n_dup)])
        jitter = np.concatenate([np.full(n_true, 3.0), np.full(n_dup, 8.0)])[:, None]
        det_box = gt_box[src] + rng.uniform(-1.0, 1.0, size=(len(src), 4)) * jitter
        det_score = np.concatenate([rng.uniform(0.3, 1.0, n_true), rng.uniform(0.1, 0.8, n_dup)])
        fp_wh = rng.uniform(16.0, 64.0, size=(n_fp, 2))
        fp_xy = rng.uniform(0.0, 1.0, size=(n_fp, 2)) * (canvas - fp_wh)
        det_box = np.vstack([det_box, np.hstack([fp_xy, fp_xy + fp_wh])])
        det_frame = np.concatenate([gt_frame[src], rng.integers(self.frames, size=n_fp)])
        det_class = np.concatenate([gt_class[src], rng.integers(self.classes, size=n_fp)])
        det_score = np.round(np.concatenate([det_score, rng.uniform(0.0, 0.6, n_fp)]), 2)
        order = rng.permutation(self.items)

        with open(inputs / "gt.jsonl", "w", encoding="utf-8") as fh:
            for f, c, b in zip(gt_frame.tolist(), gt_class.tolist(), np.round(gt_box, 2).tolist()):
                fh.write(json.dumps({"frame": f, "bbox": b, "class": c}) + "\n")
        with open(inputs / "dets.jsonl", "w", encoding="utf-8") as fh:
            for i in order.tolist():
                rec = {
                    "frame": int(det_frame[i]),
                    "bbox": np.round(det_box[i], 2).tolist(),
                    "score": float(det_score[i]),
                    "class": int(det_class[i]),
                }
                fh.write(json.dumps(rec) + "\n")

    def commands(self, seed, inputs, out):
        return [["eval", "--dets", str(inputs / "dets.jsonl"), "--gt", str(inputs / "gt.jsonl"),
                 "--out", str(out / "eval.json")]]

    def check(self, seed, inputs, out):
        import oracles
        from motionstack import cli
        from motionstack.det_metrics import IOU_GRID, load_detections_jsonl, load_ground_truth_jsonl

        failures = []
        full = _report(out / "eval.json")
        if (full["num_detections"], full["num_ground_truth"]) != (self.items, self.frames * self.gt_per_frame):
            failures.append("eval: wrong detection or ground-truth count")
        subset = out / "oracle_subset"
        subset.mkdir()
        for name in ("dets.jsonl", "gt.jsonl"):
            lines = (inputs / name).read_text(encoding="utf-8").splitlines(keepends=True)
            kept = [line for line in lines if json.loads(line)["frame"] < self.oracle_frames]
            (subset / name).write_text("".join(kept), encoding="utf-8")
        code = _quiet_run(cli, ["eval", "--dets", str(subset / "dets.jsonl"), "--gt", str(subset / "gt.jsonl"),
                                "--out", str(subset / "eval.json")])
        if code != 0:
            return failures + [f"eval on the oracle subset exited {code}"]
        got = _report(subset / "eval.json")
        want = oracles.evaluate_oracle(
            load_detections_jsonl(subset / "dets.jsonl"), load_ground_truth_jsonl(subset / "gt.jsonl"), IOU_GRID
        )
        pairs = [(got[k], want[k]) for k in ("map50", "map5095", "precision", "recall")]
        pairs += list(zip(got["ap_per_threshold"], want["ap_per_threshold"]))
        for label, sweep in want["per_class"].items():
            pairs += list(zip(got["per_class"][label]["ap_per_threshold"], sweep))
        if len(got["per_class"]) != len(want["per_class"]) or not all(
            math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12) for a, b in pairs
        ):
            failures.append(f"eval: report on frames < {self.oracle_frames} disagrees with evaluate_oracle")
        return failures


class RoiPool(Workload):
    name = "roi_pool"
    item = "boxes"
    why = (
        "RoIAlign only: features on a 256x60x80 float32 map at scale 0.25 with 2,000 boxes "
        "of 8-64 px; the per-box loop in pool_boxes dominates and nothing else runs"
    )
    items = 2000
    channels = 256
    sampled_boxes = 8

    def make_inputs(self, seed, inputs):
        from motionstack.tensor_io import write_tensor

        rng = np.random.default_rng([seed, 5])
        write_tensor(rng.standard_normal((self.channels, 60, 80), dtype=np.float32), inputs / "fmap.mten")
        wh = rng.uniform(8.0, 64.0, size=(self.items, 2))
        xy = rng.uniform(0.0, 1.0, size=(self.items, 2)) * (np.array([320.0, 240.0]) - wh)
        boxes = np.round(np.hstack([xy, xy + wh]), 2).tolist()
        (inputs / "boxes.json").write_text(json.dumps({"boxes": boxes}), encoding="utf-8")

    def commands(self, seed, inputs, out):
        return [["features", "--map", str(inputs / "fmap.mten"), "--scale", "0.25",
                 "--boxes", str(inputs / "boxes.json"), "--out-features", str(out / "pooled.mten"),
                 "--out", str(out / "features.json")]]

    def check(self, seed, inputs, out):
        import oracles
        from motionstack.tensor_io import read_tensor

        pooled = read_tensor(out / "pooled.mten")
        if pooled.shape != (self.items, self.channels):
            return [f"features: pooled shape {pooled.shape}"]
        fmap = read_tensor(inputs / "fmap.mten").astype(np.float64)
        boxes = json.loads((inputs / "boxes.json").read_text(encoding="utf-8"))["boxes"]
        picks = np.random.default_rng([seed, 6]).choice(self.items, self.sampled_boxes, replace=False)
        for i in picks.tolist():
            want = oracles.roi_align_loops(fmap, 0.25, boxes[i], 7, 7, 2).mean(axis=(1, 2))
            if not np.allclose(pooled[i], want, rtol=1e-5, atol=1e-6):
                return [f"features: box {i} disagrees with roi_align_loops"]
        return []


class ReidTrain(Workload):
    name = "reid_train"
    item = "triplet-epochs"
    why = (
        "re-id on the clip_prep scene: mine 2/anchor (7,200 triplets), train 3 epochs (512,256 "
        "hidden, lr 0.05), reid with identity map, project; separation stats, then BLAS training dominate"
    )
    num_frames = SCENE_SIZE["num_frames"]
    epochs = 3

    @property
    def triplets(self) -> int:
        return 2 * self.num_frames * SCENE_SIZE["num_objects"]

    @property
    def items(self) -> int:
        return self.triplets * self.epochs

    def make_inputs(self, seed, inputs):
        _generate_scene(inputs / "scene", seed, self.num_frames)

    def commands(self, seed, inputs, out):
        scene = inputs / "scene"
        features = ["--features", str(scene / "features.mten"), "--tracklets", str(scene / "tracklets.json")]
        return [
            ["mine", "--tracklets", str(scene / "tracklets.json"), "--seed", str(seed), "--per-anchor", "2",
             "--out-triplets", str(out / "triplets.jsonl"), "--out", str(out / "mine.json")],
            ["train", *features, "--triplets", str(out / "triplets.jsonl"), "--epochs", str(self.epochs),
             "--lr", "0.05", "--per-anchor", "2", "--seed", str(seed), "--out-dir", str(out / "net"),
             "--out", str(out / "train.json")],
            ["reid", *features, "--net", str(out / "net" / "net.json"),
             "--identity-map", str(scene / "identity_map.json"), "--out", str(out / "reid.json")],
            ["project", *features, "--net", str(out / "net" / "net.json"),
             "--out-csv", str(out / "scatter.csv"), "--out", str(out / "project.json")],
        ]

    def check(self, seed, inputs, out):
        failures = []
        if _report(out / "mine.json")["num_triplets"] != self.triplets:
            failures.append("mine: wrong triplet count")
        groups = json.loads((inputs / "scene" / "identity_map.json").read_text(encoding="utf-8"))["groups"]
        injected = {tuple(sorted(g)) for g in groups if len(g) == 2}
        merges = {tuple(sorted(pair)) for pair in _report(out / "reid.json")["merges"]}
        if len(injected) != NUM_SWITCHES or merges != injected:
            failures.append(f"reid: merges {sorted(merges)} are not the injected switches {sorted(injected)}")
        return failures


WORKLOADS: dict[str, Workload] = {w.name: w for w in (ClipPrep(), CrowdedEval(), RoiPool(), ReidTrain())}


def _quiet_run(cli, argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.run(argv)


if __name__ == "__main__":
    name, seed, directory = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    import motionstack.cli  # noqa: F401  (set-up includes importing the whole toolkit)

    directory.mkdir(parents=True, exist_ok=True)
    WORKLOADS[name].make_inputs(seed, directory)
