"""The output-comparison tool: its command chain parses, and it names every file that differs."""

import importlib.util
import json
import subprocess
from pathlib import Path

import numpy as np
import pytest

from motionstack import cli
from motionstack.det_metrics import load_detections_jsonl, load_ground_truth_jsonl
from motionstack.errors import DataValidationError
from motionstack.metric_learning import load_triplets_jsonl
from motionstack.synth_scenes import SceneConfig, generate
from motionstack.tensor_io import read_tensor
from motionstack.tracklets import load_identity_map, load_tracklets_json

_SPEC = importlib.util.spec_from_file_location(
    "compare_outputs", Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"
)
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)


def test_every_command_of_the_chain_parses():
    commands = compare_outputs.chain(7)
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)
    ran = {" ".join(argv[:2]) if argv[0] == "synth" else argv[0] for argv in commands}
    assert ran == {"synth generate", "synth perturb", "eval", "stack", "surgery", "features",
                   "mine", "train", "reid", "project"}
    variants = {argv[argv.index("--variant") + 1] for argv in commands if argv[0] == "stack"}
    assert variants == {"rgb-seq", "rgb-int", "diff-seq", "diff-int"}
    drop_rates = [argv[argv.index("--drop-rate") + 1] for argv in commands if argv[:2] == ["synth", "perturb"]]
    assert drop_rates == ["0.2", "0", "1"]  # the seeded degradation, then both boundaries
    frames = [argv[argv.index("--frames") + 1] for argv in commands if argv[0] == "stack"]
    assert frames[4:] == ["frames_shared", "frames_sized", "scene/frames"]  # the defects, after the layouts
    labels = [argv[argv.index("--labels") + 1] for argv in commands if "--labels" in argv]
    assert labels == ["no_labels"]  # a directory that nothing writes
    boxes = [argv[argv.index("--boxes") + 1] for argv in commands if argv[0] == "features"]
    assert boxes == ["boxes.json", "edge_boxes.json", "tall_boxes.json"]
    outside = [(argv[0], arg) for argv in commands for arg in argv if arg.startswith(("past_", "neg_"))]
    assert outside == [
        ("eval", "past_class_dets.jsonl"), ("eval", "past_frame_gt.jsonl"), ("train", "past_triplets.jsonl"),
        ("reid", "past_start_tracklets.json"), ("reid", "past_row_tracklets.json"),
        ("reid", "neg_row_tracklets.json"), ("reid", "past_map.json"),
    ]
    reversed_order = [argv for argv in commands if "rev_tracklets.json" in argv]
    assert [argv[0] for argv in reversed_order] == ["mine", "reid"]
    assert reversed_order[1][reversed_order[1].index("--identity-map") + 1] == "scene/identity_map.json"
    assert all(not arg.startswith("/") for argv in commands for arg in argv)


def test_edge_boxes_reach_every_edge_case(tmp_path):
    compare_outputs.write_edge_boxes(tmp_path, 7)
    boxes = np.array(json.loads((tmp_path / "edge_boxes.json").read_text())["boxes"])
    x1, y1, x2, y2 = boxes.T
    assert boxes.shape == (500, 4) and (x2 > x1).all() and (y2 > y1).all()
    assert (x1 < 0).any() and (y1 < 0).any() and (x2 > 320).any() and (y2 > 240).any()
    assert (x2 < 0).any() and (y1 > 240).any()  # wholly outside the image
    assert (x2 - x1 < 4).any() and (y2 - y1 < 4).any()  # narrower than a feature pixel at scale 0.25
    assert ((x1 <= 0) & (y1 <= 0) & (x2 >= 320) & (y2 >= 240)).any()  # the whole image


def test_tall_boxes_end_at_every_row_of_the_tall_map(tmp_path):
    compare_outputs.write_tall_map(tmp_path, 7)
    assert read_tensor(tmp_path / "tall_fmap.mten").shape == (8, 400, 48)
    boxes = np.array(json.loads((tmp_path / "tall_boxes.json").read_text())["boxes"])
    x1, y1, x2, y2 = boxes.T
    assert boxes.shape == (1200, 4) and (x2 > x1).all() and (y2 > y1).all()
    assert (y1 < 0).any() and (y2 > 1600).any() and (x1 < 0).any() and (x2 > 192).any()
    # Map rows at scale 0.25: the windows start on nearly every row, and are 1 to 17 rows tall.
    tops = np.clip(np.floor(y1 * 0.25 - 0.5), 0, 399)
    assert len(set(tops.tolist())) > 350
    assert (y2 - y1 < 2).any() and (y2 - y1 > 60).any()


def test_files_outside_int64_fail_on_their_first_value(tmp_path):
    compare_outputs.write_dense_pair(tmp_path, 7)
    compare_outputs.write_enumeration_inputs(tmp_path, 7)
    compare_outputs.write_outside_int64(tmp_path)
    past, low = "9223372036854775808", "-9223372036854775809"
    want = {
        "past_class_dets.jsonl": (load_detections_jsonl, f":600: class must be an integer in int64 range, got {past}"),
        "past_frame_gt.jsonl": (load_ground_truth_jsonl, f":3: frame must be an integer in int64 range, got {low}"),
        "past_triplets.jsonl": (load_triplets_jsonl, f":600: p[1] must be an integer in int64 range, got {past}"),
        "past_start_tracklets.json": (
            load_tracklets_json, f": tracklets[1].start must be an integer in int64 range, got {past}"
        ),
        "past_row_tracklets.json": (
            load_tracklets_json, f": tracklets[0].feature_rows[5] must be an integer in int64 range, got {past}"
        ),
        "neg_row_tracklets.json": (
            load_tracklets_json, ": tracklets[1].feature_rows[3] must be a nonnegative integer, got -1"
        ),
        "past_map.json": (load_identity_map, f": groups[1][1] must be an integer in int64 range, got {past}"),
    }
    for name, (load, message) in want.items():
        with pytest.raises(DataValidationError) as exc:
            load(tmp_path / name)
        assert str(exc.value) == f"{tmp_path / name}{message}"
    # The dense pair and the enumeration inputs themselves load, with int64's top as a frame, class and id.
    gts = load_ground_truth_jsonl(tmp_path / "dense_gt.jsonl")
    assert int(gts.frame.max()) == int(gts.label.max()) == 2**63 - 1
    assert [t.id for t in load_tracklets_json(tmp_path / "enum_tracklets.json")] == [2**63 - 1, 3, 0, 7]
    assert load_identity_map(tmp_path / "enum_map.json") == [[2**63 - 1, 0], [3, 7]]


def test_two_defect_tracklets_fail_on_their_first_defect(tmp_path):
    compare_outputs.write_enumeration_inputs(tmp_path, 7)
    compare_outputs.write_two_defect_tracklets(tmp_path)
    want = {
        "dup_start_tracklets.json": ": tracklets[2]: duplicate tracklet id 3",
        "count_id_tracklets.json": ": tracklets[1]: tracklet 3: 54 boxes for 55 frames",
    }
    for name, message in want.items():
        with pytest.raises(DataValidationError) as exc:
            load_tracklets_json(tmp_path / name)
        assert str(exc.value) == f"{tmp_path / name}{message}"
    commands = compare_outputs.chain(7)
    assert [argv[0] for argv in commands if any(name in argv for name in want)] == ["reid", "reid"]


def test_defective_frame_directories_fail_on_their_defect(tmp_path, capsys):
    generate(SceneConfig(width=32, height=24, num_frames=4, num_objects=1, seed=1), tmp_path / "scene")
    compare_outputs.write_scene_inputs(tmp_path)
    want = {
        "frames_shared": "frame_000001.ppm: duplicate frame index 1, shared with copy_1.ppm",
        "frames_sized": "frame_000002.ppm: frame 2 is 4x2, sequence started at 32x24",
    }
    for name, message in want.items():
        code = cli.run(["stack", "--frames", str(tmp_path / name), "--variant", "rgb-seq",
                        "--out-dir", str(tmp_path / f"stacks_{name}")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {tmp_path / name / message}"]


def test_late_miss_fails_on_its_last_line(tmp_path, capsys):
    scene = tmp_path / "scene"
    generate(SceneConfig(width=64, height=48, num_frames=120, num_objects=3, seed=1), scene)
    assert cli.run(["mine", "--tracklets", str(scene / "tracklets.json"), "--per-anchor", "2",
                    "--out-triplets", str(tmp_path / "triplets.jsonl")]) == 0
    compare_outputs.write_late_miss(tmp_path)
    mined = (tmp_path / "triplets.jsonl").read_text().splitlines()
    late = tmp_path / "late_miss_triplets.jsonl"
    lines = late.read_text().splitlines()
    assert len(lines) == len(mined) > 512 and lines[:-1] == mined[:-1]
    tid, frame = json.loads(lines[-1])["p"]
    assert frame == 1 + next(t.end for t in load_tracklets_json(scene / "tracklets.json") if t.id == tid)
    capsys.readouterr()
    code = cli.run(["train", "--features", str(scene / "features.mten"), "--tracklets", str(scene / "tracklets.json"),
                    "--triplets", str(late), "--epochs", "1", "--hidden", "8", "--out-dir", str(tmp_path / "net")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {late}:{len(lines)}: p: no feature row for tracklet {tid} frame {frame}"
    ]
    scene_mine = ["mine", "--tracklets", "scene/tracklets.json"]
    steps = [argv[0] for argv in compare_outputs.chain(7)
             if argv[:3] == scene_mine or "late_miss_triplets.jsonl" in argv]
    assert steps == ["mine", "train"]  # the scene's triplets are mined before the late miss is written from them


def test_differences_name_every_file_in_path_order(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        (root / "logs").mkdir(parents=True)
        (root / "logs" / "00_eval.txt").write_text("exit 0\n")
        (root / "z.json").write_text("{}")
    assert compare_outputs.differences(a, b) == []
    (b / "z.json").write_text("{ }")
    (b / "logs" / "00_eval.txt").write_text("exit 2\n")
    assert compare_outputs.differences(a, b) == ["logs/00_eval.txt", "z.json"]
    (a / "logs" / "00_eval.txt").write_text("exit 2\n")
    (a / "m.csv").write_text("")
    assert compare_outputs.differences(a, b) == ["m.csv (only in the parent)", "z.json"]


def test_a_seed_that_differs_lists_every_differing_file(tmp_path, monkeypatch, capsys):
    for tree in ("parent", "change"):
        (tmp_path / tree / "src" / "motionstack").mkdir(parents=True)
        (tmp_path / tree / "src" / "motionstack" / "cli.py").write_text("")

    def fake_chain(tree, out, seed, extra_env):
        # The change writes one log and one artifact differently, and one file the parent lacks.
        changed = out.name == "change"
        (out / "logs").mkdir()
        for name in ("logs/00_eval.txt", "logs/01_train.txt", "reid.json", "scatter.csv"):
            (out / name).write_text("2" if changed and name in ("logs/01_train.txt", "scatter.csv") else "1")
        if changed:
            (out / "extra.json").write_text("{}")

    monkeypatch.setattr(compare_outputs, "run_chain", fake_chain)
    monkeypatch.setattr(compare_outputs, "write_inputs", lambda out, seed: None)
    work = tmp_path / "work"
    code = compare_outputs.main(
        [str(tmp_path / "parent"), str(tmp_path / "change"), "--seeds", "7", "--work", str(work)]
    )
    assert code == 1
    assert capsys.readouterr().out.splitlines() == [
        f"seed 7: 3 of 4 files differ (outputs kept in {work / 'seed7'}):",
        "  extra.json (only in the change)",
        "  logs/01_train.txt",
        "  scatter.csv",
    ]


def test_change_env_reaches_only_the_change(tmp_path, monkeypatch):
    for tree in ("parent", "change"):
        (tmp_path / tree / "src" / "motionstack").mkdir(parents=True)
        (tmp_path / tree / "src" / "motionstack" / "cli.py").write_text("")
    seen = []

    def fake_run(args, cwd, env, **kwargs):
        seen.append((Path(cwd).name, env.get("OPENBLAS_NUM_THREADS"), env.get("EMPTY")))
        return subprocess.CompletedProcess(args, 0, "", "")

    monkeypatch.setattr(compare_outputs.subprocess, "run", fake_run)
    monkeypatch.setattr(compare_outputs, "write_scene_inputs", lambda out: None)
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    code = compare_outputs.main(
        [str(tmp_path / "parent"), str(tmp_path / "change"), "--seeds", "7", "--work", str(tmp_path / "work"),
         "--change-env", "OPENBLAS_NUM_THREADS=1", "--change-env", "EMPTY="]
    )
    assert code == 0  # no command wrote anything, so both sides hold the same inputs
    steps = len(compare_outputs.chain(7))
    assert seen == [("parent", None, None)] * steps + [("change", "1", "")] * steps


def test_change_env_needs_a_name_and_an_equals_sign(capsys):
    for bad in ("OPENBLAS_NUM_THREADS", "=1"):
        with pytest.raises(SystemExit) as exc:
            compare_outputs.main(["a", "b", "--change-env", bad])
        assert exc.value.code == 2
        assert "expected NAME=VALUE" in capsys.readouterr().err
