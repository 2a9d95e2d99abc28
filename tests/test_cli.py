"""Command-line interface tests, driven in process through cli.run."""

import contextlib
import dataclasses
import io
import json
import os
import re
import shlex
import shutil
import struct
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import motionstack
from motionstack import __version__, cli, tensor_io
from motionstack.frame_pipeline import FrameSequence
from motionstack.metric_learning import (
    DEFAULT_HIDDEN,
    OUT_DIM,
    EmbeddingNet,
    TrainConfig,
    load_feature_table,
    load_net,
    pca_project_2d,
    save_net,
    separation_metrics,
)
from motionstack.roi_features import FeatureMap, pool_boxes
from motionstack.synth_scenes import SceneConfig, generate
from motionstack.tensor_io import MAGIC, ImageFrame, read_tensor, write_ppm, write_tensor
from motionstack.tracklets import enumerate_keys, load_tracklets_json
from motionstack.weight_surgery import (
    ConvLayerWeights,
    expand_first_layer,
    load_conv_layer,
    save_conv_layer,
)

if sys.version_info >= (3, 11):
    import tomllib
else:  # pytest itself depends on tomli below 3.11
    import tomli as tomllib


def _envelope(path):
    report = json.loads(path.read_text())
    assert sorted(report) == ["command", "inputs", "results", "tool_version"]
    assert report["tool_version"] == __version__
    return report


def _tree_bytes(root):
    files = sorted(p for p in root.rglob("*") if p.is_file())
    return [(str(p.relative_to(root)), p.read_bytes()) for p in files]


# Every float flag, with the subcommand that takes it.
FLOAT_FLAGS = (
    ("train", "--lr"),
    ("train", "--margin"),
    ("features", "--scale"),
    ("reid", "--threshold"),
    ("synth perturb", "--jitter-px"),
    ("synth perturb", "--drop-rate"),
    ("synth perturb", "--fp-rate"),
    ("synth generate", "--vel-min"),
    ("synth generate", "--vel-max"),
)


class TestExitCodes:
    def test_help(self, capsys):
        assert cli.run(["--help"]) == 0
        assert "stack" in capsys.readouterr().out

    def test_subcommand_help(self):
        assert cli.run(["synth", "--help"]) == 0

    def test_missing_command_is_usage(self, capsys):
        assert cli.run([]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_command_is_usage(self):
        assert cli.run(["bogus"]) == 1

    def test_bad_variant_is_usage(self, tmp_path, scene12):
        code = cli.run(
            ["stack", "--frames", str(scene12 / "frames"), "--variant", "bogus",
             "--out-dir", str(tmp_path)]
        )
        assert code == 1

    def test_missing_input_file_is_io_error(self, tmp_path):
        code = cli.run(
            ["eval", "--dets", str(tmp_path / "none.jsonl"), "--gt", str(tmp_path / "none.jsonl"),
             "--out", str(tmp_path / "r.json")]
        )
        assert code == 3

    def test_malformed_data_is_data_error(self, tmp_path, scene12, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"frame": 0}\n')
        code = cli.run(
            ["eval", "--dets", str(bad), "--gt", str(scene12 / "gt.jsonl"),
             "--out", str(tmp_path / "r.json")]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("weight", 5, "layers[0].weight must be a string, got 5"),
            ("bias", ["a"], 'layers[0].bias must be a string, got ["a"]'),
            ("layer_dims", 5, "layer_dims must be a list, got 5"),
            ("normalize_output", "false", "normalize_output must be true or false, got \"false\""),
            ("normalize_output", 0, "normalize_output must be true or false, got 0"),
            ("normalize_output", None, "normalize_output must be true or false, got null"),
        ],
    )
    def test_malformed_net_manifest_is_data_error(self, tmp_path, scene12, capsys, field, value, message):
        in_dim = read_tensor(scene12 / "features.mten").shape[1]
        manifest_path = save_net(EmbeddingNet.init(in_dim, hidden=(6,), seed=0), tmp_path / "net")
        doc = json.loads(manifest_path.read_text())
        if field in ("layer_dims", "normalize_output"):
            doc[field] = value
        else:
            doc["layers"][0][field] = value
        manifest_path.write_text(json.dumps(doc))
        code = cli.run(
            ["project", "--features", str(scene12 / "features.mten"),
             "--tracklets", str(scene12 / "tracklets.json"), "--net", str(manifest_path),
             "--out-csv", str(tmp_path / "scatter.csv")]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.splitlines() == [f"error: {manifest_path}: {message}"]

    @pytest.mark.parametrize("key", ["weight", "bias"])
    def test_non_finite_net_tensor_is_data_error(self, tmp_path, scene12, capsys, key):
        in_dim = read_tensor(scene12 / "features.mten").shape[1]
        manifest_path = save_net(EmbeddingNet.init(in_dim, hidden=(6,), seed=0), tmp_path / "net")
        tensor_path = tmp_path / "net" / f"layer1.{key}.mten"
        tensor = read_tensor(tensor_path)
        tensor.flat[-1] = np.nan
        write_tensor(tensor, tensor_path)
        code = cli.run(
            ["reid", "--features", str(scene12 / "features.mten"),
             "--tracklets", str(scene12 / "tracklets.json"), "--net", str(manifest_path),
             "--out", str(tmp_path / "reid.json")]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.splitlines() == [f"error: {manifest_path}: layers[1].{key} is not finite"]
        assert not (tmp_path / "reid.json").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("command, flag", FLOAT_FLAGS)
    def test_non_finite_float_flag_is_usage(self, tmp_path, input_files, command, flag, value):
        if command == "synth generate":
            argv = ["synth", "generate", "--num-frames", "4", "--out-dir", str(tmp_path / "scene")]
        else:
            argv = _input_file_argv(command, input_files, tmp_path)
        code, err = _run_quiet([*argv, flag, value])
        assert code == 1
        assert err.splitlines() == [f'error: argument {flag}: expected a finite number, got "{value}"']
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["surgery", "mine", "train", "synth generate", "synth perturb"])
    def test_negative_seed_is_usage_and_writes_nothing(self, tmp_path, input_files, command):
        if command == "synth generate":
            argv = ["synth", "generate", "--num-frames", "4", "--out-dir", str(tmp_path / "scene")]
        else:
            argv = _input_file_argv(command, input_files, tmp_path)
        code, err = _run_quiet([*argv, "--seed", "-1"])
        assert code == 1
        assert err.splitlines() == ['error: argument --seed: expected a nonnegative integer, got "-1"']
        assert not any(tmp_path.iterdir())  # for synth generate: no scene/frames directory

    @pytest.mark.parametrize(
        "command, flag, value, expected",
        [
            ("synth generate", "--switch", "x", 'expected OBJECT:FRAME, two integers, got "x"'),
            ("synth generate", "--switch", "1:x", 'expected OBJECT:FRAME, two integers, got "1:x"'),
            ("synth generate", "--switch", "1:2:3", 'expected OBJECT:FRAME, two integers, got "1:2:3"'),
            ("train", "--hidden", "5,x", 'expected comma-separated integer layer widths, got "5,x"'),
            ("train", "--hidden", ",", 'expected comma-separated integer layer widths, got ","'),
            ("stack", "--variant", "foo",
             'unknown stacking variant "foo"; expected one of rgb_seq, rgb_int, diff_seq, diff_int'),
        ],
    )
    def test_bad_flag_value_says_what_was_expected(self, tmp_path, input_files, scene12, command, flag, value,
                                                   expected):
        code, err = _run_quiet([*_flag_argv(command, tmp_path, input_files, scene12), flag, value])
        assert code == 1
        assert err.splitlines() == [f"error: argument {flag}: {expected}"]  # no function's name
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "command, flag",
        [("synth generate", "--switch"), ("train", "--hidden"), ("train", "--lr"), ("train", "--seed"),
         ("stack", "--variant")],
    )
    def test_long_flag_value_is_cut_in_its_error_line(self, tmp_path, input_files, scene12, command, flag):
        value = "1:" + "x" * 5000
        code, err = _run_quiet([*_flag_argv(command, tmp_path, input_files, scene12), flag, value])
        assert code == 1
        [line] = err.splitlines()
        assert line.startswith(f"error: argument {flag}: ") and "xxx..." in line
        assert len(line) <= 200
        assert not any(tmp_path.iterdir())

    def test_train_per_anchor_below_one_is_usage(self, tmp_path, input_files):
        argv = _input_file_argv("train", input_files, tmp_path)
        code, err = _run_quiet([*argv, "--per-anchor", "0", "--out", str(tmp_path / "train.json")])
        assert code == 1
        assert err.splitlines() == ["error: per_anchor must be >= 1, got 0"]
        assert not any(tmp_path.iterdir())

    def test_non_finite_features_are_data_error(self, tmp_path, scene12, capsys):
        features = read_tensor(scene12 / "features.mten")
        features[5, 2] = np.nan
        bad = tmp_path / "features.mten"
        write_tensor(features, bad)
        triplets = tmp_path / "triplets.jsonl"
        assert cli.run(["mine", "--tracklets", str(scene12 / "tracklets.json"),
                        "--out-triplets", str(triplets)]) == 0
        capsys.readouterr()
        code = cli.run(
            ["train", "--features", str(bad), "--tracklets", str(scene12 / "tracklets.json"),
             "--triplets", str(triplets), "--epochs", "1", "--hidden", "8",
             "--out-dir", str(tmp_path / "net"), "--out", str(tmp_path / "train.json")]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.splitlines() == [f"error: {bad}: feature row 5 column 2 is not finite: nan"]
        assert not (tmp_path / "train.json").exists()


# Every JSON or JSON-lines input file a subcommand reads, keyed by
# (subcommand, file name in the ``input_files`` directory).
INPUT_FILE_CASES = (
    ("eval", "dets.jsonl"),
    ("eval", "gt.jsonl"),
    ("synth perturb", "gt.jsonl"),
    ("mine", "tracklets.json"),
    ("train", "tracklets.json"),
    ("train", "triplets.jsonl"),
    ("reid", "tracklets.json"),
    ("reid", "identity_map.json"),
    ("reid", "net.json"),
    ("project", "tracklets.json"),
    ("project", "net.json"),
    ("features", "boxes.json"),
    ("surgery", "conv.json"),
)


@pytest.fixture(scope="module")
def input_files(tmp_path_factory, scene12):
    """One flat directory with a valid copy of every file in INPUT_FILE_CASES."""
    d = tmp_path_factory.mktemp("input_files")
    for name in ("gt.jsonl", "tracklets.json", "identity_map.json", "features.mten"):
        shutil.copyfile(scene12 / name, d / name)
    assert cli.run(["synth", "perturb", "--gt", str(d / "gt.jsonl"), "--jitter-px", "1",
                    "--fp-rate", "0.5", "--out-dets", str(d / "dets.jsonl")]) == 0
    assert cli.run(["mine", "--tracklets", str(d / "tracklets.json"), "--min-len", "4",
                    "--out-triplets", str(d / "triplets.jsonl")]) == 0
    in_dim = read_tensor(d / "features.mten").shape[1]
    save_net(EmbeddingNet.init(in_dim, hidden=(6,), seed=0), d)
    write_tensor(np.ones((2, 18, 24), dtype=np.float32), d / "map.mten")
    (d / "boxes.json").write_text(json.dumps({"boxes": [[4, 4, 40, 30], [50, 20, 90, 70]]}))
    rng = np.random.default_rng(0)
    save_conv_layer(
        ConvLayerWeights(
            weight=rng.normal(0, 0.3, size=(4, 3, 3, 3)).astype(np.float32),
            bias=rng.normal(0, 0.1, size=4).astype(np.float32),
        ),
        d / "conv.mten",
    )
    return d


def _input_file_argv(command, d, out):
    """argv running ``command`` on the input files in ``d``, writing into ``out``."""
    scene = ["--features", str(d / "features.mten"), "--tracklets", str(d / "tracklets.json")]
    return {
        "eval": ["eval", "--dets", str(d / "dets.jsonl"), "--gt", str(d / "gt.jsonl"),
                 "--out", str(out / "eval.json")],
        "synth perturb": ["synth", "perturb", "--gt", str(d / "gt.jsonl"),
                          "--out-dets", str(out / "dets.jsonl")],
        "mine": ["mine", "--tracklets", str(d / "tracklets.json"),
                 "--out-triplets", str(out / "triplets.jsonl")],
        "train": ["train", *scene, "--triplets", str(d / "triplets.jsonl"), "--epochs", "1",
                  "--hidden", "6", "--out-dir", str(out / "net")],
        "reid": ["reid", *scene, "--net", str(d / "net.json"),
                 "--identity-map", str(d / "identity_map.json"), "--out", str(out / "reid.json")],
        "reid by tracklet": ["reid", *scene, "--net", str(d / "net.json"), "--out", str(out / "reid.json")],
        "project": ["project", *scene, "--net", str(d / "net.json"),
                    "--out-csv", str(out / "scatter.csv")],
        "features": ["features", "--map", str(d / "map.mten"), "--scale", "0.25",
                     "--boxes", str(d / "boxes.json"), "--out-features", str(out / "pooled.mten")],
        "surgery": ["surgery", "--weights", str(d / "conv.mten"), "--mode", "replicate", "--n", "2",
                    "--out-weights", str(out / "conv2.mten")],
    }[command]


def _flag_argv(command, tmp_path, input_files, scene12):
    """A valid command line of ``command``, to which a test appends one bad flag value."""
    if command == "synth generate":
        return ["synth", "generate", "--num-frames", "4", "--out-dir", str(tmp_path / "scene")]
    if command == "stack":
        return ["stack", "--frames", str(scene12 / "frames"), "--variant", "rgb_seq",
                "--out-dir", str(tmp_path / "stacks")]
    return _input_file_argv(command, input_files, tmp_path)


def _run_quiet(argv):
    """cli.run(argv) with stdout and stderr captured; returns (code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, err.getvalue()


WRONG_TYPE_DOCS = (b"[]", b"[1, 2]", b'"text"', b"42", b"null", b"true")

_BIG = "1" + "0" * 400  # a 401-digit integer, as JSON text; errors echo its first 80 characters


def _mtensor(header):
    """MTENSOR bytes of a JSON ``header`` string with a 12-byte payload."""
    return MAGIC + struct.pack("<I", len(header)) + header.encode() + bytes(12)


def _tracklets(entry):
    """A tracklets.json of one tracklet, ``entry`` holding its JSON fields."""
    return ('{"tracklets": [{' + entry + "}]}").encode()


def _f32_tensor(values):
    """MTENSOR bytes of ``values`` as float32."""
    arr = np.asarray(values, dtype="<f4")
    header = json.dumps({"dtype": "f32", "shape": list(arr.shape)}).encode()
    return MAGIC + struct.pack("<I", len(header)) + header + arr.tobytes()


# One malformed file per loader: (subcommand, file name, contents, the
# error line's text after the file's path). Where a defect in another file
# makes the error name this one, the contents are {other file name: contents};
# where the text names another input file, it is made from the input directory.
MALFORMED_FILES = {
    "dets-401-digit-score": (
        "eval", "dets.jsonl",
        b'{"frame": 0, "bbox": [0, 0, 4, 4], "score": 1' + b"0" * 400 + b', "class": 0}\n',
        ":1: score must be a finite number, got 1" + "0" * 79 + "...",
    ),
    "dets-301-digit-score": (
        "eval", "dets.jsonl",
        b'{"frame": 0, "bbox": [0, 0, 4, 4], "score": 1' + b"0" * 300 + b', "class": 0}\n',
        ":1: score must lie in [0, 1], got 1" + "0" * 79 + "...",
    ),
    "dets-score-on-line-600": (
        "eval", "dets.jsonl",
        b'{"frame": 0, "bbox": [0, 0, 4, 4], "score": 0.5, "class": 0}\n' * 599
        + b'{"frame": 0, "bbox": [0, 0, 4, 4], "score": 1.5, "class": 0}\n',
        ":600: score must lie in [0, 1], got 1.5",
    ),
    "gt-string-and-bool-corners": (
        "eval", "gt.jsonl",
        b'{"frame": 0, "bbox": ["0", "0", "4", true], "class": 0}\n',
        ':1: bbox[0] must be a finite number, got "0"',
    ),
    "tracklets-bool-id": (
        "mine", "tracklets.json",
        b'{"tracklets": [{"id": true, "start": 0, "end": 0, "boxes": [[0, 0, 1, 1]]}]}',
        ": tracklets[0].id must be an integer, got true",
    ),
    "identity-map-float-id": (
        "reid", "identity_map.json",
        b'{"groups": [[0, 1.0]]}',
        ": groups[0][1] must be an integer, got 1.0",
    ),
    "triplets-bool-frame": (
        "train", "triplets.jsonl",
        b'{"a": [0, true], "p": [0, 1], "n": [1, 0]}\n',
        ":1: a[1] must be an integer, got true",
    ),
    "triplets-bool-frame-on-line-600": (
        "train", "triplets.jsonl",
        b'{"a": [0, 0], "p": [0, 1], "n": [1, 0]}\n' * 599 + b'{"a": [0, 1], "p": [0, true], "n": [1, 0]}\n',
        ":600: p[1] must be an integer, got true",
    ),
    "net-manifest-file-name": (
        "project", "net.json",
        b'{"layers": [{"weight": 5, "bias": "layer0.bias.mten"}]}',
        ": layers[0].weight must be a string, got 5",
    ),
    "conv-sidecar-string-bias-flag": (
        "surgery", "conv.json",
        b'{"c_out": 4, "c_in": 3, "kh": 3, "kw": 3, "bias": "false"}',
        ': bias must be true or false, got "false"',
    ),
    "boxes-bool-corner": (
        "features", "boxes.json",
        b'{"boxes": [[0, 0, 4, true]]}',
        ": boxes[0]: bbox[3] must be a finite number, got true",
    ),
    "boxes-object-of-2000-boxes": (
        "features", "boxes.json",
        json.dumps({"boxes": {str(i): [0, 0, 4, 4] for i in range(2000)}}).encode(),
        ': boxes must be a list, got {"0": [0, 0, 4, 4], "1": [0, 0, 4, 4], "2": [0, 0, 4, 4], "3": [0, 0, 4, 4], "4"...',
    ),
    "mtensor-bool-dimension": (
        "features", "map.mten",
        _mtensor('{"dtype":"f32","shape":[true,3]}'),
        ": invalid shape [true, 3]",
    ),
    "features-nan": (
        "train", "features.mten",
        _f32_tensor(np.where(np.arange(20).reshape(4, 5) == 19, np.nan, 0.0)),
        ": feature row 3 column 4 is not finite: nan",
    ),
    "features-1-d": (
        "reid", "features.mten",
        _f32_tensor(np.zeros(4)),
        ": feature matrix must be [T, D], got shape (4,)",
    ),
    "features-row-out-of-range": (
        "project", "features.mten",
        _f32_tensor(np.zeros((2, 5))),
        ": tracklets[0].feature_rows[1]: feature row 2 outside matrix of 2 rows",
    ),
    "features-row-count": (
        "train", "features.mten",
        {"tracklets.json": b'{"tracklets": [{"id": 0, "start": 0, "end": 0, "boxes": [[0, 0, 1, 1]]}]}'},
        ": feature matrix has 24 rows, tracklets enumerate 1 frames",
    ),
    "triplets-frame-without-feature-row": (
        "train", "triplets.jsonl",
        b'{"a": [0, 999], "p": [0, 1], "n": [1, 0]}\n',
        ":1: a: no feature row for tracklet 0 frame 999",
    ),
    "triplets-misses-after-a-blank-line": (
        "train", "triplets.jsonl",
        b'{"a": [0, 0], "p": [0, 1], "n": [1, 0]}\n\n'
        b'{"a": [0, 1], "p": [0, 2], "n": [7, 0]}\n{"a": [9, 0], "p": [0, 2], "n": [1, 0]}\n',
        ":3: n: no feature row for tracklet 7 frame 0",
    ),
    "triplets-anchor-of-5000-ints": (
        "train", "triplets.jsonl",
        json.dumps({"a": list(range(5000)), "p": [0, 1], "n": [1, 0]}).encode() + b"\n",
        ":1: a: expected [tracklet_id, frame], got " + json.dumps(list(range(5000)))[:80] + "...",
    ),
    "net-manifest-5000-layer-dims": (
        "reid", "net.json",
        json.dumps({
            "layer_dims": list(range(5000)),
            "layers": [{"weight": f"layer{l}.weight.mten", "bias": f"layer{l}.bias.mten"} for l in range(2)],
        }).encode(),
        ": declares layer_dims " + json.dumps(list(range(5000)))[:80] + "..., tensors give [32, 6, 128]",
    ),
    "tracklets-start-after-end": (
        "mine", "tracklets.json",
        _tracklets('"id": 0, "start": 5, "end": 3, "boxes": []'),
        ": tracklets[0]: tracklet 0: start 5 > end 3",
    ),
    "tracklets-boxes-short-of-frames": (
        "mine", "tracklets.json",
        _tracklets('"id": 0, "start": 0, "end": 2, "boxes": [[0, 0, 1, 1], [0, 0, 1, 1]]'),
        ": tracklets[0]: tracklet 0: 2 boxes for 3 frames",
    ),
    "tracklets-feature-rows-short-of-frames": (
        "reid", "tracklets.json",
        _tracklets('"id": 0, "start": 0, "end": 1, "boxes": [[0, 0, 1, 1], [0, 0, 1, 1]], "feature_rows": [0]'),
        ": tracklets[0]: tracklet 0: 1 feature rows for 2 frames",
    ),
    "tracklets-negative-id": (
        "mine", "tracklets.json",
        _tracklets('"id": -1, "start": 0, "end": 0, "boxes": [[0, 0, 1, 1]]'),
        ": tracklets[0]: tracklet id must be a nonnegative integer, got -1",
    ),
    "tracklets-401-digit-end": (
        "mine", "tracklets.json",
        _tracklets(f'"id": 0, "start": 1, "end": {_BIG}, "boxes": [[0, 0, 1, 1]]'),
        f": tracklets[0].end must be an integer in int64 range, got {_BIG[:80]}...",
    ),
    "tracklets-401-digit-id-and-start": (
        "mine", "tracklets.json",
        _tracklets(f'"id": {_BIG}, "start": {_BIG}, "end": 0, "boxes": []'),
        f": tracklets[0].id must be an integer in int64 range, got {_BIG[:80]}...",
    ),
    "tracklets-401-digit-negative-id": (
        "mine", "tracklets.json",
        _tracklets(f'"id": -{_BIG}, "start": 0, "end": 0, "boxes": [[0, 0, 1, 1]]'),
        f": tracklets[0].id must be an integer in int64 range, got -{_BIG[:79]}...",
    ),
    "mtensor-400-char-dtype-code": (
        "features", "map.mten",
        _mtensor(json.dumps({"dtype": "x" * 400, "shape": [3]})),
        ': unknown dtype code "' + "x" * 79 + "...",
    ),
    "mtensor-401-digit-negative-dimension": (
        "features", "map.mten",
        _mtensor(f'{{"dtype": "f32", "shape": [-{_BIG}]}}'),
        f": invalid shape [-{_BIG[:78]}...",
    ),
    "mtensor-401-digit-dimension": (
        "features", "map.mten",
        _mtensor(f'{{"dtype": "f32", "shape": [{_BIG}]}}'),
        f": payload length mismatch: header declares 4{_BIG[1:80]}... bytes, file holds 12",
    ),
    "mtensor-two-4001-digit-dimensions": (  # a payload size too long for str()
        "features", "map.mten",
        _mtensor(f'{{"dtype": "f32", "shape": [1{"0" * 4000}, 1{"0" * 4000}]}}'),
        f": payload length mismatch: header declares 4{'0' * 79}... bytes, file holds 12",
    ),
    "conv-sidecar-401-digit-c-out": (
        "surgery", "conv.json",
        f'{{"c_out": {_BIG}, "c_in": 3, "kh": 3, "kw": 3, "bias": true}}'.encode(),
        f": declares shape [{_BIG[:79]}..., tensor has [4, 3, 3, 3]",
    ),
    "features-401-digit-row": (
        "project", "tracklets.json",
        _tracklets(f'"id": 0, "start": 0, "end": 0, "boxes": [[0, 0, 1, 1]], "feature_rows": [{_BIG}]'),
        f": tracklets[0].feature_rows[0] must be an integer in int64 range, got {_BIG[:80]}...",
    ),
    "features-401-digit-id-start-and-row": (
        "project", "tracklets.json",
        _tracklets(
            f'"id": {_BIG}, "start": {_BIG}, "end": {_BIG}, "boxes": [[0, 0, 1, 1]], "feature_rows": [{_BIG}]'
        ),
        f": tracklets[0].id must be an integer in int64 range, got {_BIG[:80]}...",
    ),
    "triplets-401-digit-frame": (
        "train", "triplets.jsonl",
        f'{{"a": [0, {_BIG}], "p": [0, 1], "n": [1, 0]}}\n'.encode(),
        f":1: a[1] must be an integer in int64 range, got {_BIG[:80]}...",
    ),
    "tracklets-feature-rows-on-some": (
        "reid", "tracklets.json",
        json.dumps({"tracklets": [
            {"id": 0, "start": 0, "end": 0, "boxes": [[0, 0, 1, 1]], "feature_rows": [0]},
            {"id": 1, "start": 0, "end": 0, "boxes": [[0, 0, 1, 1]]},
        ]}).encode(),
        ": tracklets[1]: either every tracklet or none may carry feature_rows",
    ),
    "tracklets-401-digit-id-twice": (
        "mine", "tracklets.json",
        ('{"tracklets": [' + ", ".join([f'{{"id": {_BIG}, "start": 0, "end": 0, "boxes": [[0, 0, 1, 1]]}}'] * 2)
         + "]}").encode(),
        f": tracklets[0].id must be an integer in int64 range, got {_BIG[:80]}...",
    ),
    "identity-map-401-digit-id-in-two-groups": (
        "reid", "identity_map.json",
        f'{{"groups": [[{_BIG}], [0, {_BIG}]]}}'.encode(),
        f": groups[0][0] must be an integer in int64 range, got {_BIG[:80]}...",
    ),
    "dets-class-one-past-int64": (
        "eval", "dets.jsonl",
        b'{"frame": 0, "bbox": [0, 0, 4, 4], "score": 0.5, "class": 9223372036854775808}\n',
        ":1: class must be an integer in int64 range, got 9223372036854775808",
    ),
    "gt-frame-one-below-int64": (
        "eval", "gt.jsonl",
        b'{"frame": -9223372036854775809, "bbox": [0, 0, 4, 4], "class": 0}\n',
        ":1: frame must be an integer in int64 range, got -9223372036854775809",
    ),
    "triplets-frame-one-past-int64-on-line-600": (
        "train", "triplets.jsonl",
        b'{"a": [0, 0], "p": [0, 1], "n": [1, 0]}\n' * 599
        + b'{"a": [0, 1], "p": [0, 9223372036854775808], "n": [1, 0]}\n',
        ":600: p[1] must be an integer in int64 range, got 9223372036854775808",
    ),
    "tracklets-start-one-past-int64": (
        "mine", "tracklets.json",
        _tracklets('"id": 0, "start": 9223372036854775808, "end": 9223372036854775808, "boxes": [[0, 0, 1, 1]]'),
        ": tracklets[0].start must be an integer in int64 range, got 9223372036854775808",
    ),
    "tracklets-feature-row-one-past-int64": (
        "reid", "tracklets.json",
        _tracklets('"id": 0, "start": 0, "end": 1, "boxes": [[0, 0, 1, 1], [0, 0, 1, 1]], '
                   '"feature_rows": [0, 9223372036854775808]'),
        ": tracklets[0].feature_rows[1] must be an integer in int64 range, got 9223372036854775808",
    ),
    "tracklets-negative-feature-row": (
        "project", "tracklets.json",
        _tracklets('"id": 0, "start": 0, "end": 1, "boxes": [[0, 0, 1, 1], [0, 0, 1, 1]], "feature_rows": [0, -1]'),
        ": tracklets[0].feature_rows[1] must be a nonnegative integer, got -1",
    ),
    "identity-map-id-one-past-int64": (
        "reid", "identity_map.json",
        b'{"groups": [[0], [1, 9223372036854775808]]}',
        ": groups[1][1] must be an integer in int64 range, got 9223372036854775808",
    ),
    "identity-map-of-one-group": (
        "reid", "identity_map.json",
        b'{"groups": [[0, 1]]}',
        ": separation metrics need >= 2 identities, got 1",
    ),
    "identity-map-naming-no-tracklet": (
        "reid", "identity_map.json",
        b'{"groups": [[0], [1, 900]]}',
        lambda d: f": groups[1]: id 900 names no tracklet in {d / 'tracklets.json'}",
    ),
    "tracklets-of-one-identity": (
        "reid by tracklet", "tracklets.json",
        _tracklets('"id": 0, "start": 0, "end": 1, "boxes": [[0, 0, 1, 1], [0, 0, 1, 1]], "feature_rows": [0, 1]'),
        ": separation metrics need >= 2 identities, got 1",
    ),
    "tracklets-of-one-frame": (
        "project", "tracklets.json",
        _tracklets('"id": 0, "start": 0, "end": 0, "boxes": [[0, 0, 1, 1]], "feature_rows": [0]'),
        ": projection needs >= 2 samples, got 1",
    ),
}


def _truncate_last_frame(frames):
    path = frames / "frame_000011.ppm"
    data = path.read_bytes()
    path.write_bytes(data[:-1])
    payload = len(data) - len(b"P6\n96 72\n255\n")
    return f"{path}: payload holds {payload - 1} bytes, header promises {payload}"


def _bad_magic(frames):
    path = frames / "frame_000004.ppm"
    path.write_bytes(b"P3" + path.read_bytes()[2:])
    return f'{path}: unsupported format "P3", only binary P6 is accepted'


def _5000_char_magic(frames):
    path = frames / "frame_000004.ppm"
    path.write_bytes(b"P" * 5000 + path.read_bytes()[2:])
    return f'{path}: unsupported format "{"P" * 79}..., only binary P6 is accepted'


def _3000_digit_width(frames):
    path = frames / "frame_000009.ppm"
    path.write_bytes(b"P6\n" + b"1" * 3000 + path.read_bytes()[5:])  # height 72 kept
    payload = path.stat().st_size - len(b"P6\n" + b"1" * 3000 + b" 72\n255\n")
    return f"{path}: payload holds {payload} bytes, header promises {str(216 * int('1' * 3000))[:80]}..."


def _cut_header(frames):
    path = frames / "frame_000005.ppm"
    path.write_bytes(b"P6\n96")
    return f"{path}: unexpected end of PPM header"


def _mixed_sizes(frames):
    write_ppm(ImageFrame(width=4, height=2, pixels=np.zeros(24, np.uint8)), frames / "frame_000007.ppm")
    return f"{frames / 'frame_000007.ppm'}: frame 7 is 4x2, sequence started at 96x72"


def _shared_index(frames):
    shutil.copyfile(frames / "frame_000003.ppm", frames / "copy_3.ppm")  # read first, in name order
    return f"{frames / 'frame_000003.ppm'}: duplicate frame index 3, shared with copy_3.ppm"


def _name_without_digits(frames):
    shutil.copyfile(frames / "frame_000003.ppm", frames / "cover.ppm")
    return f"{frames / 'cover.ppm'}: no frame number in file stem"


# Defects in a `stack` frame directory: each edits the copied 12-frame,
# 96x72 scene and returns the error line's text after "error: ".
MALFORMED_FRAMES = {
    "last-frame-truncated": _truncate_last_frame,
    "bad-magic": _bad_magic,
    "cut-header": _cut_header,
    "mixed-sizes": _mixed_sizes,
    "shared-index": _shared_index,
    "name-without-digits": _name_without_digits,
    "5000-char-magic": _5000_char_magic,
    "3000-digit-width": _3000_digit_width,
}


def _corrupt(data, kind, pos, mask, wrong):
    if kind == "truncate":
        return data[: pos % len(data)]
    if kind == "flip":
        i = pos % len(data)
        return data[:i] + bytes([data[i] ^ mask]) + data[i + 1 :]
    if kind == "wrong type":
        return wrong
    return b"\xff" + data


class TestInputFiles:
    """Each defect in an input file exits 2 with one located line, never 1 or a traceback."""

    def test_sidecar_that_is_not_an_object_is_data_error(self, tmp_path, input_files, capsys):
        for name in ("conv.mten", "conv.bias.mten"):
            shutil.copyfile(input_files / name, tmp_path / name)
        (tmp_path / "conv.json").write_text("[4, 3, 3, 3]")
        code = cli.run(_input_file_argv("surgery", tmp_path, tmp_path))
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {tmp_path / 'conv.json'} must be an object, got [4, 3, 3, 3]"
        ]

    @pytest.mark.parametrize(
        "command, name, data, message", list(MALFORMED_FILES.values()), ids=list(MALFORMED_FILES)
    )
    def test_malformed_file_is_one_located_line(self, tmp_path, input_files, command, name, data, message):
        d = tmp_path / "in"
        shutil.copytree(input_files, d)
        for written, contents in (data if isinstance(data, dict) else {name: data}).items():
            (d / written).write_bytes(contents)
        code, err = _run_quiet(_input_file_argv(command, d, tmp_path))
        assert code == 2
        if callable(message):  # a message that names another input file by its path
            message = message(d)
        assert err.splitlines() == [f"error: {d / name}{message}"]  # one line, so no traceback

    @pytest.mark.parametrize(
        "case", [case for case, entry in MALFORMED_FILES.items() if re.search("int64 range|nonnegative", str(entry[3]))]
    )
    def test_value_outside_int64_leaves_the_output_directory_as_it_was(self, tmp_path, input_files, case):
        command, name, data, message = MALFORMED_FILES[case]
        d, out = tmp_path / "in", tmp_path / "out"
        shutil.copytree(input_files, d)
        (d / name).write_bytes(data)
        out.mkdir()
        (out / "kept.txt").write_text("kept")
        code, err = _run_quiet(_input_file_argv(command, d, out))
        assert (code, err.splitlines()) == (2, [f"error: {d / name}{message}"])
        assert len(err.rstrip("\n")) <= len(f"error: {d / name}") + 300
        assert [p.name for p in out.iterdir()] == ["kept.txt"] and (out / "kept.txt").read_text() == "kept"

    def test_wrong_length_bias_is_data_error(self, tmp_path, input_files, capsys):
        for name in ("conv.mten", "conv.json"):
            shutil.copyfile(input_files / name, tmp_path / name)
        write_tensor(np.zeros(3, dtype=np.float32), tmp_path / "conv.bias.mten")
        code = cli.run(_input_file_argv("surgery", tmp_path, tmp_path))
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {tmp_path / 'conv.mten'}: conv bias must have shape (4,), got (3,)"
        ]
        assert not (tmp_path / "conv2.mten").exists()

    @pytest.mark.parametrize("command", ["reid", "project"])
    def test_net_for_other_feature_width_is_data_error(self, tmp_path, input_files, command, capsys):
        d = tmp_path / "in"
        shutil.copytree(input_files, d)
        save_net(EmbeddingNet.init(5, hidden=(6,), seed=0), d)
        code = cli.run(_input_file_argv(command, d, tmp_path))
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {d / 'net.json'}: net expects 5-d features, got 32-d"
        ]

    @pytest.mark.parametrize("command, name", INPUT_FILE_CASES)
    def test_non_utf8_input_is_data_error(self, tmp_path, input_files, command, name):
        d = tmp_path / "in"
        shutil.copytree(input_files, d)
        (d / name).write_bytes(b"\xff" + (d / name).read_bytes())
        code, err = _run_quiet(_input_file_argv(command, d, tmp_path))
        assert code == 2
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {d / name}: not UTF-8 text: "), lines

    @pytest.mark.parametrize("command, name", INPUT_FILE_CASES)
    @settings(max_examples=20, deadline=None)
    @given(
        kind=st.sampled_from(("truncate", "flip", "wrong type", "prefix")),
        pos=st.integers(0, 1 << 20),
        mask=st.integers(1, 255),
        wrong=st.sampled_from(WRONG_TYPE_DOCS),
    )
    def test_corrupted_input_keeps_exit_code_contract(self, input_files, command, name, kind, pos, mask, wrong):
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp) / "in"
            shutil.copytree(input_files, d)
            (d / name).write_bytes(_corrupt((d / name).read_bytes(), kind, pos, mask, wrong))
            code, err = _run_quiet(_input_file_argv(command, d, Path(tmp)))
        assert code in (0, 2, 3), (code, err)
        if code:
            assert "Traceback" not in err
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), lines


class TestStack:
    def test_builds_dataset_and_report(self, tmp_path, scene12, capsys):
        out_dir = tmp_path / "stacks"
        report_path = tmp_path / "report.json"
        code = cli.run(
            ["stack", "--frames", str(scene12 / "frames"), "--variant", "rgb-seq",
             "--n", "2", "--out-dir", str(out_dir), "--out", str(report_path)]
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("stack:")
        report = _envelope(report_path)
        assert report["command"] == "stack"
        assert report["inputs"]["variant"] == "rgb_seq"
        assert report["results"]["num_items"] == 12
        assert json.loads((out_dir / "manifest.json").read_text())["items"]

        source = FrameSequence.from_dir(scene12 / "frames")
        tensor = read_tensor(out_dir / "stack_5.mten")
        assert tensor.shape[0] == 6
        assert np.array_equal(tensor[:3], source.planar(5))
        assert np.array_equal(tensor[3:], source.planar(4))

    @pytest.mark.parametrize("defect", sorted(MALFORMED_FRAMES))
    def test_malformed_frames_fail_before_any_write(self, tmp_path, scene12, defect):
        frames = tmp_path / "frames"
        shutil.copytree(scene12 / "frames", frames)
        message = MALFORMED_FRAMES[defect](frames)
        out_dir = tmp_path / "stacks"
        code, err = _run_quiet(["stack", "--frames", str(frames), "--variant", "diff_seq",
                                "--n", "3", "--out-dir", str(out_dir)])
        assert code == 2
        assert err.splitlines() == [f"error: {message}"]
        assert len(message) <= len(str(frames)) + 300  # a file in frames, and at most 300 more characters
        assert not list(out_dir.glob("stack_*.mten"))
        assert not (out_dir / "manifest.json").exists()

    @pytest.mark.parametrize("kind", ["frame", "labels"])
    def test_missing_directory_is_an_io_error(self, tmp_path, scene12, kind):
        missing = tmp_path / "missing"
        frames, labels = (missing, []) if kind == "frame" else (scene12 / "frames", ["--labels", str(missing)])
        code, err = _run_quiet(["stack", "--frames", str(frames), *labels, "--variant", "diff_seq",
                                "--out-dir", str(tmp_path / "stacks")])
        assert code == 3
        assert err.splitlines() == [f"error: {kind} directory {missing} does not exist"]
        assert not (tmp_path / "stacks").exists()

    def test_out_of_range_parameters_warn(self, tmp_path, scene12, capsys):
        code = cli.run(
            ["stack", "--frames", str(scene12 / "frames"), "--variant", "rgb_seq",
             "--n", "11", "--out-dir", str(tmp_path / "s")]
        )
        assert code == 0
        assert "outside the evaluated range" in capsys.readouterr().err


class TestSurgery:
    @pytest.fixture()
    def saved_layer(self, tmp_path):
        rng = np.random.default_rng(0)
        layer = ConvLayerWeights(
            weight=rng.normal(0, 0.3, size=(4, 3, 3, 3)).astype(np.float32),
            bias=rng.normal(0, 0.1, size=4).astype(np.float32),
        )
        path = tmp_path / "conv.mten"
        save_conv_layer(layer, path)
        return layer, path

    def test_replicate_matches_library_call(self, tmp_path, saved_layer):
        layer, path = saved_layer
        out_path = tmp_path / "expanded.mten"
        report_path = tmp_path / "report.json"
        code = cli.run(
            ["surgery", "--weights", str(path), "--mode", "replicate", "--n", "2",
             "--out-weights", str(out_path), "--out", str(report_path)]
        )
        assert code == 0
        got = load_conv_layer(out_path)
        want = expand_first_layer(layer, 2, "replicate")
        assert got.weight.tobytes() == want.weight.tobytes()
        assert got.bias.tobytes() == want.bias.tobytes()
        report = _envelope(report_path)
        assert report["results"] == {"in_shape": [4, 3, 3, 3], "out_shape": [4, 6, 3, 3], "bias": True}

    def test_random_mode_is_seeded(self, tmp_path, saved_layer):
        _, path = saved_layer
        outs = []
        for name in ("a.mten", "b.mten"):
            out_path = tmp_path / name
            code = cli.run(
                ["surgery", "--weights", str(path), "--mode", "random", "--n", "3",
                 "--seed", "5", "--out-weights", str(out_path)]
            )
            assert code == 0
            outs.append(load_conv_layer(out_path).weight.tobytes())
        assert outs[0] == outs[1]

    def test_invalid_factor_is_usage_error(self, tmp_path, saved_layer):
        # n comes straight from a flag, so the bare ValueError maps to 1
        _, path = saved_layer
        code = cli.run(
            ["surgery", "--weights", str(path), "--mode", "replicate", "--n", "0",
             "--out-weights", str(tmp_path / "x.mten")]
        )
        assert code == 1


class TestEval:
    def test_perfect_detections_score_one(self, tmp_path, scene12):
        dets_path = tmp_path / "dets.jsonl"
        assert cli.run(
            ["synth", "perturb", "--gt", str(scene12 / "gt.jsonl"),
             "--out-dets", str(dets_path)]
        ) == 0
        report_path = tmp_path / "report.json"
        assert cli.run(
            ["eval", "--dets", str(dets_path), "--gt", str(scene12 / "gt.jsonl"),
             "--out", str(report_path)]
        ) == 0
        report = _envelope(report_path)
        assert report["command"] == "eval"
        for key in ("map50", "map5095", "precision", "recall"):
            assert report["results"][key] == 1.0

    def test_rerun_writes_identical_report(self, tmp_path, scene12):
        dets_path = tmp_path / "dets.jsonl"
        cli.run(["synth", "perturb", "--gt", str(scene12 / "gt.jsonl"), "--jitter-px", "1.0",
                 "--out-dets", str(dets_path)])
        report_path = tmp_path / "report.json"
        argv = ["eval", "--dets", str(dets_path), "--gt", str(scene12 / "gt.jsonl"),
                "--out", str(report_path)]
        assert cli.run(argv) == 0
        first = report_path.read_bytes()
        assert cli.run(argv) == 0
        assert report_path.read_bytes() == first


class TestFeatures:
    def test_pools_boxes_like_library_call(self, tmp_path):
        rng = np.random.default_rng(3)
        fmap = rng.normal(0, 1, size=(2, 6, 8)).astype(np.float32)
        map_path = tmp_path / "map.mten"
        write_tensor(fmap, map_path)
        boxes = [[1.0, 1.0, 5.0, 4.0], [0.0, 0.0, 7.0, 5.0]]
        boxes_path = tmp_path / "boxes.json"
        boxes_path.write_text(json.dumps({"boxes": boxes}))
        out_path = tmp_path / "pooled.mten"
        code = cli.run(
            ["features", "--map", str(map_path), "--scale", "1.0", "--boxes", str(boxes_path),
             "--out-h", "2", "--out-w", "2", "--sampling-ratio", "1",
             "--out-features", str(out_path), "--out", str(tmp_path / "r.json")]
        )
        assert code == 0
        got = read_tensor(out_path)
        want = pool_boxes(FeatureMap(fmap, spatial_scale=1.0), np.array(boxes), 2, 2, 1)
        assert np.array_equal(got, want)
        report = _envelope(tmp_path / "r.json")
        assert report["results"] == {"num_boxes": 2, "channels": 2}

    def test_a_run_holds_one_copy_of_the_map(self, tmp_path):
        """The map is held once, as the float64 array it is read into."""
        rng = np.random.default_rng(0)
        fmap = rng.standard_normal((256, 60, 80), dtype=np.float32)
        write_tensor(fmap, tmp_path / "map.mten")
        wh = rng.uniform(8.0, 64.0, size=(1000, 2))
        xy = rng.uniform(0.0, 1.0, size=(1000, 2)) * (np.array([320.0, 240.0]) - wh)
        (tmp_path / "boxes.json").write_text(json.dumps({"boxes": np.hstack([xy, xy + wh]).tolist()}))
        argv = ["features", "--map", str(tmp_path / "map.mten"), "--scale", "0.25",
                "--boxes", str(tmp_path / "boxes.json"), "--out-features", str(tmp_path / "p.mten")]
        tracemalloc.start()
        try:
            code, _ = _run_quiet(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        # The map is read a band of rows at a time, so neither its float32 nor its
        # float64 form is held whole; holding both would take 3 float32 maps.
        assert peak < 2.75 * fmap.nbytes

    def test_a_taller_map_takes_no_more_memory(self, tmp_path):
        """The band holds the tallest window's rows plus a step, whatever the map's height."""
        rng = np.random.default_rng(2)
        wh = rng.uniform(8.0, 64.0, size=(500, 2))
        xy = rng.uniform(0.0, 1.0, size=(500, 2)) * (np.array([320.0, 240.0]) - wh)
        (tmp_path / "boxes.json").write_text(json.dumps({"boxes": np.hstack([xy, xy + wh]).tolist()}))
        peaks = []
        for rows in (60, 240):  # the same boxes, all on the top 60 rows
            write_tensor(rng.standard_normal((32, rows, 80), dtype=np.float32), tmp_path / "map.mten")
            argv = ["features", "--map", str(tmp_path / "map.mten"), "--scale", "0.25",
                    "--boxes", str(tmp_path / "boxes.json"), "--out-features", str(tmp_path / "p.mten")]
            tracemalloc.start()
            try:
                code, _ = _run_quiet(argv)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert code == 0
            peaks.append(peak)
        # The 240-row float64 map alone would be 4.7 MiB.
        assert abs(peaks[1] - peaks[0]) <= 64 << 10, peaks

    @pytest.mark.parametrize("shrink", [False, True], ids=["truncated", "shrinks-after-header"])
    def test_a_short_map_is_data_error(self, tmp_path, monkeypatch, shrink):
        map_path = tmp_path / "map.mten"
        write_tensor(np.ones((2, 18, 24), dtype=np.float32), map_path)  # a 3,456-byte payload
        if shrink:
            real = tensor_io._tensor_header

            def check_then_cut(fh, path):
                found = real(fh, path)
                os.truncate(path, fh.tell() + 100)
                return found

            monkeypatch.setattr(tensor_io, "_tensor_header", check_then_cut)
        else:
            map_path.write_bytes(map_path.read_bytes()[:-3])
        (tmp_path / "boxes.json").write_text("[[0, 0, 3, 3], [4, 12, 20, 17]]")
        code, err = _run_quiet(
            ["features", "--map", str(map_path), "--scale", "1.0",
             "--boxes", str(tmp_path / "boxes.json"), "--out-features", str(tmp_path / "p.mten")]
        )
        assert code == 2
        held = 100 if shrink else 3453
        assert err.splitlines() == [
            f"error: {map_path}: payload length mismatch: header declares 3456 bytes, file holds {held}"
        ]
        assert not (tmp_path / "p.mten").exists()

    def test_bare_list_boxes_accepted(self, tmp_path):
        write_tensor(np.ones((1, 4, 4), dtype=np.float32), tmp_path / "map.mten")
        (tmp_path / "boxes.json").write_text("[[0, 0, 3, 3]]")
        code = cli.run(
            ["features", "--map", str(tmp_path / "map.mten"), "--scale", "1.0",
             "--boxes", str(tmp_path / "boxes.json"), "--out-features", str(tmp_path / "p.mten")]
        )
        assert code == 0

    def test_nonpositive_scale_is_usage(self, tmp_path):
        write_tensor(np.ones((1, 4, 4), dtype=np.float32), tmp_path / "map.mten")
        (tmp_path / "boxes.json").write_text("[[0, 0, 3, 3]]")
        code = cli.run(
            ["features", "--map", str(tmp_path / "map.mten"), "--scale", "0",
             "--boxes", str(tmp_path / "boxes.json"), "--out-features", str(tmp_path / "p.mten")]
        )
        assert code == 1

    def test_empty_boxes_is_data_error(self, tmp_path):
        write_tensor(np.ones((1, 4, 4), dtype=np.float32), tmp_path / "map.mten")
        (tmp_path / "boxes.json").write_text("[]")
        code = cli.run(
            ["features", "--map", str(tmp_path / "map.mten"), "--scale", "1.0",
             "--boxes", str(tmp_path / "boxes.json"), "--out-features", str(tmp_path / "p.mten")]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "box, message",
        [
            ("[0, NaN, 3, 3]", "bbox[1] must be a finite number, got NaN"),
            ("[3, 0, 0, 3]", "bbox must satisfy x2 > x1 and y2 > y1, got [3, 0, 0, 3]"),
        ],
        ids=["nan", "inverted"],
    )
    def test_bad_box_is_data_error(self, tmp_path, box, message):
        write_tensor(np.ones((1, 4, 4), dtype=np.float32), tmp_path / "map.mten")
        boxes_path = tmp_path / "boxes.json"
        boxes_path.write_text(f'{{"boxes": [[0, 0, 3, 3], {box}]}}')
        code, err = _run_quiet(
            ["features", "--map", str(tmp_path / "map.mten"), "--scale", "1.0",
             "--boxes", str(boxes_path), "--out-features", str(tmp_path / "p.mten"),
             "--out", str(tmp_path / "r.json")]
        )
        assert code == 2
        assert err.splitlines() == [f"error: {boxes_path}: boxes[1]: {message}"]
        assert not (tmp_path / "p.mten").exists()
        assert not (tmp_path / "r.json").exists()

    def test_overflowing_map_shape_is_data_error(self, tmp_path):
        # 2**32 * 2**32 wraps to 0 in int64, which an empty payload would match.
        map_path = tmp_path / "map.mten"
        header = json.dumps({"dtype": "f32", "shape": [1, 2**32, 2**32]}).encode()
        header += b" " * (-(12 + len(header)) % 64)
        map_path.write_bytes(MAGIC + len(header).to_bytes(4, "little") + header)
        (tmp_path / "boxes.json").write_text("[[0, 0, 3, 3]]")
        code, err = _run_quiet(
            ["features", "--map", str(map_path), "--scale", "1.0",
             "--boxes", str(tmp_path / "boxes.json"), "--out-features", str(tmp_path / "p.mten")]
        )
        assert code == 2
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {map_path}: payload length mismatch")
        assert not (tmp_path / "p.mten").exists()


class TestMetricLearningPipeline:
    def test_mine_train_reid_project(self, tmp_path, capsys):
        scene = tmp_path / "scene"
        generate(SceneConfig(num_frames=20, num_objects=2, feature_dim=8, seed=21), scene)
        triplets_path = tmp_path / "triplets.jsonl"
        code = cli.run(
            ["mine", "--tracklets", str(scene / "tracklets.json"), "--seed", "3",
             "--out-triplets", str(triplets_path), "--out", str(tmp_path / "mine.json")]
        )
        assert code == 0
        mine_report = _envelope(tmp_path / "mine.json")
        assert mine_report["results"] == {"num_tracklets": 2, "num_kept": 2, "num_triplets": 40}

        net_dir = tmp_path / "net"
        code = cli.run(
            ["train", "--features", str(scene / "features.mten"),
             "--tracklets", str(scene / "tracklets.json"), "--triplets", str(triplets_path),
             "--epochs", "2", "--lr", "0.01", "--batch-size", "16", "--seed", "0",
             "--hidden", "8,6", "--out-dir", str(net_dir), "--out", str(tmp_path / "train.json")]
        )
        assert code == 0
        train_report = _envelope(tmp_path / "train.json")
        assert len(train_report["results"]["loss_trace"]) == 2
        assert train_report["inputs"]["hidden"] == [8, 6]
        net = load_net(net_dir / "net.json")
        assert net.in_dim == 8

        code = cli.run(
            ["reid", "--features", str(scene / "features.mten"),
             "--tracklets", str(scene / "tracklets.json"), "--net", str(net_dir / "net.json"),
             "--identity-map", str(scene / "identity_map.json"),
             "--out", str(tmp_path / "reid.json")]
        )
        assert code == 0
        reid_report = _envelope(tmp_path / "reid.json")
        assert isinstance(reid_report["results"]["merges"], list)
        assert reid_report["results"]["grouping"] == "identity_map"
        assert "ratio" in reid_report["results"]["separation"]

        csv_path = tmp_path / "scatter.csv"
        code = cli.run(
            ["project", "--features", str(scene / "features.mten"),
             "--tracklets", str(scene / "tracklets.json"), "--net", str(net_dir / "net.json"),
             "--out-csv", str(csv_path), "--out", str(tmp_path / "project.json")]
        )
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "id,frame,x,y"
        assert len(lines) == 41
        # Embedded tracklet by tracklet, the points are those of the whole scene embedded at once.
        tracklets = load_tracklets_json(scene / "tracklets.json")
        table = load_feature_table(tracklets, scene / "features.mten")
        keys = enumerate_keys(tracklets)
        assert [list(map(int, line.split(",")[:2])) for line in lines[1:]] == keys.tolist()
        want = pca_project_2d(net.embed_batch(table.matrix64[table.rows(keys)]))
        got = np.array([[float(v) for v in line.split(",")[2:]] for line in lines[1:]])
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)
        assert _envelope(tmp_path / "project.json")["results"] == {"num_points": 40, "embedded": True}
        capsys.readouterr()

    def test_project_holds_the_embeddings_about_once(self, tmp_path):
        # Embedded once, straight into one matrix, and projected from the QR factor
        # of a block of centered rows at a time: no per-tracklet copies, no second
        # embedding pass, no centered copy and no [N, 128] U.
        scene = tmp_path / "scene"
        generate(SceneConfig(num_frames=300, num_objects=12, seed=3), scene)
        tracklets = load_tracklets_json(scene / "tracklets.json")
        save_net(EmbeddingNet.init(read_tensor(scene / "features.mten").shape[1], seed=0), tmp_path / "net")
        argv = ["project", "--features", str(scene / "features.mten"),
                "--tracklets", str(scene / "tracklets.json"), "--net", str(tmp_path / "net" / "net.json"),
                "--out-csv", str(tmp_path / "scatter.csv")]
        tracemalloc.start()
        try:
            code, _ = _run_quiet(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        embedding_bytes = len(enumerate_keys(tracklets)) * OUT_DIM * 8
        assert embedding_bytes == 3600 * OUT_DIM * 8
        # Room for the matrix, one block's embedding scratch and a few blocks of
        # projection scratch, but not for a second and third full-size copy.
        assert peak <= 3 * embedding_bytes

    def test_reid_holds_the_embeddings_about_once(self, tmp_path):
        # Embedded group by group into one matrix, so each separation group is a slice
        # of it, not a copy.
        scene = tmp_path / "scene"
        generate(SceneConfig(num_frames=300, num_objects=12, seed=3), scene)
        tracklets = load_tracklets_json(scene / "tracklets.json")
        save_net(EmbeddingNet.init(read_tensor(scene / "features.mten").shape[1], seed=0), tmp_path / "net")
        argv = ["reid", "--features", str(scene / "features.mten"),
                "--tracklets", str(scene / "tracklets.json"), "--net", str(tmp_path / "net" / "net.json"),
                "--identity-map", str(scene / "identity_map.json"), "--out", str(tmp_path / "reid.json")]
        tracemalloc.start()
        try:
            code, _ = _run_quiet(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        embedding_bytes = len(enumerate_keys(tracklets)) * OUT_DIM * 8
        assert embedding_bytes == 3600 * OUT_DIM * 8
        # The matrix, the float64 features and the separation scratch take about 2.7
        # matrices; a copy of every group on top of them would take 3.8.
        assert peak <= 3.2 * embedding_bytes

    def test_reid_separation_is_the_same_three_ways(self, tmp_path):
        # Group keys only label the groups: one group per tracklet gives the same
        # floats with or without an identity map, whatever order the map lists them in.
        scene = tmp_path / "scene"
        generate(SceneConfig(num_frames=20, num_objects=3, feature_dim=8, seed=5,
                             id_switch_events=((1, 10),)), scene)
        tracklets = load_tracklets_json(scene / "tracklets.json")
        assert len(tracklets) == 4
        net = EmbeddingNet.init(8, hidden=(6,), seed=2)
        save_net(net, tmp_path / "net")
        own_groups = tmp_path / "own_groups.json"
        own_groups.write_text(json.dumps({"groups": [[t.id] for t in reversed(tracklets)]}))
        separations = []
        for grouping in ([], ["--identity-map", str(own_groups)]):
            code, err = _run_quiet(
                ["reid", "--features", str(scene / "features.mten"), "--tracklets", str(scene / "tracklets.json"),
                 "--net", str(tmp_path / "net" / "net.json"), *grouping, "--out", str(tmp_path / "reid.json")]
            )
            assert (code, err) == (0, "")
            separations.append(_envelope(tmp_path / "reid.json")["results"]["separation"])
        table = load_feature_table(tracklets, scene / "features.mten")
        by_hand = separation_metrics(
            {t.id: list(net.embed_batch(table.matrix64[table.rows((t.id, f) for f in t.frames)]))
             for t in tracklets}
        )
        assert separations == [by_hand, by_hand]

    def test_diverging_train_is_usage_and_writes_nothing(self, tmp_path, capsys):
        scene = tmp_path / "scene"
        assert cli.run(["synth", "generate", "--num-frames", "40", "--seed", "7",
                        "--switch", "1:20", "--out-dir", str(scene)]) == 0
        triplets = tmp_path / "triplets.jsonl"
        assert cli.run(["mine", "--tracklets", str(scene / "tracklets.json"), "--min-len", "5",
                        "--seed", "3", "--out-triplets", str(triplets)]) == 0
        capsys.readouterr()
        code = cli.run(
            ["train", "--features", str(scene / "features.mten"),
             "--tracklets", str(scene / "tracklets.json"), "--triplets", str(triplets),
             "--epochs", "4", "--lr", "1e200", "--out-dir", str(tmp_path / "net"),
             "--out", str(tmp_path / "train.json")]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.splitlines() == [
            "error: training diverged at learning_rate 1e+200: the weights or the loss "
            "are no longer finite float32 values"
        ]
        assert not (tmp_path / "net").exists()
        assert not (tmp_path / "train.json").exists()


class TestSynth:
    def test_generate_rerun_is_byte_identical(self, tmp_path):
        out_dir = tmp_path / "scene"
        report_path = tmp_path / "report.json"
        argv = ["synth", "generate", "--num-frames", "4", "--num-objects", "1",
                "--seed", "9", "--out-dir", str(out_dir), "--out", str(report_path)]
        assert cli.run(argv) == 0
        first = (_tree_bytes(out_dir), report_path.read_bytes())
        assert cli.run(argv) == 0
        assert (_tree_bytes(out_dir), report_path.read_bytes()) == first

    def test_switch_flag_splits_tracklets(self, tmp_path):
        out_dir = tmp_path / "scene"
        report_path = tmp_path / "report.json"
        code = cli.run(
            ["synth", "generate", "--num-frames", "8", "--num-objects", "1",
             "--switch", "0:5", "--out-dir", str(out_dir), "--out", str(report_path)]
        )
        assert code == 0
        report = _envelope(report_path)
        assert report["results"]["num_tracklets"] == 2
        assert json.loads((out_dir / "identity_map.json").read_text())["groups"] == [[0, 1]]

    def test_report_inputs_echo_every_flag_but_out(self, tmp_path):
        out_dir = tmp_path / "scene"
        report_path = tmp_path / "report.json"
        argv = ["synth", "generate", "--num-frames", "6", "--switch", "0:3", "--vel-max", "2",
                "--out-dir", str(out_dir), "--out", str(report_path)]
        assert cli.run(argv) == 0
        report = _envelope(report_path)
        assert report["command"] == "synth generate"
        assert list(report["inputs"].items()) == [
            ("width", 96), ("height", 72), ("num_frames", 6), ("num_objects", 3),
            ("radius_min", 4), ("radius_max", 7), ("vel_min", 1.0), ("vel_max", 2.0),
            ("switch", [[0, 3]]), ("seed", 0), ("background", "flat"), ("feature_dim", 32),
            ("out_dir", str(out_dir)),
        ]

    def test_generate_report_names_the_files_written(self, tmp_path):
        out_dir = tmp_path / "scene"
        report_path = tmp_path / "report.json"
        argv = ["synth", "generate", "--num-frames", "3", "--num-objects", "1",
                "--out-dir", str(out_dir), "--out", str(report_path)]
        assert cli.run(argv) == 0
        results = _envelope(report_path)["results"]
        names = {key: value for key, value in results.items() if not key.startswith("num_")}
        assert sorted(names.values()) == sorted(p.name for p in out_dir.iterdir())
        scene = json.loads((out_dir / names["scene"]).read_text())
        del names["scene"]
        assert list(scene) == ["config", "frames_dir", "frame_files", "gt", "tracklets",
                               "identity_map", "features"]
        assert {key: scene[key] for key in names} == names
        frames = sorted(p.name for p in (out_dir / names["frames_dir"]).iterdir())
        assert scene["frame_files"] == frames

    def test_malformed_switch_is_usage(self, tmp_path):
        code = cli.run(
            ["synth", "generate", "--switch", "0-5", "--out-dir", str(tmp_path / "s")]
        )
        assert code == 1

    def test_out_of_range_switch_is_usage(self, tmp_path):
        code = cli.run(
            ["synth", "generate", "--num-objects", "1", "--switch", "5:3",
             "--out-dir", str(tmp_path / "s")]
        )
        assert code == 1

    def test_perturb_rates_validated(self, tmp_path, scene12):
        base = ["synth", "perturb", "--gt", str(scene12 / "gt.jsonl"),
                "--out-dets", str(tmp_path / "d.jsonl")]
        assert cli.run(base + ["--drop-rate", "1.5"]) == 1
        assert cli.run(base + ["--jitter-px", "-1"]) == 1
        assert cli.run(base + ["--canvas-width", "50"]) == 1

    @pytest.mark.parametrize("jitter", ["1e16", "1e308"])
    def test_huge_jitter_writes_boxes_eval_accepts(self, tmp_path, scene12, jitter):
        dets = tmp_path / "d.jsonl"
        gt = str(scene12 / "gt.jsonl")
        code, err = _run_quiet(["synth", "perturb", "--gt", gt, "--jitter-px", jitter,
                                "--out-dets", str(dets)])
        assert (code, err) == (0, "")
        code, err = _run_quiet(["eval", "--dets", str(dets), "--gt", gt,
                                "--out", str(tmp_path / "eval.json")])
        assert (code, err) == (0, "")

    def test_perturb_report_counts(self, tmp_path, scene12):
        report_path = tmp_path / "report.json"
        code = cli.run(
            ["synth", "perturb", "--gt", str(scene12 / "gt.jsonl"), "--fp-rate", "1.0",
             "--canvas-width", "96", "--canvas-height", "72",
             "--out-dets", str(tmp_path / "d.jsonl"), "--out", str(report_path)]
        )
        assert code == 0
        results = _envelope(report_path)["results"]
        assert results["num_ground_truth"] == 24
        assert results["num_true"] == 24
        assert results["num_false_positives"] == 12
        assert results["num_detections"] == 36


def _readme_commands():
    """Every command of README's "Command line" block, as argv lists for cli.run."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("motionstack ")]


class TestDefaults:
    def test_flag_defaults_are_the_library_defaults(self):
        """Compared by repr, so an int default where the library has a float shows too."""
        parser = cli.build_parser()
        train = parser.parse_args(["train", "--features", "f", "--tracklets", "t", "--triplets", "p",
                                   "--out-dir", "o"])
        config = TrainConfig()
        assert repr((train.epochs, train.lr, train.margin, train.batch_size, train.seed, train.hidden)) == repr(
            (config.epochs, config.learning_rate, config.margin, config.batch_size, config.seed, DEFAULT_HIDDEN)
        )
        g = parser.parse_args(["synth", "generate", "--out-dir", "o"])
        flags = (g.width, g.height, g.num_frames, g.num_objects, (g.radius_min, g.radius_max),
                 (g.vel_min, g.vel_max), tuple(g.switch), g.seed, g.background, g.feature_dim)
        assert repr(flags) == repr(dataclasses.astuple(SceneConfig()))

    def test_parser_is_built_once_and_keeps_no_state(self):
        parser = cli.build_parser()
        assert cli.build_parser() is parser
        switched = parser.parse_args(["synth", "generate", "--switch", "1:2", "--out-dir", "o"])
        plain = parser.parse_args(["synth", "generate", "--out-dir", "o"])
        assert switched.switch == [*SceneConfig().id_switch_events, (1, 2)]
        assert tuple(plain.switch) == SceneConfig().id_switch_events


class TestReadme:
    def test_command_line_block_runs(self, tmp_path, monkeypatch):
        # The block's inputs that no earlier command in it writes.
        rng = np.random.default_rng(0)
        weight = rng.normal(0, 0.3, size=(8, 3, 7, 7)).astype(np.float32)
        save_conv_layer(ConvLayerWeights(weight=weight), tmp_path / "conv1.mten")
        write_tensor(np.ones((4, 18, 24), dtype=np.float32), tmp_path / "fmap.mten")
        (tmp_path / "boxes.json").write_text(json.dumps({"boxes": [[4, 4, 40, 30], [50, 20, 90, 70]]}))
        monkeypatch.chdir(tmp_path)
        commands = _readme_commands()
        assert len(commands) == 10
        for argv in commands:
            code, err = _run_quiet(argv)
            assert (argv[0], code, err) == (argv[0], 0, "")


def _console_script_spec():
    """The ``module:function`` spec that pyproject.toml declares for ``motionstack``."""
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["motionstack"]


def _write_console_script(spec, directory):
    """Write the wrapper an installer generates for ``spec``; return its path."""
    module, _, func = spec.partition(":")
    script = directory / "motionstack"
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {func}\n"
        f"sys.exit({func}())\n"
    )
    script.chmod(0o755)
    return script


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        """The declared console script, and an installed one if any, keeps the exit-code contract.

        Both run with the tree under test first on PYTHONPATH, so neither
        picks up a stale installed copy of the package.
        """
        src = str(Path(motionstack.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        scripts = [str(_write_console_script(_console_script_spec(), tmp_path))]
        installed = shutil.which("motionstack")
        if installed is not None:
            scripts.append(installed)

        for exe in scripts:
            proc = subprocess.run(
                [exe, "--help"], capture_output=True, text=True, timeout=60, env=env
            )
            assert proc.returncode == 0, (exe, proc.stderr)
            assert "stack" in proc.stdout and "synth" in proc.stdout
            for argv in ([], ["bogus"]):
                proc = subprocess.run(
                    [exe, *argv], capture_output=True, text=True, timeout=60, env=env
                )
                assert proc.returncode == 1, (exe, argv, proc.stderr)
                assert "Traceback" not in proc.stderr
                lines = proc.stderr.splitlines()
                assert len(lines) == 1 and lines[0].startswith("error: "), (exe, argv, lines)
