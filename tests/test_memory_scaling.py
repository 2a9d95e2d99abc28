"""How whole commands' peak memory grows with the scene, measured in fresh processes.

``tracemalloc`` sees Python's allocations only. A process's ``ru_maxrss`` also
counts what BLAS, LAPACK and the allocator hold, so these tests bound its growth
between two scene lengths, through ``tools/scale_memory.py``'s ``measure``.
"""

import importlib.util
import json
from pathlib import Path

import motionstack
from motionstack.metric_learning import OUT_DIM, EmbeddingNet, save_net
from motionstack.synth_scenes import SceneConfig, generate
from motionstack.tensor_io import read_tensor

_SPEC = importlib.util.spec_from_file_location(
    "scale_memory", Path(__file__).resolve().parent.parent / "tools" / "scale_memory.py"
)
scale_memory = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(scale_memory)

STACK = ["stack", "--frames", "scene/frames", "--variant", "diff-seq", "--n", "3", "--out-dir", "stack"]


def test_peaks_grow_by_the_embedding_matrix_at_most(tmp_path):
    src = Path(motionstack.__file__).resolve().parents[1]
    commands = {**scale_memory.COMMANDS, "stack": STACK}
    peaks, rows = {}, {}
    for frames in (512, 2048):
        work = tmp_path / str(frames)
        generate(SceneConfig(width=48, height=36, num_frames=frames, num_objects=3, seed=5), work / "scene")
        features = read_tensor(work / "scene" / "features.mten")
        rows[frames] = len(features)
        save_net(EmbeddingNet.init(features.shape[1], seed=0), work / "net")
        for name, argv in commands.items():
            peaks[name, frames] = scale_memory.measure(src, argv, work)[0]
    growth = {name: peaks[name, 2048] - peaks[name, 512] for name in commands}
    matrix = (rows[2048] - rows[512]) * OUT_DIM * 8 / 2**20
    assert round(matrix, 2) == 4.5  # 4,608 more frames' [N, 128] float64 embeddings
    # reid and project grew about 6.9 MiB: the matrix, the float64 features (1.1 MiB)
    # and the parsed tracklets. Embedding a whole tracklet at a time, they grew 19.5-20.
    for name in scale_memory.COMMANDS:
        assert growth[name] <= matrix + 4.0, (name, growth)
    # stack streams its frames and keeps a small record per frame (its path, its manifest
    # item and that item's JSON text): about 2 MiB. Keeping the frames' bytes would add 8.
    assert growth["stack"] <= 3.0, growth


def test_the_tool_prints_one_line_per_command(tmp_path, capsys):
    assert scale_memory.main(["--num-frames", "8", "--num-objects", "2", "--seed", "3", "--work", str(tmp_path)]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [line["command"] for line in lines] == list(scale_memory.COMMANDS) == ["reid", "project --net"]
    for line in lines:
        assert (line["num_frames"], line["num_objects"]) == (8, 2)
        assert line["ru_maxrss_mib"] > 0 and line["run_s"] > 0
    assert (tmp_path / "reid.json").is_file() and (tmp_path / "scatter.csv").is_file()
