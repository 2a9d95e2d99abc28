"""Peak memory and run time of ``synth generate``, then ``mine``, ``train``, ``reid`` and ``project --net`` on its scene.

    python tools/scale_memory.py --num-frames 4096 --num-objects 6 --switch 1:1500 --switch 3:2500 --seed 7
    python tools/scale_memory.py --tree ../parent --num-frames 1024 --num-objects 6

The script builds a scene of the given size with ``synth generate`` in a
temporary directory (or ``--work``) and saves an untrained net for its
features with ``save_net``. Then it runs ``mine`` and ``train`` with
README's flags (``mine --seed 3 --per-anchor 2``, ``train --epochs 50 --lr
0.05``), and ``reid`` and ``project --net`` with the untrained net. Each
command runs in a fresh process with ``PYTHONPATH=<tree>/src``, and the
script prints one JSON line per command, in that order: the process's ``ru_maxrss`` in MiB and the seconds it ran
after ``import motionstack.cli``. ``--tree`` defaults to the checkout that
holds this script. ``measure`` runs one command the same way from a given
``src`` directory, for tests that bound how a command's peak grows with its
input.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# Run in the measured process: the command, then its peak resident size (KiB on
# Linux) and the time after import, as the last line of standard output.
_MEASURED = """
import resource, sys, time
from motionstack import cli
start = time.perf_counter()
code = cli.run(sys.argv[1:])
run_s = time.perf_counter() - start
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, run_s)
sys.exit(code)
"""

# On Linux a child's ru_maxrss starts from the size of the process that forked it
# and is kept across exec, so the measured process is forked by this small one,
# never by a caller that holds a large heap, such as a test runner.
_LAUNCH = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"

_SAVE_NET = """
import sys
from motionstack.metric_learning import EmbeddingNet, save_net
from motionstack.tensor_io import read_tensor
save_net(EmbeddingNet.init(read_tensor(sys.argv[1]).shape[1], seed=0), sys.argv[2])
"""


def _env(src: Path) -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(src.resolve()), "PYTHONDONTWRITEBYTECODE": "1"}


def measure(src: Path, argv: list[str], cwd: Path) -> tuple[float, float]:
    """Run ``motionstack argv`` from the package in ``src`` in a fresh process: (ru_maxrss MiB, run s)."""
    done = subprocess.run(
        [sys.executable, "-c", _LAUNCH, sys.executable, "-c", _MEASURED, *argv],
        cwd=cwd, env=_env(src), capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise RuntimeError(f"motionstack {' '.join(argv)} exited {done.returncode}: {done.stderr.strip()}")
    maxrss_kib, run_s = done.stdout.splitlines()[-1].split()
    return int(maxrss_kib) / 1024.0, float(run_s)


def make_scene(src: Path, work: Path, generate_args: list[str]) -> tuple[float, float]:
    """``synth generate`` into ``work/scene``, measured, and an untrained net for its features into ``work/net``.

    Returns what ``measure`` returns for ``synth generate``.
    """
    generated = measure(src, ["synth", "generate", *generate_args, "--out-dir", "scene"], work)
    subprocess.run([sys.executable, "-c", _SAVE_NET, "scene/features.mten", "net"],
                   cwd=work, env=_env(src), check=True, capture_output=True)
    return generated


SCENE = ["--features", "scene/features.mten", "--tracklets", "scene/tracklets.json"]
INPUTS = [*SCENE, "--net", "net/net.json"]
COMMANDS = {
    "mine": ["mine", "--tracklets", "scene/tracklets.json", "--seed", "3", "--per-anchor", "2",
             "--out-triplets", "triplets.jsonl"],
    "train": ["train", *SCENE, "--triplets", "triplets.jsonl", "--epochs", "50", "--lr", "0.05", "--out-dir", "trained"],
    "reid": ["reid", *INPUTS, "--out", "reid.json"],
    "project --net": ["project", *INPUTS, "--out-csv", "scatter.csv"],
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--tree", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="motionstack checkout to run (default: the one holding this script)")
    parser.add_argument("--num-frames", type=int, required=True)
    parser.add_argument("--num-objects", type=int, required=True)
    parser.add_argument("--switch", action="append", default=[], help="OBJ:FRAME, as synth generate takes it")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--work", type=Path, default=None, help="directory for the scene (default: a temporary one)")
    args = parser.parse_args(argv)
    generate_args = ["--num-frames", str(args.num_frames), "--num-objects", str(args.num_objects),
                     "--seed", str(args.seed)] + [a for s in args.switch for a in ("--switch", s)]

    def report(name: str, maxrss_mib: float, run_s: float) -> None:
        print(json.dumps({"command": name, "num_frames": args.num_frames, "num_objects": args.num_objects,
                          "ru_maxrss_mib": round(maxrss_mib, 1), "run_s": round(run_s, 3)}), flush=True)

    with tempfile.TemporaryDirectory() as tmp:
        work = args.work or Path(tmp)
        work.mkdir(parents=True, exist_ok=True)
        report("synth generate", *make_scene(args.tree / "src", work, generate_args))
        for name, command in COMMANDS.items():
            report(name, *measure(args.tree / "src", command, work))
    return 0


if __name__ == "__main__":
    sys.exit(main())
