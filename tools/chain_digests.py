"""SHA-256 of every file that README's command chain writes on README's 64-frame, 3-object scene.

    PYTHONPATH=src python tools/chain_digests.py

rewrites ``tests/golden/chain_digests.json``. The chain is
``compare_outputs.chain`` at seed 7 on a 96x72 scene of 64 frames and 3
objects, with the inputs that ``compare_outputs`` writes for that seed. Every
command runs in this process through ``cli.run``, in a temporary directory,
and is logged as ``compare_outputs`` logs it. The file records, for each file
a command wrote (its log included), the command and the digest, with this
machine's numpy version and BLAS line. ``features``, ``train``, ``reid`` and
``project`` compute with BLAS products, which a BLAS library may round
differently from another, so ``tests/test_chain_digests.py`` checks their
files only where the numpy version and BLAS line match the recorded ones, and
every other file everywhere.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from motionstack import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "chain_digests.json"
SEED = 7
SCENE = (96, 72, 64, 3)  # README's scene: width, height, frames, objects
BLAS_COMMANDS = frozenset({"features", "train", "reid", "project"})

_SPEC = importlib.util.spec_from_file_location("compare_outputs", Path(__file__).resolve().parent / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)


def machine() -> dict[str, str]:
    """The numpy version and the BLAS line that numpy reports, which the BLAS-computed digests depend on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        line = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # a numpy whose show_config has no dicts mode
        line = "unknown"
    return {"numpy": np.__version__, "blas": line}


def _files(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def digests(out: Path) -> dict[str, list[str]]:
    """Run the chain in the empty directory ``out``: ``{path: [command, sha256]}`` of every file a command wrote."""
    compare_outputs.write_inputs(out, SEED)
    writer: dict[str, str] = {}

    def run(argv: list[str]) -> tuple[int, str, str]:
        before = _files(out)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.run(argv)
        writer.update(dict.fromkeys(_files(out) - before, argv[0]))
        return code, stdout.getvalue(), stderr.getvalue()

    cwd = os.getcwd()
    os.chdir(out)  # the chain's paths are relative to its output directory
    try:
        compare_outputs.run_commands(run, out, compare_outputs.chain(SEED, SCENE))
    finally:
        os.chdir(cwd)
    writer.update({name: name.split("_", 1)[1][:-4] for name in _files(out) if name.startswith("logs/")})
    return {name: [writer[name], hashlib.sha256((out / name).read_bytes()).hexdigest()] for name in sorted(writer)}


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        files = digests(Path(tmp))
    # One line per file, so that the diff of a regenerated record names each file that changed.
    head = "".join(f" {json.dumps(key)}: {json.dumps(value)},\n" for key, value in {"seed": SEED, **machine()}.items())
    body = ",\n".join(f"  {json.dumps(name)}: {json.dumps(entry)}" for name, entry in files.items())
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(f'{{\n{head} "files": {{\n{body}\n }}\n}}\n', encoding="utf-8")
    print(f"wrote {len(files)} digests to {GOLDEN.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
