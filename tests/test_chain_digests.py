"""README's command chain, run in process, writes the files whose digests ``tests/golden`` records.

A change that alters output bits on purpose regenerates the record with
``PYTHONPATH=src python tools/chain_digests.py``, so the diff of
``tests/golden/chain_digests.json`` names every file it changed.
"""

import importlib.util
import json
import time
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "chain_digests", Path(__file__).resolve().parent.parent / "tools" / "chain_digests.py"
)
chain_digests = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(chain_digests)


def test_the_chain_writes_the_recorded_bytes(tmp_path):
    golden = json.loads(chain_digests.GOLDEN.read_text(encoding="utf-8"))
    assert golden["seed"] == chain_digests.SEED
    start = time.perf_counter()
    got = chain_digests.digests(tmp_path)
    assert time.perf_counter() - start < 5.0
    assert sorted(got) == sorted(golden["files"])  # every command writes the same files on any machine
    # BLAS-computed files are checked only on the numpy and BLAS that recorded them.
    same_blas = {key: golden[key] for key in ("numpy", "blas")} == chain_digests.machine()
    checked = [name for name, (command, _) in golden["files"].items()
               if same_blas or command not in chain_digests.BLAS_COMMANDS]
    assert {got[name][0] for name in checked} >= {"synth", "eval", "stack", "surgery", "mine"}
    assert [name for name in checked if got[name] != golden["files"][name]] == []
