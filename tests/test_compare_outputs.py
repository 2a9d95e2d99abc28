"""The output-comparison tool: its command chain parses, and it names the first difference."""

import importlib.util
from pathlib import Path

from motionstack import cli

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
    assert all(not arg.startswith("/") for argv in commands for arg in argv)


def test_first_difference_names_the_first_file_in_path_order(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        (root / "logs").mkdir(parents=True)
        (root / "logs" / "00_eval.txt").write_text("exit 0\n")
        (root / "z.json").write_text("{}")
    assert compare_outputs.first_difference(a, b) is None
    (b / "z.json").write_text("{ }")
    (b / "logs" / "00_eval.txt").write_text("exit 2\n")
    assert compare_outputs.first_difference(a, b) == "logs/00_eval.txt"
    (a / "logs" / "00_eval.txt").write_text("exit 2\n")
    (a / "m.csv").write_text("")
    assert compare_outputs.first_difference(a, b) == "m.csv (only in the parent)"
