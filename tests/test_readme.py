"""README's "Library use" example runs against the installed API, its usage lines match
the CLI, and its config example parses."""

import argparse
import re
from pathlib import Path

import numpy as np

from quatpca import Manner, Transform
from quatpca.cli import RunConfig, _build_parser, parse_config
from conftest import write_image_tree

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_block():
    section = README.read_text().split("## Library use", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, re.S)
    return block


def test_library_use_example_runs(tmp_path, monkeypatch, rng):
    faces = {}
    for c in range(3):
        base = rng.integers(0, 256, (8, 6, 3))
        faces[f"person{c}"] = [np.clip(base + rng.integers(-20, 21, base.shape), 0, 255)
                               .astype(np.uint8) for _ in range(10)]
    write_image_tree(tmp_path / "faces", faces)
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(library_use_block(), str(README), "exec"), namespace)
    assert 0.0 <= namespace["accuracy"] <= 1.0
    assert len(namespace["labels"]) == 3


def typical_session_options():
    """{command: options} of each ``quatpca <command> ...`` line of README's "Typical session"."""
    section = README.read_text().split("Typical session:", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    usage = {}
    for line in block.splitlines():
        _, command, *words = line.split()
        usage[command] = {w.lstrip("[") for w in words if w.lstrip("[").startswith("-")}
    return usage


def test_typical_session_lists_every_option_of_every_command():
    (commands,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {name: {opt for a in sub._actions if not isinstance(a, argparse._HelpAction)
                      for opt in a.option_strings}
               for name, sub in commands.choices.items()}
    assert typical_session_options() == options


def test_config_block_parses_to_its_documented_values(tmp_path):
    (block,) = re.findall(r"```ini\n(.*?)```", README.read_text(), re.S)
    cfg = tmp_path / "readme.cfg"
    cfg.write_text(block)
    assert parse_config(cfg) == RunConfig(
        root="./faces", split=(0.8, 0.1, 0.1), seed=7, s=2.0, p=2.0, k1=4, k2=4, tol=1e-4,
        max_iter=500, manner=Manner.UNWEIGHTED, transform=Transform.IDENTITY, repeats=3)
