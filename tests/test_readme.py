"""README's "Library use" example runs against the installed API."""

import re
from pathlib import Path

import numpy as np

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
