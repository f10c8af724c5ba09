"""The README's library example runs against the current API, and its
config block is a valid config that names every key."""

import re
from pathlib import Path

import yaml

from cylris.config import SCHEMA, parse_config

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_config_block_names_every_key():
    (block,) = re.findall(r"```yaml\n(.*?)```", README.read_text(), re.S)
    raw = yaml.safe_load(block)
    parse_config(raw)
    assert set(raw) == set(SCHEMA)
    for section, keys in SCHEMA.items():
        if section != "method":  # method keys depend on the method named
            assert set(raw[section]) == set(keys), section
