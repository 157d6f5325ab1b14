"""README examples against the package: the library block runs and the
config block lists exactly the keys the parser accepts."""

import contextlib
import io
import re
from pathlib import Path

from zrtrimer import config

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(lang: str) -> str:
    blocks = re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)
    assert len(blocks) == 1, f"expected one {lang} block in README.md"
    return blocks[0]


def test_library_block_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_block("python"), "README.md", "exec"), {})
    # the He4 trimer: ground and excited state
    lines = out.getvalue().splitlines()
    assert [line.split()[0] for line in lines] == ["-144.0556", "-2.2205"]


def test_config_block_keys_are_the_allowed_keys():
    keys: dict[str, set[str]] = {}
    section = None
    for line in _block("ini").splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            section = line.strip("[]").split(".")[0]
            keys.setdefault(section, set())
        elif "=" in line:
            keys[section].add(line.split("=", 1)[0].strip())
    assert keys == config._ALLOWED
