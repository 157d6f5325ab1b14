"""README examples against the package: the library block runs, the
command lines of the shell blocks run, and the config block lists exactly
the keys the parser accepts."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from zrtrimer import cli, config

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


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


def test_command_lines_run(tmp_path, monkeypatch):
    lines = []
    for block in re.findall(r"^```sh\n(.*?)^```", README, re.M | re.S):
        lines += [line for line in block.replace("\\\n", " ").splitlines()
                  if line.startswith("zrtrimer ")]
    argvs = [shlex.split(line, comments=True)[1:] for line in lines]
    assert {argv[0] for argv in argvs} == {
        "solve", "eigenvalue", "scan-p", "thomas-demo", "wavefunction"}
    # --out files land in tmp_path; the bundled configs are read in place
    monkeypatch.chdir(tmp_path)
    for line, argv in zip(lines, argvs):
        argv = [str(ROOT / arg) if arg.startswith("src/") else arg
                for arg in argv]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, line


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
