"""The README's CLI walkthrough, run as written, prints what the README shows."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PDSR = [sys.executable, "-c", "import sys; from pdsr.cli import main; sys.exit(main())"]


def walkthrough():
    """(command, shown output lines) of every `$` line in the CLI walkthrough, in order."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## CLI walkthrough", 1)[1].split("\n## ", 1)[0]
    steps = []
    for block in re.findall(r"```\n(.*?)```", section, flags=re.S):
        lines = block.replace("\\\n", " ").splitlines()
        for line in lines:
            if line.startswith("$ "):
                steps.append((line[2:].split("  #")[0].strip(), []))
            elif steps:
                steps[-1][1].append(line)
    return [(command, _trim(shown)) for command, shown in steps]


def _trim(lines):
    while lines and not lines[-1].strip():
        lines.pop()
    return lines


def assert_shows(actual, shown):
    """Every shown line appears in order; a `...` line stands for any number of lines."""
    chunks = [[]]
    for line in shown:
        if line.strip() == "...":
            chunks.append([])
        else:
            chunks[-1].append(line)
    pos = 0
    for i, chunk in enumerate(chunks):
        if i == 0:
            assert actual[: len(chunk)] == chunk
        elif i == len(chunks) - 1:
            assert len(actual) - len(chunk) >= pos and actual[len(actual) - len(chunk):] == chunk
        else:
            starts = [s for s in range(pos, len(actual) - len(chunk) + 1)
                      if actual[s: s + len(chunk)] == chunk]
            assert starts, f"{chunk} not found after line {pos} of {actual}"
            pos = starts[0]
        pos += len(chunk)
    if len(chunks) == 1:
        assert len(actual) == len(shown)


def test_walkthrough_prints_what_the_readme_shows(tmp_path):
    steps = walkthrough()
    assert [c.split()[0] for c, _ in steps] == ["cat", "pdsr", "cd", "alias"] + ["P"] * 5
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    cwd, aliases = tmp_path, {}
    for command, shown in steps:
        words = shlex.split(command)
        if words[0] == "cat":  # the file the README shows
            (cwd / words[1]).write_text("\n".join(shown) + "\n", encoding="utf-8")
        elif words[0] == "cd":
            cwd = cwd / words[1]
        elif words[0] == "alias":
            name, value = words[1].split("=", 1)
            aliases[name] = shlex.split(value)
        else:
            words = aliases.get(words[0], [words[0]]) + words[1:]
            assert words[0] == "pdsr"
            done = subprocess.run(PDSR + words[1:], cwd=cwd, env=env, capture_output=True,
                                  text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            assert_shows(done.stdout.splitlines(), shown)
