"""CLI output bytes: the recorded benchmark cases and the README examples.

``perfbench/fixtures/cli_cases.json`` records, for each case, an argv, its
exit code, its stdout and, for ``--svg`` cases, the sha256 of the SVG
written.  Each case is replayed through ``cli.main`` with ``{pam}`` filled
by ``perfbench/fixtures/m3.pam`` and ``{svg}`` by a temporary path.  Each
``$ pamscan ...`` example in README.md is run the same way, ``m3.pam``
being that fixture, and prints its shown output, up to a ``...`` line
where the README cuts it short.  The fixtures are read, never written.
"""

import hashlib
import json
import os
import re
import shlex

import pytest

from pamscan.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(ROOT, "perfbench", "fixtures")
M3_PAM = os.path.join(FIXTURES, "m3.pam")

with open(os.path.join(FIXTURES, "cli_cases.json"), encoding="utf-8") as fh:
    CASES = json.load(fh)


def _readme_examples():
    """(argv, expected stdout, cut short) for each ``$ pamscan`` example."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    out, i = [], 0
    while i < len(lines):
        if not lines[i].startswith("$ pamscan "):
            i += 1
            continue
        command = lines[i]
        while command.endswith("\\"):
            i += 1
            command = command[:-1] + lines[i]
        shown, cut = [], False
        i += 1
        while i < len(lines) and lines[i] and not lines[i].startswith("```"):
            if lines[i] == "...":
                cut = True
                break
            shown.append(lines[i] + "\n")
            i += 1
        out.append((shlex.split(command)[2:], "".join(shown), cut))
    return out


README_EXAMPLES = _readme_examples()


def _run(argv, capsys):
    capsys.readouterr()
    rc = main(argv)
    return rc, capsys.readouterr().out


CASE_IDS = ["%02d-%s" % (i, "-".join(c["argv"][:2])) for i, c in enumerate(CASES)]


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_recorded_case(case, tmp_path, capsys):
    svg = str(tmp_path / "out.svg")
    argv = [a.replace("{pam}", M3_PAM).replace("{svg}", svg) for a in case["argv"]]
    assert _run(argv, capsys) == (case["rc"], case["stdout"])
    if case.get("svg"):
        with open(svg, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == case["svg"]


def test_the_cases_are_all_there():
    assert len(CASES) == 29 and sum("svg" in c for c in CASES) == 8


@pytest.mark.parametrize("argv, shown, cut", README_EXAMPLES,
                         ids=["-".join(e[0][:2]) for e in README_EXAMPLES])
def test_readme_example(argv, shown, cut, capsys):
    argv = [M3_PAM if a == "m3.pam" else a for a in argv]
    rc, stdout = _run(argv, capsys)
    assert rc == 0
    assert (stdout[: len(shown)] if cut else stdout) == shown


def test_the_readme_examples_are_all_there():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        count = len(re.findall(r"^\$ pamscan ", fh.read(), re.M))
    assert count == len(README_EXAMPLES) >= 9
    assert sum(cut for _, _, cut in README_EXAMPLES) == 1
