"""SVG bytes, pinned by sha256 digest.

The renderings are byte-stable by design, so a change to ``pamscan.svg``,
or to any value it draws, that moves a single byte fails here.  The first
three cases are the ``--svg`` rows of ``tests/test_cli_total.py``, written
by ``cli.main``; the rest draw README fixtures through the library, among
them a configuration stacked on two rows and traced loops with two and
three labels.
"""

import hashlib
from fractions import Fraction as F

import pytest

from pamscan import alpha_trace, bm_canon, labeled_normalize
from pamscan.cli import main
from pamscan.dsl import parse_bm_pairs, parse_config
from pamscan.svg import bm_svg, config_svg, loop_svg

M3_TEXT = "pam M3\nelements 0 a b c\nsum a + b = c\n"

CLI_ROWS = {
    "config normalize [0,1):a": (["config", "normalize"], "[0,1):a"),
    "alpha trace --len 4 (1,3]:a": (["alpha", "trace", "--len", "4"], "(1,3]:a"),
    "bm canon ∅": (["bm", "canon"], "∅"),
}

H = "(-3/2,-1/4]:b (-1/4,1/4]:a (1/4,3/2]:b"


def _config(text, m3, normalize=True):
    xi = parse_config(text, m3)
    return config_svg(labeled_normalize(xi, m3) if normalize else xi)


def _loop(text, length, m3):
    return loop_svg(alpha_trace(parse_config(text, m3), F(length), m3))


def _bm(text, m3):
    return bm_svg(bm_canon(m3, parse_bm_pairs(text, m3)))


LIBRARY_CASES = {
    "config [0,1):a [1,2]:a": lambda m3: _config("[0,1):a [1,2]:a", m3),
    "config H": lambda m3: _config(H, m3),
    "config two rows": lambda m3: _config("(0,1):a [1,2]:a (0,1):b [1,2]:b", m3, normalize=False),
    "config ∅": lambda m3: _config("∅", m3),
    "loop a b": lambda m3: _loop("(1,3]:a (3/2,7/2]:b", 5, m3),
    "loop a b c": lambda m3: _loop("(1,2]:a (3,4]:b (6,7]:c", 8, m3),
    "bm 1/2:a 1/2:b": lambda m3: _bm("1/2:a 1/2:b", m3),
    "bm 0:a 1/2:b": lambda m3: _bm("0:a 1/2:b", m3),
    "bm *:a -1/4:c": lambda m3: _bm("*:a -1/4:c", m3),
}

DIGESTS = {
    "config normalize [0,1):a": "62e21ad25c1f3187bfe2590117ce81010632c9daa10f98e1f313cde796fad56c",
    "alpha trace --len 4 (1,3]:a": "4c075885df0066b066a7a914654faccf204c46a9377191c75776333aecfae177",
    "bm canon ∅": "a712bc5551e004a8bdbee8ceb8afbe968b6bace715d926d023f144ae0c50ab35",
    "config [0,1):a [1,2]:a": "0913fc2ca91b6ce31ccb21b10f7411c29790323f7d5c0cb625bc1e95a0ecf097",
    "config H": "f3247e1e5ad9cd54695c1cb11de5cc30834c51833e72c44d31d8b87bce93f1e4",
    "config two rows": "14d767afc6b116284a50fd6333c8c66454c42ccb78dcc593dd3c96943ce87c1d",
    "config ∅": "9779ea2d95ec96dd4af86cd40ba394af026333736d707f7f6ba51928148f9002",
    "loop a b": "d5deb8a3b74af2939d5cd6aba84db99082d38642db324c25e9f1aaa725cb3cce",
    "loop a b c": "c52907bf4c4b4d57d65ba5e59dfeff60136b1d0e47e36f7c3b255e8c7510faa0",
    "bm 1/2:a 1/2:b": "3e893e09ab024d4a1bd60bbeca1f0a6e9883736b0de36fd8b038eba51157e8ff",
    "bm 0:a 1/2:b": "3ad98a4a6680299ba43196c11111043b9d34d874745a94ed53ee5a9c47c27a6a",
    "bm *:a -1/4:c": "4e9c8f8029f88eb89cda9e70b6196a3a2767d95140c8c6ce44185ea41af0168c",
}


def _digest(data):
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(CLI_ROWS))
def test_cli_svg_bytes(name, tmp_path, capsys):
    command, operand = CLI_ROWS[name]
    pam = tmp_path / "m3.pam"
    pam.write_text(M3_TEXT, encoding="utf-8")
    out = tmp_path / "out.svg"
    assert main(command + ["--pam", str(pam), "--svg", str(out), operand]) == 0
    capsys.readouterr()
    assert _digest(out.read_bytes()) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(LIBRARY_CASES))
def test_library_svg_bytes(name, m3):
    assert _digest(LIBRARY_CASES[name](m3).encode("utf-8")) == DIGESTS[name]
