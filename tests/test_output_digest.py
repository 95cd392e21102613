"""tools/output_digest.py: one digest line per CLI command."""

import hashlib
import importlib.util
import re
from pathlib import Path

import numpy as np

import numvar.cli as cli
from numvar.points import SequenceSpec, _horner_fits

_SPEC = importlib.util.spec_from_file_location(
    "output_digest", Path(__file__).resolve().parents[1] / "tools" / "output_digest.py")
output_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(output_digest)


def test_output_digest_prints_a_line_per_command(capsys):
    assert output_digest.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    commands = output_digest.COMMANDS
    assert lines == [f"{line[:64]}  numvar {' '.join(c)}" for line, c in zip(lines, commands)]
    assert len(lines) == len(commands)
    assert all(re.fullmatch(r"[0-9a-f]{64}", line[:64]) for line in lines)
    assert {c[0] for c in commands} == set(cli._COMMANDS)
    digests = dict(zip(commands, (line[:64] for line in lines)))
    # CSV does not change with the thread count, and JSON differs only in wall_time
    for scans in (output_digest._SCANS, output_digest._RATIONAL_SCANS):
        half = len(scans) // 2
        for one, two in zip(scans[:half], scans[half:]):
            assert digests[one] == digests[two]
    assert len({digests[c] for c in output_digest._SCANS}) == 4
    assert len({digests[c] for c in output_digest._RATIONAL_SCANS}) == 2
    # a command's digest covers its exit code and stdout, the file --out names included
    decompose, to_file = ("decompose", "15/64"), ("decompose", "15/64", "--out", "decompose.json")
    assert cli.main(list(decompose)) == 0
    text = capsys.readouterr().out.encode()
    want = hashlib.sha256(b"1:0" + b"%d:" % len(text) + text + b"0:").hexdigest()
    assert digests[decompose] == want != digests[to_file]


def test_output_digest_covers_every_sequence_kind():
    # one command each at least, so every term path of generate_terms
    # (arange, Horner in int64 and on Python ints, powers, a list) is hashed
    sequences = [(c[c.index("--sequence") + 1], int(c[c.index("--count") + 1]))
                 for c in output_digest.COMMANDS if "--sequence" in c]
    kinds = {text.split(":")[0] for text, _ in sequences}
    assert kinds == {"linear", "poly", "lacunary", "explicit"}
    for kind in kinds:  # SequenceSpec's kinds, each with its own constructor
        assert callable(getattr(SequenceSpec, kind))
    assert any(not _horner_fits(SequenceSpec.parse(text).coeffs, count)
               for text, count in sequences if text.startswith("poly:"))


def test_rational_scan_takes_the_points_lexsort(monkeypatch, tmp_path):
    # rat:1/3's squares leave equal high words with their low words out of
    # order, which random alphas practically never do
    calls = []
    real = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or real(keys))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "rational.conf").write_text(output_digest.SCAN_CONFIGS["rational.conf"])
    output_digest.digest(output_digest._RATIONAL_SCANS[0])
    assert len(calls) == 2  # one point set per N
