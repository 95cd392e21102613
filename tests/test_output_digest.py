"""tools/output_digest.py: one digest line per CLI command."""

import hashlib
import importlib.util
import re
from pathlib import Path

import numvar.cli as cli

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
    for one, two in zip(output_digest._SCANS[:4], output_digest._SCANS[4:]):
        assert digests[one] == digests[two]
    assert len({digests[c] for c in output_digest._SCANS}) == 4
    # a command's digest covers its exit code and stdout, the file --out names included
    decompose, to_file = ("decompose", "15/64"), ("decompose", "15/64", "--out", "decompose.json")
    assert cli.main(list(decompose)) == 0
    text = capsys.readouterr().out.encode()
    want = hashlib.sha256(b"1:0" + b"%d:" % len(text) + text + b"0:").hexdigest()
    assert digests[decompose] == want != digests[to_file]
