"""Bad input fails with one clear error, never a traceback or nonsense.

Each row is an ``(argv, message fragment)`` pair run in-process through
:func:`repro.cli.main`: the command must exit 2 having printed exactly
one ``error:`` line that holds the fragment, and must write nothing.
``{tmp}`` in an argument stands for a fresh temporary directory.
"""

from __future__ import annotations

import pytest

from repro.cli import main

#: (argv, fragment of the one error line)
CASES = [
    # An output file whose directory does not exist is refused before
    # the grid runs, not with a traceback after it.
    (
        ["sweep", "-w", "llama3-8b-decode", "--batch-size", "1",
         "--csv", "{tmp}/missing/x.csv"],
        "directory {tmp}/missing does not exist",
    ),
    (
        ["sweep", "-w", "llama3-8b-decode", "--batch-size", "1",
         "--json", "{tmp}/missing/x.json"],
        "directory {tmp}/missing does not exist",
    ),
    (
        ["serve", "-w", "llama3-8b-decode", "--rate", "10", "--duration", "1",
         "--json", "{tmp}/missing/x.json"],
        "directory {tmp}/missing does not exist",
    ),
    # A synthetic trace with no requests is refused like an empty file.
    (
        ["serve", "-w", "llama3-8b-decode", "--rate", "1e-6", "--duration", "1"],
        "holds no requests",
    ),
    (
        ["serve", "-w", "llama3-8b-decode", "--rate", "1e-6", "--duration", "1",
         "--curve"],
        "holds no requests",
    ),
]


@pytest.mark.parametrize(
    "argv, fragment", CASES, ids=[" ".join(argv) for argv, _ in CASES]
)
def test_bad_input_exits_with_one_error_line(argv, fragment, tmp_path, capsys):
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    try:
        code = main(argv)
    except SystemExit as exit_:
        code = exit_.code
    err = capsys.readouterr().err
    assert code == 2, err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert fragment.replace("{tmp}", str(tmp_path)) in lines[0]
    assert list(tmp_path.iterdir()) == []
