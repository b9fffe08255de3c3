"""Golden text for the figure commands.

The fixtures hold what ``python -m repro <cmd>`` printed (default
arguments) at the last commit that still drew its series from the
seed-era event collector.  The figures are now views over the task
journal; byte equality here is what allowed that collector to be
deleted instead of kept as a reference.  Re-record only for a deliberate
change to a scenario's model or its rendering.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.mark.parametrize(
    "command", ["fig3", "fig4", "sweep-batch", "sweep-threshold", "gpr-ablation"]
)
def test_cli_output_matches_golden(command, capsys):
    assert main([command]) == 0
    printed = capsys.readouterr().out.encode()
    assert printed == (FIXTURES / f"{command}.txt").read_bytes()
