"""Every script in ``demos/`` runs to completion in process and prints."""

import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(capsys, script):
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out
