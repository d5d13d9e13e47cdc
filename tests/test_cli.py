import pytest

from levilab import cli
from levilab.wirtinger import MAX_NVARS


def test_identities_pass(capsys):
    assert cli.main(["identities", "--n", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert all(line.startswith("PASS ") for line in lines)
    assert all("max_terms=" in line for line in lines[:3])


@pytest.mark.parametrize("argv", [
    ["identities", "--n", str(MAX_NVARS)],
    ["identities", "--n", "2", "--j", "3"],
])
def test_identities_usage_errors(argv, capsys):
    assert cli.main(argv) == cli.USAGE_EXIT == 64
    assert "levilab identities:" in capsys.readouterr().err
