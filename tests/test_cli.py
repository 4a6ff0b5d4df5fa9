"""Config validation of the command-line front end."""

import pytest

from carnotlab import cli


@pytest.mark.parametrize("kind", sorted(cli.RUNNERS))
def test_group_of_other_dimension_is_rejected_before_any_output(kind, tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(f"[scenario]\nkind = {kind}\ngroup = engel\n")
    runs = tmp_path / "runs"
    code = cli.main(["run", str(cfg), "--output-dir", str(runs)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "scenario.cfg:3:" in err and "engel has dimension 4" in err
    assert not runs.exists()
