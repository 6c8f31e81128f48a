"""Flag values that start with '-' are accepted after a space, as after '='."""
import pytest

from pencil_spectra.trace_cli import main
from tests.test_cli import DRUDE_CFG


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "drude.cfg"
    path.write_text(DRUDE_CFG)
    return str(path)


@pytest.mark.parametrize("spaced, joined", [
    (["eigen", "--k", "-2:2:5"], ["eigen", "--k=-2:2:5"]),
    (["eigen", "--k", "-1e-3"], ["eigen", "--k=-1e-3"]),
    (["classify", "--omega", "-0.5,0.2", "--k", "-1e-3"],
     ["classify", "--omega=-0.5,0.2", "--k=-1e-3"]),
    (["classify", "--omega", "-0.5,-0.2", "--dim", "2"],
     ["classify", "--omega=-0.5,-0.2", "--dim", "2"]),
    (["trace", "--grid", "-1:1:5,-1.2:0.4:4", "--k", "-3", "--no-overlays"],
     ["trace", "--grid=-1:1:5,-1.2:0.4:4", "--k=-3", "--no-overlays"]),
    (["resolve", "--omega", "-0.6,0.25", "--k", "-3", "--support", "-2:-1"],
     ["resolve", "--omega=-0.6,0.25", "--k=-3", "--support=-2:-1"]),
])
def test_dash_value_after_a_space_equals_the_equals_form(config, tmp_path, capsys, spaced,
                                                         joined):
    outs = []
    for i, argv in enumerate((spaced, joined)):
        extra = ["--out", str(tmp_path / f"out{i}")] if argv[0] in ("trace", "resolve") else []
        assert main(argv[:1] + ["--config", config] + argv[1:] + extra) == 0
        outs.append(capsys.readouterr().out.replace(f"out{i}", "out"))
    assert outs[0] == outs[1]
    assert "error" not in outs[0]


def test_a_known_option_is_never_taken_as_a_value(config, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--config", config, "--omega", "--k", "3"])
    assert exc.value.code == 2
    assert "--omega: expected one argument" in capsys.readouterr().err


def test_readme_examples_with_negative_values(config, tmp_path, capsys):
    """The README's trace examples, written with a space before the negative grid."""
    for extra in (["--k", "3"], ["--dim", "2"]):
        assert main(["trace", "--config", config, "--grid", "-3:3:13,-2.2:0.4:9", *extra,
                     "--out", str(tmp_path)]) == 0
        assert "cell counts" in capsys.readouterr().out
