import re
from pathlib import Path

from carepath.dataio import COVARIATE_HEADER, TRAJECTORY_HEADER
from carepath.pipeline import _STEPS, PipelineConfig, apply_config_file

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(text, language):
    return re.findall(rf"^```{language}\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)


def test_readme_examples_run(tmp_path, capsys):
    text = README.read_text()
    python = _blocks(text, "python")
    assert len(python) == 2
    namespace: dict = {}
    for block in python:  # the second block reuses the first one's records
        exec(compile(block, str(README), "exec"), namespace)
    assert len(capsys.readouterr().out.splitlines()) == 2

    (ini,) = _blocks(text, "ini")
    config = tmp_path / "pipeline.ini"
    config.write_text(ini)
    cfg = PipelineConfig()
    apply_config_file(cfg, config)
    cfg.validate()
    assert (cfg.synth_patients, cfg.k, cfg.tune_budget) == (500, 5, 0)


def test_readme_lists_the_stages_in_order():
    text = README.read_text()
    section = text.split("\n## Pipeline artifacts\n", 1)[1].split("\n## ", 1)[0]
    stages = re.findall(r"^\d+\. `(\w+)` - ", section, flags=re.MULTILINE)
    assert stages == [name for name, _ in _STEPS]


def test_readme_names_the_table_columns():
    text = README.read_text()
    section = text.split("\n## Data formats\n", 1)[1].split("\n## ", 1)[0]
    columns = re.findall(r"`(\w+\.csv)` has columns\s+`([\w,]+)`", section)
    assert dict(columns) == {
        "trajectories.csv": ",".join(TRAJECTORY_HEADER),
        "covariates.csv": ",".join(COVARIATE_HEADER),
    }
