"""README's examples run: its Python block, and every JSON config block
through `experiments.read_experiment`, so an API change that breaks one
fails here."""
import json
import math
import re
from pathlib import Path

from weaklp.experiments import read_experiment

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, flags=re.M | re.S)


def test_the_python_block_prints_a_plateau_near_4_over_e(capsys):
    (block,) = _blocks("python")
    exec(compile(block, "README.md", "exec"), {})
    plateau = float(re.search(r"plateau=([0-9.eE+-]+)", capsys.readouterr().out).group(1))
    assert abs(plateau / (4 / math.e) - 1) < 0.01


def test_every_json_config_block_is_read():
    blocks = _blocks("json")
    assert blocks
    for block in blocks:
        read_experiment(json.loads(block))
