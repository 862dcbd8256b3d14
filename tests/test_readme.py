"""The README's examples run as written.

A public name or configuration key that the package drops then breaks a
test here, not a reader's first try.
"""

import contextlib
import io
import json
import math
import re
from pathlib import Path

from triphoton.cli import run

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def block(heading, language):
    """The first ``language`` code block after ``heading``."""
    section = README[README.index(heading) :]
    return re.search(rf"```{language}\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block("## Library example", "python"), {})
    phase, p111 = (float(line) for line in out.getvalue().split())
    assert abs(phase - math.pi / 3) < 1e-9
    assert abs(p111 - 1.0 / 6.0) < 1e-12


def test_configuration_example(tmp_path):
    text = block("### Configuration", "json")
    config = json.loads(text)
    path = tmp_path / "config.json"
    path.write_text(text)
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(str(path), out_dir=str(tmp_path / "out")) == 0
    series = (tmp_path / "out" / f"{config['output']}_series.csv").read_text().splitlines()
    assert len(series) == 1 + config["grid"]["points"]
