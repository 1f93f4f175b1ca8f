"""The README's library quick-start runs as printed, and its constants are the code's."""

import re
from pathlib import Path

from machfv import flux, stepper

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], f"{README}:quick-start", "exec"), {})


def test_readme_states_the_scheme_constants():
    text = README.read_text()
    for module, name in ((stepper, "ETA_SAFETY"), (stepper, "CFL_SAFETY"),
                         (stepper, "BETA"), (stepper, "DT_MAX"),
                         (flux, "VISCOUS_SCALE")):
        assert f"`{name} = {getattr(module, name)!r}`" in text, name
