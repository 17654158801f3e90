"""The README's library sketch runs as written, so a name deleted from the
package fails here rather than for a reader."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_sketch_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    verdict, final_max = capsys.readouterr().out.split()
    assert verdict == "pass" and float(final_max) < 1e-2
