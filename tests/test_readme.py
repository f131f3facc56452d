"""The README's library example runs as written and gives the values it states."""

import re
from pathlib import Path

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_library_example_states_its_values():
    block = re.search(r"^## Library\n\n```python\n(.*?)^```", README, re.M | re.S).group(1)
    ns = {}
    exec(block, ns)
    ms, s, pts, cert, cover = (ns[k] for k in ("ms", "s", "pts", "cert", "cover"))
    # each value as the block's comments state it, and as the code gives it
    assert "# 216 points" in block and len(pts) == 216
    assert "# ((0, 1), (0, 1, -1)): the head" in block
    assert pts.companions == ((0, 1), (0, 1, -1)) and len(list(pts.unfolded())) == 6
    assert "check_orthogonal(s, pts).passed" in block and ms.check_orthogonal(s, pts).passed
    assert re.search(r"^s\.level\(2\)\.mask_zero\(2, 6\) +# True:", block, re.M)
    assert s.level(2).mask_zero(2, 6) is True
    assert "# 7: its range [-437/2160, 1733/2160] holds no tail zero" in block
    assert cert.checkpoint == 7 and "[-437/2160, 1733/2160] holds no tail zero" in cert.diagnostics
    assert "(array([0, 7776]), 7776)" in block and cover.den == 7776
    assert cover.ends.tolist() == [0, 7776]
    assert "= (0, 0): it tiles" in block and ms.tiling_defects(cover) == (0, 0)
