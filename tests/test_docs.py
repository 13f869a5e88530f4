"""The README stays in step with the package layout."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_module_map_lists_exactly_the_package_modules():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split("Module map:", 1)[1].split("\n\n", 2)[1]
    listed = re.findall(r"^\| `(\w+)` +\|", table, flags=re.M)
    modules = sorted(p.stem for p in (ROOT / "src" / "partact").glob("*.py") if p.stem != "__init__")
    assert len(listed) == len(set(listed))
    assert sorted(listed) == modules
