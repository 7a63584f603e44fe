"""Every source and test file parses with Python 3.10's grammar, the
oldest Python that pyproject.toml accepts and the CI matrix runs."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(path for top in ("src", "tests") for path in (ROOT / top).rglob("*.py"))


def test_files_found():
    assert any(p.name == "optimizer.py" for p in FILES)
    assert any(p.name == "test_python310_syntax.py" for p in FILES)


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_parses_with_python_310_grammar(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
