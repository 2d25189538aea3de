"""Every source file parses under the oldest Python that pyproject allows.

pyproject says ``requires-python = ">=3.10"``, so each ``.py`` file under
``src/``, ``tests/`` and ``perfbench/`` is parsed with
``ast.parse(source, feature_version=(3, 10))``.  That catches syntax newer
than 3.10, such as ``except*`` or a PEP 695 ``type`` statement.  It cannot
catch a standard-library name added after 3.10, and ``feature_version`` is
best-effort: the parser does not promise to refuse every newer construct.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(path for folder in ("src", "tests", "perfbench")
                 for path in (ROOT / folder).rglob("*.py"))


def test_pyproject_names_the_version_parsed():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^requires-python = ">=3\.10"$', pyproject, re.MULTILINE)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_source_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_the_parse_refuses_syntax_newer_than_3_10():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
