"""Every heading of the decisions ledger that the code or the README cites exists.

A citation is ``DECISIONS.md`` followed by a comma and the heading in double
quotes.  Comments and docstrings wrap it across lines, so the lines are
joined (with their comment marks dropped) before the scan.  A heading that
is renamed or merged away fails here and not in a reader's search.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CITATION = re.compile(r'DECISIONS\.md,\s+"([^"]+)"')


def citations(text: str) -> list[str]:
    """The headings cited in ``text``, each joined across its line breaks."""
    return CITATION.findall(re.sub(r"\s*\n\s*(?:#\s*)?", " ", text))


def test_scan_joins_a_citation_that_wraps_across_comment_lines():
    text = "\n".join(['x = 1  # as before (DECISIONS.md,', '    # "One flat', '    # vector")',
                      '"""(see DECISIONS.md,', '    "Two words")."""'])
    assert citations(text) == ["One flat vector", "Two words"]


def test_every_decisions_citation_names_a_heading():
    headings = set(re.findall(r"^## (.+)$", (ROOT / "DECISIONS.md").read_text(), re.M))
    paths = [*sorted((ROOT / "src").rglob("*.py")), *sorted((ROOT / "tests").glob("*.py")),
             ROOT / "README.md"]
    cited = [(str(path.relative_to(ROOT)), heading) for path in paths
             for heading in citations(path.read_text())]
    assert len(cited) >= 5
    assert [(path, heading) for path, heading in cited if heading not in headings] == []
