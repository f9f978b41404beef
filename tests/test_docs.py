"""The documents agree with the code and with each other.

A ledger citation is ``DECISIONS.md`` (backticked or not) followed by a comma
and the heading in double quotes; ``"…"``, the pattern's own placeholder, is
not one.  Comments and docstrings wrap a citation across lines, so the lines
are joined (with their comment marks dropped) before the scan.  A heading that
is renamed or merged away fails here and not in a reader's search.  The
ledger points at ``CHANGES.md`` entries by their first words, and README's
CLI section gives minimal configs and per-run key counts; both are checked
against what they name.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from driftkit import config

ROOT = Path(__file__).resolve().parent.parent
CITATION = re.compile(r'DECISIONS\.md`?,\s+"([^"]+)"')
POINTER = re.compile(r'`CHANGES\.md`, entr(?:y|ies) ((?:"[^"]+"(?:,? and |, )?)+)')


def joined(text: str) -> str:
    """``text`` with every line break, and a comment mark after it, one space."""
    return re.sub(r"\s*\n\s*(?:#\s*)?", " ", text)


def citations(text: str) -> list[str]:
    """The headings cited in ``text``, each joined across its line breaks."""
    return [heading for heading in CITATION.findall(joined(text)) if heading != "…"]


def test_scan_joins_a_citation_that_wraps_across_comment_lines():
    text = "\n".join(['x = 1  # as before (DECISIONS.md,', '    # "One flat', '    # vector")',
                      '"""(see DECISIONS.md,', '    "Two words")."""',
                      'See (`DECISIONS.md`,', '"Backticked', 'form"), not `DECISIONS.md, "…"`.'])
    assert citations(text) == ["One flat vector", "Two words", "Backticked form"]


def test_every_decisions_citation_names_a_heading():
    headings = set(re.findall(r"^## (.+)$", (ROOT / "DECISIONS.md").read_text(), re.M))
    paths = [*sorted((ROOT / "src").rglob("*.py")), *sorted((ROOT / "tests").glob("*.py")),
             ROOT / "README.md", ROOT / "ROADMAP.md", ROOT / "CHANGES.md"]
    cited = [(str(path.relative_to(ROOT)), heading) for path in paths
             for heading in citations(path.read_text())]
    assert len(cited) >= 5
    assert [(path, heading) for path, heading in cited if heading not in headings] == []


def test_every_changes_pointer_of_the_ledger_opens_an_entry():
    entries = [line[2:] for line in (ROOT / "CHANGES.md").read_text().splitlines()
               if line.startswith("- ")]
    pointed = [start for group in POINTER.findall(joined((ROOT / "DECISIONS.md").read_text()))
               for start in re.findall(r'"([^"]+)"', group)]
    assert len(pointed) >= 5
    assert [start for start in pointed if not any(e.startswith(start) for e in entries)] == []


def cli_section() -> str:
    text = (ROOT / "README.md").read_text()
    return text[text.index("## CLI"):text.index("## Layout")]


def minimal_configs() -> dict[str, dict]:
    """README's four minimal configs, by the command each is for."""
    blocks = re.findall(r"```json\n(.*?)```", cli_section(), re.S)
    assert len(blocks) == 4
    return dict(zip(("synth", "train", "eval", "finetune"), map(json.loads, blocks)))


def test_readme_minimal_configs_resolve():
    for command, raw in minimal_configs().items():
        config.resolve_config(raw, command)


def test_readme_key_counts_are_the_run_tables():
    minimal = minimal_configs()
    without_dataset = {k: v for k, v in minimal["eval"].items() if k != "eval.dataset"}
    runs = {  # README row -> the configs whose tables it counts, in its order
        "`synth`": [minimal["synth"]], "`train`": [minimal["train"]],
        "`finetune`": [minimal["finetune"]], "`eval`": [without_dataset, minimal["eval"]],
        "`eval` scripted": [{"eval.policy": "scripted"}]}
    rows = dict(re.findall(r"^\| (`\w+`(?: scripted)?) \(([\d or]+)\) \|", cli_section(), re.M))
    assert set(rows) == set(runs)
    for row, raws in runs.items():
        command = row.split("`")[1]
        counted = [len(config.run_keys(raw, command)[0]) for raw in raws]
        assert [int(n) for n in rows[row].split(" or ")] == counted, row
