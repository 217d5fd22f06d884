"""Markdown link check over README.md and docs/ (the CI docs gate).

Every relative link in the prose docs must point at a file that exists in
the repository, and every documented module path under ``repro.`` must be
importable from ``src/``.  External (http/https/mailto) links are not
fetched — this is a fast, deterministic, offline check.
"""

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

DOC_FILES = sorted(
    [REPO_ROOT / "README.md", *(REPO_ROOT / "docs").glob("**/*.md")]
)

# [text](target) markdown links, excluding images' leading "!" (images are
# checked the same way, so include them via the optional bang).
_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")


def _relative_links(path: Path):
    text = path.read_text(encoding="utf-8")
    # Strip fenced code blocks: code samples may contain bracketed text
    # that is not a link.
    text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
    for match in _LINK.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        yield target


def test_docs_exist():
    assert (REPO_ROOT / "docs" / "index.md").is_file()
    assert (REPO_ROOT / "docs" / "architecture.md").is_file()
    assert (REPO_ROOT / "docs" / "flow_kernel.md").is_file()
    assert (REPO_ROOT / "docs" / "candidates.md").is_file()
    assert (REPO_ROOT / "docs" / "sessions.md").is_file()
    assert (REPO_ROOT / "docs" / "dispatch.md").is_file()
    assert (REPO_ROOT / "docs" / "benchmarks.md").is_file()
    # README + index + the six subsystem docs, all in the link matrix.
    assert len(DOC_FILES) >= 8


def test_dispatch_doc_covers_fault_tolerance():
    """The fault-tolerance contract is documented where users will look."""
    text = (REPO_ROOT / "docs" / "dispatch.md").read_text(encoding="utf-8")
    assert "## Fault tolerance" in text
    for term in ("fail-fast", "restart", "quarantine", "JournalReplayError",
                 "bench_resilience.py", "BENCH_all.json"):
        assert term in text, f"dispatch.md fault-tolerance docs lost {term!r}"
    index = (REPO_ROOT / "docs" / "index.md").read_text(encoding="utf-8")
    assert "RecoveryPolicy" in index
    assert "bench_resilience.py" in index


def test_dispatch_doc_notes_the_process_executor_removal():
    """The removed executor's measurement and last commit stay findable."""
    text = (REPO_ROOT / "docs" / "dispatch.md").read_text(encoding="utf-8")
    assert "## Executors" in text
    assert "Removed: the process executor" in text
    assert "2200435" in text


def test_dispatch_doc_covers_the_routing_index():
    """The index's exactness argument and the sharding verdict are documented."""
    text = (REPO_ROOT / "docs" / "dispatch.md").read_text(encoding="utf-8")
    assert "## Routing index" in text
    for term in ("always-probe", "tasks_reach_bounds", "test_dispatcher_index.py",
                 "BENCH_all.json", "Is sharding still a performance feature?"):
        assert term in text, f"dispatch.md routing-index docs lost {term!r}"


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: str(p.relative_to(REPO_ROOT)))
def test_relative_links_resolve(doc):
    broken = []
    for target in _relative_links(doc):
        resolved = (doc.parent / target.split("#", 1)[0]).resolve()
        if not resolved.exists():
            broken.append(target)
    assert broken == [], f"broken relative links in {doc.name}: {broken}"


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: str(p.relative_to(REPO_ROOT)))
def test_documented_module_paths_import(doc):
    """Module dotted paths mentioned in docs must actually exist."""
    import importlib

    text = doc.read_text(encoding="utf-8")
    modules = set(re.findall(r"`(repro(?:\.[a-z_0-9]+)+)`", text))
    missing = []
    for dotted in sorted(modules):
        parts = dotted.split(".")
        # Try the longest importable prefix, then getattr the rest — the
        # docs also name classes/functions as dotted paths.
        for cut in range(len(parts), 0, -1):
            try:
                obj = importlib.import_module(".".join(parts[:cut]))
            except ImportError:
                continue
            try:
                for attr in parts[cut:]:
                    obj = getattr(obj, attr)
            except AttributeError:
                missing.append(dotted)
            break
        else:
            missing.append(dotted)
    assert missing == [], f"{doc.name} mentions non-existent paths: {missing}"
