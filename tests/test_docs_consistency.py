"""The docs-consistency gate: docs/API.md must mention every public name.

Runs the same logic as ``scripts/check_docs_consistency.py`` (CI invokes
the script directly too; this test keeps the gate inside ``pytest -x``).
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPT = REPO_ROOT / "scripts" / "check_docs_consistency.py"


def load_checker():
    spec = importlib.util.spec_from_file_location("check_docs_consistency", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestDocsConsistency:
    def test_every_export_is_documented(self):
        checker = load_checker()
        doc_text = (REPO_ROOT / "docs" / "API.md").read_text(encoding="utf-8")
        missing = checker.undocumented_names(doc_text)
        assert missing == [], (
            "docs/API.md is missing public names: "
            + ", ".join(f"{pkg}.{name}" for pkg, name in missing)
        )

    def test_detects_drift(self):
        checker = load_checker()
        # wipe one documented name from the text; the checker must notice
        doc_text = (REPO_ROOT / "docs" / "API.md").read_text(encoding="utf-8")
        broken = doc_text.replace("SimMetrics", "XimXetrics")
        missing = checker.undocumented_names(broken)
        assert ("repro.sim", "SimMetrics") in missing

    def test_every_doc_is_linked_from_readme(self):
        checker = load_checker()
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        assert checker.unlinked_docs(readme) == []

    def test_detects_unlinked_doc(self):
        checker = load_checker()
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        broken = readme.replace("docs/SIMULATION.md", "docs/XIMULATION.md")
        assert "docs/SIMULATION.md" in checker.unlinked_docs(broken)

    def test_script_entry_point(self):
        result = subprocess.run(
            [sys.executable, str(SCRIPT)],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "OK" in result.stdout
