"""Tests for scripts/docs_check.py (loaded by path; it is not a package)."""

import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).parents[2] / "scripts" / "docs_check.py"
_spec = importlib.util.spec_from_file_location("docs_check", _SCRIPT)
docs_check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(docs_check)


class TestCodeNames:
    def test_a_stale_name_and_a_missing_path_fail(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text(
            "The engine (`repro.core.batch.run_batch`, `core/batch.py`,\n"
            "`phase_king.py`) once kept `repro.core.batch.fault_free_rows`\n"
            "and `analysis/batchsweep.py`; `not_here.py` is gone too.\n"
            "Fenced code is not checked:\n"
            "```python\n"
            "`repro.no_such_module`\n"
            "```\n",
            encoding="utf-8",
        )
        errors = []
        assert docs_check.check_code_names(doc, errors) == 6
        assert [error.split(": ", 1)[1] for error in errors] == [
            "`analysis/batchsweep.py` names code that does not exist",
            "`not_here.py` names code that does not exist",
            "`repro.core.batch.fault_free_rows` names code that does not exist",
        ]

    def test_a_submodule_shadowed_by_a_function_resolves(self):
        # ``repro.analysis`` re-exports a function named ``sweep``; the
        # longest importable prefix is the submodule.
        assert docs_check.resolves("repro.analysis.sweep.measure")
        assert not docs_check.resolves("repro.analysis.batchsweep")
