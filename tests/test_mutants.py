"""The mutant list of `tests/mutants.py` still names code that is there."""

from __future__ import annotations

from mutants import MUTANTS, ROOT, module_path


def test_each_mutant_replaces_text_that_occurs_once_in_its_module():
    for module, old, new, why in MUTANTS:
        assert module_path(ROOT, module).read_text().count(old) == 1, (module, old)
        assert new != old and why
