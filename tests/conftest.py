import sys

import pytest

import imk.formulas


@pytest.fixture
def walks(monkeypatch) -> list:
    """The argument of every subformula_dag call from now on, whichever imk
    module makes it."""
    calls = []
    walk = imk.formulas.subformula_dag

    def counted(f):
        calls.append(f)
        return walk(f)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "imk" and getattr(module, "subformula_dag", None) is walk:
            monkeypatch.setattr(module, "subformula_dag", counted)
    return calls
