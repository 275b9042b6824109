"""sympy is imported only by the factorisation over Q: importing the package
and running jobs that never factor must leave it out of sys.modules (its
import alone costs about 0.4 s per process)."""

import os
import pathlib
import subprocess
import sys

import pytest

import centralleaf

SRC = str(pathlib.Path(centralleaf.__file__).resolve().parent.parent)


@pytest.mark.parametrize("statement", [
    "import centralleaf",
    "from centralleaf import cli; "
    "assert cli.main(['adm', '--group', 'GL2', '--mu', '1,0', '--output', os.devnull]) == 0",
    "from centralleaf import cli; "
    "assert cli.main(['witt-selfcheck', '--p', '2', '--length', '3', '--count', '50', "
    "'--output', os.devnull]) == 0",
], ids=["import", "adm", "witt-selfcheck"])
def test_sympy_not_imported(statement):
    env = dict(os.environ, PYTHONPATH=SRC)
    code = f"import os, sys\n{statement}\nassert 'sympy' not in sys.modules, 'sympy was imported'"
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
