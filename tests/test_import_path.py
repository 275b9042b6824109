"""The package has no runtime dependency: importing it and running any job,
slope certification over Q included, must leave sympy (a test-only oracle,
whose import alone costs about 0.4 s per process) out of sys.modules.

Records are NamedTuples, so the same jobs also leave out ``dataclasses``
and the ``inspect`` it imports, which cost a cold process tens of ms.

Code that only the tests call lives under ``tests/`` (the reference
implementations in ``oracles.py``) or is gone, so a cold import does not
compile it."""

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
    "from fractions import Fraction\n"
    "from centralleaf.isocrystal import RationalIsocrystal, is_completely_slope_divisible\n"
    "m = ((4, Fraction(-3, 2)), (0, 1))\n"
    "report = is_completely_slope_divisible(RationalIsocrystal(m, 2))\n"
    "assert not report.divisible and len(set(report.slopes)) == 2\n"
    "assert 'precision' not in report.reason",
    "from centralleaf import cli, serialize\n"
    "import tempfile\n"
    "path = os.path.join(tempfile.mkdtemp(), 'adlv.csv')\n"
    "assert cli.main(['adlv', '--matrix', '3,0;0,1', '--mu', '1,0', '--p', '3', "
    "'--depth', '1', '--output', path]) == 0\n"
    "assert serialize.parse_csv(open(path).read())[1], 'no matched lattice'",
], ids=["import", "adm", "witt-selfcheck", "certify-rational", "adlv"])
def test_sympy_not_imported(statement):
    env = dict(os.environ, PYTHONPATH=SRC)
    code = (f"import os, sys\n{statement}\n"
            "assert 'sympy' not in sys.modules, 'sympy was imported'\n"
            "for name in ('dataclasses', 'inspect'):\n"
            "    assert name not in sys.modules, name + ' was imported'")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


# names that no CLI command, library function or benchmark workload calls:
# moved to tests/oracles.py or deleted
TEST_ONLY = {
    "centralleaf": ("DecentLift", "bruhat_leq", "decent_representative",
                    "display_doc", "display_from_doc", "hom_rep",
                    "lattice_from_columns", "relative_position",
                    "slopes_via_restriction", "tensor_rep"),
    "centralleaf.affine": ("DecentLift", "bruhat_leq", "decent_representative"),
    "centralleaf.isocrystal": ("hom_rep", "monomial_compose", "monomial_identity",
                               "slopes_via_restriction", "tensor_rep"),
    "centralleaf.lattices": ("_scaled_inverse", "lattice_from_columns",
                             "relative_position"),
    "centralleaf.witt": ("display_doc", "display_from_doc"),
}


def test_package_defines_no_test_only_name():
    env = dict(os.environ, PYTHONPATH=SRC)
    code = ("import importlib\n"
            f"found = [m + '.' + n for m, names in {TEST_ONLY!r}.items()\n"
            "         for n in names if hasattr(importlib.import_module(m), n)]\n"
            "assert not found, found")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
