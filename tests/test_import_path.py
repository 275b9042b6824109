"""The package has no runtime dependency: importing it and running any job,
slope certification over Q included, must leave sympy (a test-only oracle,
whose import alone costs about 0.4 s per process) out of sys.modules.

Records are NamedTuples, so the same jobs also leave out ``dataclasses``
and the ``inspect`` it imports, which cost a cold process tens of ms.

A cold CLI process compiles every module it imports from source, so it
must compile only what its command runs.  Code that only the tests call
lives under ``tests/`` (the reference implementations in ``oracles.py``)
or is gone.  ``lattices`` and ``witt`` load on first use: the package
resolves their names when they are read, and the CLI imports each inside
the one command that needs it, so ``import centralleaf`` and the
invariant jobs (report, classes, adm) compile neither."""

import os
import pathlib
import subprocess
import sys

import pytest

import centralleaf

SRC = str(pathlib.Path(centralleaf.__file__).resolve().parent.parent)


LAZY = ("centralleaf.lattices", "centralleaf.witt")


@pytest.mark.parametrize("statement, absent", [
    ("import centralleaf", LAZY),
    ("from centralleaf import cli; "
     "assert cli.main(['adm', '--group', 'GL2', '--mu', '1,0', '--output', os.devnull]) == 0",
     LAZY),
    ("from centralleaf import cli; "
     "assert cli.main(['witt-selfcheck', '--p', '2', '--length', '3', '--count', '50', "
     "'--output', os.devnull]) == 0", ("centralleaf.lattices",)),
    ("from fractions import Fraction\n"
     "from centralleaf.isocrystal import RationalIsocrystal, is_completely_slope_divisible\n"
     "m = ((4, Fraction(-3, 2)), (0, 1))\n"
     "report = is_completely_slope_divisible(RationalIsocrystal(m, 2))\n"
     "assert not report.divisible and len(set(report.slopes)) == 2\n"
     "assert 'precision' not in report.reason", LAZY),
    ("from centralleaf import cli, serialize\n"
     "import tempfile\n"
     "path = os.path.join(tempfile.mkdtemp(), 'adlv.csv')\n"
     "assert cli.main(['adlv', '--matrix', '3,0;0,1', '--mu', '1,0', '--p', '3', "
     "'--depth', '1', '--output', path]) == 0\n"
     "assert serialize.parse_csv(open(path).read())[1], 'no matched lattice'",
     ("centralleaf.witt",)),
    ("from centralleaf import cli; "
     "assert cli.main(['report', '--group', 'GL2', '--element', '{lambda:[1,0],w:s}', "
     "'--output', os.devnull]) == 0", LAZY),
    ("from centralleaf import cli; "
     "assert cli.main(['classes', '--group', 'GL2', '--cap', '2', "
     "'--output', os.devnull]) == 0", LAZY),
], ids=["import", "adm", "witt-selfcheck", "certify-rational", "adlv", "report",
        "classes"])
def test_sympy_not_imported(statement, absent):
    env = dict(os.environ, PYTHONPATH=SRC)
    code = (f"import os, sys\n{statement}\n"
            "assert 'sympy' not in sys.modules, 'sympy was imported'\n"
            f"for name in ('dataclasses', 'inspect') + {absent!r}:\n"
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


# every name the package exported when it imported lattices and witt
# eagerly, by the module that defines it
EXPORTS = {
    "affine": ("AffineElement", "KottwitzClass", "NewtonPoint",
               "SigmaClassPartition", "adjoint_lift", "admissible_set",
               "compose", "element", "enumerate_elements",
               "enumerate_sigma_classes", "identity_element", "invert",
               "kottwitz", "length", "newton_point", "rep_lift", "sigma_apply",
               "sigma_conjugate", "simple_element", "translation_element"),
    "errors": ("BudgetExceededError", "CentralLeafError", "ConfigurationError",
               "ConsistencyError", "DatumMismatchError", "InconclusiveError",
               "NotPDivisibleError", "PreconditionError", "SingularInputError",
               "UnsupportedOperationError"),
    "isocrystal": ("MonomialIsocrystal", "RationalIsocrystal",
                   "SlopeDivisibilityReport", "WeightedRep", "adjoint_rep",
                   "is_completely_slope_divisible", "monomial_from_rational",
                   "restriction_of_scalars", "slopes_charpoly",
                   "slopes_monomial", "slopes_via_weights", "standard_rep"),
    "lattices": ("ADLVCensus", "ADLVPoint", "LatticeModel", "adlv_points",
                 "enumerate_lattices"),
    "leaves": ("CrossCheckReport", "LeafReport", "cross_check_dimension",
               "leaf_report", "mu_average", "neutral_acceptable"),
    "rootdata": ("CoinvariantLattice", "RootDatum", "build_classical",
                 "datum_from_document", "dominance_leq", "dominant_rep",
                 "is_dominant", "parse_group_name"),
    "witt": ("DisplayDatum", "DisplayReport", "NilpotentPolyRing", "WittVector",
             "ZModRing", "display_check", "display_from_element",
             "int_of_witt_digits", "structure_polynomials", "witt", "witt_add",
             "witt_digits_of_int", "witt_frobenius", "witt_ghost", "witt_mul",
             "witt_neg", "witt_verschiebung"),
}


# the package first, or the lazy modules first: importing the module witt
# must not rebind the package's name witt, the function
@pytest.mark.parametrize("first", ["import centralleaf",
                                   "import centralleaf.witt, centralleaf.lattices"],
                         ids=["package-first", "modules-first"])
def test_package_keeps_its_names(first):
    env = dict(os.environ, PYTHONPATH=SRC)
    code = (f"{first}\n"
            "import importlib, centralleaf\n"
            f"for module, names in {EXPORTS!r}.items():\n"
            "    home = importlib.import_module('centralleaf.' + module)\n"
            "    for name in names:\n"
            "        scope = {}\n"
            "        exec('from centralleaf import ' + name, scope)\n"
            "        assert getattr(centralleaf, name) is getattr(home, name), name\n"
            "        assert scope[name] is getattr(home, name), name\n"
            "        assert name in dir(centralleaf), name\n"
            "assert centralleaf.__version__ == '0.1.0'\n"
            "assert not hasattr(centralleaf, 'no_such_name')")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
