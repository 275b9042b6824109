"""The package has no runtime dependency: importing it and running any job,
slope certification over Q included, must leave sympy (a test-only oracle,
whose import alone costs about 0.4 s per process) out of sys.modules.

Records are NamedTuples, so the same jobs also leave out ``dataclasses``
and the ``inspect`` it imports, which cost a cold process tens of ms.

A cold CLI process compiles every module it imports from source, so it
must compile only what its command runs.  Code that only the tests call
lives under ``tests/`` (the reference implementations in ``oracles.py``)
or is gone.  Every package name loads its module when it is read, and the
CLI imports, at module level, only ``errors``, ``linalg`` and
``serialize``; each command imports the names it calls when it runs.  The
slope readings (``slopes``) are a module of their own, apart from the
slope-divisibility certificate (``isocrystal``), and import ``rootdata``
only where they pair weights.  So ``import centralleaf`` compiles no
submodule; ``adm`` and ``classes`` compile none of ``slopes``,
``isocrystal``, ``leaves``, ``lattices`` and ``witt``; ``adlv`` none of
``rootdata``, ``affine``, ``leaves`` and ``witt``; ``witt-selfcheck``
none of ``rootdata``, ``isocrystal``, ``affine``, ``leaves`` and
``lattices``; ``report`` and ``crosscheck`` none of ``isocrystal``,
``lattices`` and ``witt``.  The CLI reads its flags off its option table
without argparse, so no job, and no ``--help``, imports ``argparse`` or
the ``gettext`` it pulls in.  The tests below pin each of these module
sets."""

import os
import pathlib
import subprocess
import sys

import pytest

import centralleaf

SRC = str(pathlib.Path(centralleaf.__file__).resolve().parent.parent)


SUBMODULES = ("affine", "cli", "errors", "isocrystal", "lattices", "leaves",
              "linalg", "rootdata", "serialize", "slopes", "witt")


def _absent(*modules):
    return tuple("centralleaf." + m for m in modules)


@pytest.mark.parametrize("statement, absent", [
    ("import centralleaf", _absent(*SUBMODULES)),
    ("from centralleaf import cli; "
     "assert cli.main(['adm', '--group', 'GL2', '--mu', '1,0', '--output', os.devnull]) == 0",
     _absent("slopes", "isocrystal", "leaves", "lattices", "witt")),
    ("from centralleaf import cli; "
     "assert cli.main(['witt-selfcheck', '--p', '2', '--length', '3', '--count', '50', "
     "'--output', os.devnull]) == 0",
     _absent("rootdata", "isocrystal", "affine", "leaves", "lattices")),
    ("from fractions import Fraction\n"
     "from centralleaf.isocrystal import RationalIsocrystal, is_completely_slope_divisible\n"
     "m = ((4, Fraction(-3, 2)), (0, 1))\n"
     "report = is_completely_slope_divisible(RationalIsocrystal(m, 2))\n"
     "assert not report.divisible and len(set(report.slopes)) == 2\n"
     "assert 'precision' not in report.reason",
     _absent("rootdata", "affine", "leaves", "lattices", "witt")),
    ("from centralleaf import cli, serialize\n"
     "import tempfile\n"
     "path = os.path.join(tempfile.mkdtemp(), 'adlv.csv')\n"
     "assert cli.main(['adlv', '--matrix', '3,0;0,1', '--mu', '1,0', '--p', '3', "
     "'--depth', '1', '--output', path]) == 0\n"
     "assert serialize.parse_csv(open(path).read())[1], 'no matched lattice'",
     _absent("rootdata", "affine", "leaves", "witt")),
    ("from centralleaf import cli; "
     "assert cli.main(['report', '--group', 'GL2', '--element', '{lambda:[1,0],w:s}', "
     "'--output', os.devnull]) == 0", _absent("isocrystal", "lattices", "witt")),
    ("from centralleaf import cli; "
     "assert cli.main(['classes', '--group', 'GL2', '--cap', '2', "
     "'--output', os.devnull]) == 0",
     _absent("slopes", "isocrystal", "leaves", "lattices", "witt")),
    ("from centralleaf import cli; "
     "assert cli.main(['crosscheck', '--group', 'GL2', '--cap', '1', "
     "'--output', os.devnull]) == 0", _absent("isocrystal", "lattices", "witt")),
    ("from centralleaf import cli\n"
     "for argv in (['--help'], ['adlv', '--help']):\n"
     "    try:\n"
     "        cli.main(argv)\n"
     "    except SystemExit as exc:\n"
     "        assert exc.code == 0, exc.code\n"
     "    else:\n"
     "        raise AssertionError(argv)",
     _absent("affine", "isocrystal", "lattices", "leaves", "rootdata", "slopes", "witt")),
], ids=["import", "adm", "witt-selfcheck", "certify-rational", "adlv", "report",
        "classes", "crosscheck", "help"])
def test_sympy_not_imported(statement, absent):
    env = dict(os.environ, PYTHONPATH=SRC)
    code = (f"import os, sys\n{statement}\n"
            "assert 'sympy' not in sys.modules, 'sympy was imported'\n"
            f"for name in ('dataclasses', 'inspect', 'argparse', 'gettext') + {absent!r}:\n"
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
    "centralleaf.slopes": ("hom_rep", "monomial_compose", "monomial_identity",
                           "slopes_via_restriction", "tensor_rep"),
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


# every name the package exports, by the module that defines it
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
    "isocrystal": ("SlopeDivisibilityReport", "is_completely_slope_divisible"),
    "lattices": ("ADLVCensus", "ADLVPoint", "LatticeModel", "adlv_points",
                 "enumerate_lattices"),
    "leaves": ("CrossCheckReport", "LeafReport", "cross_check_dimension",
               "leaf_report", "mu_average", "neutral_acceptable"),
    "rootdata": ("CoinvariantLattice", "RootDatum", "build_classical",
                 "datum_from_document", "dominance_leq", "dominant_rep",
                 "is_dominant", "parse_group_name"),
    "slopes": ("MonomialIsocrystal", "RationalIsocrystal", "WeightedRep",
               "adjoint_rep", "monomial_from_rational", "restriction_of_scalars",
               "slopes_charpoly", "slopes_monomial", "slopes_via_weights",
               "standard_rep"),
    "witt": ("DisplayDatum", "DisplayReport", "NilpotentPolyRing", "WittVector",
             "ZModRing", "display_check", "display_from_element",
             "int_of_witt_digits", "structure_polynomials", "witt_add",
             "witt_digits_of_int", "witt_frobenius", "witt_ghost", "witt_mul",
             "witt_neg", "witt_verschiebung"),
}


def test_slope_names_have_one_home():
    # the certificate imports only the slope names it calls, so the slope
    # names it does not call are read from slopes alone
    import centralleaf.isocrystal
    import centralleaf.slopes
    uncalled = ("WeightedRep", "adjoint_rep", "monomial_from_rational",
                "restriction_of_scalars", "slopes_monomial", "slopes_via_weights",
                "standard_rep")
    assert [name for name in uncalled if hasattr(centralleaf.isocrystal, name)] == []
    assert centralleaf.standard_rep is centralleaf.slopes.standard_rep


# the package first, the modules first, or the CLI, whose commands import
# the names from their modules: the package must resolve each name to the
# object its module defines, and its name witt, like every submodule's
# name, to the module (the constructor is centralleaf.witt.witt)
@pytest.mark.parametrize("first", ["import centralleaf",
                                   "import centralleaf.witt, centralleaf.lattices",
                                   "import centralleaf.cli",
                                   "import centralleaf.witt as w\n"
                                   "assert w.__name__ == 'centralleaf.witt', w",
                                   "from centralleaf import witt\n"
                                   "assert witt.__name__ == 'centralleaf.witt', witt"],
                         ids=["package-first", "modules-first", "cli-first",
                              "import-witt-as", "from-package-import-witt"])
def test_package_keeps_its_names(first):
    env = dict(os.environ, PYTHONPATH=SRC)
    code = (f"{first}\n"
            "import importlib, sys, centralleaf\n"
            f"for module, names in {EXPORTS!r}.items():\n"
            "    home = importlib.import_module('centralleaf.' + module)\n"
            "    for name in names:\n"
            "        scope = {}\n"
            "        exec('from centralleaf import ' + name, scope)\n"
            "        assert getattr(centralleaf, name) is getattr(home, name), name\n"
            "        assert scope[name] is getattr(home, name), name\n"
            "        assert name in dir(centralleaf), name\n"
            "import centralleaf.witt as w\n"
            "from centralleaf import witt\n"
            "assert w is witt is sys.modules['centralleaf.witt'], w\n"
            "assert w.witt_add is centralleaf.witt_add\n"
            "assert centralleaf.__version__ == '0.1.0'\n"
            "assert not hasattr(centralleaf, 'no_such_name')")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_all_is_the_export_table():
    assert sorted(centralleaf.__all__) == sorted(
        [name for names in EXPORTS.values() for name in names] + ["__version__"])
    assert centralleaf._HOME == {name: module for module, names in EXPORTS.items()
                                 for name in names}


def test_star_import_binds_every_name():
    env = dict(os.environ, PYTHONPATH=SRC)
    code = ("import importlib\n"
            "from centralleaf import *\n"
            f"for module, names in {EXPORTS!r}.items():\n"
            "    home = importlib.import_module('centralleaf.' + module)\n"
            "    for name in names:\n"
            "        assert globals().get(name) is getattr(home, name), name\n"
            "assert __version__ == '0.1.0'")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
