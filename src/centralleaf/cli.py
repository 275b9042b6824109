"""Command-line front end.

Subcommands: report, classes, adm, adlv, witt-selfcheck, crosscheck.
Output is deterministic for identical job specifications (fixed sorting,
no timestamps); exit codes: 0 success, 1 validation error, 2 internal
consistency failure, 3 budget/precision exhaustion.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass, field, fields
from typing import List, Optional

from . import linalg, serialize
from .affine import (enumerate_elements, enumerate_sigma_classes, length,
                     rep_lift)
from .errors import (BudgetExceededError, CentralLeafError, ConfigurationError,
                     ConsistencyError, DatumMismatchError, InconclusiveError,
                     NotPDivisibleError, PreconditionError, SingularInputError,
                     UnsupportedOperationError)
from .isocrystal import MonomialIsocrystal, monomial_from_rational
from .lattices import adlv_points
from .leaves import cross_check_dimension, leaf_report
from .rootdata import RootDatum, datum_from_document, parse_group_name
from .witt import (ZModRing, display_check, display_from_element,
                   int_of_witt_digits, structure_polynomials, truncate, witt,
                   witt_add, witt_digits_of_int, witt_frobenius, witt_ghost,
                   witt_mul, witt_scalar, witt_verschiebung)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONSISTENCY = 2
EXIT_BUDGET = 3


@dataclass
class JobSpec:
    command: str
    group: Optional[object] = None
    elements: List[object] = field(default_factory=list)
    matrix: Optional[str] = None
    mu: Optional[str] = None
    level: str = "iwahori"
    p: int = 2
    depth: int = 1
    cap: int = 1
    conj_cap: Optional[int] = None
    bound: Optional[int] = None
    length: int = 3
    coeff_exponent: int = 5
    count: int = 500
    seed: int = 0
    format: str = "csv"
    output: Optional[str] = None

    @staticmethod
    def known_keys():
        return {f.name for f in fields(JobSpec)}


_INT_KEYS = ("p", "depth", "cap", "conj_cap", "bound", "length",
             "coeff_exponent", "count", "seed")
_STR_KEYS = ("mu", "matrix", "level", "format", "output")
# job-spec key -> (what its value must be, the check); bool is an int subclass
_VALUE_TYPES = {
    **{key: ("an integer", lambda v: type(v) is int) for key in _INT_KEYS},
    **{key: ("a string", lambda v: isinstance(v, str)) for key in _STR_KEYS},
    "group": ("a string or an object", lambda v: isinstance(v, (str, dict))),
    "elements": ("a list of strings or objects",
                 lambda v: isinstance(v, list) and all(isinstance(e, (str, dict)) for e in v)),
}
_OPTIONAL_KEYS = ("conj_cap", "bound", "group", "matrix", "mu", "output")


def _spec_from_document(doc: dict) -> JobSpec:
    unknown = set(doc) - JobSpec.known_keys()
    if unknown:
        raise ConfigurationError(f"unknown job-spec keys: {sorted(unknown)}")
    if "command" not in doc:
        raise ConfigurationError("job spec needs a 'command'")
    for key, (kind, check) in _VALUE_TYPES.items():
        if key not in doc or (doc[key] is None and key in _OPTIONAL_KEYS):
            continue
        if not check(doc[key]):
            raise ConfigurationError(f"job-spec value {key!r} must be {kind}, not {doc[key]!r}")
    return JobSpec(**doc)


def _resolve_group(spec: JobSpec) -> RootDatum:
    if spec.group is None:
        raise PreconditionError("this command needs --group")
    if isinstance(spec.group, dict):
        return datum_from_document(spec.group)
    text = str(spec.group)
    if text.lstrip().startswith("{"):
        return datum_from_document(serialize.loads_tolerant(text))
    return parse_group_name(text)


def _parse_mu(spec: JobSpec):
    if spec.mu is None:
        raise PreconditionError("this command needs --mu")
    try:
        return tuple(int(x) for x in str(spec.mu).split(","))
    except ValueError:
        raise ConfigurationError(
            f"--mu must be comma-separated integers, got {spec.mu!r}") from None


# ---------------------------------------------------------------------------
# command bodies: each returns (text artifact, exit code)

def _run_report(spec: JobSpec):
    datum = _resolve_group(spec)
    if not spec.elements:
        raise PreconditionError("report needs at least one --element")
    reports = [leaf_report(datum, serialize.element_from_doc(datum, doc))
               for doc in spec.elements]
    rows = [serialize.leaf_report_row(r) for r in reports]
    if spec.format == "csv":
        return serialize.render_csv(serialize.LEAF_HEADER, rows), EXIT_OK
    return serialize.structured_text(
        [dict(zip(serialize.LEAF_HEADER, row)) for row in rows]), EXIT_OK


def _run_classes(spec: JobSpec):
    datum = _resolve_group(spec)
    partition = enumerate_sigma_classes(datum, spec.cap,
                                        conjugator_cap=spec.conj_cap,
                                        coord_bound=spec.bound)
    rows = serialize.class_rows(partition, datum)
    if spec.format == "csv":
        return serialize.render_csv(serialize.CLASS_HEADER, rows), EXIT_OK
    return serialize.structured_text(
        [dict(zip(serialize.CLASS_HEADER, row)) for row in rows]), EXIT_OK


def _run_adm(spec: JobSpec):
    from .affine import admissible_set
    datum = _resolve_group(spec)
    mu = _parse_mu(spec)
    result = admissible_set(datum, mu, spec.level)
    if spec.level == "hyperspecial":
        rows = [(serialize.vector_str(v),) for v in result]
        header = serialize.ADM_HYPER_HEADER
    else:
        ordered = sorted(result, key=lambda x: (length(x), x.translation, x.finite))
        rows = [(serialize.element_str(x), str(length(x))) for x in ordered]
        header = serialize.ADM_HEADER
    if spec.format == "csv":
        return serialize.render_csv(header, rows), EXIT_OK
    return serialize.structured_text(
        [dict(zip(header, row)) for row in rows]), EXIT_OK


def _run_adlv(spec: JobSpec):
    mu = _parse_mu(spec)
    if spec.matrix is not None and spec.elements:
        raise ConfigurationError("adlv takes --matrix or --element, not both")
    if len(spec.elements) > 1:
        raise ConfigurationError(
            f"adlv takes one --element, got {len(spec.elements)}")
    if spec.matrix is not None:
        mat = serialize.parse_matrix(spec.matrix)
        b = monomial_from_rational(mat, spec.p)
    elif spec.elements:
        datum = _resolve_group(spec)
        x = serialize.element_from_doc(datum, spec.elements[0])
        b = rep_lift(x)
    else:
        raise PreconditionError("adlv needs --matrix or --group/--element")
    census = adlv_points(b, mu, spec.p, spec.depth)
    rows = serialize.adlv_rows(census)
    if spec.format == "csv":
        return serialize.render_csv(serialize.ADLV_HEADER, rows), EXIT_OK
    return serialize.structured_text({
        "mu": list(census.mu), "p": census.p, "depth": census.depth,
        "lattices": census.lattice_count,
        "points": [dict(zip(serialize.ADLV_HEADER, row)) for row in rows]}), EXIT_OK


def _run_witt_selfcheck(spec: JobSpec):
    p, m, k = spec.p, spec.length, spec.coeff_exponent
    if spec.count < 1:
        raise ConfigurationError(f"--count must be at least 1, got {spec.count}")
    ring = ZModRing(p, k)
    rng = random.Random(spec.seed)
    structure_polynomials(p, m)  # integrality asserted at derivation
    checks = {"structure_polynomials_integral": True}

    ghost_ok = True
    for _ in range(spec.count):
        a = witt(ring, p, tuple(rng.randrange(ring.modulus) for _ in range(m)))
        b = witt(ring, p, tuple(rng.randrange(ring.modulus) for _ in range(m)))
        ga, gb = witt_ghost(a), witt_ghost(b)
        if witt_ghost(witt_add(a, b)) != tuple(ring.add(x, y) for x, y in zip(ga, gb)):
            ghost_ok = False
            break
        if witt_ghost(witt_mul(a, b)) != tuple(ring.mul(x, y) for x, y in zip(ga, gb)):
            ghost_ok = False
            break
    checks["ghost_is_ring_homomorphism"] = ghost_ok

    fv_ok = True
    vf_ok = True
    for _ in range(50):
        a = witt(ring, p, tuple(rng.randrange(ring.modulus) for _ in range(m)))
        if witt_frobenius(witt_verschiebung(a)).components != \
                truncate(witt_scalar(a, p), m - 1).components:
            fv_ok = False
        one = witt(ring, p, (1,) + (0,) * (m - 1))
        lhs = witt_verschiebung(witt_frobenius(a))
        rhs = truncate(witt_mul(a, witt_verschiebung(one)), m - 1)
        if truncate(lhs, m - 1).components != rhs.components:
            vf_ok = False
    checks["frobenius_verschiebung_is_p"] = fv_ok
    checks["verschiebung_frobenius_projection"] = vf_ok

    digits_ok = all(int_of_witt_digits(witt_digits_of_int(x, p, m), p) == x
                    for x in range(p ** m))
    checks["prime_field_digit_isomorphism"] = digits_ok

    ordinary = MonomialIsocrystal(2, (0, 1), (0, -1))
    checks["ordinary_display_passes"] = display_check(
        display_from_element(ordinary, p, m)).passed
    try:
        display_from_element(MonomialIsocrystal(2, (0, 1), (0, 1)), p, m)
        checks["bad_window_rejected"] = False
    except NotPDivisibleError:
        checks["bad_window_rejected"] = True

    document = {"p": p, "length": m, "coefficient_exponent": k,
                "pairs": spec.count, "checks": checks,
                "passed": all(checks.values())}
    code = EXIT_OK if document["passed"] else EXIT_CONSISTENCY
    return serialize.structured_text(document), code


def _run_crosscheck(spec: JobSpec):
    datum = _resolve_group(spec)
    bound = spec.bound if spec.bound is not None else spec.cap + 1
    sample = enumerate_elements(datum, spec.cap, bound)
    report = cross_check_dimension(datum, sample)
    rows = [(serialize.element_str(r.element), str(r.closed), str(r.oracle),
             "true" if r.ok else "false") for r in report.rows]
    code = EXIT_OK if report.all_pass else EXIT_CONSISTENCY
    if spec.format == "csv":
        return serialize.render_csv(serialize.CROSSCHECK_HEADER, rows), code
    return serialize.structured_text(
        {"all_pass": report.all_pass,
         "rows": [dict(zip(serialize.CROSSCHECK_HEADER, row)) for row in rows]}), code


_COMMANDS = {
    "report": _run_report,
    "classes": _run_classes,
    "adm": _run_adm,
    "adlv": _run_adlv,
    "witt-selfcheck": _run_witt_selfcheck,
    "crosscheck": _run_crosscheck,
}


def run(spec: JobSpec) -> int:
    """Execute a job; emits the artifact and returns the exit code."""
    try:
        if spec.command not in _COMMANDS:
            raise ConfigurationError(f"unknown command {spec.command!r}")
        if spec.format not in ("csv", "structured-text"):
            raise ConfigurationError(f"unknown format {spec.format!r}")
        if spec.command in ("adlv", "witt-selfcheck"):
            linalg.require_prime(spec.p)
        artifact, code = _COMMANDS[spec.command](spec)
    except (ConfigurationError, PreconditionError, DatumMismatchError,
            UnsupportedOperationError, SingularInputError,
            NotPDivisibleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY
    except (BudgetExceededError, InconclusiveError) as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    _emit(spec, artifact)
    return code


def _emit(spec: JobSpec, artifact: str):
    if spec.output:
        with open(spec.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(artifact)
    else:
        sys.stdout.write(artifact)


class _Parser(argparse.ArgumentParser):
    """Reports a rejected command line as a validation error (exit 1)
    instead of argparse's exit 2, the internal-consistency code."""

    def error(self, message):
        raise ConfigurationError(message)


def build_parser(defaults: bool = True) -> argparse.ArgumentParser:
    """The CLI parser; with ``defaults=False`` it only records typed flags."""
    parser = _Parser(
        prog="centralleaf",
        description="Exact invariants of sigma-conjugacy classes: Newton "
                    "points, central-leaf dimensions, admissible sets, "
                    "lattice censuses, Witt/display self checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def arg(sp, *flags, default=None, **kwargs):
        sp.add_argument(*flags, **kwargs,
                        default=default if defaults else argparse.SUPPRESS)

    def common(sp):
        arg(sp, "--spec", help="job specification JSON file")
        arg(sp, "--output", help="write the artifact to this path")
        arg(sp, "--format", choices=["csv", "structured-text"], default="csv")

    sp = sub.add_parser("report", help="leaf report for elements")
    common(sp)
    arg(sp, "--group")
    arg(sp, "--element", action="append", default=[])

    sp = sub.add_parser("classes", help="sigma-conjugacy class census")
    common(sp)
    arg(sp, "--group")
    arg(sp, "--cap", type=int, default=1)
    arg(sp, "--conj-cap", type=int, dest="conj_cap")
    arg(sp, "--bound", type=int)

    sp = sub.add_parser("adm", help="admissible set of a cocharacter")
    common(sp)
    arg(sp, "--group")
    arg(sp, "--mu")
    arg(sp, "--level", choices=["iwahori", "hyperspecial"], default="iwahori")

    sp = sub.add_parser("adlv", help="lattice census of X(b; mu)")
    common(sp)
    arg(sp, "--group")
    arg(sp, "--element", action="append", default=[])
    arg(sp, "--matrix")
    arg(sp, "--mu")
    arg(sp, "--p", type=int, default=2)
    arg(sp, "--depth", type=int, default=1)

    sp = sub.add_parser("witt-selfcheck", help="Witt/display invariant suite")
    common(sp)
    arg(sp, "--p", type=int, default=2)
    arg(sp, "--length", type=int, default=3)
    arg(sp, "--coeff-exponent", type=int, dest="coeff_exponent", default=5)
    arg(sp, "--count", type=int, default=500)
    arg(sp, "--seed", type=int, default=0)

    sp = sub.add_parser("crosscheck", help="dimension formula cross check")
    common(sp)
    arg(sp, "--group")
    arg(sp, "--cap", type=int, default=2)
    arg(sp, "--bound", type=int)

    return parser


def _given(args: dict):
    """(job-spec key, value) of the parsed options that carry a value."""
    for key, value in args.items():
        if key in ("spec", "command") or value in (None, []):
            continue
        yield ("elements", list(value)) if key == "element" else (key, value)


def spec_from_args(argv=None) -> JobSpec:
    """Job spec from the command line: explicit flags beat the --spec file,
    which beats the parser's defaults; a spec naming another command than
    the typed subcommand is refused."""
    typed = vars(build_parser(defaults=False).parse_args(argv))
    defaults = vars(build_parser().parse_args(argv))
    command = typed["command"]
    doc = {}
    if typed.get("spec"):
        with open(typed["spec"], "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ConfigurationError("job spec must be a JSON object")
        if doc.get("command", command) != command:
            raise ConfigurationError(
                f"job spec is for {doc['command']!r}, not {command!r}")
    doc["command"] = command
    doc.update(_given(typed))
    for key, value in _given(defaults):
        doc.setdefault(key, value)
    return _spec_from_document(doc)


def main(argv=None) -> int:
    try:
        spec = spec_from_args(argv)
    except CentralLeafError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    code = run(spec)
    return code


if __name__ == "__main__":
    sys.exit(main())
