"""Command-line front end.

Subcommands: report, classes, adm, adlv, witt-selfcheck, crosscheck.
Output is deterministic for identical job specifications (fixed sorting,
no timestamps); exit codes: 0 success, 1 validation error, 2 internal
consistency failure, 3 budget/precision exhaustion.

Each command's options are declared once, in ``_OPTIONS``: the flags,
the --help text, the job-file check and the defaults all read that table.
The command line is read off it directly (``_parse_argv``), without
argparse, whose import and parser construction cost a cold process more
than parsing does.

Each command imports the library modules it calls when it runs, so a cold
process compiles only ``errors``, ``linalg``, ``serialize`` and those.
"""

from __future__ import annotations

import json
import random
import sys
from types import SimpleNamespace
from typing import NamedTuple, Optional, Tuple

from . import linalg, serialize
from .errors import (BudgetExceededError, CentralLeafError, ConfigurationError,
                     ConsistencyError, DatumMismatchError, InconclusiveError,
                     NotPDivisibleError, PreconditionError, SingularInputError,
                     UnsupportedOperationError)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONSISTENCY = 2
EXIT_BUDGET = 3


# Kinds besides int, str and a tuple of choices: a group name or root-datum
# object, and the elements, which the command line gives one --element at a time.
GROUP = "group"
ELEMENTS = "elements"


class Option(NamedTuple):
    """One option of a command: its job-file key, the kind of its value and
    its default.  The flag is ``--key`` with ``-`` for ``_``.  A job file
    may set the key to null exactly when the default is None."""
    key: str
    kind: object
    default: object = None
    help: Optional[str] = None


_OUTPUT = Option("output", str, help="write the artifact to this path")
_FORMAT = Option("format", ("csv", "structured-text"), "csv")
_GROUP = Option("group", GROUP)
_ELEMENTS = Option("elements", ELEMENTS, ())

# command -> (help, options), in the order --help lists them
_OPTIONS = {
    "report": ("leaf report for elements", (_OUTPUT, _FORMAT, _GROUP, _ELEMENTS)),
    "classes": ("sigma-conjugacy class census",
                (_OUTPUT, _FORMAT, _GROUP, Option("cap", int, 1),
                 Option("conj_cap", int), Option("bound", int))),
    "adm": ("admissible set of a cocharacter",
            (_OUTPUT, _FORMAT, _GROUP, Option("mu", str),
             Option("level", ("iwahori", "hyperspecial"), "iwahori"))),
    "adlv": ("lattice census of X(b; mu)",
             (_OUTPUT, _FORMAT, _GROUP, _ELEMENTS, Option("matrix", str),
              Option("mu", str), Option("p", int, 2), Option("depth", int, 1))),
    "witt-selfcheck": ("Witt/display invariant suite",
                       (_OUTPUT, Option("format", ("structured-text",), "structured-text"),
                        Option("p", int, 2), Option("length", int, 3),
                        Option("coeff_exponent", int, 5), Option("count", int, 500),
                        Option("seed", int, 0))),
    "crosscheck": ("dimension formula cross check",
                   (_OUTPUT, _FORMAT, _GROUP, Option("cap", int, 2),
                    Option("bound", int))),
}


class JobSpec(SimpleNamespace):
    """One job: its ``command`` and a value for each of its options."""


# kind -> (what a job file must give, the check); bool is an int subclass
_KINDS = {
    int: ("an integer", lambda v: type(v) is int),
    str: ("a string", lambda v: isinstance(v, str)),
    GROUP: ("a string or an object", lambda v: isinstance(v, (str, dict))),
    ELEMENTS: ("a list of strings or objects",
               lambda v: isinstance(v, list) and all(isinstance(e, (str, dict)) for e in v)),
}


def _check_kind(option: Option, value):
    """Refuse a job-file value that is not of its option's kind."""
    what, fits = _KINDS.get(option.kind) or (f"one of {list(option.kind)}",
                                              lambda v: v in option.kind)
    if not fits(value):
        raise ConfigurationError(
            f"job-spec value {option.key!r} must be {what}, not {value!r}")


def _resolve_group(spec: JobSpec) -> RootDatum:
    from .rootdata import datum_from_document, parse_group_name
    if spec.group is None:
        raise PreconditionError("this command needs --group")
    if isinstance(spec.group, dict):
        return datum_from_document(spec.group)
    if spec.group.lstrip().startswith("{"):
        return datum_from_document(serialize.loads_tolerant(spec.group))
    return parse_group_name(spec.group)


def _parse_mu(spec: JobSpec):
    if spec.mu is None:
        raise PreconditionError("this command needs --mu")
    try:
        return tuple(int(x) for x in spec.mu.split(","))
    except ValueError:
        raise ConfigurationError(
            f"--mu must be comma-separated integers, got {spec.mu!r}") from None


def _table(spec: JobSpec, header, rows, wrap=lambda records: records) -> str:
    """The artifact of a table command: CSV, or structured text holding the
    rows as objects, put into a document by ``wrap``."""
    if spec.format == "csv":
        return serialize.render_csv(header, rows)
    return serialize.structured_text(wrap([dict(zip(header, row)) for row in rows]))


# ---------------------------------------------------------------------------
# command bodies: each returns (text artifact, exit code)

def _run_report(spec: JobSpec):
    from .leaves import leaf_report
    datum = _resolve_group(spec)
    if not spec.elements:
        raise PreconditionError("report needs at least one --element")
    reports = [leaf_report(datum, serialize.element_from_doc(datum, doc))
               for doc in spec.elements]
    rows = [serialize.leaf_report_row(r) for r in reports]
    return _table(spec, serialize.LEAF_HEADER, rows), EXIT_OK


def _run_classes(spec: JobSpec):
    from .affine import enumerate_sigma_classes
    datum = _resolve_group(spec)
    partition = enumerate_sigma_classes(datum, spec.cap,
                                        conjugator_cap=spec.conj_cap,
                                        coord_bound=spec.bound)
    rows = serialize.class_rows(partition, datum)
    return _table(spec, serialize.CLASS_HEADER, rows), EXIT_OK


def _run_adm(spec: JobSpec):
    from .affine import admissible_set, length, sort_key
    datum = _resolve_group(spec)
    mu = _parse_mu(spec)
    result = admissible_set(datum, mu, spec.level)
    if spec.level == "hyperspecial":
        rows = [(serialize.vector_str(v),) for v in result]
        header = serialize.ADM_HYPER_HEADER
    else:
        ordered = sorted(result, key=sort_key)
        rows = [(serialize.element_str(x), str(length(x))) for x in ordered]
        header = serialize.ADM_HEADER
    return _table(spec, header, rows), EXIT_OK


def _run_adlv(spec: JobSpec):
    from .slopes import monomial_from_rational
    from .lattices import adlv_points
    linalg.require_prime(spec.p)
    mu = _parse_mu(spec)
    if spec.matrix is not None and (spec.elements or spec.group is not None):
        raise ConfigurationError("adlv takes --matrix or --group/--element, not both")
    if len(spec.elements) > 1:
        raise ConfigurationError(
            f"adlv takes one --element, got {len(spec.elements)}")
    if spec.matrix is not None:
        b = monomial_from_rational(serialize.parse_matrix(spec.matrix), spec.p)
    elif spec.elements:
        from .affine import rep_lift
        datum = _resolve_group(spec)
        b = rep_lift(serialize.element_from_doc(datum, spec.elements[0]))
    else:
        raise PreconditionError("adlv needs --matrix or --group/--element")
    census = adlv_points(b, mu, spec.p, spec.depth)
    rows = serialize.adlv_rows(census)
    return _table(spec, serialize.ADLV_HEADER, rows, lambda points: {
        "mu": list(census.mu), "p": census.p, "depth": census.depth,
        "lattices": census.lattice_count, "points": points}), EXIT_OK


def _run_witt_selfcheck(spec: JobSpec):
    from .witt import (ZModRing, display_check, display_from_element,
                       structure_polynomials, truncate, witt, witt_add,
                       witt_digits_of_int, witt_frobenius, witt_ghost,
                       witt_mul, witt_scalar, witt_verschiebung)
    from .slopes import MonomialIsocrystal
    linalg.require_prime(spec.p)
    p, m, k = spec.p, spec.length, spec.coeff_exponent
    if spec.count < 1:
        raise ConfigurationError(f"--count must be at least 1, got {spec.count}")
    if m < 2:
        # Frobenius and Verschiebung need a length of at least 2
        raise ConfigurationError(f"--length must be at least 2, got {m}")
    ring = ZModRing(p, k)
    rng = random.Random(spec.seed)
    structure_polynomials(p, m)  # integrality asserted at derivation
    checks = {"structure_polynomials_integral": True}

    ghost_ok = True
    for _ in range(spec.count):
        a = witt(ring, tuple(rng.randrange(ring.modulus) for _ in range(m)))
        b = witt(ring, tuple(rng.randrange(ring.modulus) for _ in range(m)))
        ga, gb = witt_ghost(a), witt_ghost(b)
        if witt_ghost(witt_add(a, b)) != tuple(ring.add(x, y) for x, y in zip(ga, gb)) \
                or witt_ghost(witt_mul(a, b)) != tuple(ring.mul(x, y) for x, y in zip(ga, gb)):
            ghost_ok = False
            break
    checks["ghost_is_ring_homomorphism"] = ghost_ok

    fv_ok = True
    vf_ok = True
    for _ in range(50):
        a = witt(ring, tuple(rng.randrange(ring.modulus) for _ in range(m)))
        if witt_frobenius(witt_verschiebung(a)).components != \
                truncate(witt_scalar(a, p), m - 1).components:
            fv_ok = False
        one = witt(ring, (1,) + (0,) * (m - 1))
        lhs = witt_verschiebung(witt_frobenius(a))
        rhs = truncate(witt_mul(a, witt_verschiebung(one)), m - 1)
        if truncate(lhs, m - 1).components != rhs.components:
            vf_ok = False
    checks["frobenius_verschiebung_is_p"] = fv_ok
    checks["verschiebung_frobenius_projection"] = vf_ok

    # W_m(F_p) = Z/p^m through Teichmuller digits, which the ghost solver
    # does not compute: a wrong lift or a wrong carry fails here
    prime_field = ZModRing(p, 1)
    digits_ok = True
    for x in range(p ** m):
        y = rng.randrange(p ** m)
        a = witt(prime_field, witt_digits_of_int(x, p, m))
        b = witt(prime_field, witt_digits_of_int(y, p, m))
        if witt_add(a, b).components != witt_digits_of_int(x + y, p, m) or \
                witt_mul(a, b).components != witt_digits_of_int(x * y, p, m):
            digits_ok = False
            break
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
    from .affine import enumerate_elements
    from .leaves import cross_check_dimension
    datum = _resolve_group(spec)
    bound = spec.bound if spec.bound is not None else spec.cap + 1
    sample = enumerate_elements(datum, spec.cap, bound)
    report = cross_check_dimension(datum, sample)
    rows = [(serialize.element_str(r.element), str(r.closed), str(r.oracle),
             "true" if r.ok else "false") for r in report.rows]
    code = EXIT_OK if report.all_pass else EXIT_CONSISTENCY
    return _table(spec, serialize.CROSSCHECK_HEADER, rows, lambda records: {
        "all_pass": report.all_pass, "rows": records}), code


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
        artifact, code = _COMMANDS[spec.command](spec)
        if spec.output:
            with open(spec.output, "w", encoding="utf-8", newline="") as fh:
                fh.write(artifact)
        else:
            sys.stdout.write(artifact)
    except (ConfigurationError, PreconditionError, DatumMismatchError,
            UnsupportedOperationError, SingularInputError,
            NotPDivisibleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY
    except (BudgetExceededError, InconclusiveError) as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    return code


_HELP = ("-h", "--help")
_SPEC = Option("spec", str, help="job specification JSON file")


def _flag(option: Option) -> str:
    return "--element" if option.kind == ELEMENTS else "--" + option.key.replace("_", "-")


def _usage(command: Optional[str] = None) -> str:
    """The --help text, from ``_OPTIONS``: the commands, or one command's flags."""
    if command is None:
        return "\n".join(
            ["usage: centralleaf COMMAND [flags]", "",
             "Exact invariants of sigma-conjugacy classes: Newton points,",
             "central-leaf dimensions, admissible sets, lattice censuses,",
             "Witt/display self checks.", "", "commands:"]
            + [f"  {name:<16}{text}" for name, (text, _) in _OPTIONS.items()]) + "\n"
    text, options = _OPTIONS[command]
    lines = [f"usage: centralleaf {command} [flags]", "", text, "", "flags:"]
    for option in (_SPEC,) + options:
        kind = option.kind
        value = ("{" + ",".join(kind) + "}" if isinstance(kind, tuple) else
                 "INT" if kind is int else "ELEMENT" if kind == ELEMENTS else
                 option.key.upper())
        notes = [option.help] if option.help else []
        if kind == ELEMENTS:
            notes.append("repeatable")
        elif option.default is not None:
            notes.append(f"default {option.default}")
        lines.append(f"  {_flag(option) + ' ' + value:<34}{'; '.join(notes)}".rstrip())
    return "\n".join(lines) + "\n"


def _parse_argv(argv) -> Tuple[str, dict]:
    """The command and its typed flags, read off ``_OPTIONS``.

    The first token is the command.  A flag is ``--flag VALUE`` or
    ``--flag=VALUE``, the value being the next token whatever it starts
    with; the last of a repeated flag wins, and ``--element`` appends.  Only
    whole flag names are accepted.  -h or --help prints the usage and exits
    0; any other token is a ``ConfigurationError``."""
    if argv and argv[0] in _HELP:
        sys.stdout.write(_usage())
        raise SystemExit(EXIT_OK)
    if not argv or argv[0] not in _OPTIONS:
        got = f", not {argv[0]!r}" if argv else ""
        raise ConfigurationError(f"the first argument must be a command, one of "
                                 f"{', '.join(_OPTIONS)}{got}")
    command, tokens = argv[0], iter(argv[1:])
    flags = {_flag(option): option for option in (_SPEC,) + _OPTIONS[command][1]}
    typed = {}
    for token in tokens:
        if token in _HELP:
            sys.stdout.write(_usage(command))
            raise SystemExit(EXIT_OK)
        name, eq, value = token.partition("=")
        option = flags.get(name)
        if option is None:
            raise ConfigurationError(f"{command} does not take {token!r}")
        if not eq:
            value = next(tokens, None)
            if value is None:
                raise ConfigurationError(f"{name} needs a value")
        if option.kind is int:
            try:
                value = int(value)
            except ValueError:
                raise ConfigurationError(
                    f"{name} must be an integer, got {value!r}") from None
        elif isinstance(option.kind, tuple) and value not in option.kind:
            raise ConfigurationError(
                f"{name} must be one of {', '.join(option.kind)}, got {value!r}")
        if option.kind == ELEMENTS:
            typed.setdefault(option.key, []).append(value)
        else:
            typed[option.key] = value
    return command, typed


def spec_from_args(argv=None) -> JobSpec:
    """Job spec from the command line: typed flags beat the --spec file,
    which beats the defaults in ``_OPTIONS``.  The file may hold only its
    command's keys, each of its option's kind; a file naming another
    command than the typed subcommand is refused."""
    command, typed = _parse_argv(sys.argv[1:] if argv is None else argv)
    path = typed.pop("spec", None)
    doc = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ConfigurationError("job spec must be a JSON object")
        named = doc.pop("command", command)
        if named != command:
            raise ConfigurationError(f"job spec is for {named!r}, not {command!r}")
    doc.update(typed)
    _, options = _OPTIONS[command]
    unknown = set(doc) - {option.key for option in options}
    if unknown:
        raise ConfigurationError(
            f"unknown job-spec keys for {command}: {sorted(unknown)}")
    for option in options:
        if option.key not in doc:
            doc[option.key] = option.default
        elif doc[option.key] is not None or option.default is not None:
            _check_kind(option, doc[option.key])
    return JobSpec(command=command, **doc)


def main(argv=None) -> int:
    try:
        spec = spec_from_args(argv)
    except (CentralLeafError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return run(spec)


if __name__ == "__main__":
    sys.exit(main())
