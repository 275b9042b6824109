"""Serialization: element documents, rational strings, CSV reports.

Wire formats are fixed: group elements as {"lambda": [ints], "w": word},
matrices as row-major rational strings ("3/2") with ';' between rows,
slope multisets as sorted comma lists, CSV files headed by '# schema=1'.
"""

from __future__ import annotations

import csv
import io
import json
import re
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .errors import ConfigurationError, PreconditionError

SCHEMA_COMMENT = "# schema=1"


def rational_str(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def parse_rational(s: str) -> Fraction:
    try:
        return Fraction(s.strip())
    except (ValueError, ZeroDivisionError):
        raise ConfigurationError(f"malformed rational {s.strip()!r}") from None


def vector_str(v) -> str:
    return ",".join(rational_str(x) for x in v)


def parse_vector(s: str) -> Tuple[Fraction, ...]:
    s = s.strip()
    if not s:
        return ()
    return tuple(parse_rational(part) for part in s.split(","))


def matrix_str(m) -> str:
    return ";".join(",".join(rational_str(x) for x in row) for row in m)


def parse_matrix(s: str) -> Tuple[Tuple[Fraction, ...], ...]:
    rows = tuple(tuple(parse_rational(x) for x in row.split(","))
                 for row in s.strip().split(";"))
    if any(len(row) != len(rows) for row in rows):
        raise ConfigurationError(f"matrix {s!r} is not square")
    return rows


# ---------------------------------------------------------------------------
# Weyl words

def word_of_finite(datum: RootDatum, k: int) -> str:
    """The reduced word of the Weyl element of index k that the closure
    recorded: the lexicographically least one."""
    return "*".join(f"s{i + 1}" for i in datum.weyl_words[k]) or "e"


def parse_word(datum: RootDatum, word: str) -> int:
    """The Weyl index of a word such as ``s1*s2`` (or ``e``), folded over
    the right-multiplication table from the identity."""
    word = word.strip()
    k = datum.weyl_identity
    for token in [] if word in ("e", "", "1") else word.split("*"):
        token = token.strip()
        if token == "s":
            token = "s1"
        match = re.fullmatch(r"s(\d+)", token)
        if not match:
            raise PreconditionError(f"cannot parse Weyl word token {token!r}")
        i = int(match.group(1))
        if not 1 <= i <= datum.rank:
            raise PreconditionError(f"simple reflection s{i} out of range")
        k = datum.weyl_right[k][i - 1]
    return k


# ---------------------------------------------------------------------------
# element documents

def element_doc(x: AffineElement) -> Dict:
    return {"lambda": [int(v) for v in x.translation],
            "w": word_of_finite(x.datum, x.w)}


def element_str(x: AffineElement) -> str:
    return json.dumps(element_doc(x), sort_keys=True, separators=(",", ":"))


_BARE_TOKEN = re.compile(r'(?<!")\b([A-Za-z_][A-Za-z0-9_*]*)\b(?!")')


def loads_tolerant(text: str):
    """JSON with a fallback that quotes bare identifiers, so CLI arguments
    like {lambda:[1,0],w:s} parse; text that parses neither way raises
    ConfigurationError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        pass
    try:
        return json.loads(_BARE_TOKEN.sub(r'"\1"', text))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"malformed JSON {text!r}: {exc}") from None


def element_from_doc(datum: RootDatum, doc) -> AffineElement:
    from .affine import AffineElement
    if isinstance(doc, str):
        doc = loads_tolerant(doc)
    if not isinstance(doc, dict) or set(doc) - {"lambda", "w"}:
        raise PreconditionError("element document needs keys 'lambda' and 'w'")
    lam = doc.get("lambda", [])
    # bool is an int subclass
    if not isinstance(lam, (list, tuple)) or any(
            type(v) is bool or not isinstance(v, int) for v in lam):
        raise PreconditionError(f"lambda must be a list of integers, got {lam!r}")
    lam = tuple(lam)
    if len(lam) != datum.cochar_rank:
        raise PreconditionError(
            f"lambda has length {len(lam)}, expected {datum.cochar_rank}")
    w = parse_word(datum, str(doc.get("w", "e")))
    return AffineElement(datum, lam, w)


def kappa_str(kappa: KottwitzClass) -> str:
    if not kappa.free and not kappa.torsion:
        return "0"
    parts = ",".join(str(v) for v in kappa.free)
    if kappa.torsion:
        tors = ",".join(f"{v}mod{d}" for v, d in zip(kappa.torsion, kappa.moduli))
        return f"{parts}|{tors}" if parts else tors
    return parts


def parse_kappa(datum: RootDatum, text: str, sigma=None) -> KottwitzClass:
    """Inverse of ``kappa_str`` for a class in pi_1(G)_sigma.

    Text that ``kappa_str`` does not write for this group raises
    ConfigurationError: a wrong number of free or torsion coordinates, a
    modulus other than pi_1(G)_sigma's, or a residue outside [0, d)."""
    from .affine import KottwitzClass
    pi1 = datum.sigma_table(sigma).pi1
    moduli = pi1.torsion
    if text == "0" and pi1.free_rank == 0 and not moduli:
        return KottwitzClass((), (), ())
    # with no free part, kappa_str writes the torsion alone, without "|"
    free_part, _, tors_part = text.partition("|") if pi1.free_rank else ("", "", text)
    try:
        free = tuple(int(v) for v in free_part.split(",")) if free_part else ()
        pairs = [v.split("mod") for v in tors_part.split(",")] if tors_part else []
        tors = tuple(int(v) for v, _ in pairs)
        stated = tuple(int(d) for _, d in pairs)
    except ValueError:
        raise ConfigurationError(f"malformed kappa {text!r}") from None
    if len(free) != pi1.free_rank or stated != moduli:
        raise ConfigurationError(
            f"kappa {text!r} does not match pi_1(G)_sigma: {pi1.free_rank} free "
            f"coordinates, torsion moduli {list(moduli)}")
    if any(not 0 <= v < d for v, d in zip(tors, moduli)):
        raise ConfigurationError(f"kappa {text!r} has a residue outside [0, d)")
    return KottwitzClass(free, tors, moduli)


# ---------------------------------------------------------------------------
# CSV documents

def render_csv(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    buf = io.StringIO()
    buf.write(SCHEMA_COMMENT + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def parse_csv(text: str) -> Tuple[List[str], List[List[str]]]:
    """Inverse of ``render_csv``: the header and the rows, each row as wide
    as the header; anything else raises ConfigurationError."""
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    rows = list(csv.reader(lines))
    if not rows:
        raise ConfigurationError("CSV document has no header row")
    header = rows[0]
    if any(len(row) != len(header) for row in rows):
        raise ConfigurationError(f"CSV rows do not all have {len(header)} fields")
    return header, rows[1:]


LEAF_HEADER = ("element", "length", "nu", "kappa", "basic", "leaf_dim",
               "jb_dim", "adjoint_slopes", "checked")


def leaf_report_row(report: LeafReport) -> Tuple[str, ...]:
    from .affine import length
    return (element_str(report.element),
            str(length(report.element)),
            vector_str(report.nu_dominant),
            kappa_str(report.kappa),
            "true" if report.basic else "false",
            str(report.leaf_dim),
            str(report.jb_dim),
            vector_str(report.adjoint_slopes),
            "true")  # schema 1's "checked": leaf_report raises on a failed check


def leaf_report_from_row(datum: RootDatum, row: Sequence[str],
                         sigma=None) -> LeafReport:
    """Inverse of ``leaf_report_row`` for a report made under sigma; a row
    of the wrong width or with a malformed field raises ConfigurationError."""
    from .leaves import LeafReport
    if len(row) != len(LEAF_HEADER):
        raise ConfigurationError(
            f"leaf report row has {len(row)} fields, expected {len(LEAF_HEADER)}")
    if {row[4], row[8]} - {"true", "false"}:
        raise ConfigurationError("leaf report flags must be 'true' or 'false'")
    if row[8] != "true":
        raise ConfigurationError("a leaf report's 'checked' column must be 'true'")
    try:
        leaf_dim, jb_dim = int(row[5]), int(row[6])
    except ValueError:
        raise ConfigurationError("leaf report dimensions must be integers") from None
    element = element_from_doc(datum, row[0])
    nu = parse_vector(row[2])
    kappa = parse_kappa(datum, row[3], sigma)
    slopes = parse_vector(row[7])
    return LeafReport(element, nu, kappa, row[4] == "true", leaf_dim, jb_dim,
                      slopes)


CLASS_HEADER = ("block", "element", "length", "nu", "kappa", "basic")

ADM_HEADER = ("element", "length")

ADM_HYPER_HEADER = ("cocharacter",)

ADLV_HEADER = ("lattice", "inv", "kappa", "slope_divisible")

CROSSCHECK_HEADER = ("element", "closed", "oracle", "pass")


def class_rows(partition, datum: RootDatum, sigma=None) -> List[Tuple[str, ...]]:
    from .affine import kottwitz, length, newton_point
    rows = []
    for b_idx, block in enumerate(partition.blocks):
        for x in block:
            nu = newton_point(x, sigma)
            rows.append((str(b_idx), element_str(x), str(length(x)),
                         vector_str(nu.dominant), kappa_str(kottwitz(x, sigma)),
                         "true" if all(datum.pair(a, nu.dominant) == 0
                                       for a in datum.roots) else "false"))
    return rows


def adlv_rows(census) -> List[Tuple[str, ...]]:
    return [(matrix_str(pt.lattice.basis), vector_str(pt.inv), str(pt.kappa),
             "true" if pt.slope_divisible.divisible else "false")
            for pt in census.points]


def structured_text(document) -> str:
    """The hierarchical structured-text format: canonical JSON."""
    return json.dumps(document, sort_keys=True, indent=2) + "\n"
