import json
import time

import pytest

from centralleaf import cli, rootdata, serialize
from centralleaf.affine import element, simple_element, translation_element
from centralleaf.errors import ConfigurationError
from centralleaf.leaves import leaf_report
from centralleaf.rootdata import build_classical

GL2 = build_classical("GL", 2)


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_report_example(capsys):
    code, out, _ = run_cli(capsys, [
        "report", "--group", "GL2", "--element", "{lambda:[1,0],w:s}"])
    assert code == 0
    header, rows = serialize.parse_csv(out)
    assert list(header) == list(serialize.LEAF_HEADER)
    assert len(rows) == 1
    row = dict(zip(header, rows[0]))
    assert row["nu"] == "1/2,1/2"
    assert row["leaf_dim"] == "0"
    assert row["basic"] == "true"
    assert out.startswith(serialize.SCHEMA_COMMENT)


def test_adm_example(capsys):
    code, out, _ = run_cli(capsys, [
        "adm", "--group", "GL2", "--mu", "1,0", "--level", "iwahori"])
    assert code == 0
    _, rows = serialize.parse_csv(out)
    assert len(rows) == 3


def test_witt_selfcheck_example(capsys):
    code, out, _ = run_cli(capsys, [
        "witt-selfcheck", "--p", "2", "--length", "3", "--count", "50"])
    assert code == 0
    document = json.loads(out)
    assert document["passed"] is True


@pytest.mark.parametrize("lift", [lambda d, p, m: d % p, lambda d, p, m: d % p + p],
                         ids=["d-mod-p", "d-plus-p"])
def test_witt_selfcheck_digit_check_fails_on_a_wrong_teichmuller_lift(
        capsys, monkeypatch, lift):
    # a round trip through the digits would use the wrong lift both ways
    # and pass; Witt addition and multiplication of the digits cannot
    from centralleaf import witt
    monkeypatch.setattr(witt, "teichmuller", lift)
    code, out, _ = run_cli(capsys, [
        "witt-selfcheck", "--p", "3", "--length", "3", "--count", "5"])
    document = json.loads(out)
    assert document["checks"]["prime_field_digit_isomorphism"] is False
    assert code == cli.EXIT_CONSISTENCY and document["passed"] is False
    assert all(document["checks"][name] for name in document["checks"]
               if name != "prime_field_digit_isomorphism")


def test_adlv_command(capsys):
    for matrix, p in (("0,1;2,0", "2"), ("0,1;5,0", "5")):
        code, out, _ = run_cli(capsys, [
            "adlv", "--matrix", matrix, "--mu", "1,0", "--p", p, "--depth", "1"])
        assert code == 0
        header, rows = serialize.parse_csv(out)
        assert list(header) == list(serialize.ADLV_HEADER)
        assert rows and all(r[3] == "true" for r in rows)


def test_crosscheck_command(capsys):
    code, out, _ = run_cli(capsys, ["crosscheck", "--group", "Sp4", "--cap", "1"])
    assert code == 0
    _, rows = serialize.parse_csv(out)
    assert rows and all(r[3] == "true" for r in rows)


def test_a_pairing_and_its_folded_roots_give_the_same_artifacts(capsys):
    # the swap pairing on roots +-(1,0) is the dot product on roots +-(0,1)
    swap = {"group": "A1", "roots": [[1, 0], [-1, 0]], "coroots": [[0, 2], [0, -2]],
            "simple_indices": [0], "pairing": [[0, 1], [1, 0]]}
    folded = {"group": "A1", "roots": [[0, 1], [0, -1]], "coroots": [[0, 2], [0, -2]],
              "simple_indices": [0]}
    jobs = (["report", "--element", "{lambda:[1,1],w:s}", "--element", "{lambda:[0,2],w:e}"],
            ["classes", "--cap", "2"], ["crosscheck", "--cap", "2"],
            ["adm", "--mu", "0,1", "--level", "iwahori"],
            ["adm", "--mu", "1,2", "--level", "hyperspecial"])
    for command, *flags in jobs:
        swap_run, folded_run = (run_cli(capsys, [command, "--group", json.dumps(doc)] + flags)
                                for doc in (swap, folded))
        assert swap_run == folded_run
        code, out, _ = swap_run
        assert code == 0 and serialize.parse_csv(out)[1]


def test_validation_exit_code(capsys):
    code, _, err = run_cli(capsys, ["adm", "--group", "GL2", "--mu", "0,1"])
    assert code == 1 and "error" in err
    code2, _, _ = run_cli(capsys, ["report", "--group", "E9",
                                   "--element", "{lambda:[1,0],w:s}"])
    assert code2 == 1
    # p must be a prime: these used to hang, raise ZeroDivisionError or exit 2
    for p in ("0", "1", "4"):
        for argv in (["adlv", "--matrix", "0,1;2,0", "--mu", "1,0"],
                     ["witt-selfcheck", "--length", "2", "--count", "1"]):
            code, out, err = run_cli(capsys, argv + ["--p", p])
            assert code == 1 and err.startswith("error:") and not out


def test_budget_exit_code(capsys):
    code, _, err = run_cli(capsys, ["classes", "--group", "GL3", "--cap", "6",
                                    "--bound", "6"])
    assert code == 3 and "budget" in err


def test_consistency_exit_code(monkeypatch, capsys):
    from centralleaf.errors import ConsistencyError

    def boom(spec):
        raise ConsistencyError("forced oracle mismatch")

    monkeypatch.setitem(cli._COMMANDS, "crosscheck", boom)
    code, _, err = run_cli(capsys, ["crosscheck", "--group", "GL2"])
    assert code == 2 and "consistency" in err


def test_inconclusive_exit_code(monkeypatch, capsys):
    from centralleaf.errors import InconclusiveError

    def out_of_precision(spec):
        raise InconclusiveError("slope pieces could not be certified")

    monkeypatch.setitem(cli._COMMANDS, "adlv", out_of_precision)
    code, out, err = run_cli(capsys, ["adlv", "--matrix", "0,1;2,0", "--mu", "1,0"])
    assert code == cli.EXIT_BUDGET and not out
    assert err == "budget exhausted: slope pieces could not be certified\n"


def test_spec_file(tmp_path, capsys):
    spec = {"command": "report", "group": "GL2",
            "elements": [{"lambda": [1, 0], "w": "s1"}]}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    code, out, _ = run_cli(capsys, ["report", "--spec", str(path)])
    assert code == 0 and "1/2,1/2" in out


def test_spec_values_must_be_integers(tmp_path, capsys):
    # these used to end in a TypeError traceback instead of an error line
    path = tmp_path / "job.json"
    for doc in ({"command": "classes", "group": "GL2", "cap": "1"},
                {"command": "adlv", "matrix": "0,1;2,0", "mu": "1,0", "depth": "1"},
                {"command": "witt-selfcheck", "length": 2, "count": True},
                {"command": "crosscheck", "group": "GL2", "cap": None}):
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(capsys, [doc["command"], "--spec", str(path)])
        assert code == 1 and err.startswith("error:") and not out
    path.write_text(json.dumps({"command": "classes", "group": "GL2", "cap": 1,
                                "bound": None}), encoding="utf-8")
    code, out, _ = run_cli(capsys, ["classes", "--spec", str(path)])
    assert code == 0 and out


def test_spec_values_must_have_their_types(tmp_path, capsys):
    # these used to end in a ValueError, a JSONDecodeError and an
    # AttributeError traceback instead of an error line
    path = tmp_path / "job.json"
    for doc in ({"command": "adm", "group": "GL2", "mu": [1, 0]},
                {"command": "report", "group": "GL2", "elements": "{lambda:[1,0],w:s}"},
                {"command": "adlv", "matrix": [[0, 1], [2, 0]], "mu": "1,0", "p": 2},
                {"command": "adm", "group": "GL2", "mu": "1,0", "level": None},
                {"command": "report", "group": ["GL2"], "elements": ["{lambda:[1,0],w:s}"]},
                {"command": "report", "group": "GL2", "elements": [[1, 0]]},
                {"command": "classes", "group": "GL2", "format": 1},
                {"command": "classes", "group": "GL2", "output": 0}):
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(capsys, [doc["command"], "--spec", str(path)])
        assert code == 1 and err.startswith("error:") and not out, doc
    path.write_text(json.dumps({"command": "report", "group": {"group": "GL", "n": 2},
                                "elements": [{"lambda": [1, 0], "w": "s"}],
                                "output": None}), encoding="utf-8")
    code, out, _ = run_cli(capsys, ["report", "--spec", str(path)])
    assert code == 0 and out


def test_unknown_spec_keys_rejected(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"command": "report", "grp": "GL2"}),
                    encoding="utf-8")
    code, _, err = run_cli(capsys, ["report", "--spec", str(path)])
    assert code == 1 and "unknown" in err


def test_output_file_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        code = cli.main(["classes", "--group", "GL2", "--cap", "1",
                         "--output", str(out)])
        capsys.readouterr()
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_structured_text_format(capsys):
    code, out, _ = run_cli(capsys, [
        "report", "--group", "GL2", "--element", "{lambda:[1,0],w:s}",
        "--format", "structured-text"])
    assert code == 0
    document = json.loads(out)
    assert document[0]["nu"] == "1/2,1/2"


def test_leaf_report_round_trip():
    xs = element(GL2, (1, 0), simple_element(GL2, 1).finite)
    report = leaf_report(GL2, xs)
    row = serialize.leaf_report_row(report)
    back = serialize.leaf_report_from_row(GL2, row)
    assert back == report
    t = translation_element(GL2, (1, 0))
    report2 = leaf_report(GL2, t)
    assert serialize.leaf_report_from_row(
        GL2, serialize.leaf_report_row(report2)) == report2


def test_artifact_readers_refuse_malformed_input():
    # a short row and an empty document used to raise IndexError
    row = serialize.leaf_report_row(leaf_report(GL2, translation_element(GL2, (1, 0))))
    for bad in (row[:-1], row + ("true",), row[:4] + ("yes",) + row[5:],
                row[:5] + ("1/2",) + row[6:], ("{lambda:[1,",) + row[1:]):
        with pytest.raises(ConfigurationError):
            serialize.leaf_report_from_row(GL2, bad)
    for text in ("", "# schema=1\n", "# schema=1\na,b\n1,2\n3\n"):
        with pytest.raises(ConfigurationError):
            serialize.parse_csv(text)


def test_word_round_trip():
    for datum in (GL2, build_classical("GL", 3), build_classical("Sp", 4)):
        for k in range(len(datum.weyl_elements)):
            word = serialize.word_of_finite(datum, k)
            assert serialize.parse_word(datum, word) == k


def test_element_doc_tolerant_parse():
    x = serialize.element_from_doc(GL2, "{lambda:[1,0],w:s}")
    assert x.translation == (1, 0)
    x2 = serialize.element_from_doc(GL2, '{"lambda": [0, 1], "w": "e"}')
    assert x2.translation == (0, 1)
    with pytest.raises(Exception):
        serialize.element_from_doc(GL2, "{lambda:[1,0],w:s,extra:1}")


def test_wrong_length_mu_and_non_integer_lambda_are_refused(capsys):
    # these used to answer for a different input or end in a traceback
    from centralleaf.affine import admissible_set
    from centralleaf.errors import PreconditionError
    for group, mu in (("GL3", "1,0"), ("GL2", "1,0,0")):
        code, out, err = run_cli(capsys, ["adm", "--group", group, "--mu", mu])
        assert code == 1 and err.startswith("error:") and not out
        with pytest.raises(PreconditionError):
            admissible_set(build_classical("GL", int(group[2])),
                           tuple(int(v) for v in mu.split(",")))
    for doc in ('{"lambda": [1.5, 0], "w": "s"}', '{"lambda": [true, 0], "w": "s"}',
                "{lambda:[a,0],w:s}", '{"lambda": "10", "w": "s"}'):
        with pytest.raises(PreconditionError):
            serialize.element_from_doc(GL2, doc)
        code, out, err = run_cli(capsys, ["report", "--group", "GL2", "--element", doc])
        assert code == 1 and err.startswith("error:") and not out


def test_malformed_numbers_are_validation_errors(capsys):
    from centralleaf.errors import ConfigurationError
    jobs = [["adm", "--group", "GL2", "--mu", "1,a"]]
    for matrix in ("0,x;2,0", "0,1/0;2,0", "0,1;2"):
        with pytest.raises(ConfigurationError):
            serialize.parse_matrix(matrix)
        jobs.append(["adlv", "--matrix", matrix, "--mu", "1,0", "--p", "2", "--depth", "1"])
    # JSON that parses neither as is nor with bare words quoted used to end
    # in a JSONDecodeError traceback
    for doc in ("{lambda:[1,", '{"lambda": [1, 0], "w": "s"'):
        with pytest.raises(ConfigurationError):
            serialize.element_from_doc(GL2, doc)
        jobs.append(["report", "--group", "GL2", "--element", doc])
    jobs.append(["report", "--group", "{n:2,", "--element", "{lambda:[1,0],w:s}"])
    for argv in jobs:
        code, out, err = run_cli(capsys, argv)
        assert code == 1 and err.startswith("error:") and not out


def test_explicit_flag_beats_spec_beats_default(tmp_path):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"command": "crosscheck", "group": "GL2",
                                "format": "structured-text", "cap": 1}),
                    encoding="utf-8")
    from_spec = cli.spec_from_args(["crosscheck", "--spec", str(path)])
    assert (from_spec.format, from_spec.cap) == ("structured-text", 1)
    typed = cli.spec_from_args(["crosscheck", "--spec", str(path),
                                "--format", "csv", "--cap", "2"])
    assert (typed.format, typed.cap) == ("csv", 2)
    # with neither a flag nor a spec entry the parser's default applies
    assert cli.spec_from_args(["crosscheck", "--group", "GL2"]).cap == 2


def test_spec_command_mismatch_is_a_validation_error(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"command": "adm", "group": "GL2", "mu": "1,0"}),
                    encoding="utf-8")
    code, out, err = run_cli(capsys, ["report", "--spec", str(path),
                                      "--format", "structured-text"])
    assert code == cli.EXIT_VALIDATION and out == ""
    assert "'adm'" in err and "'report'" in err
    code, out, _ = run_cli(capsys, ["adm", "--spec", str(path),
                                    "--format", "structured-text"])
    assert code == 0 and json.loads(out)
    path.write_text("[1, 2]", encoding="utf-8")
    code, _, err = run_cli(capsys, ["adm", "--spec", str(path)])
    assert code == cli.EXIT_VALIDATION and "JSON object" in err


def test_rejected_command_lines_are_validation_errors(capsys):
    # argparse used to exit with 2, the internal-consistency code, and to
    # read the prefix --gr as --group
    for argv in (["adm", "--group", "GL2", "--mu", "1,0", "--level", "foo"],
                 ["adm", "--group", "GL2", "--mu", "1,0", "--bogus"],
                 ["classes", "--group", "GL2", "--cap", "x"],
                 [],
                 ["adm", "--gr", "GL2", "--mu", "1,0"],
                 ["adm", "--group", "GL2", "--mu"],
                 ["adm", "GL2", "--mu", "1,0"],
                 ["bogus", "--group", "GL2"],
                 ["adm", "--spec", "", "--group", "GL2", "--mu", "1,0"]):
        code, out, err = run_cli(capsys, argv)
        assert code == cli.EXIT_VALIDATION and err.startswith("error:") and not out, argv
    with pytest.raises(SystemExit) as exc:
        cli.main(["adm", "--help"])
    assert exc.value.code == 0


def test_a_flag_takes_the_next_token_or_the_text_after_an_equals_sign(capsys):
    # argparse refused --mu -1,-1 ("expected one argument")
    code, out, _ = run_cli(capsys, ["adm", "--group", "GL2", "--mu", "-1,-1"])
    assert code == 0
    element = serialize.element_str(translation_element(GL2, (-1, -1)))
    assert serialize.parse_csv(out)[1] == [[element, "0"]]
    # the last of a repeated flag wins
    code, out, _ = run_cli(capsys, ["adm", "--group=GL2", "--mu=1,0", "--format=csv",
                                    "--level", "hyperspecial", "--level=iwahori"])
    assert code == 0 and len(serialize.parse_csv(out)[1]) == 3


@pytest.mark.parametrize("command", sorted(cli._OPTIONS))
def test_help_lists_every_flag_of_its_command(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    listed = {line.split()[0] for line in capsys.readouterr().out.splitlines()
              if line.startswith("  --")}
    _, options = cli._OPTIONS[command]
    assert listed == {"--spec"} | {"--element" if option.key == "elements" else
                                   "--" + option.key.replace("_", "-")
                                   for option in options}


def test_negative_caps_and_bounds_are_refused(capsys):
    # these used to exit 0 with an empty artifact or a singleton partition
    for argv in (["classes", "--group", "GL2", "--cap", "-1"],
                 ["classes", "--group", "GL2", "--cap", "1", "--conj-cap", "-4"],
                 ["classes", "--group", "GL2", "--cap", "1", "--bound", "-2"],
                 ["crosscheck", "--group", "GL2", "--cap", "1", "--bound", "-1"],
                 ["crosscheck", "--group", "GL2", "--cap", "-3"]):
        code, out, err = run_cli(capsys, argv)
        assert code == cli.EXIT_VALIDATION and err.startswith("error:") and not out


def test_witt_selfcheck_refuses_meaningless_input(capsys):
    # --count -5 used to report "pairs": -5, --coeff-exponent 0 ran in the
    # zero ring and -1 ended in a traceback
    for flags in (["--count", "-5"], ["--count", "0"],
                  ["--coeff-exponent", "0"], ["--coeff-exponent", "-1"]):
        code, out, err = run_cli(capsys, ["witt-selfcheck", "--length", "2"] + flags)
        assert code == cli.EXIT_VALIDATION and err.startswith("error:") and not out


def test_witt_selfcheck_refuses_a_length_below_two(capsys):
    # --length 1 used to derive the structure polynomials and check every
    # ghost pair before failing on "Frobenius needs length at least 2"
    for length in ("1", "0", "-2"):
        code, out, err = run_cli(capsys, ["witt-selfcheck", "--length", length])
        assert code == cli.EXIT_VALIDATION and not out
        assert err.startswith("error:") and "--length" in err


def test_adlv_refuses_input_with_two_meanings(capsys):
    # adlv used to read only the first --element, and --matrix used to win
    # over --element and to ignore --group, all with exit 0
    element = ["--group", "GL2", "--element", "{lambda:[1,0],w:s}"]
    base = ["adlv", "--mu", "1,0", "--p", "2", "--depth", "1"]
    for argv in (base + element + ["--element", "{lambda:[0,1],w:s}"],
                 base + element + ["--matrix", "0,1;2,0"],
                 base + ["--group", "GL2", "--matrix", "0,1;2,0"]):
        code, out, err = run_cli(capsys, argv)
        assert code == cli.EXIT_VALIDATION and err.startswith("error:") and not out
    code, _, _ = run_cli(capsys, base + element)
    assert code == cli.EXIT_OK


def test_witt_selfcheck_past_the_derivation_budget_exits_3(capsys):
    # (2, 7) used to derive its structure polynomials for minutes
    code, out, err = run_cli(capsys, ["witt-selfcheck", "--p", "2", "--length", "7",
                                      "--count", "1"])
    assert code == cli.EXIT_BUDGET and err.startswith("budget exhausted") and not out


DEPENDENT_SIMPLE_ROOTS = (
    '{"roots":[[1,-1],[-1,1]],"coroots":[[1,-1],[-1,1]],"simple_indices":[0,0]}',
    '{"roots":[[1,0],[-1,0],[0,1],[0,-1]],"coroots":[[2,0],[-2,0],[0,2],[0,-2]],'
    '"simple_indices":[0,1]}')


def test_malformed_datum_documents_exit_1(capsys):
    # these used to end in ValueError and IndexError tracebacks, or to be
    # read silently as another group ("n": 2.5 as GL2, "n": true as GL1)
    base = '"roots":[[1,-1],[-1,1]],"coroots":[[1,-1],[-1,1]]'
    for group in ('{"group":"GL","n":"x"}', '{"group":"GL","n":2.5}',
                  '{"group":"GL","n":true}',
                  '{"roots":"ab","coroots":"ab","simple_indices":[0]}',
                  "{" + base + ',"simple_indices":[5]}', *DEPENDENT_SIMPLE_ROOTS):
        code, out, err = run_cli(capsys, ["report", "--group", group,
                                          "--element", "{lambda:[1,0],w:e}"])
        assert code == cli.EXIT_VALIDATION and err.startswith("error:") and not out, group
        if group in DEPENDENT_SIMPLE_ROOTS:
            # these used to say "dependent columns in solve_columns"
            assert "not a base" in err, group
    code, out, _ = run_cli(capsys, ["report", "--group", "{" + base + ',"simple_indices":[0]}',
                                    "--element", "{lambda:[1,0],w:e}"])
    assert code == cli.EXIT_OK and out


def test_weyl_group_past_its_cap_exits_3(monkeypatch, capsys):
    # an overrun used to say the reflections do not generate a finite group,
    # and exit 1
    monkeypatch.setattr(rootdata, "WEYL_CAP", 500)
    code, out, err = run_cli(capsys, ["adm", "--group", "GL6", "--mu", "1,0,0,0,0,0"])
    assert code == cli.EXIT_BUDGET and "WEYL_CAP = 500" in err and not out


def test_unwritable_output_is_a_validation_error(tmp_path, capsys):
    # these used to end in FileNotFoundError and IsADirectoryError tracebacks
    for path in (tmp_path / "missing" / "x.csv", tmp_path):
        code, out, err = run_cli(capsys, ["adm", "--group", "GL2", "--mu", "1,0",
                                          "--output", str(path)])
        assert code == cli.EXIT_VALIDATION and err.startswith("error:") and not out


def test_enumeration_past_its_budget_exits_3(capsys):
    # the GL4 windows hold 81^4 translations; both jobs used to run for minutes
    for command in ("crosscheck", "classes"):
        start = time.monotonic()
        code, out, err = run_cli(capsys, [command, "--group", "GL4", "--cap", "0",
                                          "--bound", "40"])
        assert time.monotonic() - start < 5
        assert code == cli.EXIT_BUDGET and err.startswith("budget exhausted") and not out


def test_job_file_takes_only_its_commands_keys(tmp_path, capsys):
    # a key of another command used to be ignored with exit 0, and
    # witt-selfcheck used to accept csv and print JSON anyway
    path = tmp_path / "job.json"
    element = ["{lambda:[1,0],w:s}"]
    for doc in ({"command": "report", "group": "GL2", "elements": element, "depth": 3},
                {"command": "adm", "group": "GL2", "mu": "1,0", "cap": 1},
                {"command": "classes", "group": "GL2", "elements": element},
                {"command": "witt-selfcheck", "length": 2, "count": 1, "format": "csv"}):
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(capsys, [doc["command"], "--spec", str(path)])
        assert code == cli.EXIT_VALIDATION and err.startswith("error:") and not out, doc
    argv = ["witt-selfcheck", "--length", "2", "--count", "1"]
    code, out, err = run_cli(capsys, argv + ["--format", "csv"])
    assert code == cli.EXIT_VALIDATION and err.startswith("error:") and not out
    code, out, _ = run_cli(capsys, argv + ["--format", "structured-text"])
    assert code == cli.EXIT_OK
    assert run_cli(capsys, argv) == (code, out, "")
