import io
import json
import os
import re
import subprocess
import sys

import pytest

import golden
import llts
from llts import refinement, semantics, syntax
from llts.cli import expand_source, main

from test_semantics import MANY_RECURSIONS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_inconsistent(self, capsys):
        code, out, _ = run(capsys, "check", "<X | X = tau.X>")
        assert code == 1 and out.strip() == "inconsistent"

    def test_consistent(self, capsys):
        code, out, _ = run(capsys, "check", "a.0")
        assert code == 0 and out.strip() == "consistent"

    def test_bottom_handled(self, capsys):
        code, out, _ = run(capsys, "check", "bot [] a.0 /\\ tau.bot")
        assert code in (0, 1) and out

    def test_deep_prefix_chain(self, capsys):
        chain = ".".join(f"a{i}" for i in range(20_000)) + ".0"
        code, out, _ = run(capsys, "check", chain, "--max-states", "30000")
        assert code == 0 and out.strip() == "consistent"

    def test_deep_parenthesised_nesting(self, capsys):
        code, out, _ = run(capsys, "check", "(" * 5000 + "0" + ")" * 5000)
        assert code == 0 and out.strip() == "consistent"

    # linear in size: one visible move, then deadlock
    WIDE = "a.0" + " [] 0" * 19_999

    def test_wide_choice(self, capsys):
        code, out, _ = run(capsys, "check", self.WIDE, "--max-states", "100000")
        assert code == 0 and out.strip() == "consistent"

    def test_wide_choice_graph(self, capsys):
        code, out, _ = run(capsys, "lts", self.WIDE, "--max-states", "100000", "--format", "json")
        assert code == 0 and len(json.loads(out)["states"]) == 2

    @pytest.mark.parametrize("name", sorted(MANY_RECURSIONS))
    def test_many_recursions_in_one_step(self, capsys, name):
        code, out, _ = run(capsys, "check", MANY_RECURSIONS[name])
        assert code == 0 and out.strip() == "consistent"

    def test_max_unfold_depth_is_gone(self):
        # guardedness bounds every step, so there is no unfold bound to set
        src = os.path.dirname(os.path.dirname(llts.__file__))
        done = subprocess.run(
            [sys.executable, "-m", "llts.cli", "check", "a.0", "--max-unfold-depth", "5"],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
        )
        assert done.returncode == 2 and not done.stdout
        assert "unrecognized arguments: --max-unfold-depth" in done.stderr
        assert "Traceback" not in done.stderr


class TestRefine:
    def test_holds(self, capsys):
        code, out, _ = run(capsys, "refine", "a.0", "a.0 \\/ b.0")
        assert code == 0 and out.strip() == "holds"

    def test_refuted_with_counterexample(self, capsys):
        code, out, _ = run(capsys, "refine", "a.0 \\/ b.0", "a.0")
        assert code == 1
        assert "refuted" in out and "ready-set-mismatch" in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "refine", "a.0", "b.0", "--format", "json")
        doc = json.loads(out)
        assert code == 1 and doc["holds"] is False
        assert doc["counterexample"]["reason"]

    def test_internal_error_exit_3(self, capsys, monkeypatch):
        def fail(*args):
            raise RuntimeError("simulation lost a pair")

        monkeypatch.setattr(refinement, "refines", fail)
        code, out, err = run(capsys, "refine", "a.0", "a.0")
        assert code == 3 and out == ""
        assert err == "internal error: RuntimeError: simulation lost a pair\n"

    @pytest.mark.parametrize("fmt", ("text", "json"))
    @pytest.mark.parametrize("p,q", [("a.0", "a.0 \\/ b.0"), ("a.b.0", "a.c.0"), ("0", "bot")])
    def test_certify_keeps_output(self, capsys, fmt, p, q):
        plain = run(capsys, "refine", p, q, "--format", fmt)
        assert run(capsys, "refine", p, q, "--format", fmt, "--certify") == plain

    def test_certify_failure_exit_3(self, capsys, monkeypatch):
        monkeypatch.setattr(refinement, "check_verdict", lambda *args: "witness pair (0, 1) has different ready sets")
        code, out, err = run(capsys, "refine", "a.0", "a.0", "--certify")
        assert code == 3 and out == ""
        assert err == (
            "internal error: RuntimeError: certificate check failed: "
            "witness pair (0, 1) has different ready sets\n"
        )


class TestEquiv:
    def test_equivalent(self, capsys):
        code, out, _ = run(capsys, "equiv", "tau.a.0", "a.0")
        assert code == 0 and out.strip() == "equivalent"

    def test_not_equivalent(self, capsys):
        code, out, _ = run(capsys, "equiv", "a.0", "b.0")
        assert code == 1 and out.strip() == "not equivalent"


class TestLts:
    def test_json(self, capsys):
        code, out, _ = run(capsys, "lts", "a.0 \\/ b.0", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["states"]) == 4
        assert any(t["label"] == "tau" for t in doc["transitions"])

    def test_dot(self, capsys):
        code, out, _ = run(capsys, "lts", "tau.bot", "--format", "dot")
        assert code == 0 and "doublecircle" in out and "style=dashed" in out

    def test_text(self, capsys):
        code, out, _ = run(capsys, "lts", "a.0")
        assert code == 0 and "states: 2" in out

    def test_text_renders_each_state_once(self, capsys, monkeypatch):
        # the states are printed with one table: every distinct subterm of
        # theirs once, though each state is also named as a move's target
        plain, printed = syntax._text_of, []
        monkeypatch.setattr(syntax, "_text_of", lambda t, parts: printed.append(t) or plain(t, parts))
        code, out, _ = run(capsys, "lts", " |[]| ".join(["<X | X = a.(b.X \\/ c.X)>"] * 3))
        states = out.count("\n  [")
        assert code == 0 and out.count("-->") > states
        assert len(printed) == len(set(printed)) > states

    def test_text_numbers_states_as_json(self, capsys):
        # the universe holds terms no state reaches, so raw ids would differ
        term = "<X | X = <Y | Y = a.Y> [] b.0>"
        _, out, _ = run(capsys, "lts", term)
        _, doc, _ = run(capsys, "lts", term, "--format", "json")
        numbered = re.findall(r"^  \[(\d+)\] (.*) \(", out, re.M)
        states = json.loads(doc)["states"]
        assert numbered == [(str(s["id"]), s["term"]) for s in states]
        assert "(universe 6)" in out

    def test_max_states_flag(self, capsys):
        code, _, err = run(
            capsys, "lts", "<X | X = a.(X |[]| X)>", "--max-states", "50"
        )
        assert code == 2 and "state bound" in err

    def test_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("LLTS_MAX_STATES", "50")
        code, _, err = run(capsys, "lts", "<X | X = a.(X |[]| X)>")
        assert code == 2 and "state bound" in err

    def test_env_not_an_integer_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("LLTS_MAX_STATES", "lots")
        code, _, err = run(capsys, "lts", "a.0")
        assert code == 2 and err.startswith("error:") and "LLTS_MAX_STATES" in err

    @pytest.mark.parametrize("route", ["flag", "env"])
    def test_bound_not_positive_exit_2(self, capsys, monkeypatch, route):
        argv = ["check", "a.0"]
        if route == "flag":
            argv += ["--max-states", "0"]
        else:
            monkeypatch.setenv("LLTS_MAX_STATES", "0")
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out
        assert err == "error: max_states must be positive: 0\n"


class TestValidate:
    def test_ok(self, capsys):
        code, out, _ = run(capsys, "validate", "<X | X = a.X \\/ tau.X>")
        assert code == 0
        assert out.count("ok") == 4

    def test_violation_line_exit_1(self, capsys, monkeypatch):
        report = semantics.ValidationReport(True, False, True, True, [("a.0", "lts1")])
        monkeypatch.setattr(semantics, "validate_llts", lambda lts: report)
        code, out, _ = run(capsys, "validate", "a.0")
        assert code == 1
        assert out == "tau-pure: ok\nlts1: VIOLATED\nlts2: ok\nforward-tau-f: ok\n  violation lts1: a.0\n"


class TestParse:
    def test_stdin(self, capsys, monkeypatch, tmp_path):
        src = tmp_path / "spec.llts"
        src.write_text(
            "# a vending machine fragment\n"
            "let COIN = coin.tea.0\n"
            "let LOOP = <X | X = coin.tea.X>\n"
            "COIN [] LOOP\n"
        )
        code, out, _ = run(capsys, "parse", str(src))
        assert code == 0
        assert out.strip() == "coin.tea.0 [] <X | X = coin.tea.X>"

    def test_standard_input(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"let A = a.0\nA [] b.0\n")))
        code, out, _ = run(capsys, "parse", "-")
        assert code == 0 and out == "a.0 [] b.0\n"

    def test_malformed_let_exit_2(self, capsys, tmp_path):
        src = tmp_path / "bad_let.llts"
        src.write_text("let A =\n")
        code, out, err = run(capsys, "parse", str(src))
        assert code == 2 and not out
        assert err == "error: malformed let definition: 'let A =' at 0..7\n"

    def test_parse_error_exit_2(self, capsys, tmp_path):
        src = tmp_path / "bad.llts"
        src.write_text("a.0 [] (")
        code, _, err = run(capsys, "parse", str(src))
        assert code == 2 and "error" in err

    def test_guardedness_error_exit_2(self, capsys, tmp_path):
        src = tmp_path / "unguarded.llts"
        src.write_text("<X | X = X [] a.0>")
        code, _, err = run(capsys, "parse", str(src))
        assert code == 2 and "unguarded" in err

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "parse", str(tmp_path / "absent.llts"))
        assert code == 2 and err.startswith("error:") and err.count("\n") == 1

    def test_not_utf8_names_the_file(self, capsys, tmp_path):
        src = tmp_path / "latin1.llts"
        src.write_bytes(b"\xff.0\n")
        code, out, err = run(capsys, "parse", str(src))
        assert code == 2 and not out
        assert err == (
            f"error: {src} is not UTF-8: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
        )

    @pytest.mark.parametrize(
        "data, code, out, err",
        [
            (
                b"\xff.0\n",
                2,
                "",
                "error: standard input is not UTF-8: 'utf-8' codec can't decode byte 0xff"
                " in position 0: invalid start byte\n",
            ),
            ("# caf\u00e9\r\nlet A = a.0\r\nA [] b.0\r\n".encode(), 0, "a.0 [] b.0\n", ""),
        ],
        ids=["not-utf8", "utf8-crlf"],
    )
    def test_standard_input_decoded_as_a_file_is(self, data, code, out, err):
        # the C locale reads standard input with surrogateescape; the bytes
        # are decoded as UTF-8 with universal newlines all the same
        src = os.path.dirname(os.path.dirname(llts.__file__))
        done = subprocess.run(
            [sys.executable, "-m", "llts.cli", "parse", "-"],
            env={**os.environ, "PYTHONPATH": src, "LC_ALL": "C"},
            input=data,
            capture_output=True,
        )
        assert (done.returncode, done.stdout.decode(), done.stderr.decode()) == (code, out, err)

    def test_expand_source_chained_lets(self):
        text = "let A = a.0\nlet B = A [] b.0\nB /\\ A\n"
        expanded, origins = expand_source(text)
        assert expanded == "((a.0) [] b.0) /\\ (a.0)"
        # each character comes from its let body or the term line; the
        # parentheses around an expansion come from the name
        assert len(origins) == len(expanded) + 1
        assert "".join(text[i] for i in origins[:-1]) == "BAa.0A [] b.0B /\\ Aa.0A"
        assert origins[-1] == len(text) - 1

    @pytest.mark.parametrize(
        "text, error",
        [
            # the term line is the third; the expanded text ends at 17
            (
                "let A = a.0\n# note\nA [] b.0 [] (\n",
                "unexpected end of input at 32..32",
            ),
            # the bad token is in A's body, expanded on the term line
            ("let A = a.b\n0 [] A\n", "action 'b' must be followed by '.' at 10..11"),
        ],
        ids=["term-line", "let-body"],
    )
    def test_parse_error_spans_the_file(self, capsys, tmp_path, text, error):
        src = tmp_path / "bad.llts"
        src.write_text(text)
        code, _, err = run(capsys, "parse", str(src))
        assert code == 2
        assert err.startswith(f"error: {error}")

    @pytest.mark.parametrize(
        "text, cause",
        [
            ("let a.b = c.0\na.b.0\n", "not an identifier: 'a.b'"),
            ("let tau = a.0\ntau.0\n", "reserved word: 'tau'"),
            ("let A = a.0\nlet A = b.0\nA\n", "defined twice: 'A'"),
        ],
        ids=["not-identifier", "reserved-word", "defined-twice"],
    )
    def test_bad_let_exit_2(self, capsys, tmp_path, text, cause):
        src = tmp_path / "bad_let.llts"
        src.write_text(text)
        code, out, err = run(capsys, "parse", str(src))
        assert code == 2 and not out
        assert err.startswith("error: let name") and cause in err

    def test_bad_let_spans_its_line(self, capsys, tmp_path):
        src = tmp_path / "bad_let.llts"
        src.write_text("a.0\n# x\nlet 1x = b.0  # c\n")
        code, _, err = run(capsys, "parse", str(src))
        assert code == 2
        assert err == "error: let name is not an identifier: '1x' at 8..20\n"


class TestProps:
    def test_single_check_passes(self, capsys):
        code, out, _ = run(
            capsys, "props", "--seed", "1", "--trials", "5", "--only", "f-laws"
        )
        assert code == 0 and "f-laws" in out and "PASS" in out

    def test_baseline_file(self, capsys, tmp_path):
        baseline = tmp_path / "base.json"
        baseline.write_text('[["f-laws", 3, 4], ["preorder", 3, 5]]')
        code, out, _ = run(capsys, "props", "--baseline", str(baseline))
        assert code == 0
        assert "f-laws" in out and "preorder" in out

    def test_missing_baseline_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "props", "--baseline", str(tmp_path / "absent.json"))
        assert code == 2 and err.startswith("error:") and err.count("\n") == 1

    def test_baseline_not_a_list_exit_2(self, capsys, tmp_path):
        baseline = tmp_path / "base.json"
        baseline.write_text("{}")
        code, _, err = run(capsys, "props", "--baseline", str(baseline))
        assert code == 2 and err.startswith("error:") and err.count("\n") == 1
        assert "JSON list" in err

    def test_baseline_not_json_names_the_file(self, capsys, tmp_path):
        baseline = tmp_path / "base.json"
        baseline.write_text("not json")
        code, out, err = run(capsys, "props", "--baseline", str(baseline))
        assert code == 2 and not out
        assert err == f"error: baseline {baseline} is not JSON: Expecting value: line 1 column 1 (char 0)\n"

    @pytest.mark.parametrize(
        "extra, named",
        [
            (["--only", "coincidence", "--seed", "99", "--trials", "7"], "--seed, --trials, --only"),
            (["--seed", "0"], "--seed"),
            (["--trials", "3"], "--trials"),
            (["--only", "preorder", "--format", "json"], "--only"),
        ],
    )
    def test_baseline_with_generation_options_exit_2(self, capsys, tmp_path, extra, named):
        # the file pins each row's theorem, seed and trials, so options that
        # would pick them are refused, not dropped
        baseline = tmp_path / "base.json"
        baseline.write_text('[["preorder", 3, 5]]')
        code, out, err = run(capsys, "props", "--baseline", str(baseline), *extra)
        assert code == 2 and not out
        assert err == f"error: --baseline takes no {named}: its file pins them\n"

    def test_baseline_keeps_format(self, capsys, tmp_path):
        baseline = tmp_path / "base.json"
        baseline.write_text('[["preorder", 3, 5]]')
        code, out, _ = run(capsys, "props", "--baseline", str(baseline), "--format", "json")
        assert code == 0
        assert json.loads(out)["theorem"] == "preorder"

    def test_malformed_baseline_row_exit_2(self, capsys, tmp_path):
        baseline = tmp_path / "base.json"
        for row in ('[5]', '["f-laws", 3.7, 2]', '["f-laws", "3", 2]', '["f-laws", 3, true]'):
            baseline.write_text(f'[["f-laws", 3, 4], {row}]')
            code, _, err = run(capsys, "props", "--baseline", str(baseline))
            assert code == 2 and err.startswith("error:")
            assert repr(json.loads(row)) in err

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trial_count_below_one_exit_2(self, capsys, trials):
        code, out, err = run(capsys, "props", "--trials", trials, "--only", "coincidence")
        assert code == 2 and not out
        assert err == f"error: trial count must be at least 1: {trials}\n"

    @pytest.mark.parametrize("trials", [0, -2])
    def test_baseline_trial_count_below_one_exit_2(self, capsys, tmp_path, trials):
        baseline = tmp_path / "base.json"
        baseline.write_text(f'[["f-laws", 3, 4], ["coincidence", 1, {trials}]]')
        code, out, err = run(capsys, "props", "--baseline", str(baseline))
        assert code == 2 and not out
        assert err.startswith("error:") and err.count("\n") == 1
        assert repr(["coincidence", 1, trials]) in err

    def test_failure_line_names_seed_and_trial(self, capsys, monkeypatch):
        from llts import properties

        real = properties.alt_refines
        monkeypatch.setattr(properties, "alt_refines", lambda p, q: not real(p, q))
        code, out, _ = run(capsys, "props", "--seed", "11", "--trials", "2", "--only", "coincidence")
        assert code == 1
        assert "  failure: seed=11 trial=0 inputs=[" in out

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys,
            "props",
            "--seed",
            "1",
            "--trials",
            "4",
            "--only",
            "coincidence",
            "--format",
            "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["theorem"] == "coincidence" and doc["passed"]


class TestOutputStability:
    def test_identical_invocations_identical_output(self, capsys):
        _, out1, _ = run(capsys, "lts", "a.0 \\/ tau.b.0", "--format", "json")
        _, out2, _ = run(capsys, "lts", "a.0 \\/ tau.b.0", "--format", "json")
        assert out1 == out2
        _, out3, _ = run(capsys, "refine", "a.b.0", "a.c.0", "--format", "json")
        _, out4, _ = run(capsys, "refine", "a.b.0", "a.c.0", "--format", "json")
        assert out3 == out4


class TestSymmetricInterleavings:
    """Copies sharing their actions: one state per class of ``|[]|``."""

    P4, P7 = golden._interleaving(4), golden._interleaving(7)

    def test_check_at_seven_copies(self, capsys):
        code, out, _ = run(capsys, "check", self.P7)
        assert code == 0 and out.strip() == "consistent"

    def test_refine_at_seven_copies(self, capsys):
        code, out, _ = run(capsys, "refine", self.P7, self.P7)
        assert code == 0 and out.strip() == "holds"

    @pytest.mark.parametrize("command", ["lts", "refine"])
    def test_same_bytes_under_any_hash_seed(self, command):
        # classes are named by the order of the build, not by hashes or ids
        argv = ["lts", self.P4] if command == "lts" else ["refine", self.P4, self.P4, "--format", "json"]
        src = os.path.dirname(os.path.dirname(llts.__file__))
        outs = [
            subprocess.run(
                [sys.executable, "-m", "llts.cli", *argv],
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for seed in ("0", "1")
        ]
        assert outs[0] == outs[1] and outs[0]
