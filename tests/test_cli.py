"""The `twa` command line: subcommands, output, and the exit-code contract."""

import argparse
import json
import os
import pathlib
import subprocess
import sys

import twa.automaton
from corpus import kth_letter_from_last, tight_kth_letter_from_last
from twa import MAX_PLUS, cli, zoo
from twa.cli import main
from twa.format import load, parse, save, serialize

DATA = pathlib.Path(__file__).parent / "data"
AMAX = str(DATA / "amax.twa")
BMIN = str(DATA / "bmin.twa")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_prints_value(capsys):
    code, out, _ = run(capsys, "eval", AMAX, "a")
    assert (code, out.strip()) == (0, "2")


def test_eval_empty_word(capsys):
    code, out, _ = run(capsys, "eval", AMAX, "")
    assert (code, out.strip()) == (0, "0")


def test_eval_outside_support(capsys, tmp_path):
    path = tmp_path / "gap.twa"
    path.write_text(
        "twa 1\nsemiring max-plus\nalphabet a b\nstates 1\ninitial 0 0\nfinal 0 0\ntrans 0 0 a 1\n"
    )
    code, out, _ = run(capsys, "eval", str(path), "b")
    assert (code, out.strip()) == (0, "-inf")


def test_trim_writes_canonical_file(capsys, tmp_path):
    src = tmp_path / "loose.twa"
    src.write_text(
        "twa 1\nsemiring max-plus\nalphabet a\nstates 3\n"
        "initial 0 0\nfinal 1 0\ntrans 0 1 a 1\ntrans 2 1 a 5\n"
    )
    out_path = tmp_path / "trim.twa"
    code, out, _ = run(capsys, "trim", str(src), "-o", str(out_path))
    assert code == 0 and out == ""
    slim = load(out_path)
    assert slim.n == 2


def test_rho_max_and_min(capsys, tmp_path):
    code, out, _ = run(capsys, "rho", AMAX)
    assert (code, out.strip()) == (0, "3/2")  # the a/b two-cycle has mean (1+2)/2
    code, out, _ = run(capsys, "rho", BMIN)
    assert (code, out.strip()) == (0, "1")  # cheapest cycle mean of the min automaton
    acyclic = tmp_path / "acyclic.twa"
    acyclic.write_text(
        "twa 1\nsemiring max-plus\nalphabet a\nstates 2\ninitial 0 0\nfinal 1 0\ntrans 0 1 a 3\n"
    )
    code, out, _ = run(capsys, "rho", str(acyclic))
    assert (code, out.strip()) == (0, "-inf")


def test_check_nonpositive_no_with_witness(capsys, tmp_path):
    path = tmp_path / "loop.twa"
    path.write_text(
        "twa 1\nsemiring max-plus\nalphabet a\nstates 1\ninitial 0 0\nfinal 0 0\ntrans 0 0 a 1\n"
    )
    code, out, _ = run(capsys, "check-nonpositive", str(path))
    assert code == 1
    assert out.strip() == "NO witness=a"


def test_check_nonpositive_yes(capsys, tmp_path):
    path = tmp_path / "neg.twa"
    path.write_text(
        "twa 1\nsemiring max-plus\nalphabet a\nstates 1\ninitial 0 0\nfinal 0 0\ntrans 0 0 a -1\n"
    )
    code, out, _ = run(capsys, "check-nonpositive", str(path))
    assert (code, out.strip()) == (0, "YES")


def test_check_nonpositive_min_plus_dual(capsys, tmp_path):
    # for a min-plus series the dual question is: every coefficient >= 0
    path = tmp_path / "minpos.twa"
    path.write_text(
        "twa 1\nsemiring min-plus\nalphabet a\nstates 1\ninitial 0 0\nfinal 0 0\ntrans 0 0 a 2\n"
    )
    code, out, _ = run(capsys, "check-nonpositive", str(path))
    assert (code, out.strip()) == (0, "YES")


def test_a_witness_past_the_cap_exits_3(capsys, tmp_path):
    # one state, `initial 0 -K`, `final 0 0`, an `a` loop of weight 1: the
    # first positive word is a^(K+1), which `leq` against 0 meets as well
    path, zero = tmp_path / "far.twa", tmp_path / "zero.twa"
    zero.write_text(
        "twa 1\nsemiring min-plus\nalphabet a\nstates 1\ninitial 0 0\nfinal 0 0\ntrans 0 0 a 0\n"
    )
    refused = (3, "", "error: witness exceeded cap of 1000000\n")  # one line, no traceback
    for k, expected in [
        (10**5, (1, "NO witness=" + "a" * 100_001 + "\n", "")),
        (10**6, refused),
        (10**30, refused),
    ]:
        path.write_text(
            "twa 1\nsemiring max-plus\nalphabet a\nstates 1\n"
            f"initial 0 -{k}\nfinal 0 0\ntrans 0 0 a 1\n"
        )
        assert run(capsys, "check-nonpositive", str(path)) == expected, k
        if k == 10**30:
            assert run(capsys, "leq", str(path), str(zero)) == refused


def test_fatou_roundtrip(capsys, tmp_path):
    src = tmp_path / "chain.twa"
    src.write_text(
        "twa 1\nsemiring max-plus\nalphabet a\nstates 2\n"
        "initial 0 0\nfinal 1 -1\ntrans 0 1 a 1\n"
    )
    code, out, _ = run(capsys, "fatou", str(src))
    assert code == 0
    result = parse(out)
    assert result.beta == [None, 0]
    assert result.mu["a"].rows[0].get(1) == 0


def test_fatou_rejects_positive_series(capsys, tmp_path):
    path = tmp_path / "pos.twa"
    path.write_text(
        "twa 1\nsemiring max-plus\nalphabet a\nstates 1\ninitial 0 0\nfinal 0 1\n"
    )
    code, out, _ = run(capsys, "fatou", str(path))
    assert code == 1
    assert out.strip() == 'NOT-NONPOSITIVE witness=""'


def test_equal_const_subcommand(capsys, tmp_path):
    path = tmp_path / "const.twa"
    path.write_text(
        "twa 1\nsemiring max-plus\nalphabet a b\nstates 1\n"
        "initial 0 0\nfinal 0 3\ntrans 0 0 a 0\ntrans 0 0 b 0\n"
    )
    code, out, _ = run(capsys, "equal-const", "3", str(path))
    assert (code, out.strip()) == (0, "YES")
    code, out, _ = run(capsys, "equal-const", "0", str(path))
    assert code == 1 and out.strip() == 'NO witness=""'


def test_equal_const_negative_and_fractional_constants(capsys, tmp_path):
    path = tmp_path / "neg.twa"
    path.write_text(
        "twa 1\nsemiring max-plus\nalphabet a\nstates 1\n"
        "initial 0 0\nfinal 0 -2\ntrans 0 0 a 0\n"
    )
    code, out, _ = run(capsys, "equal-const", "-2", str(path))
    assert (code, out.strip()) == (0, "YES")
    # fractions need the usual argparse separator
    code, out, _ = run(capsys, "equal-const", "--", "-1/2", str(path))
    assert code == 1


def test_equal_const_on_support(capsys, tmp_path):
    path = tmp_path / "word.twa"
    path.write_text(
        "twa 1\nsemiring max-plus\nalphabet a\nstates 2\n"
        "initial 0 0\nfinal 1 0\ntrans 0 1 a 2\n"
    )
    code, out, _ = run(capsys, "equal-const", "2", str(path), "--on-support")
    assert (code, out.strip()) == (0, "YES")
    code, out, _ = run(capsys, "equal-const", "2", str(path))
    assert code == 1


def test_equal_subcommand(capsys):
    code, out, _ = run(capsys, "equal", AMAX, BMIN)
    assert (code, out.strip()) == (0, "EQUAL")


def test_equal_detects_difference(capsys, tmp_path):
    other = tmp_path / "other.twa"
    text = pathlib.Path(BMIN).read_text().replace("trans 0 0 a 2", "trans 0 0 a 1")
    other.write_text(text)
    code, out, _ = run(capsys, "equal", AMAX, str(other))
    assert code == 1
    assert out.startswith("NOT-EQUAL witness=")


def test_equal_and_leq_on_the_lowered_example(capsys):
    # bmin.twa with the arc 0 -a-> 1 lowered by 1, the NO that CI takes
    # through the installed command: the supports agree, so the witness is
    # the equality kernel's, from its forward pass
    lowered = str(DATA / "bmin_lowered.twa")
    for command, verdict in (("equal", "NOT-EQUAL"), ("leq", "NOT-LEQ")):
        assert run(capsys, command, AMAX, lowered) == (1, f"{verdict} witness=aa\n", "")


def test_equal_rejects_wrong_tags(capsys):
    code, _, err = run(capsys, "equal", AMAX, AMAX)
    assert code == 2
    assert "min-plus" in err


def test_leq_subcommand(capsys):
    code, out, _ = run(capsys, "leq", AMAX, BMIN)
    assert (code, out.strip()) == (0, "LEQ")


def test_onevalued_writes_output(capsys, tmp_path):
    out_path = tmp_path / "onevalued.twa"
    code, out, _ = run(capsys, "onevalued", AMAX, BMIN, "-o", str(out_path))
    assert code == 0
    result = load(out_path)
    assert result.n == 4


def test_onevalued_reports_unequal_pairs(capsys, tmp_path):
    other = tmp_path / "other.twa"
    other.write_text(pathlib.Path(BMIN).read_text().replace("final 0 0", "final 0 1"))
    code, out, _ = run(capsys, "onevalued", AMAX, str(other))
    assert code == 1
    assert out.startswith("NOT-EQUAL witness=")


def test_disambiguate_subcommand(capsys, tmp_path):
    one_valued = tmp_path / "v.twa"
    code, _, _ = run(capsys, "onevalued", AMAX, BMIN, "-o", str(one_valued))
    assert code == 0
    code, out, _ = run(capsys, "disambiguate", str(one_valued))
    assert code == 0
    assert parse(out).n >= 4


def test_pipeline_subcommand(capsys, tmp_path):
    out_path = tmp_path / "unamb.twa"
    code, _, _ = run(capsys, "pipeline", AMAX, BMIN, "-o", str(out_path))
    assert code == 0
    from twa.oracle import equal_upto, max_ambiguity_upto

    result = load(out_path)
    assert max_ambiguity_upto(result, 8)[0] <= 1
    assert equal_upto(result, load(AMAX), 8).holds


def test_pipeline_subset_cap_exit_code(capsys):
    code, _, err = run(capsys, "pipeline", AMAX, BMIN, "--subset-cap", "1")
    assert code == 3
    assert "cap" in err


def test_product_cap_exit_code(monkeypatch, capsys, tmp_path):
    # on (2,3,5,7) the comparisons meet 210 subset pairs and the difference
    # product has 840 pairs, so the product is the first to pass this cap
    paths = []
    for name, aut in zip(("pmax.twa", "pmin.twa"), zoo.prime_period_pair(2, 3, 5, 7)):
        paths.append(str(tmp_path / name))
        save(aut, paths[-1])
    monkeypatch.setattr(twa.automaton, "DEFAULT_SUBSET_CAP", 839)
    code, out, err = run(capsys, "equal", *paths)
    assert (code, out) == (3, "")
    assert err == "error: product exceeded cap of 839\n"  # one line, no traceback


def test_comparison_cap_exit_code(monkeypatch, capsys, tmp_path):
    # each comparison below meets 32 subset pairs or more, each product at
    # most 6 pairs (see _comparisons in test_equality_kernel)
    kth, tight = tmp_path / "kth.twa", tmp_path / "tight.twa"
    save(kth_letter_from_last(4, MAX_PLUS), kth)
    save(tight_kth_letter_from_last(4), tight)
    every = tmp_path / "every.twa"
    every.write_text(
        "twa 1\nsemiring min-plus\nalphabet a b\nstates 1\n"
        "initial 0 0\nfinal 0 0\ntrans 0 0 a 0\ntrans 0 0 b 0\n"
    )
    monkeypatch.setattr(twa.automaton, "DEFAULT_SUBSET_CAP", 8)
    for argv, what in [
        (("leq", kth, every), "support comparison"),
        (("equal-const", "0", kth, "--on-support"), "zero-filter comparison"),
        (("equal", tight, every), "zero-filter comparison"),
        (("pipeline", tight, every), "zero-filter comparison"),
    ]:
        code, out, err = run(capsys, *map(str, argv))
        assert (code, out, err) == (3, "", f"error: {what} exceeded cap of 8\n"), argv


def test_states_times_letters_cap_exit_code(capsys, tmp_path):
    # 53 bytes that would make the parser allocate 1,500,000 rows
    path = tmp_path / "wide.twa"
    path.write_text("twa 1\nsemiring max-plus\nalphabet a b c\nstates 500000\n")
    code, out, err = run(capsys, "eval", str(path), "")
    assert (code, out) == (3, "")
    assert err == "error: line 4: 500000 states x 3 letters exceeded cap of 1000000\n"


def test_monoid_cap_exit_code(capsys, tmp_path):
    # a constant series: the all-words test explores the subsets {0} and {1},
    # more than the cap of 1
    path = tmp_path / "swap.twa"
    path.write_text(
        "twa 1\nsemiring max-plus\nalphabet a b\nstates 2\n"
        "initial 0 0\nfinal 0 0\nfinal 1 0\n"
        "trans 0 1 a 0\ntrans 1 0 a 0\ntrans 0 0 b 0\ntrans 1 1 b 0\n"
    )
    code, _, err = run(capsys, "equal-const", "0", str(path), "--subset-cap", "1")
    assert code == 3
    assert "cap" in err


def test_retired_options_are_usage_errors(capsys):
    # every pair is checked, so there is no --no-check; --monoid-cap was the
    # old spelling of --subset-cap
    for argv in (
        ("onevalued", AMAX, BMIN, "--no-check"),
        ("pipeline", AMAX, BMIN, "--no-check"),
        ("equal-const", "0", AMAX, "--monoid-cap", "2"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "unrecognized arguments" in err, argv


def test_oracle_compare(capsys):
    code, out, _ = run(capsys, "oracle", "compare", AMAX, BMIN, "--maxlen", "6")
    assert (code, out.strip()) == (0, "EQUAL-UPTO 6")


def test_oracle_ambiguity(capsys):
    code, out, _ = run(capsys, "oracle", "ambiguity", AMAX, "--maxlen", "5")
    assert code == 0
    assert out.startswith("max-ambiguity ")


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 2
    assert main([]) == 2


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "eval", "does-not-exist.twa", "a")
    assert code == 2
    assert "error:" in err


def test_non_ascii_digits_are_usage_errors(capsys, tmp_path):
    path = tmp_path / "wide.twa"
    path.write_text("twa 1\nsemiring max-plus\nalphabet a\nstates \uff13\n", encoding="utf-8")
    code, out, err = run(capsys, "eval", str(path), "a")
    assert (code, out) == (2, "")
    assert "line 4" in err
    code, out, err = run(capsys, "equal-const", "1.\uff15", AMAX)
    assert (code, out) == (2, "")
    assert "bad weight literal" in err


def test_state_count_longer_than_any_list_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "huge.twa"
    path.write_text("twa 1\nsemiring max-plus\nalphabet a\nstates " + "1" + "0" * 30 + "\n")
    code, out, err = run(capsys, "eval", str(path), "a")
    assert (code, out) == (2, "")
    assert err.startswith("error: line 4: state count")
    assert err.count("\n") == 1


def test_state_count_above_the_cap_exits_3(capsys, tmp_path):
    path = tmp_path / "big.twa"
    path.write_text("twa 1\nsemiring max-plus\nalphabet a\nstates 1000000000\n")
    code, out, err = run(capsys, "eval", str(path), "a")
    assert (code, out) == (3, "")
    assert err.startswith("error: line 4: state count 1000000000 exceeded cap of")
    assert err.count("\n") == 1


def test_bad_format_exit_code(capsys, tmp_path):
    path = tmp_path / "broken.twa"
    path.write_text("twa 1\nsemiring max-plus\nalphabet a\nstates 1\ntrans 0 5 a 1\n")
    code, _, err = run(capsys, "eval", str(path), "a")
    assert code == 2
    assert "line 5" in err


def test_console_entry_point():
    script = (
        "import sys; from twa.cli import main; sys.exit(main(['eval', sys.argv[1], 'a']))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, AMAX], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "2"


def test_stdout_serialization_matches_library(capsys):
    code, out, _ = run(capsys, "trim", AMAX)
    assert code == 0
    assert out == serialize(load(AMAX).trim())


def test_nonpositive_caps_and_negative_lengths_are_usage_errors(capsys, tmp_path):
    # a constant series, so its all-words test explores subsets: caps and
    # lengths out of range are usage errors, not tracebacks or runs
    path = tmp_path / "swap.twa"
    path.write_text(
        "twa 1\nsemiring max-plus\nalphabet a b\nstates 2\n"
        "initial 0 0\nfinal 0 0\nfinal 1 0\n"
        "trans 0 1 a 0\ntrans 1 0 a 0\ntrans 0 0 b 0\ntrans 1 1 b 0\n"
    )
    for argv in (
        *(("equal-const", "0", str(path), "--subset-cap", cap) for cap in ("0", "-2", "many")),
        ("pipeline", AMAX, BMIN, "--subset-cap", "0"),
        ("pipeline", AMAX, BMIN, "--subset-cap", "-5"),
        ("disambiguate", AMAX, "--subset-cap", "0"),
        ("oracle", "compare", AMAX, BMIN, "--maxlen", "-1"),
        ("oracle", "ambiguity", AMAX, "--maxlen", "-1"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "at least" in err or "integer" in err, argv
        assert "Traceback" not in err, argv


def test_the_support_test_takes_no_subset_cap(capsys, tmp_path):
    # --subset-cap 1 alone stops the all-words test (test_monoid_cap_exit_code);
    # --on-support compares two NFAs under the fixed cap and would ignore it
    path = tmp_path / "swap.twa"
    path.write_text(SWAP)
    assert run(capsys, "equal-const", "0", str(path), "--on-support") == (0, "YES\n", "")
    for options in (("--on-support", "--subset-cap", "1"), ("--subset-cap", "1", "--on-support")):
        code, out, err = run(capsys, "equal-const", "0", str(path), *options)
        assert (code, out) == (2, ""), options
        assert "--on-support" in err and "--subset-cap" in err, options
        assert "Traceback" not in err, options


def test_oracle_refuses_long_sweeps_over_one_letter(capsys, tmp_path):
    # one word per length: only the length bound stops a sweep of 10^12 steps
    path = tmp_path / "one.twa"
    path.write_text("twa 1\nsemiring max-plus\nalphabet a\nstates 1\ninitial 0 0\nfinal 0 0\ntrans 0 0 a 1\n")
    for argv in (
        ("oracle", "compare", str(path), str(path), "--maxlen", "1000000000000"),
        ("oracle", "ambiguity", str(path), "--maxlen", "10000000"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "enumeration bound" in err and "Traceback" not in err, argv


def test_smallest_caps_and_lengths_are_accepted(capsys):
    code, out, _ = run(capsys, "oracle", "compare", AMAX, BMIN, "--maxlen", "0")
    assert (code, out.strip()) == (0, "EQUAL-UPTO 0")
    code, out, _ = run(capsys, "oracle", "ambiguity", AMAX, "--maxlen", "0")
    assert (code, out.strip()) == (0, 'max-ambiguity 1 word=""')


def test_cap_errors_leave_no_traceback_in_a_subprocess(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "twa.cli", "pipeline", AMAX, BMIN, "--subset-cap", "-5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "--subset-cap" in proc.stderr


# runs each argv list of argv[1] (JSON) through main; prints the order in which
# this process iterates a set of the two letters, and [[code, stdout], ...]
_RUN_EACH = """
import contextlib, io, json, sys
from twa.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        results.append([main(argv), out.getvalue()])
print(json.dumps(["".join({"a", "b"}), results]))
"""


def test_outputs_do_not_depend_on_the_string_hash_seed(tmp_path):
    # bmin with one arc lowered: NOT-EQUAL
    bad = tmp_path / "bad.twa"
    bad.write_text(pathlib.Path(BMIN).read_text(encoding="utf-8").replace("b 3", "b 2"))
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    runs = {}
    # a process has one PYTHONHASHSEED, so each seed gets a process of its own;
    # seeds are tried until two of them iterate the letters in different orders
    for seed in range(8):
        out = tmp_path / f"seed-{seed}"
        out.mkdir()
        commands = [
            ["pipeline", AMAX, BMIN, "-o", str(out / "pipeline.twa")],
            ["onevalued", AMAX, BMIN, "-o", str(out / "one.twa")],
            ["disambiguate", str(out / "one.twa"), "-o", str(out / "unambiguous.twa")],
            ["disambiguate", AMAX],
            ["equal", AMAX, str(bad)],
            ["pipeline", AMAX, str(bad)],
        ]
        proc = subprocess.run(
            [sys.executable, "-c", _RUN_EACH, json.dumps(commands)],
            capture_output=True, text=True, env={**env, "PYTHONHASHSEED": str(seed)}, check=True,
        )
        order, results = json.loads(proc.stdout)
        runs[order] = results, {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        if len(runs) == 2:
            break
    assert len(runs) == 2
    (results, files), other = runs.values()
    assert [code for code, _ in results] == [0, 0, 0, 0, 1, 1]
    assert results[4][1] == results[5][1] == "NOT-EQUAL witness=aba\n" and len(files) == 3
    assert (results, files) == other


def test_undecodable_file_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "latin1.twa"
    path.write_bytes(b"twa 1\nsemiring max-plus\nalphabet a\nstates 1\xff\n")
    code, out, err = run(capsys, "eval", str(path), "a")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "not UTF-8" in err
    proc = subprocess.run(
        [sys.executable, "-m", "twa.cli", "eval", str(path), "a"],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", err)


def test_the_argument_parser_is_built_once_per_process(monkeypatch, capsys):
    proc = subprocess.run(
        [sys.executable, "-c", "import twa.cli; print(twa.cli._build_parser.cache_info().misses)"],
        capture_output=True,
        text=True,
    )
    assert proc.stdout == "0\n"  # not at import
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    assert main(["eval", AMAX, "a"]) == 0
    first = len(built)
    assert first > 10  # the tree: the top parser and one per subcommand
    assert main(["rho", AMAX]) == 0
    assert main(["no-such-command"]) == 2
    assert main(["equal", AMAX, BMIN]) == 0
    assert len(built) == first


SWAP = (
    "twa 1\nsemiring max-plus\nalphabet a b\nstates 2\n"
    "initial 0 0\nfinal 0 0\nfinal 1 0\n"
    "trans 0 1 a 0\ntrans 1 0 a 0\ntrans 0 0 b 0\ntrans 1 1 b 0\n"
)


def test_repeated_calls_match_a_fresh_process_each(monkeypatch, capsys, tmp_path):
    # one process answers a sequence of calls with different options exactly
    # as a fresh process answers each call: the shared parser keeps nothing
    # from one call to the next
    monkeypatch.setenv("COLUMNS", "80")  # the same help layout in both
    swap = tmp_path / "swap.twa"
    swap.write_text(SWAP)
    out_file = tmp_path / "out.twa"
    calls = [
        ("pipeline", AMAX, BMIN, "-o", str(out_file)),
        ("pipeline", AMAX, BMIN),
        ("pipeline", AMAX, BMIN, "--subset-cap", "1"),
        ("pipeline", AMAX, BMIN),
        ("equal-const", "0", str(swap), "--subset-cap", "1"),
        ("equal-const", "0", str(swap)),
        ("--help",),
        ("--help",),
    ]

    def written():
        if not out_file.exists():
            return None
        text = out_file.read_text()
        out_file.unlink()
        return text

    cli._build_parser.cache_clear()
    codes = []
    for argv in calls:
        code, out, err = run(capsys, *argv)
        in_process = (code, out, err, written())
        proc = subprocess.run(
            [sys.executable, "-m", "twa.cli", *argv], capture_output=True, text=True
        )
        assert in_process == (proc.returncode, proc.stdout, proc.stderr, written()), argv
        codes.append(code)
    assert codes == [0, 0, 3, 0, 3, 0, 0, 0]


# -- the letters of a pair may come in any order ---------------------------------

PAIR_COMMANDS = [
    ["equal"],
    ["leq"],
    ["onevalued"],
    ["pipeline"],
    ["oracle", "compare"],
]


def _with_alphabet(tmp_path, letters):
    """BMIN with its alphabet line changed to ``letters``."""
    text = pathlib.Path(BMIN).read_text()
    assert "alphabet a b\n" in text
    path = tmp_path / f"bmin-{''.join(letters.split())}.twa"
    path.write_text(text.replace("alphabet a b\n", f"alphabet {letters}\n"))
    return str(path)


def test_a_reordered_alphabet_prints_the_same(capsys, tmp_path):
    flipped = _with_alphabet(tmp_path, "b a")
    for command in PAIR_COMMANDS:
        same = run(capsys, *command, AMAX, BMIN)
        assert same[0] in (0, 1), command
        assert run(capsys, *command, AMAX, flipped) == same, command
        proc = subprocess.run(
            [sys.executable, "-m", "twa.cli", *command, AMAX, flipped],
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == same, command


def test_different_letters_exit_2(capsys, tmp_path):
    other = _with_alphabet(tmp_path, "a b c")
    for command in PAIR_COMMANDS:
        code, out, err = run(capsys, *command, AMAX, other)
        expected = (
            "equal_upto requires identical alphabets"
            if command[0] == "oracle"
            else "automata must share one alphabet"
        )
        assert (code, out) == (2, ""), command
        assert err.startswith("error: ") and expected in err, command
