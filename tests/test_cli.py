"""Command-line surface: exit codes, JSON output, trace files, and the
replayable witness scripts."""

from __future__ import annotations

import inspect
import json
import shlex
from pathlib import Path

import pytest

from itrsbench import Budgets, TermError, disjoint_union, parse, parse_itrs, rewriting, simulate
from itrsbench.convergence import Fp, Kt, find_loop, find_root_recurrence, focussed_probe
from itrsbench.rewriting import DEFAULT_WEAK_BUDGET
from itrsbench.cli import build_parser, read_trace, run_command, write_trace
from itrsbench.metrics import DEFAULT_DEPTH_GUARD
from itrsbench.corpus import ITRS_SOURCES

FIXDIR = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture()
def files(tmp_path):
    out = {}
    for name, text in ITRS_SOURCES.items():
        path = tmp_path / f"{name}.itrs"
        path.write_text(text)
        out[name] = str(path)
    return out


def test_check_ok(files, capsys):
    assert run_command(["check", files["ltree"]]) == 0
    assert "metric_ok: True" in capsys.readouterr().out


def test_check_bad_file_is_input_error(tmp_path):
    bad = tmp_path / "bad.itrs"
    bad.write_text("metric infty\nsig F/1\nrule bad: x -> F(x)\n")
    assert run_command(["check", str(bad)]) == 2
    assert run_command(["check", str(tmp_path / "missing.itrs")]) == 2


def test_distance_reflexive(files, capsys):
    code = run_command(
        ["distance", "--metric", files["ltree"],
         "--term", "Bin(N, Null, N)", "--term2", "Bin(N, Null, N)"]
    )
    assert code == 0
    assert "distance: 0" in capsys.readouterr().out


def test_member_non_member_example(files, tmp_path, capsys):
    assert run_command(
        ["union", files["exa-layers-r"], files["exa-layers-s"],
         "--out", str(tmp_path / "u.itrs"), "--report", str(tmp_path / "u.json")]
    ) == 0
    capsys.readouterr()
    assert run_command(
        ["member", "--metric", str(tmp_path / "u.itrs"),
         "--term", "mu X. G(H(X))", "--json"]
    ) == 0
    assert json.loads(capsys.readouterr().out)["kind"] == "non_member"


def test_member_on_two_files_directly(files, capsys):
    assert run_command(
        ["member", "--metric", files["exa-layers-r"], files["exa-layers-s"],
         "--term", "mu X. F(F(H(X)))", "--json"]
    ) == 0
    assert json.loads(capsys.readouterr().out)["kind"] == "member"


def test_member_exa_layers2_ring_of_40(files, capsys):
    """mu X. F^39(H(X)) under F pow(2), H cap(1/2): iterating the values
    would build a 2^39-bit denominator."""
    ring = "mu X. " + "F(" * 39 + "H(X)" + ")" * 39
    assert run_command(
        ["member", "--metric", files["exa-layers2-r"], files["exa-layers2-s"],
         "--term", ring, "--json"]
    ) == 0
    assert json.loads(capsys.readouterr().out)["kind"] == "member"


def test_bad_term_is_input_error(files):
    assert run_command(
        ["distance", "--metric", files["ltree"],
         "--term", "Bin(", "--term2", "N"]
    ) == 2


def test_epos_and_guard(files, capsys):
    assert run_command(
        ["epos", "--metric", files["exnonlin-s"],
         "--term", "S(S(0))", "--epsilon", "1/2", "--json"]
    ) == 0
    assert json.loads(capsys.readouterr().out)["positions"] == [[], [1]]
    assert run_command(
        ["epos", "--metric", files["toyama-r"],
         "--term", "F(0, 1, x)", "--epsilon", "2"]
    ) in (0, 1)


def test_classify(files, capsys):
    assert run_command(["classify", "--metric", files["toyama-s"], "--json"]) == 0
    rules = json.loads(capsys.readouterr().out)["rules"]
    assert "collapsing" in rules["left"]


def test_union_report(files, tmp_path):
    report = tmp_path / "r.json"
    assert run_command(
        ["union", files["exnonlin-s"], files["exnonlin-s"],
         "--out", str(tmp_path / "u.itrs"), "--report", str(report)]
    ) == 0
    data = json.loads(report.read_text())
    assert data["left"]["S"] == "S#1"
    assert data["right"]["S"] == "S#2"
    assert run_command(["check", str(tmp_path / "u.itrs")]) == 0


def test_simulate_writes_replayable_trace(files, tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    assert run_command(
        ["simulate", "--metric", files["exnonlin-s"], "--term", "0",
         "--max-steps", "4", "--out", str(trace)]
    ) == 0
    lines = [json.loads(l) for l in trace.read_text().splitlines()]
    assert sum(1 for e in lines if "term" in e) == 5
    assert sum(1 for e in lines if "step" in e) == 4
    assert lines[-1] == {"omega": None}


def test_analyze_and_replay_witness(files, tmp_path, capsys):
    witness = tmp_path / "w.json"
    assert run_command(
        ["analyze", "--metric", files["toyama-r"], files["toyama-s"],
         "--term", "F(0, 1, G(0, 1))", "--json", "--out", str(witness),
         "--budget", "5000"]
    ) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["verdict"] == "diverging"
    assert verdict["witness"]["type"] == "loop"
    assert run_command(["replay", str(witness)]) == 0


def test_corpus_subcommand(capsys):
    assert run_command(["corpus", "toyama"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_corpus_unknown_name_is_input_error(capsys):
    assert run_command(["corpus", "toyama", "nosuch"]) == 2
    err = capsys.readouterr().err
    assert "nosuch" in err and "zantema" in err


@pytest.mark.parametrize(
    "argv",
    [["check", "ltree", "--budget", "3"], ["check", "ltree", "--tol", "5"],
     ["vdepth", "--metric", "ltree", "--term", "x", "--var", "x", "--depth-guard", "4"],
     ["epos", "--metric", "ltree", "--term", "x", "--epsilon", "1", "--budget", "4"],
     ["analyze", "--metric", "ltree", "--term", "x", "--tol", "5"],
     ["replay", "witness.json", "--tol", "5"],
     ["layers", "--metric", "ltree", "ltree", "--term", "x", "--depth-guard", "4"]],
)
def test_options_exist_only_where_read(files, argv):
    argv = [files.get(a, a) for a in argv]
    with pytest.raises(SystemExit) as exc:
        run_command(argv)
    assert exc.value.code == 2


CUTOFF = ["cutoff", "--metric", "exnonlin-r", "exnonlin-s", "--layers", "1", "--fill", "x",
          "--trace", "INPUT"]
XI = ["xi", "--metric", "exnonlin-r", "exnonlin-s", "--rule", "succ", "--trace", "INPUT",
      "--predicate"]
TOYAMA = ["--metric", "toyama-r", "toyama-s", "--term", "F(0, 1, G(0, 1))"]
# each count option with a negative value, and the input its command reads
NEGATIVE_COUNTS = {
    "--budget": (["analyze", *TOYAMA, "--budget", "-1"], ""),
    "--max-steps": (["simulate", *TOYAMA, "--max-steps", "-4"], ""),
    "--depth-bound": (["simulate", *TOYAMA, "--depth-bound", "-1"], ""),
    "--depth-guard": (["epos", "--metric", "ltree", "--term", "x", "--epsilon", "1",
                       "--depth-guard", "-1"], ""),
    "xi --budget": (XI + ["fp:1", "--budget", "-1"], '{"term": "F(0, 0, 0)"}\n'),
    "--layers": (["cutoff", "--metric", "exnonlin-r", "exnonlin-s", "--layers", "-1",
                  "--fill", "x", "--trace", "INPUT"], '{"term": "F(0, 0, 0)"}\n'),
}


@pytest.mark.parametrize(
    "argv, text",
    [(["vdepth", "--metric", "ltree", "--term", "x", "--var", "x", "--at", "abc"], ""),
     (["epos", "--metric", "ltree", "--term", "x", "--epsilon", "1/0"], ""),
     (["replay", "INPUT"], "[]"),
     (["replay", "INPUT"], '{"witness": {"type": "loop"}}'),
     (CUTOFF, "not json\n"),
     (CUTOFF, '{"step": {"position": [], "rule": "succ"}}\n{"term": "0"}\n'),
     (CUTOFF, '{"term": "F(0, 0, 0)"}\n{"step": {"position": [1], "rule": "nosuch"}}\n'
              '{"omega": null}\n'),
     (CUTOFF, '{"term": "F(0, 0, 0)"}\n{"step": {"position": [3], "rule": "succ"}}\n'
              '{"term": "F(0, 0, 0)"}\n{"omega": null}\n'),
     (XI + ["fp:a"], '{"term": "F(0, 0, 0)"}\n'),
     (XI + ["fp:1.0"], '{"term": "F(0, 0, 0)"}\n'),
     (["vdepth", "--metric", "ltree", "--term", "x", "--var", "x", "--at", "3"], ""),
     (["vdepth", "--metric", "ltree", "--term", "x", "--var", "x", "--at", "-1"], ""),
     *NEGATIVE_COUNTS.values()],
    ids=["number", "zero-denominator", "witness-list", "witness-fields", "trace-json",
         "trace-step-first", "trace-dangling-step", "trace-step-mismatch", "fp-not-a-number",
         "fp-zero", "vdepth-above-1", "vdepth-below-0",
         *(f"negative {flag}" for flag in NEGATIVE_COUNTS)],
)
def test_malformed_input_exits_2(files, tmp_path, argv, text):
    """Bad input is exit code 2, never a traceback (exit code 1)."""
    path = tmp_path / "input"
    path.write_text(text)
    argv = [str(path) if a == "INPUT" else files.get(a, a) for a in argv]
    try:
        code = run_command(argv)
    except SystemExit as exc:  # argparse rejects bad option values itself
        code = exc.code
    assert code == 2


@pytest.mark.parametrize("flag", NEGATIVE_COUNTS)
def test_a_negative_count_names_its_flag_and_zero_stays_valid(files, tmp_path, capsys, flag):
    """A negative budget, step count or depth is rejected with the option's
    name (before, analyze --budget -1 answered converging and simulate
    --max-steps -4 ran 0 steps, both with exit 0); 0 is a count."""
    path = tmp_path / "input"
    argv, text = NEGATIVE_COUNTS[flag]
    path.write_text(text)
    argv = [str(path) if a == "INPUT" else files.get(a, a) for a in argv]
    with pytest.raises(SystemExit) as exc:
        run_command(argv)
    assert exc.value.code == 2
    assert flag.split()[-1] in capsys.readouterr().err
    argv[argv.index(flag.split()[-1]) + 1] = "0"
    assert run_command(argv) in (0, 1)


def test_knob_defaults_are_the_library_defaults():
    """Each knob's CLI default is the library's: xi's --budget is the reach
    budget of its Fp/Kt predicates, the others are Budgets and the guard."""
    budgets = Budgets()
    want = {"budget": budgets.loop_states, "max_steps": budgets.max_steps,
            "depth_bound": budgets.depth_bound, "depth_guard": DEFAULT_DEPTH_GUARD}
    parser, seen = build_parser(), set()
    for argv in (["epos", "--metric", "m", "--term", "x", "--epsilon", "1"],
                 ["simulate", "--metric", "m", "--term", "x"],
                 ["analyze", "--metric", "m", "--term", "x"],
                 ["strong", "--metric", "m", "--term", "x"]):
        args = vars(parser.parse_args(argv))
        for knob in want.keys() & args.keys():
            assert args[knob] == want[knob], (argv[0], knob)
            seen.add(knob)
    assert seen == want.keys()
    xi = parser.parse_args(["xi", "--metric", "m", "--trace", "t", "--rule", "r",
                            "--predicate", "p"])
    assert xi.budget == DEFAULT_WEAK_BUDGET
    assert Fp.budget == Kt.budget == DEFAULT_WEAK_BUDGET
    assert inspect.signature(focussed_probe).parameters["budget"].default == DEFAULT_WEAK_BUDGET
    for fn, knobs in ((find_loop, {"budget": "loop_states", "depth_bound": "depth_bound"}),
                      (find_root_recurrence, {"budget": "loop_states",
                                              "depth_bound": "depth_bound"}),
                      (simulate, {"max_steps": "max_steps", "depth_bound": "depth_bound"})):
        params = inspect.signature(fn).parameters
        for param, field in knobs.items():
            assert params[param].default == getattr(budgets, field), (fn.__name__, param)


def test_trace_round_trip_on_a_union_with_shared_rule_names(tmp_path):
    toyama_s = parse_itrs(ITRS_SOURCES["toyama-s"]).system
    union = disjoint_union(toyama_s, toyama_s).system
    assert [r.name for r in union.rules] == ["left#1", "right#1", "left#2", "right#2"]
    path = str(tmp_path / "t.jsonl")
    write_trace(path, simulate(union, parse("G#2(x, y)", union.sig), max_steps=1))
    again = read_trace(path, union)
    assert [occ.rule.name for occ in again.segments[0].steps] == ["left#2"]
    again.validate(union)


def test_layers_subcommand(files, capsys):
    assert run_command(
        ["layers", "--metric", files["exa-layers-r"], files["exa-layers-s"],
         "--term", "mu X. F(F(H(X)))", "--json"]
    ) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["principal_positions"] == [[1, 1]]
    assert data["rank"] == "inf"
    assert data["cycles"][0]["length"] == 3


def test_layers_says_whether_the_cycle_list_is_complete(files, capsys):
    assert run_command(
        ["layers", "--metric", files["exa-layers-r"], files["exa-layers-s"],
         "--term", "mu X. F(F(H(X)))", "--json"]
    ) == 0
    assert json.loads(capsys.readouterr().out)["cycles_truncated"] is None


def test_xi_and_cutoff_on_recorded_trace(files, tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    assert run_command(
        ["simulate", "--metric", files["exnonlin-r"], files["exnonlin-s"],
         "--term", "F(0, 0, 0)", "--max-steps", "4", "--out", str(trace)]
    ) == 0
    capsys.readouterr()
    assert run_command(
        ["cutoff", "--metric", files["exnonlin-r"], files["exnonlin-s"],
         "--trace", str(trace), "--layers", "1", "--fill", "x", "--json"]
    ) == 0
    assert json.loads(capsys.readouterr().out)["violations"] == []
    out = tmp_path / "xi.jsonl"
    assert run_command(
        ["xi", "--metric", files["exnonlin-r"], files["exnonlin-s"],
         "--trace", str(trace), "--rule", "succ", "--predicate", "fp:1",
         "--json", "--budget", "500", "--out", str(out)]
    ) == 0
    simulated = json.loads(capsys.readouterr().out)["terms"]
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert [e["term"] for e in lines if "term" in e] == simulated
    assert not any("step" in e for e in lines)
    # a trace without step lines reads back as simulated: a verdict, not bad input
    assert run_command(
        ["cutoff", "--metric", files["exnonlin-r"], files["exnonlin-s"],
         "--trace", str(out), "--layers", "1", "--fill", "x", "--json"]
    ) in (0, 1)


def test_indirect_subcommand(files, capsys):
    assert run_command(["indirect", files["collapsing-r"]]) == 0
    out = capsys.readouterr().out
    assert "sig I/1 [strict]" in out
    assert "rule I-erase" in out


def test_vdepth_subcommand(files, capsys):
    assert run_command(
        ["vdepth", "--metric", files["ltree"], "--term", "Bin(x, Null, Null)",
         "--var", "x", "--at", "1", "--json"]
    ) == 0
    assert json.loads(capsys.readouterr().out)["value"] == "1/2"


def readme_commands() -> list[list[str]]:
    """The itrsbench command lines of README.md's examples, as argument
    lists without the program name."""
    text = (FIXDIR.parent / "README.md").read_text().replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in text.splitlines()
            if line.strip().startswith("itrsbench ")]


def test_readme_examples_run(tmp_path, monkeypatch):
    """Each example exits 0, run in order from a directory that links to fixtures/."""
    (tmp_path / "fixtures").symlink_to(FIXDIR)
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert [argv[0] for argv in commands] == [
        "check", "distance", "member", "simulate", "analyze", "replay"]
    for argv in commands:
        assert run_command(argv) == 0, argv
    assert (tmp_path / "trace.jsonl").exists() and (tmp_path / "witness.json").exists()


def test_fixture_files_on_disk_match_sources():
    """The checked-in fixtures/ directory mirrors the corpus sources."""
    for name, text in ITRS_SOURCES.items():
        on_disk = (FIXDIR / f"{name}.itrs").read_text()
        assert on_disk.strip() == text.strip()


def test_the_trace_xi_writes_reads_back_and_validates(files, tmp_path, capsys):
    """A segment of simulated steps (None) validates: stutters, steps, and
    the stage that flips three cut edges at once are reductions of the
    union; a tampered copy does not."""
    trace, out = tmp_path / "t.jsonl", tmp_path / "xi.jsonl"
    metric = ["--metric", files["exnonlin-r"], files["exnonlin-s"]]
    assert run_command(["simulate", *metric, "--term", "F(0, 0, 0)", "--max-steps", "4",
                        "--out", str(trace)]) == 0
    assert run_command(["xi", *metric, "--trace", str(trace), "--rule", "succ",
                        "--predicate", "fp:1", "--budget", "500", "--out", str(out)]) == 0
    capsys.readouterr()
    system = disjoint_union(parse_itrs(ITRS_SOURCES["exnonlin-r"]).system,
                            parse_itrs(ITRS_SOURCES["exnonlin-s"]).system).system
    tr = read_trace(str(out), system)
    assert tr.segments[0].steps == [None] * 9
    assert str(tr.all_terms()[-1]) == "F(S(0), S(0), S(0))"
    tr.validate(system)
    terms = tr.segments[0].terms
    terms[-2], terms[-1] = terms[-1], terms[-2]
    with pytest.raises(TermError, match="does not replay"):
        tr.validate(system)


def test_read_trace_and_replay_match_once_per_step(files, tmp_path, monkeypatch, capsys):
    """read_trace applies the occurrence it matched; replay matches each
    step once to read it, and replay_loop, the checker, once more."""
    trace, witness = tmp_path / "t.jsonl", tmp_path / "w.json"
    assert run_command(["simulate", "--metric", files["exnonlin-r"], files["exnonlin-s"],
                        "--term", "F(0, 0, 0)", "--max-steps", "4", "--out", str(trace)]) == 0
    assert run_command(["analyze", "--metric", files["toyama-r"], files["toyama-s"],
                        "--term", "F(0, 1, G(0, 1))", "--json", "--out", str(witness),
                        "--budget", "5000"]) == 0
    capsys.readouterr()
    system = disjoint_union(parse_itrs(ITRS_SOURCES["exnonlin-r"]).system,
                            parse_itrs(ITRS_SOURCES["exnonlin-s"]).system).system
    calls = []
    match_at = rewriting._match_at
    monkeypatch.setattr(rewriting, "_match_at", lambda *args: calls.append(1) or match_at(*args))
    assert len(read_trace(str(trace), system).segments[0].steps) == 4
    assert len(calls) == 4
    calls.clear()
    data = json.loads(witness.read_text())["witness"]
    assert run_command(["replay", str(witness)]) == 0
    assert len(calls) == 2 * (len(data["prefix"]) + len(data["cycle"])) > 0
