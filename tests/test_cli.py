import argparse
import json
import shlex
import time
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uminflow import cli, fraisse
from uminflow.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_measure_exact(capsys):
    code, out, _ = run(capsys, "measure", "ord(0<1<2)")
    assert code == 0 and out.strip() == "1/6"


def test_measure_tautology(capsys):
    code, out, _ = run(capsys, "measure", "ord(0<1)|!ord(0<1)")
    assert code == 0 and out.strip() == "1"


def test_measure_weight_json(capsys):
    code, out, _ = run(
        capsys,
        "measure", "--method", "weight", "-k", "10", "--format", "json",
        "ord(0<1)&!ord(2<3)",
    )
    assert code == 0
    data = json.loads(out)
    assert data["mu"] == "256/2^10" and data["precision"] == 10
    num, denom = data["mu"].split("/2^")
    assert abs(int(num) / 2 ** int(denom) - 0.25) < 2**-10


def test_measure_negative_precision_exit_2(capsys):
    code, out, err = run(
        capsys, "measure", "--method", "weight", "-k", "-3", "ord(0<1)"
    )
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "precision" in err


def test_measure_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "measure", "ord(1<1)")
    assert code == 2 and "parse error" in err


@pytest.mark.parametrize(
    "expr", ["!" * 3000 + "ord(0<1)", "(" * 3000 + "ord(0<1)" + ")" * 3000]
)
def test_measure_deep_nesting_exit_2(capsys, expr):
    code, out, err = run(capsys, "measure", expr)
    assert code == 2 and out == ""
    assert err == "parse error: event nested deeper than 200 (at position 200)\n"


@pytest.mark.parametrize("method, mu", [("exact", "1/2"), ("weight", "524288/2^20")])
@pytest.mark.parametrize("depth", [199, 200])
def test_measure_at_nesting_cap(capsys, method, mu, depth):
    expr = "!" * (depth - 2) + "((ord(0<1)))"
    code, out, _ = run(capsys, "measure", "--method", method, expr)
    assert code == 0 and out.strip() == mu


def test_measure_help_names_the_fixed_weight_caps(capsys):
    code, out, _ = run(capsys, "measure", "--help")
    text = " ".join(out.split())
    assert code == 0
    assert "fixed union cap of 16" in text and "fixed precision cap of -k 64" in text
    assert "neither cap is settable by a --cap-* flag or UMINFLOW_CAPS" in text


def test_measure_cap_exit_3(capsys):
    code, _, err = run(capsys, "measure", "ord(0<1<2<3<4<5<6<7<8)")
    assert code == 3 and "cap" in err


def test_measure_cap_flag(capsys):
    code, out, _ = run(
        capsys, "measure", "--cap-support", "9", "ord(0<1<2<3<4<5<6<7<8)"
    )
    assert code == 0 and out.strip() == "1/362880"


def test_caps_env_override(capsys, monkeypatch):
    monkeypatch.setenv("UMINFLOW_CAPS", "support=9")
    code, out, _ = run(capsys, "measure", "ord(0<1<2<3<4<5<6<7<8)")
    assert code == 0 and out.strip() == "1/362880"


def test_caps_env_rejects_garbage(capsys, monkeypatch):
    monkeypatch.setenv("UMINFLOW_CAPS", "support=lots")
    code, _, err = run(capsys, "measure", "ord(0<1)")
    assert code == 2 and "UMINFLOW_CAPS" in err


def test_encode_rejects_empty_bits(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("  \n")
    code, _, err = run(capsys, "encode", str(empty))
    assert code == 2 and "no bits" in err


def test_usage_error_exit_2(capsys):
    assert main(["measure"]) == 2
    assert main(["no-such-command"]) == 2


def test_sample_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.txt"
    out2 = tmp_path / "b.txt"
    assert main(["sample", "--seed", "5", "--n", "12", "--out", str(out1)]) == 0
    assert main(["sample", "--seed", "5", "--n", "12", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().split("\n")
    assert lines[0] == "12"
    assert sorted(map(int, lines[1].split())) == list(range(12))


def test_sample_json_counts_ties_of_equal_keys(capsys, monkeypatch):
    from uminflow.sampler import RandomOrderStream

    monkeypatch.setattr(RandomOrderStream, "key", lambda self, n: 7)
    code, out, _ = run(capsys, "sample", "--seed", "3", "--n", "9", "--format", "json")
    data = json.loads(out)
    assert code == 0 and data["ties"] == 8 and data["order"] == list(range(9))


def test_sample_graph_and_encode_round_trip(tmp_path, capsys):
    graph_file = tmp_path / "g.txt"
    assert (
        main(
            ["sample", "--seed", "3", "--n", "10", "--kind", "graph",
             "--out", str(graph_file)]
        )
        == 0
    )
    bits_file = tmp_path / "bits.txt"
    assert (
        main(
            ["encode", str(graph_file), "--direction", "graph-to-bits",
             "--out", str(bits_file)]
        )
        == 0
    )
    graph_again = tmp_path / "g2.txt"
    assert (
        main(
            ["encode", str(bits_file), "--direction", "bits-to-graph",
             "--out", str(graph_again)]
        )
        == 0
    )
    assert graph_file.read_text() == graph_again.read_text()


def test_encode_hex_input(tmp_path, capsys):
    hex_file = tmp_path / "bits.hex"
    hex_file.write_text("ff0\n")
    code, out, _ = run(capsys, "encode", str(hex_file))
    lines = [l for l in out.splitlines() if l]
    assert lines[0] == "6"  # 12 bits need 6 vertices (15 pair slots)
    assert len(lines) - 1 == 8  # ff0 sets the first eight pair bits


def test_test_command_json(capsys):
    code, out, _ = run(
        capsys,
        "test", "--seed", "3", "--depth", "3",
        "--families", "density,unbounded", "--format", "json",
    )
    assert code == 0
    runs = json.loads(out)
    assert runs[0]["seed"] == 3
    families = {r["family"] for r in runs[0]["reports"]}
    assert families == {"density(0,1)", "unbounded(0)"}
    for report in runs[0]["reports"]:
        for level in report["levels"]:
            assert set(level) == {"k", "exact_mu", "member"}


def test_test_command_seed_range_ordered(capsys):
    code, out, _ = run(
        capsys,
        "test", "--seeds", "0:4", "--depth", "1",
        "--families", "density", "--format", "json",
    )
    assert code == 0
    runs = json.loads(out)
    assert [r["seed"] for r in runs] == [0, 1, 2, 3]


def test_test_unknown_family(capsys):
    code, _, err = run(capsys, "test", "--families", "bogus")
    assert code == 2 and "unknown family" in err


def test_test_stream_poset_canon_fails(capsys):
    code, out, _ = run(
        capsys,
        "test", "--stream", "poset-canon", "--families", "poset",
        "--depth", "4", "--format", "json",
    )
    assert code == 0
    runs = json.loads(out)
    assert runs[0]["stream"] == "poset-canon"
    (report,) = runs[0]["reports"]
    assert report["verdict"] == "fails level 4"
    assert all(level["member"] for level in report["levels"])


def test_test_depth_zero_vacuous(capsys):
    code, out, _ = run(
        capsys,
        "test", "--seed", "1", "--depth", "0",
        "--families", "density", "--format", "json",
    )
    assert code == 0
    runs = json.loads(out)
    (report,) = runs[0]["reports"]
    assert report["levels"] == [] and report["verdict"] == "passes to depth 0"


@pytest.mark.parametrize(
    "argv",
    [
        ("test", "--seeds", "5:3"),
        ("test", "--seeds", "3:3"),
        ("test", "--depth", "-1"),
        ("sample", "--seed", "0", "--n", "-4"),
        ("test", "--depth", "0", "--pair", "0,-1", "--families", "density"),
        ("test", "--depth", "0", "--point", "-3", "--families", "unbounded"),
        ("randomizer", "--seed", "0", "--depth", "-1"),
        ("iso", "--depth", "-3"),
    ],
)
def test_empty_or_negative_ranges_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, graph, message",
    [
        (("test", "--pair", "0"), "", "--pair must be two integers N,M, got '0'"),
        (("test", "--pair", "0,x"), "", "--pair must be two integers N,M, got '0,x'"),
        (("test", "--seeds", "5"), "",
         "--seeds must be two integers START:END, got '5'"),
        (("test", "--seeds", "", "--depth", "1", "--families", "density"), "",
         "--seeds must be two integers START:END, got ''"),
        (("encode", "g.txt", "--direction", "graph-to-bits"), "3\n0 1 2\n",
         "a graph edge line must be two integers I J, got '0 1 2'"),
        (("encode", "g.txt", "--direction", "graph-to-bits"), "three\n0 1\n",
         "graph vertex count 'three' is not an integer"),
        (("encode", "g.txt", "--direction", "graph-to-bits"), "-3\n",
         "graph vertex count must be non-negative, got -3"),
        (("measure", "--cap-support", "-1", "ord(0<1)"), "",
         "--cap-support must be non-negative, got -1"),
        (("test", "--families", "poset", "--cap-poset", "-1"), "",
         "--cap-poset must be non-negative, got -1"),
    ],
    ids=["pair 0", "pair 0,x", "seeds 5", "seeds empty", "edge line 0 1 2",
         "vertex count three", "vertex count -3", "cap-support -1", "cap-poset -1"],
)
def test_bad_integers_name_the_option_or_line(
    tmp_path, monkeypatch, capsys, argv, graph, message
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.txt").write_text(graph)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_iso_identity(capsys):
    code, out, _ = run(
        capsys, "iso", "--a", "rational-v1", "--b", "rational-v1", "--depth", "15"
    )
    assert code == 0
    data = json.loads(out)
    assert data["pairs"] == [[i, i] for i in range(15)]


def test_randomizer_roundtrip_and_verify(tmp_path, capsys):
    cert_file = tmp_path / "cert.json"
    assert (
        main(["randomizer", "--seed", "2", "--depth", "25", "--out", str(cert_file)])
        == 0
    )
    cert = json.loads(cert_file.read_text())
    assert cert["depth"] == 25 and cert["tau"] == "rational-v1"
    code, out, _ = run(capsys, "randomizer", "--seed", "2", "--verify", str(cert_file))
    assert code == 0 and json.loads(out)["verified"]


def test_randomizer_verify_corrupted_exit_4(tmp_path, capsys):
    cert_file = tmp_path / "cert.json"
    main(["randomizer", "--seed", "2", "--depth", "25", "--out", str(cert_file)])
    cert = json.loads(cert_file.read_text())
    cert["pairs"][0][1], cert["pairs"][1][1] = cert["pairs"][1][1], cert["pairs"][0][1]
    cert_file.write_text(json.dumps(cert))
    code, _, err = run(capsys, "randomizer", "--seed", "2", "--verify", str(cert_file))
    assert code == 4 and "verification failed" in err


def test_randomizer_verify_uncovered_depth_exit_4(tmp_path, capsys):
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(
        json.dumps({"seed": 2, "tau": "rational-v1", "pairs": [], "depth": 100})
    )
    code, out, err = run(
        capsys, "randomizer", "--seed", "2", "--verify", str(cert_file)
    )
    assert code == 4 and out == "" and "verification failed" in err


@pytest.mark.parametrize(
    "cert",
    [
        {},
        [],
        {"seed": 2, "tau": "rational-v1", "pairs": [[0]], "depth": 1},
        {"seed": 2, "tau": "rational-v1", "pairs": [[0, -1]], "depth": 1},
        {"seed": 2, "tau": "rational-v1", "pairs": [[0, 0]], "depth": "1"},
        {"seed": "2", "tau": "rational-v1", "pairs": [[0, 0]], "depth": 1},
    ],
)
def test_randomizer_verify_malformed_exit_2(tmp_path, capsys, cert):
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(json.dumps(cert))
    code, out, err = run(
        capsys, "randomizer", "--seed", "2", "--verify", str(cert_file)
    )
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: certificate")


_SEED_DEPTH = "error: certificate seed must be an integer, depth a natural\n"
_PAIRS = "error: certificate pairs must be [a, b] pairs of naturals\n"


@pytest.mark.parametrize(
    "cert, message",
    [
        # JSON booleans are no integers, though Python's bool subclasses int;
        # read as integers, these would verify against the stream of seed 1
        ({"seed": True, "tau": "rational-v1", "pairs": [[False, True], [True, False]],
          "depth": True}, _SEED_DEPTH),
        ({"seed": True, "tau": "rational-v1", "pairs": [[0, 0]], "depth": 1},
         _SEED_DEPTH),
        ({"seed": 1, "tau": "rational-v1", "pairs": [[0, 0]], "depth": True},
         _SEED_DEPTH),
        ({"seed": 1, "tau": "rational-v1", "pairs": [[0, False]], "depth": 1}, _PAIRS),
    ],
)
def test_randomizer_verify_boolean_exit_2(tmp_path, capsys, cert, message):
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(json.dumps(cert))
    code, out, err = run(
        capsys, "randomizer", "--seed", "1", "--verify", str(cert_file)
    )
    assert (code, out, err) == (2, "", message)


@pytest.mark.parametrize(
    "pairs, code, message",
    [
        # an image past the stream's indices overflowed its key derivation
        ([[0, 2**64], [1, 0]], 2,
         "error: certificate images must be stream indices below 2^64\n"),
        # a code of p + q near 2^35 grew the totient sieve past 4 GB
        ([[2**70, 0], [0, 1]], 3,
         f"cap exceeded: code {2**70} exceeds 163198674, the last with"
         " p + q <= rational code cap 16384\n"),
    ],
)
def test_randomizer_verify_refuses_crafted_pairs(
    tmp_path, capsys, monkeypatch, pairs, code, message
):
    grow = fraisse._CodeTable._grow

    def bounded(table, s):  # fail fast rather than sieve toward 2^35
        assert s <= fraisse.RATIONAL_CODE_CAP + 1, f"sieve grown to {s}"
        grow(table, s)

    monkeypatch.setattr(fraisse._CodeTable, "_grow", bounded)
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(
        json.dumps({"seed": 1, "tau": "rational-v1", "pairs": pairs, "depth": 1})
    )
    t0 = time.process_time()
    got = run(capsys, "randomizer", "--seed", "1", "--verify", str(cert_file))
    assert time.process_time() - t0 < 1
    assert got == (code, "", message)


def test_readme_command_block_runs(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line\n\n```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert commands and all(argv[0] == "uminflow" for argv in commands)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bits.txt").write_text("1011001110\n")
    for argv in commands:  # the --verify line reads the cert.json written before it
        assert main(argv[1:]) == 0, argv


# -- the subcommand parser against the full one


def _captured(parse, argv):
    """(Namespace or None, exit code or None, stdout, stderr) of one parse."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            args, code = parse(argv), None
        except SystemExit as exc:
            args, code = None, exc.code
    return args, code, out.getvalue(), err.getvalue()


def _full_parse(argv):
    return cli._build_parser().parse_args(argv)


# per command: valid arguments, a bad value, and a missing required argument
# (an option without its value where the command requires none)
COMMAND_ARGV = {
    "measure": (["ord(0<1)"], ["--method", "fast", "ord(0<1)"], []),
    "sample": (["--seed", "1", "--n", "3"], ["--seed", "one", "--n", "3"], ["--n", "3"]),
    "test": ([], ["--depth", "deep"], ["--depth"]),
    "iso": ([], ["--depth", "1.5"], ["--a"]),
    "randomizer": (["--seed", "2"], ["--seed", "2", "--depth", "deep"], []),
    "encode": (["bits.txt"], ["bits.txt", "--direction", "up"], []),
}
# per command: the arguments it takes, each by its flags or its name, -h aside
COMMAND_OPTIONS = {
    "measure": {"expr", "--method", "-k/--precision", "--format", "--out",
                "--cap-support"},
    "sample": {"--seed", "--n", "--kind", "--format", "--out"},
    "test": {"--seed", "--seeds", "--stream", "--families", "--depth", "--pair",
             "--point", "--format", "--out", "--cap-poset"},
    "iso": {"--a", "--b", "--depth", "--out", "--cap-poset"},
    "randomizer": {"--seed", "--tau", "--depth", "--verify", "--out", "--cap-poset"},
    "encode": {"input", "--direction", "--out"},
}
# the output and cap options that a command does not read, and so does not take
DROPPED = [
    (name, option, value)
    for name, options in COMMAND_OPTIONS.items()
    for option, value in (("--format", "json"), ("--cap-support", "9"),
                          ("--cap-poset", "9"))
    if option not in options
]
PARSE_EXITS = [
    [], ["-h"], ["--help"], ["bogus"], ["bogus", "--seed", "1"], ["tes"],
    *(
        argv
        for name, (valid, bad, missing) in COMMAND_ARGV.items()
        for argv in (
            [name, "--help"],
            [name, *bad],
            [name, *missing],
            [name, *valid, "--bogus"],
            [name, *valid, "stray"],
        )
    ),
]


@pytest.mark.parametrize("argv", PARSE_EXITS, ids=" ".join)
def test_main_prints_what_the_full_parser_prints(argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    _, full_code, full_out, full_err = _captured(_full_parse, argv)
    assert (code, out.getvalue(), err.getvalue()) == (full_code, full_out, full_err)
    assert code in (0, 2)


@pytest.mark.parametrize(
    "name, add",
    [command[::2] for command in cli._COMMANDS],
    ids=[command[0] for command in cli._COMMANDS],
)
def test_each_command_takes_only_the_options_it_reads(name, add):
    parser = argparse.ArgumentParser()
    add(parser)
    taken = {"/".join(a.option_strings) or a.dest for a in parser._actions}
    assert taken - {"-h/--help"} == COMMAND_OPTIONS[name]


@pytest.mark.parametrize(
    "name, option, value", DROPPED, ids=[" ".join(case) for case in DROPPED]
)
def test_dropped_options_exit_2_as_through_the_full_parser(name, option, value):
    argv = [name, *COMMAND_ARGV[name][0], option, value]
    err = StringIO()
    with redirect_stderr(err):
        code = main(argv)
    _, full_code, _, full_err = _captured(_full_parse, argv)
    assert code == full_code == 2 and err.getvalue() == full_err
    assert full_err.endswith(f"error: unrecognized arguments: {option} {value}\n")


@pytest.mark.parametrize("name", COMMAND_ARGV)
def test_unrecognized_arguments_show_every_command(name):
    valid = COMMAND_ARGV[name][0]
    _, code, out, err = _captured(cli._parse_args, [name, *valid, "--bogus"])
    assert code == 2 and out == ""
    assert err.startswith(
        "usage: uminflow [-h] {measure,sample,test,iso,randomizer,encode} ...\n"
    )
    assert err.endswith("uminflow: error: unrecognized arguments: --bogus\n")


@pytest.mark.parametrize("name", COMMAND_ARGV)
def test_valid_arguments_parse_to_the_full_parsers_namespace(name):
    argv = [name, *COMMAND_ARGV[name][0]]
    args = cli._parse_args(argv)
    assert args == _full_parse(argv) and args.command == name


_OUT_AND_CAP = {"--out": ("out.json",), "--cap-poset": ("9",)}
# per command: its options, each with values that parse
_OPTION_VALUES = {
    "test": {"--seed": ("0", "-3"), "--seeds": ("0:4",), "--depth": ("0", "9"),
             "--stream": ("poset-canon",), "--families": ("poset",),
             "--pair": ("0,2",), "--point": ("2",), "--format": ("json", "text"),
             **_OUT_AND_CAP},
    "iso": {"--a": ("rational-v2",), "--b": ("poset-canon",), "--depth": ("150",),
            **_OUT_AND_CAP},
    "randomizer": {"--seed": ("7",), "--tau": ("rational-v2",), "--depth": ("5",),
                   "--verify": ("cert.json",), **_OUT_AND_CAP},
}
# abbreviations, an ambiguous prefix, another command's option, an unknown
# one, help, a bare "--" and stray values
_ODD_TOKENS = ["--dep", "--se", "--seed=4", "--tau", "--bogus", "-h", "--", "x", "1.5"]


@st.composite
def _argvs(draw):
    """A command among test, iso and randomizer, then mostly its own options
    with values that parse, and up to two odd tokens among them."""
    name = draw(st.sampled_from(sorted(_OPTION_VALUES)))
    options = _OPTION_VALUES[name]
    args = [
        (option, draw(st.sampled_from(options[option])))
        for option in draw(st.lists(st.sampled_from(sorted(options)), max_size=5))
    ]
    for token in draw(st.lists(st.sampled_from(_ODD_TOKENS), max_size=2)):
        args.insert(draw(st.integers(0, len(args))), (token,))
    return [name, *(token for arg in args for token in arg)]


@settings(max_examples=300, deadline=None)
@given(_argvs())
def test_random_tails_parse_as_through_the_full_parser(argv):
    assert _captured(cli._parse_args, argv) == _captured(_full_parse, argv)
