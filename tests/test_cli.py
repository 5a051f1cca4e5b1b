import gc
import hashlib
import io
import json
import time
import weakref
from contextlib import redirect_stdout
from fractions import Fraction as F

import jsonschema
import pytest
from click.testing import CliRunner

from conftest import SCHEMA_DIR
from rtdensity import (
    WeightedGraph,
    complete_balanced,
    dumps_graph,
    parse_fraction,
    realize_spec,
    rho,
)
from rtdensity import cli
from rtdensity.cli import AUDIT_SKELETON_LIMIT, DENSITY_SIZE_LIMIT, main
from rtdensity.partitions import enumerate_specs, spec_count
from rtdensity.sphere import MAX_H, MAX_N
from rtdensity.verify import (
    BASIS_M_LIMIT,
    SEARCH_SPACE_LIMIT,
    WEIGHT_CELL_LIMIT,
    SearchConfig,
    search_space_size,
    search_weight_cells,
)
from rtdensity.weighted import EnumerationLimitError


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def k5_file(tmp_path):
    path = tmp_path / "k5.json"
    path.write_text(dumps_graph(complete_balanced(5)))
    return str(path)


@pytest.fixture
def counterexample_file(tmp_path):
    edges = {}
    for u in range(6):
        for v in range(u + 1, 6):
            edges[(u, v)] = F(1)
    for u, v in [(0, 1), (2, 3), (4, 5)]:
        edges[(u, v)] = F(1, 2)
    g = WeightedGraph.build([F(1, 6)] * 6, edges)
    path = tmp_path / "r63.json"
    path.write_text(dumps_graph(g))
    return str(path)


def validate_schema(payload: dict, name: str):
    schema = json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())
    jsonschema.Draft202012Validator(schema).validate(payload)


def run_json(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


def test_density_json_and_schema(runner):
    payload = run_json(runner, ["density", "--s", "2", "--t", "4"])
    assert payload["density"]["exact"] == "1/4"
    assert payload["best"]["b"] == 2
    assert all(
        parse_fraction(r["certified"]["exact"]) <= parse_fraction(r["upper"]["exact"])
        for r in payload["per_spec"]
    )
    validate_schema(payload, "density")


def test_density_byte_identical(runner):
    a = runner.invoke(main, ["density", "--s", "5", "--t", "11"])
    b = runner.invoke(main, ["density", "--s", "5", "--t", "11"])
    assert a.output == b.output


# stdout sha256 of every command but realize, whose floats come from LAPACK:
# the output contract across changes to the engine and the report path. A
# deliberate output change must update these values.
GOLDEN_SHA256 = {
    "density --s 5 --t 11": "78bf30122674c0f3d7175b7a97f141572957290ab92ac08209e2e67051e33b20",
    "density --s 2 --t 9": "29fa15b8be745a5a6998e0eadd1cd747ca942b1bff27c3ce09fbc45254bd14f1",
    "density --s 3 --t 6 --format csv": "d731e906b0fc83cc1c650708bcddc0bca37e0bafacf40e24a10316e5dc393fbd",
    "audit --s 5 --t-min 7 --t-max 30": "db96139142ce8de1310144df0775cfe319213727cca6f76d888b7cfb013377f8",
    "audit --s 40 --t-min 80 --t-max 81": "682247fc9b3febd37a5797e9bfa1739936860920583d46bab4499fa685fada39",
    "density --s 40 --t 81": "37415830d14127980ec15e0d3c8e28e938d15e03a69dc4d55a8bc517674e1f9e",
    "audit --s 5 --t-min 7 --t-max 30 --format csv": "4c2281fec31e799099782ac2b04c8b4b2353697bba7cd24849704f9af1d01f45",
    "audit --s 5 --t-min 7 --t-max 30 --format text": "cf591164db4e91c9c0237eac49cd7f9f3d54dcedbc49025ca60fd55b305a4faf",
    "density --s 5 --t 11 --format csv": "23ea6933339c1ae34dbed9bb946f3ca6794efe938d790603ae7fe83265a8af5a",
    "density --s 5 --t 11 --format text": "f104db2afd9d8ddaf8d988b23f1255b5cf595032dca98f968d73162181e492fb",
    "check --graph {k5} --t 10 --format csv": "58a99b98cc63c0137aeada4fcbe5f3aa5c6cef94b5707b21c2ca7fad204281a4",
    "check --graph {k5} --t 10 --format text": "70a52a03dd161ea9a5ef09f23518eabd5de4f8c80eddc18816f41dde8b46b0c8",
    # free: the witness columns are empty
    "check --graph {k5} --t 11 --format csv": "8e1dd3d6d297720299777e1dcb8e28d2d27a774fe734127a4dfa658b467bcbdc",
    "check --graph {k5} --t 11 --format text": "80e5bd576b44aba3a84ef477e8f0ac1fc56ebb9019085a20b0178ec76cd795ac",
    "search --n 5 --s 5 --t 11 -d 15 --format csv": "b26820def1e8bd1d17c4c3a63d1eb5093bf6493a3785747930426706fbfcf1ea",
    "search --n 5 --s 5 --t 11 -d 15 --format text": "daafce59d20fdb1cb46d65ba6dc46bd83f674962e309a38d4cfe71abcd30da96",
    "search --n 4 --s 4 --t 9 -d 12 --alphabet 0,1/2,1 --format csv": "5876f6619ff2b703638350a1e7950c333a311144296949a67243c7ae6dd6e4e7",
    "search --n 4 --s 4 --t 9 -d 12 --alphabet 0,1/2,1 --format text": "46fb6af99ee8e0f23c00152a4abd96ff4d840b117a8bbc2d6a262f3b9f367fee",
    "coeffs --m 6 --format csv": "b6b84e85f62975d76c7afd0b656936472d11308c596fbcf421caac50f3d82c6e",
    "coeffs --m 6 --format text": "1a6005d3ff9abd6b46588cb81a4e3a63d4b024450892f98fdb3dfd60f804116b",
    "structure --graph {r63} --s 5 --t 10 --format csv": "2fdb4fb62ae7983c7c2a86c48ff706a0fa409971333f9388bcd86b88d0764e1a",
    "structure --graph {r63} --s 5 --t 10 --format text": "9c70d894cfeaae1e40f18bef72a73a5b9acab892dd9bc2544529103f817f445f",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_SHA256))
def test_output_matches_golden_sha256(runner, k5_file, counterexample_file, command):
    result = runner.invoke(main, command.format(k5=k5_file, r63=counterexample_file).split())
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == GOLDEN_SHA256[command]


def test_audit_json_and_schema(runner):
    payload = run_json(runner, ["audit", "--s", "5", "--t-min", "10", "--t-max", "11"])
    assert len(payload["rows"]) == 2
    assert all(row["counterexample"] for row in payload["rows"])
    validate_schema(payload, "audit")


def test_check_json_and_schema(runner, k5_file, tmp_path):
    payload = run_json(runner, ["check", "--graph", k5_file, "--t", "10"])
    assert payload["free"] is False and payload["score"] == 10
    assert payload["trimmed"]["score"] == 10
    validate_schema(payload, "check")
    payload = run_json(runner, ["check", "--graph", k5_file, "--t", "11"])
    assert payload["free"] is True and payload["witness"] is None
    validate_schema(payload, "check")
    # past 32 vertices a graph that is not free still gets a trimmed witness
    k33 = tmp_path / "k33.json"
    k33.write_text(dumps_graph(complete_balanced(33)))
    payload = run_json(runner, ["check", "--graph", str(k33), "--t", "66"])
    assert payload["free"] is False and payload["score"] == 66
    assert payload["trimmed"] == {"s1": list(range(33)), "s2": list(range(33)), "score": 66}
    validate_schema(payload, "check")


def test_search_json_and_schema(runner):
    payload = run_json(
        runner,
        ["search", "--n", "3", "--s", "3", "--t", "5", "--denominator", "6"],
    )
    assert payload["density"]["exact"] == "1/36"
    validate_schema(payload, "search")
    validate_schema(payload["best_graph"], "graph")


def test_density_refuses_output_over_limit_before_optimizing(runner, monkeypatch):
    def printed(t):
        return sum(spec.a for spec in enumerate_specs(5, t))

    assert printed(3086) <= DENSITY_SIZE_LIMIT < printed(3087)
    optimized = []

    def stub_rho(s, t):
        optimized.append(t)
        raise RuntimeError("stub: the limit check passed")

    monkeypatch.setattr(cli, "rho", stub_rho)
    result = runner.invoke(main, ["density", "--s", "5", "--t", "3087"])
    assert result.exit_code == 3
    # one stderr line and nothing on stdout
    assert result.output == f"refused: {printed(3087)} part sizes to print exceed the limit of {DENSITY_SIZE_LIMIT}\n"
    assert optimized == []
    result = runner.invoke(main, ["density", "--s", "5", "--t", "3086"])
    assert isinstance(result.exception, RuntimeError) and optimized == [3086]


def test_density_refusal_at_huge_t_is_constant_time(runner, monkeypatch):
    monkeypatch.setattr(cli, "rho", None)  # the refusal comes before any optimization
    start = time.perf_counter()
    result = runner.invoke(main, ["density", "--s", "5", "--t", "10000000"])
    elapsed = time.perf_counter() - start
    assert result.exit_code == 3 and result.stdout == ""
    assert result.output.startswith("refused: 10499998500000 part sizes")
    assert elapsed < 0.5


def audit_t_past_limit(s, t_min):
    """The least t_max at which audit's skeleton count over t_min..t_max
    passes AUDIT_SKELETON_LIMIT, and that count."""
    t, total = t_min, spec_count(s, t_min)
    while total <= AUDIT_SKELETON_LIMIT:
        t += 1
        total += spec_count(s, t)
    return t, total


def test_audit_refuses_skeleton_count_over_limit_before_auditing(runner, monkeypatch):
    t_max, total = audit_t_past_limit(3, 5)
    assert total - spec_count(3, t_max) <= AUDIT_SKELETON_LIMIT < total
    assert spec_count(3, t_max) == len(enumerate_specs(3, t_max))
    audited = []

    def stub_audit(s, t):
        audited.append(t)
        raise RuntimeError("stub: the limit check passed")

    monkeypatch.setattr(cli, "audit_conjecture", stub_audit)
    result = runner.invoke(main, ["audit", "--s", "3", "--t-min", "5", "--t-max", str(t_max)])
    assert result.exit_code == 3 and result.stdout == ""
    assert result.output == (
        f"refused: {total} skeletons to audit up to t = {t_max} exceed the limit of {AUDIT_SKELETON_LIMIT}\n"
    )
    assert audited == []
    result = runner.invoke(main, ["audit", "--s", "3", "--t-min", "5", "--t-max", str(t_max - 1)])
    assert isinstance(result.exception, RuntimeError) and audited == [5]


def test_search_refusal_exit_code(runner):
    result = runner.invoke(
        main,
        ["search", "--n", "6", "--s", "3", "--t", "8", "--denominator", "40",
         "--alphabet", "0,1/2,1"],
    )
    assert result.exit_code == 3
    assert "refused" in result.output


def test_search_over_weight_memory_limit_exit_3(runner):
    # under the state limit, but the stored weight products would not fit the
    # memory budget; the refusal comes before any of them is built
    def cfg(d):
        return SearchConfig(3, d, (F(1, 2), F(1)), 3, 5)

    assert search_weight_cells(cfg(2237)) <= WEIGHT_CELL_LIMIT < search_weight_cells(cfg(2238))
    assert search_space_size(cfg(2238)) <= SEARCH_SPACE_LIMIT
    result = runner.invoke(main, ["search", "--n", "3", "--s", "3", "--t", "5", "-d", "2238"])
    assert result.exit_code == 3
    assert result.output.startswith("refused: ") and result.output.count("\n") == 1
    assert "weight" in result.output


def test_search_without_result_exit_2(runner):
    no_free = (
        ["--n", "2", "--s", "2", "--t", "2", "-d", "2"],
        ["--n", "3", "--s", "3", "--t", "5", "-d", "3", "--alphabet", "1,1"],
    )
    for args in no_free:
        result = runner.invoke(main, ["search"] + args)
        assert result.exit_code == 2
        assert result.output == "error: no t-free graph in the search space\n"
    result = runner.invoke(main, ["search", "--n", "3", "--s", "-1", "--t", "5", "-d", "3"])
    assert result.exit_code == 2
    assert "s must be nonnegative" in result.output
    assert "Traceback" not in result.output


def test_coeffs_json_text_and_schema(runner):
    payload = run_json(runner, ["coeffs", "--m", "2"])
    assert [c["exact"] for c in payload["coefficients"]] == ["1", "1"]
    assert payload["all_positive"] is True
    validate_schema(payload, "coeffs")
    result = runner.invoke(main, ["coeffs", "--m", "2", "--format", "text"])
    assert result.output == "c_0=1, c_1=1\n"


def test_coeffs_refuses_above_limit(runner):
    result = runner.invoke(main, ["coeffs", "--m", str(BASIS_M_LIMIT + 1)])
    assert result.exit_code == 3
    # one stderr line and no payload
    assert result.output == f"refused: m = {BASIS_M_LIMIT + 1} exceeds the limit of {BASIS_M_LIMIT}\n"


def test_structure_refuses_negative_s_and_t(runner, k5_file):
    for args in (["--s", "-2", "--t", "11"], ["--s", "5", "--t", "-1"], ["--s", "5", "--t", "0"]):
        result = runner.invoke(main, ["structure", "--graph", k5_file] + args)
        assert result.exit_code == 2, args
        assert "Traceback" not in result.output


def test_structure_a5_holds_at_s2(runner, tmp_path):
    # rho(2, 6)'s winner: parts of sizes 2 and 1
    res = rho(2, 6)
    best = res.per_spec[res.best_index]
    assert best.spec.part_sizes == (2, 1)
    path = tmp_path / "winner.json"
    path.write_text(dumps_graph(realize_spec(best.spec, best.weights)))
    payload = run_json(runner, ["structure", "--graph", str(path), "--s", "2", "--t", "6"])
    assert payload["a5"] is True and payload["all_hold"] is True


def check_rejects(runner, tmp_path, text: str, fragment: str):
    path = tmp_path / "g.json"
    path.write_text(text)
    result = runner.invoke(main, ["check", "--graph", str(path), "--t", "3"])
    assert result.exit_code == 2, result.output  # a traceback exits 1
    assert fragment in result.output


@pytest.mark.parametrize(
    "text",
    [
        '{"vertices": [{"id": 0, "w": 1}]}',
        '{"vertices": [{"id": 0, "w": "1/2"}, {"id": 1, "w": 0.5}]}',
        '{"vertices": [{"id": 0, "w": "1/2"}, {"id": 1, "w": "1/2"}], "edges": [{"u": 0, "v": 1, "w": 1}]}',
    ],
)
def test_graph_file_rejects_numeric_weights(runner, tmp_path, text):
    check_rejects(runner, tmp_path, text, '"p/q" string')


@pytest.mark.parametrize(
    "text",
    [
        '{"vertices": [{"id": 0, "w": "1"}], "extra": 1}',
        '{"vertices": [{"id": 0, "w": "1", "label": "a"}]}',
        '{"vertices": [{"id": 0, "w": "1/2"}, {"id": 1, "w": "1/2"}], "edges": [{"u": 0, "v": 1, "w": "1", "x": 0}]}',
    ],
)
def test_graph_file_rejects_unknown_keys(runner, tmp_path, text):
    check_rejects(runner, tmp_path, text, "keys")


@pytest.mark.parametrize(
    "text",
    [
        '{"vertices": 5}',
        '{"vertices": [{"id": 0, "w": "1"}], "edges": 3}',
        '{"vertices": [{"id": 0, "w": "1"}], "edges": {"u": 0}}',
    ],
)
def test_graph_file_rejects_non_list_members(runner, tmp_path, text):
    check_rejects(runner, tmp_path, text, "'vertices' list")


def test_structure_json_and_schema(runner, counterexample_file):
    payload = run_json(
        runner, ["structure", "--graph", counterexample_file, "--s", "5", "--t", "10"]
    )
    assert payload["all_hold"] is True
    assert payload["partition"] == [[0, 1], [2, 3], [4, 5]]
    validate_schema(payload, "structure")


def test_realize_json_schema_and_edge_file(runner, counterexample_file, tmp_path):
    out = tmp_path / "edges.txt"
    payload = run_json(
        runner,
        [
            "realize", "--graph", counterexample_file, "--N", "60",
            "--epsilon", "0.2", "--h", "16", "--seed", "7", "--out", str(out),
            "--s", "5",
        ],
    )
    assert payload["stats"]["contains_kt"]["value"] is False
    assert payload["stats"]["contains_kt"]["t"] == 10
    validate_schema(payload, "realize")
    header = out.read_text().splitlines()[0]
    assert header == "60 parts=[10,10,10,10,10,10]"


def test_realize_byte_identical(runner, counterexample_file, tmp_path):
    args = [
        "realize", "--graph", counterexample_file, "--N", "30",
        "--epsilon", "0.2", "--h", "16", "--seed", "3",
        "--out", str(tmp_path / "e.txt"), "--s", "3",
    ]
    a = runner.invoke(main, args)
    b = runner.invoke(main, args)
    assert a.exit_code == 0 and a.output == b.output


def realize_args(graph, out, *extra):
    return [
        "realize", "--graph", graph, "--N", "16", "--epsilon", "0.2", "--h", "16",
        "--out", str(out), *extra,
    ]


def test_realize_negative_s_exit_2(runner, counterexample_file, tmp_path):
    result = runner.invoke(main, realize_args(counterexample_file, tmp_path / "e", "--s", "-1"))
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    payload = run_json(runner, realize_args(counterexample_file, tmp_path / "e", "--s", "0"))
    assert payload["stats"]["ks_estimate"] == {"s": 0, "samples": 20000, "estimate": 1.0}


def test_realize_t_below_one_exit_2(runner, counterexample_file, tmp_path):
    for t in ("-3", "0"):
        result = runner.invoke(main, realize_args(counterexample_file, tmp_path / "e", "--t", t))
        assert result.exit_code == 2
        assert "Traceback" not in result.output
        assert "--t" in result.output


def test_realize_unwritable_out_exit_2(runner, counterexample_file, tmp_path):
    for out in (tmp_path / "missing" / "x.edges", tmp_path):
        result = runner.invoke(main, realize_args(counterexample_file, out))
        assert result.exit_code == 2
        assert f"cannot write edge file {out}" in result.output
        assert "Traceback" not in result.output


def test_realize_over_size_limits_refused_exit_3(runner, counterexample_file, tmp_path):
    # refused before anything is allocated; the N x N matrix is never built
    for flags in (["--N", str(MAX_N + 1)], ["--h", str(MAX_H + 1)]):
        result = runner.invoke(main, realize_args(counterexample_file, tmp_path / "e") + flags)
        assert result.exit_code == 3
        assert result.output.startswith("refused: ") and result.output.count("\n") == 1


@pytest.mark.parametrize(
    "name, args",
    [
        ("rho", lambda graph, out: ["density", "--s", "5", "--t", "11"]),
        ("audit_conjecture", lambda graph, out: ["audit", "--s", "5", "--t-min", "10", "--t-max", "11"]),
        ("brute_force_extremal", lambda graph, out: SEARCH),
        ("realize", realize_args),
    ],
    ids=["rho", "audit_conjecture", "brute_force_extremal", "realize"],
)
def test_commands_call_the_patched_module_global(runner, counterexample_file, tmp_path, monkeypatch, name, args):
    # the benchmark tracer patches these names on cli; loading a command's
    # layers on first use must not bind the original over the patch
    def refuse(*args, **kwargs):
        raise EnumerationLimitError("stubbed")

    monkeypatch.setattr(cli, name, refuse)
    result = runner.invoke(main, args(counterexample_file, tmp_path / "e"))
    assert result.exit_code == 3
    assert result.output == "refused: stubbed\n"


SEARCH = ["search", "--n", "3", "--s", "2", "--t", "4", "-d", "3"]
# a malformed letter names its one reason, not Python's exception text
ALPHABET_MESSAGES = {
    "1/0": "Error: malformed rational '1/0': zero denominator",
    "abc": "Error: malformed rational 'abc': not an integer or p/q",
}
REALIZE = ["realize", "--graph", "{k5}", "--N", "16", "--epsilon", "0.2", "--h", "16", "--out", "{out}"]


@pytest.mark.parametrize(
    "args",
    [
        ["audit", "--s", "5", "--t-min", "3", "--t-max", "4"],
        ["audit", "--s", "5", "--t-min", "8", "--t-max", "7"],
        ["check", "--graph", "{k5}", "--t", "1"],
        ["check", "--graph", "{empty}", "--t", "3"],
        ["coeffs", "--m", "0"],
        [*SEARCH, "--n", "0"],
        [*SEARCH, "-d", "0"],
        [*SEARCH, "--alphabet", ""],
        [*SEARCH, "--alphabet", "2"],
        [*SEARCH, "--alphabet", "1/0"],
        [*REALIZE, "--epsilon", "2"],
        [*REALIZE, "--epsilon", "nan"],
        [*REALIZE, "--h", "3"],
        [*REALIZE, "--N", "-16"],
        [*REALIZE, "--graph", "{invalid}"],
        [*SEARCH, "--alphabet", "abc"],
        ["density", "--s", "5", "--t", "3087"],
        ["coeffs", "--m", "201"],
        ["search", "--n", "9", "--s", "2", "--t", "4", "-d", "40"],
        [*REALIZE, "--N", "5000"],
        # well-formed files that are not weighted graphs
        ["check", "--graph", "{heavy}", "--t", "3"],
        ["check", "--graph", "{negative}", "--t", "3"],
        ["structure", "--graph", "{heavy}", "--s", "2", "--t", "4"],
        ["structure", "--graph", "{negative}", "--s", "2", "--t", "4"],
        # an audit range whose skeleton count is just past the limit
        ["audit", "--s", "3", "--t-min", "5", "--t-max", str(audit_t_past_limit(3, 5)[0])],
    ],
)
def test_bad_input_exits_with_one_message(runner, tmp_path, k5_file, args):
    # every subcommand: exit 2 or 3, no traceback, and one message line; a
    # refusal prints one `refused:` line and exits 3, a flag or input error
    # click's usage block, whose one message line starts with `Error:`
    empty = tmp_path / "empty.json"
    empty.write_text('{"vertices": [], "edges": []}')
    files = {
        "invalid": WeightedGraph.build([2, -1], {(0, 1): 1}),
        "heavy": WeightedGraph.build([F(1, 2), F(1, 2)], {(0, 1): F(3, 2)}),
        "negative": WeightedGraph.build([5, -7], {(0, 1): -1}),
    }
    for name, g in files.items():
        (tmp_path / f"{name}.json").write_text(dumps_graph(g))
    names = {name: tmp_path / f"{name}.json" for name in files}
    argv = [a.format(k5=k5_file, empty=empty, out=tmp_path / "e", **names) for a in args]
    result = runner.invoke(main, argv)
    assert result.exit_code in (2, 3), result.output
    assert "Traceback" not in result.output
    messages = [
        line for line in result.output.splitlines() if line.lower().startswith(("refused:", "error:"))
    ]
    assert len(messages) == 1, result.output
    assert (result.exit_code == 3) == messages[0].startswith("refused:"), result.output
    if args[-1] in ALPHABET_MESSAGES:
        assert messages == [ALPHABET_MESSAGES[args[-1]]]


@pytest.mark.parametrize(
    "args, message",
    [
        (["density", "--s", "1", "--t", "5"], "Error: s must be at least 2"),
        (["density", "--s", "5", "--t", "6"], "Error: t must be at least s+2 = 7"),
        (["audit", "--s", "5", "--t-min", "6", "--t-max", "7"], "Error: t must be at least s+2 = 7"),
    ],
)
def test_invalid_st_names_the_bound(runner, args, message):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert [line for line in result.output.splitlines() if line.startswith("Error:")] == [message]


def test_malformed_graph_exit_2_with_line(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": [{"id": 0,\n')
    result = runner.invoke(main, ["check", "--graph", str(bad), "--t", "4"])
    assert result.exit_code == 2
    assert "line" in result.output


def test_unknown_flag_exit_2(runner):
    result = runner.invoke(main, ["density", "--s", "2", "--bogus", "1"])
    assert result.exit_code == 2


def test_csv_and_text_formats(runner, k5_file):
    for fmt in ("csv", "text"):
        result = runner.invoke(
            main, ["check", "--graph", k5_file, "--t", "10", "--format", fmt]
        )
        assert result.exit_code == 0
        assert "10" in result.output
    result = runner.invoke(
        main, ["density", "--s", "2", "--t", "6", "--format", "csv"]
    )
    assert result.exit_code == 0
    header = result.output.splitlines()[0]
    assert header.startswith("b,a,part_sizes")


def test_density_exact_past_int_str_digit_limit(runner):
    # the exact denominator has more than Python's default 4300 digits
    payload = run_json(runner, ["density", "--s", "169", "--t", "171"])
    assert parse_fraction(payload["density"]["exact"]) == rho(169, 171).density


def test_in_process_call_releases_redirected_stdout():
    buf = io.StringIO()
    with redirect_stdout(buf):
        main.main(args=["coeffs", "--m", "3"], prog_name="rtdensity", standalone_mode=False)
    assert json.loads(buf.getvalue())["command"] == "coeffs"
    ref = weakref.ref(buf)
    del buf
    gc.collect()
    assert ref() is None
