import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import chroma.chromatic as chromatic
from chroma.cli import SUITES, _scan_verdict, main, run_suite, scan_epositivity
from chroma.errors import BadParameter, NonIdentityPermutation, TooLarge


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# csf


def test_csf_complete_pair(capsys):
    code, out, _ = run(capsys, "csf", "--uio", "3,3", "--basis", "e")
    assert code == 0
    assert json.loads(out) == {"2": 2}


def test_csf_two_chain(capsys):
    code, out, _ = run(capsys, "csf", "--uio", "2,3", "--basis", "e")
    assert code == 0
    assert json.loads(out) == {"1,1": 1}


def test_csf_path_three(capsys):
    code, out, _ = run(capsys, "csf", "--uio", "3,4,4", "--basis", "e")
    assert code == 0
    assert json.loads(out) == {"2,1": 1, "3": 3}


def test_csf_partition_filter(capsys):
    code, out, _ = run(
        capsys, "csf", "--uio", "3,4,4", "--basis", "e", "--partition", "3"
    )
    assert code == 0
    assert json.loads(out) == {"3": 3}


def test_csf_text_format_mentions_flags(capsys):
    code, out, _ = run(capsys, "csf", "--uio", "3,4,4", "--format", "text")
    assert code == 0
    assert "ePositive=True" in out and "sinkCheck=True" in out


def test_csf_json_and_csv_skip_the_positivity_report(capsys, monkeypatch):
    # only the text format prints the sink check, so the other formats
    # never count acyclic orientations
    import chroma.chromatic as chromatic

    outputs = {}
    for fmt in ("json", "csv"):
        for basis in "emps":
            argv = ("csf", "--uio", "3,4,5,5", "--basis", basis, "--format", fmt)
            outputs[argv] = run(capsys, *argv)

    def refuse(g):
        raise AssertionError("csf counted sinks for a format that omits them")

    monkeypatch.setattr(chromatic, "acyclic_orientation_sinks", refuse)
    for argv, expected in outputs.items():
        assert run(capsys, *argv) == expected
    e_json = ("csf", "--uio", "3,4,5,5", "--basis", "e", "--format", "json")
    assert json.loads(outputs[e_json][1]) == {"4": 4, "3,1": 2, "2,2": 2}


def test_csf_rejects_malformed_vector(capsys):
    code, _, err = run(capsys, "csf", "--uio", "2,2")
    assert code == 2
    assert "error" in err


def test_usage_error_exit_code(capsys):
    assert main(["csf"]) == 2  # missing --uio
    capsys.readouterr()


# ---------------------------------------------------------------------------
# verify


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "nosuchsuite")
    assert code == 2
    assert "unknown suite" in err


def test_verify_ppos_small(capsys):
    code, out, _ = run(
        capsys, "verify", "ppos", "--max-n", "3", "--max-k", "3"
    )
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["instances"] == (1 + 2 + 5) * 3


def test_verify_instance_replay(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "ppos",
        "--instance",
        json.dumps({"uio": "3,4,4", "k": 2}),
    )
    assert code == 0
    assert json.loads(out)["instances"] == 1


def test_verify_replay_accepts_full_failure_payload(capsys):
    # failure payloads carry a detail key; feeding one back must still work
    payload = {"uio": "3,4,4", "k": 2, "detail": {"lhs": "...", "rhs": "..."}}
    code, out, _ = run(capsys, "verify", "ppos", "--instance", json.dumps(payload))
    assert code == 0
    assert json.loads(out)["instances"] == 1


def test_verify_sink_small(capsys):
    code, out, _ = run(capsys, "verify", "sink", "--max-n", "3")
    assert code == 0
    data = json.loads(out)
    # all graphs on <= 3 vertices plus threshold graphs one element larger
    assert data["instances"] == (1 + 2 + 8) + (1 + 2 + 5 + 14)


def test_verify_sink_empty_graph_replay(capsys):
    # one empty orientation with no sinks, and X of the empty graph is e_()
    inst = {"graph": {"n": 0, "edges": []}}
    code, out, _ = run(capsys, "verify", "sink", "--instance", json.dumps(inst))
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True and data["failures"] == []


def test_verify_text_and_csv_formats(capsys):
    code, out, _ = run(
        capsys, "verify", "cauchy", "--max-n", "2", "--format", "text"
    )
    assert code == 0 and "suite cauchy" in out
    code, out, _ = run(
        capsys, "verify", "cauchy", "--max-n", "2", "--format", "csv"
    )
    assert code == 0 and out.startswith("suite,instance,ok")


@pytest.mark.parametrize(
    "suite,bounds",
    [
        ("eposn", ("--max-n", "4")),
        ("lgv", ("--max-n", "3", "--max-k", "3")),
        ("gasharov", ("--max-n", "3", "--max-k", "3")),
        ("gnechrom", ("--max-n", "3", "--max-k", "4")),
        ("involutions", ("--max-n", "3", "--max-k", "3")),
        ("thn1", ("--max-n", "3", "--max-k", "3")),
        ("scottsuppes", ("--max-n", "4")),
    ],
)
def test_verify_suites_small_bounds(capsys, suite, bounds):
    code, out, _ = run(capsys, "verify", suite, *bounds)
    assert code == 0, out
    assert json.loads(out)["ok"] is True


def test_verify_failure_exits_one(capsys, monkeypatch):
    import chroma.cli as cli

    forced = cli.SUITES["cauchy"]._replace(
        check=lambda d: (False, {"reason": "forced"})
    )
    monkeypatch.setitem(cli.SUITES, "cauchy", forced)
    code, out, _ = run(capsys, "verify", "cauchy", "--max-n", "1")
    assert code == 1
    data = json.loads(out)
    assert data["failures"][0]["detail"] == {"reason": "forced"}
    assert data["failures"][0]["outcome"] == "fail"


def test_verify_fail_outranks_budget(capsys, monkeypatch):
    import chroma.cli as cli

    def check(d):
        if d == 1:
            raise TooLarge("forced")
        return False, {"reason": "forced"}

    forced = cli.SUITES["cauchy"]._replace(check=check)
    monkeypatch.setitem(cli.SUITES, "cauchy", forced)
    code, out, _ = run(capsys, "verify", "cauchy", "--max-n", "2")
    assert code == 1
    outcomes = [f["outcome"] for f in json.loads(out)["failures"]]
    assert outcomes == ["budget", "fail"]
    code, _, _ = run(capsys, "verify", "cauchy", "--max-n", "1")
    assert code == 3


def test_gnechrom_replays_a_fifteen_vertex_clan_graph(capsys):
    # the clan graph has 15 vertices and 12,962,661 stable partitions; they
    # are counted by block sizes, not listed one by one
    inst = {"uio": "2,3,4", "alpha": [5, 5, 5]}
    code, out, _ = run(capsys, "verify", "gnechrom", "--instance", json.dumps(inst))
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_involutions_enumerate_the_grid_once(monkeypatch):
    import chroma.corrects as corrects

    calls = []
    original = corrects.enumerate_multipaths

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(corrects, "enumerate_multipaths", counted)
    rep = run_suite("involutions", instance={"uio": "3,4,4", "k": 3})
    assert rep.ok, rep.failures
    assert len(calls) == 1


def test_lgv_never_lists_every_multipath(monkeypatch):
    import chroma.lgvgrid as lgvgrid

    def refuse(*args, **kwargs):
        raise AssertionError("lgv listed every multipath")

    monkeypatch.setattr(lgvgrid, "enumerate_multipaths", refuse)
    rep = run_suite("lgv", instance={"uio": "3,4,4", "partition": "2,1"})
    assert rep.ok, rep.failures


@pytest.mark.parametrize(
    "suite, inst",
    [
        ("involutions", {"uio": "3,4,4", "k": 3}),
        ("lgv", {"uio": "3,4,4", "partition": "2,1"}),
        ("gasharov", {"uio": "3,4,4", "partition": "2,1"}),
    ],
)
def test_grid_sums_build_no_one_term_polynomials(capsys, monkeypatch, suite, inst):
    # path, family and weight-form sums count coefficients per monomial and
    # build each polynomial once
    from chroma.polyring import Polynomial

    def refuse(*args, **kwargs):
        raise AssertionError("a sum built a one-term polynomial")

    monkeypatch.setattr(Polynomial, "monomial", refuse)
    code, out, _ = run(capsys, "verify", suite, "--instance", json.dumps(inst))
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_lgv_names_a_non_identity_multipath(capsys, monkeypatch):
    import chroma.cli as cli
    from chroma.lgvgrid import Multipath, grid_path_from_vertices

    p1 = grid_path_from_vertices([(1, 1), (2, 3), (2, 4)], 5)
    p2 = grid_path_from_vertices([(2, 1), (2, 2), (3, 4)], 5)
    swapped = Multipath([p2, p1], (2, 1))

    def lgv_check(g):
        swapped.require_identity()

    monkeypatch.setattr(cli, "lgv_check", lgv_check)
    payload = {"uio": "3,4,4", "partition": "1,1"}
    code, out, _ = run(capsys, "verify", "lgv", "--instance", json.dumps(payload))
    assert code == 1
    [failure] = json.loads(out)["failures"]
    assert failure["outcome"] == "fail"
    assert failure["detail"] == {
        "error": "NonIdentityPermutation",
        "reason": "disjoint multipath with sigma=[2, 1]",
        "multipath": swapped.to_json(),
    }
    # uncaught, the error still reads as its one-line message
    with pytest.raises(NonIdentityPermutation) as info:
        swapped.require_identity()
    assert str(info.value) == "disjoint multipath with sigma=[2, 1]"


def test_thn1_refuses_l_below_two_before_the_check(capsys, monkeypatch):
    # m_l1 needs l >= 2; l = 1 is malformed input, not a counterexample
    import chroma.cli as cli

    def refuse(u, l):
        raise AssertionError("the check ran on a malformed instance")

    monkeypatch.setattr(cli, "m_l1_via_corrects", refuse)
    payload = {"uio": "3,4,4", "l": 1}
    code, out, err = run(capsys, "verify", "thn1", "--instance", json.dumps(payload))
    assert code == 2 and out == ""
    assert err.startswith("error: thn1 instance: bad 'l'")


@pytest.mark.parametrize(
    "suite,payload",
    [
        ("ppos", {"uio": "3,4,4"}),  # missing key
        ("ppos", [1]),  # not an object
        ("ppos", {"uio": "3,9,4", "k": 2}),  # malformed threshold vector
        ("gnechrom", {"uio": "3,4,4", "alpha": [1]}),  # alpha shorter than uio
        ("involutions", {"uio": "3,4,4", "k": "x"}),
        ("lgv", {"uio": "3,4,4", "partition": "1,2"}),  # not weakly decreasing
        ("lgv", {"uio": "3,4,4", "partition": True}),
        ("scan", {"uio": 344}),
        ("ppos", None),  # null must not fall back to the default instances
        ("ppos", ""),
        ("ppos", {"uio": "3,4,4", "k": True}),  # a bool is not an integer
        ("thn1", {"uio": "3,4,4", "l": 1}),  # m_(l,1) needs l >= 2
    ],
)
def test_verify_malformed_instance_exits_two(capsys, suite, payload):
    code, out, err = run(capsys, "verify", suite, "--instance", json.dumps(payload))
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "lgv", "--max-n", "3", "--max-k", "3", "--budget", "-1"),
        ("verify", "lgv", "--budget", "0"),
        ("verify", "lgv", "--budget", "x"),
        ("verify", "ppos", "--jobs", "0"),
        ("verify", "ppos", "--max-n", "0"),
        ("verify", "ppos", "--max-k", "-1"),
        ("verify", "ppos", "--max-n", "2.5"),
        ("scan", "--max-n", "-2"),
        ("scan", "--jobs", "0"),
        # flags a suite has no use for are refused, not ignored
        ("verify", "scan", "--max-k", "5"),
        ("scan", "--max-k", "5"),
        ("scan", "--budget", "1"),
        ("scan", "--instance", "{}"),
        ("verify", "ppos", "--budget", "5"),
        ("verify", "cauchy", "--max-n", "2", "--max-k", "9"),
        ("verify", "eposn", "--max-k", "1"),
        ("verify", "sink", "--max-k", "1"),
        ("verify", "scottsuppes", "--max-k", "1"),
    ],
)
def test_verify_flag_ranges_exit_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_verify_multipath_guard_is_a_budget_outcome(capsys, monkeypatch):
    # a guard of one path turns instances into budget outcomes; the run goes
    # on and counts every instance
    import chroma.lgvgrid as lgvgrid

    monkeypatch.setattr(lgvgrid, "DEFAULT_MULTIPATH_BUDGET", 1)
    code, out, _ = run(capsys, "verify", "lgv", "--max-n", "3", "--max-k", "3")
    assert code == 3
    data = json.loads(out)
    assert data["instances"] == (1 + 2 + 5) * (1 + 2 + 3)
    assert data["failures"]
    assert {f["outcome"] for f in data["failures"]} == {"budget"}


@pytest.mark.parametrize(
    "suite, inst",
    [
        ("lgv", {"uio": "3,4,4", "partition": "1", "budget": 0}),
        ("ppos", {"uio": "3,4,4", "k": 2, "budget": "x"}),
    ],
)
def test_verify_ignores_an_instance_budget_key(capsys, suite, inst):
    plain = {key: value for key, value in inst.items() if key != "budget"}
    want = run(capsys, "verify", suite, "--instance", json.dumps(plain))
    assert want[0] == 0
    assert run(capsys, "verify", suite, "--instance", json.dumps(inst)) == want


def test_scottsuppes_past_its_bound_is_a_budget_outcome(capsys):
    # n = 8 has 2^28 relation masks to walk; the guard refuses before the first
    code, out, _ = run(capsys, "verify", "scottsuppes", "--instance", '{"n": 8}')
    assert code == 3
    assert [f["outcome"] for f in json.loads(out)["failures"]] == ["budget"]


@pytest.mark.parametrize(
    "suite, inst",
    [
        # d = 7 takes over 20 s; d = 8 would expand for minutes
        ("cauchy", {"d": 8}),
        # 5,722,956 multipaths, refused before the first is listed
        ("involutions", {"uio": "2,3,4,5,6,7,8", "k": 7}),
        # the disjoint-family transfer of this grid runs past its budget;
        # both suites run it first, so the unguarded side (the determinant,
        # schur_g), each over a minute of work, is never expanded
        ("lgv", {"uio": "2,3,4,5,6,7,8,9,10,11", "partition": "5,5,5,5"}),
        ("gasharov", {"uio": "2,3,4,5,6,7,8,9,10,11", "partition": "4,4,4,4,4"}),
    ],
)
def test_past_its_guard_is_a_budget_outcome(capsys, suite, inst):
    code, out, _ = run(capsys, "verify", suite, "--instance", json.dumps(inst))
    assert code == 3
    assert [f["outcome"] for f in json.loads(out)["failures"]] == ["budget"]


# ---------------------------------------------------------------------------
# scan


def test_scan_small(capsys):
    code, out, _ = run(capsys, "scan", "--max-n", "4")
    assert code == 0
    data = json.loads(out)
    assert data["instances"] == 22
    assert data["failures"] == []


def test_scan_is_verify_scan(capsys):
    code1, out1, _ = run(capsys, "scan", "--max-n", "4")
    code2, out2, _ = run(capsys, "verify", "scan", "--max-n", "4")
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["bounds"] == {"max_n": 4}


def test_scan_payload_replays(capsys):
    payload = {"uio": "3,4,4", "outcome": "fail", "detail": {"negatives": {}}}
    code, out, _ = run(capsys, "verify", "scan", "--instance", json.dumps(payload))
    assert code == 0
    assert json.loads(out)["instances"] == 1


def test_scan_deterministic_across_workers(capsys):
    code1, out1, _ = run(capsys, "scan", "--max-n", "4", "--jobs", "1")
    code2, out2, _ = run(capsys, "scan", "--max-n", "4", "--jobs", "2")
    assert code1 == code2 == 0
    assert out1 == out2


def test_scan_json_is_the_same_for_any_jobs(capsys):
    outs = set()
    for jobs in ("1", "2", "3"):
        code, out, _ = run(capsys, "scan", "--max-n", "6", "--format", "json", "--jobs", jobs)
        assert code == 0
        outs.add(out)
    assert len(outs) == 1
    assert json.loads(outs.pop())["instances"] == 196


def test_scan_walk_reports_what_the_per_order_route_reports(monkeypatch):
    # with a stable-partition count that is off for every order, the prefix
    # walk and a replay of each order through _scan_one report the same
    # failures, with the same details, in input order
    original = chromatic._signatures

    def planted(states):
        sigs = original(states)
        top = next(iter(sigs))
        sigs[top] += 1
        return sigs

    monkeypatch.setattr(chromatic, "_signatures", planted)
    walked = run_suite("scan", max_n=5)
    replayed = [
        failure
        for inst in SUITES["scan"].make_instances(5)
        for failure in run_suite("scan", instance=inst).failures
    ]
    assert walked.instances == 64 and len(walked.failures) == 64
    assert walked.failures == replayed


def test_scan_verdict_checks_both_identities():
    # 3,4,4 is the path 1-2-3: X = 3 e_3 + e_21, chi(k) = k (k-1)^2
    path = (3, 4, 4)
    good = {(3,): 3, (2, 1): 1}
    assert _scan_verdict(path, good) == (True, None)
    # e_111(1^k) = k^3
    ok, detail = _scan_verdict(path, {**good, (1, 1, 1): 1})
    assert not ok
    assert detail["chromatic"] == {"k": 1, "x_g": 1, "chi_g": 0}
    assert "top" not in detail and "negatives" not in detail
    ok, detail = _scan_verdict(path, {(3,): 2, (2, 1): 1})
    assert detail["top"] == {"c_n": 2, "sinks": 3}
    assert detail["chromatic"] == {"k": 3, "x_g": 11, "chi_g": 12}
    assert detail["expansion"] == {"2,1": 1, "3": 2}
    ok, detail = _scan_verdict(path, {(3,): 3, (2, 1): -1})
    assert detail["negatives"] == {"2,1": -1}


def test_scan_verdict_does_not_trust_a_wrapped_packed_sum():
    # on the edge 3,3, chi(k) = k (k-1); these coefficients make x_g(1) =
    # chi(1) + 2^64 and x_g(2) = chi(2) - 1, whose packed sums agree
    big = 1 << 64
    ok, detail = _scan_verdict((3, 3), {(2,): 1 - 4 * big, (1, 1): big})
    assert not ok
    assert detail["chromatic"] == {"k": 1, "x_g": big, "chi_g": 0}


@pytest.mark.parametrize(
    "argv, pool_sizes",
    [
        (("verify", "cauchy", "--max-n", "3", "--jobs", "100000"), [3]),
        (("verify", "cauchy", "--max-n", "3", "--jobs", "2"), [2]),
        (("verify", "cauchy", "--max-n", "1", "--jobs", "4"), []),
        (("verify", "gnechrom", "--max-k", "0", "--jobs", "4"), []),
        # the scan's work items are the first thresholds 2..max_n+1
        (("scan", "--max-n", "3", "--jobs", "100000"), [3]),
    ],
    ids=[
        "more-jobs-than-instances",
        "fewer-jobs",
        "one-instance",
        "no-instances",
        "scan-subtrees",
    ],
)
def test_jobs_never_exceed_instances(capsys, monkeypatch, argv, pool_sizes):
    import multiprocessing

    asked = []

    class InProcessPool:
        def __init__(self, processes):
            asked.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=None):
            return [fn(item) for item in items]

    monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["ok"]
    assert asked == pool_sizes


# ---------------------------------------------------------------------------
# library-level entry points used by the acceptance suite


def test_run_suite_counts():
    rep = run_suite("cauchy", max_n=2)
    assert rep.instances == 2 and rep.ok


def test_run_suite_rejects_null_instance():
    # None is a payload like any other, not a request for the default instances
    with pytest.raises(BadParameter):
        run_suite("cauchy", instance=None)


def test_scan_epositivity_counts():
    rep = scan_epositivity(3)
    assert rep.instances == 8 and rep.ok


# ---------------------------------------------------------------------------
# --instance fuzzing: any JSON object over a suite's keys gets an exit code,
# never a traceback


# Orders have at most three elements and ints stay within -3..5: valid
# instances grow steeply past that (cauchy d = 7 runs for minutes).  List
# entries stay within -3..3, since gnechrom's alpha = (5, 5, 5) on the
# 3-chain blows it up into a 15-vertex graph whose X takes about 30 s.
_INTS = st.integers(-3, 5)
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    _INTS,
    st.text(max_size=3),
    st.lists(st.integers(-3, 3), max_size=4),
)
_PLAUSIBLE = {
    "uio": st.sampled_from(["2", "2,3", "3,3", "2,3,4", "3,4,4", "4,4,4", "3,9,4"]),
    "partition": st.sampled_from(["", "1", "2,1", "1,2", "3,3", "5,5,5", "0", "-1"]),
    "alpha": st.lists(st.integers(-3, 3), max_size=4),
    "graph": st.fixed_dictionaries(
        {"n": _INTS, "edges": st.lists(st.lists(_INTS, max_size=3), max_size=4)}
    ),
}


def _instances(suite):
    # a budget key means nothing to any suite; a replay ignores it
    keys = {key for schema in SUITES[suite].schemas for key in schema} | {"budget"}
    values = {key: st.one_of(_PLAUSIBLE.get(key, _INTS), _JUNK) for key in keys}
    return st.one_of(st.fixed_dictionaries({}, optional=values), _JUNK)


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_verify_instance_fuzz(capsys, suite):
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(_instances(suite))
    def replay(inst):
        code, _, err = run(capsys, "verify", suite, "--instance", json.dumps(inst))
        # no fuzzed instance is a counterexample, so exit 1 would misreport
        # malformed input
        assert code in (0, 2, 3), inst
        assert "Traceback" not in err

    replay()
