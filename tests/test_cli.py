import json

import pytest

from chroma.cli import main, run_suite, scan_epositivity


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
        ("eposn", ("4", "0")),
        ("lgv", ("3", "3")),
        ("gasharov", ("3", "3")),
        ("gnechrom", ("3", "4")),
        ("involutions", ("3", "3")),
        ("thn1", ("3", "3")),
        ("scottsuppes", ("4", "0")),
    ],
)
def test_verify_suites_small_bounds(capsys, suite, bounds):
    code, out, _ = run(
        capsys, "verify", suite, "--max-n", bounds[0], "--max-k", bounds[1]
    )
    assert code == 0, out
    assert json.loads(out)["ok"] is True


def test_verify_failure_exits_one(capsys, monkeypatch):
    import chroma.cli as cli

    forced = cli.SUITES["cauchy"]._replace(
        check=lambda inst: (False, {"reason": "forced"})
    )
    monkeypatch.setitem(cli.SUITES, "cauchy", forced)
    code, out, _ = run(capsys, "verify", "cauchy", "--max-n", "1")
    assert code == 1
    data = json.loads(out)
    assert data["failures"][0]["detail"] == {"reason": "forced"}


@pytest.mark.parametrize(
    "suite,payload",
    [
        ("ppos", {"uio": "3,4,4"}),  # missing key
        ("ppos", [1]),  # not an object
        ("ppos", {"uio": "3,9,4", "k": 2}),  # malformed threshold vector
    ],
)
def test_verify_malformed_instance_exits_two(capsys, suite, payload):
    code, out, err = run(capsys, "verify", suite, "--instance", json.dumps(payload))
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_verify_budget_flag_propagates(capsys):
    # an absurdly small budget must abort the enumeration-backed suites
    from chroma.errors import TooLarge

    with pytest.raises(TooLarge):
        run(capsys, "verify", "lgv", "--max-n", "3", "--max-k", "3", "--budget", "1")
    code, out, _ = run(
        capsys, "verify", "lgv", "--max-n", "2", "--max-k", "2",
        "--budget", "1000000",
    )
    assert code == 0


# ---------------------------------------------------------------------------
# scan


def test_scan_small(capsys):
    code, out, _ = run(capsys, "scan", "--max-n", "4")
    assert code == 0
    data = json.loads(out)
    assert data["instances"] == 22
    assert data["failures"] == []


def test_scan_deterministic_across_workers(capsys):
    code1, out1, _ = run(capsys, "scan", "--max-n", "4", "--jobs", "1")
    code2, out2, _ = run(capsys, "scan", "--max-n", "4", "--jobs", "2")
    assert code1 == code2 == 0
    assert out1 == out2


# ---------------------------------------------------------------------------
# library-level entry points used by the acceptance suite


def test_run_suite_counts():
    rep = run_suite("cauchy", max_n=2)
    assert rep.instances == 2 and rep.ok


def test_scan_epositivity_counts():
    rep = scan_epositivity(3)
    assert rep.instances == 8 and rep.ok
