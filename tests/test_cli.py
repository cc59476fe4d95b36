"""Command-line surface: documents, exit codes, determinism."""

import json
import re

import numpy as np

from vattn.cli import main


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -------------------------------------------------------------------- attn


def test_attn_shannon_symmetric(tmp_path, capsys):
    path = _write(tmp_path, "in.json", {"scores": [0.0, 0.0, 0.0]})
    code, out, _ = _run(capsys, ["attn", path, "--reg", "shannon", "--tau", "1"])
    assert code == 0
    doc = json.loads(out)
    assert np.allclose(doc["distribution"], [1 / 3, 1 / 3, 1 / 3], atol=1e-15)
    assert abs(doc["potential"] - np.log(3)) < 1e-14
    assert doc["support_size"] == 3


def test_attn_l2_sparse(tmp_path, capsys):
    path = _write(tmp_path, "in.json", {"scores": [0.5, 0.2, -1.0]})
    code, out, _ = _run(capsys, ["attn", path, "--reg", "l2"])
    assert code == 0
    doc = json.loads(out)
    assert np.allclose(doc["distribution"], [0.65, 0.35, 0.0], atol=1e-15)
    assert doc["support_size"] == 2
    assert doc["potential"] is None


def test_attn_kl_uniform_matches_shannon_distribution(tmp_path, capsys):
    path = _write(tmp_path, "in.json", {"scores": [1.2, -0.3, 0.4, 2.0]})
    code, out_kl, _ = _run(
        capsys, ["attn", path, "--reg", "kl", "--tau", "1", "--prior", "uniform"]
    )
    assert code == 0
    code, out_sh, _ = _run(capsys, ["attn", path, "--reg", "shannon", "--tau", "1"])
    assert code == 0
    kl_doc, sh_doc = json.loads(out_kl), json.loads(out_sh)
    assert np.allclose(kl_doc["distribution"], sh_doc["distribution"], atol=1e-12)
    assert kl_doc["support_size"] == sh_doc["support_size"]


def test_attn_regularizer_from_file(tmp_path, capsys):
    path = _write(
        tmp_path,
        "in.json",
        {"scores": [0.5, 0.2, -1.0], "temperature": 1.0, "regularizer": {"kind": "l2"}},
    )
    code, out, _ = _run(capsys, ["attn", path])
    assert code == 0
    assert json.loads(out)["support_size"] == 2


def test_attn_prior_file_is_renormalized(tmp_path, capsys):
    prior_path = tmp_path / "prior.json"
    prior_path.write_text(json.dumps([0.2, 0.3, 0.5 + 3e-10]))
    path = _write(tmp_path, "in.json", {"scores": [0.0, 0.0, 0.0]})
    code, out, _ = _run(
        capsys, ["attn", path, "--reg", "kl", "--tau", "1", "--prior", str(prior_path)]
    )
    assert code == 0
    assert np.allclose(json.loads(out)["distribution"], [0.2, 0.3, 0.5], atol=1e-9)


def test_attn_exit_codes(tmp_path, capsys):
    good = _write(tmp_path, "in.json", {"scores": [0.0, 1.0]})
    # 2: unreadable file, bad json, malformed scores
    assert _run(capsys, ["attn", str(tmp_path / "nope.json"), "--reg", "l2"])[0] == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert _run(capsys, ["attn", str(bad), "--reg", "l2"])[0] == 2
    nan = _write(tmp_path, "nan.json", {"scores": ["a", 1.0]})
    assert _run(capsys, ["attn", nan, "--reg", "l2"])[0] == 2
    # 3: invalid flag combinations
    assert _run(capsys, ["attn", good, "--reg", "shannon"])[0] == 3  # tau missing
    assert _run(capsys, ["attn", good, "--reg", "l2", "--tau", "1"])[0] == 3
    assert _run(capsys, ["attn", good, "--reg", "shannon", "--tau", "1", "--alpha", "2"])[0] == 3
    assert _run(capsys, ["attn", good, "--reg", "tsallis", "--alpha", "0.5"])[0] == 3
    assert _run(capsys, ["attn", good, "--reg", "bogus"])[0] == 3
    assert _run(capsys, ["attn", good])[0] == 3  # no regularizer anywhere


def test_attn_out_file(tmp_path, capsys):
    path = _write(tmp_path, "in.json", {"scores": [0.0, 0.0]})
    out_path = tmp_path / "result.json"
    code, out, _ = _run(capsys, ["attn", path, "--reg", "l2", "--out", str(out_path)])
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["support_size"] == 2


# ------------------------------------------------------------------ verify


def test_verify_single_suite_passes(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, err = _run(
        capsys,
        ["verify", "gradient-identities", "--seed", "7", "--trials", "25", "--out", str(out_path)],
    )
    assert code == 0
    assert "ok gradient-identities" in err
    doc = json.loads(out_path.read_text())
    (report,) = doc["reports"]
    assert report["cases_passed"] == report["cases_run"]
    assert report["max_residual"] < 1e-12
    assert report["seed"] == 7


def test_verify_all_lists_every_suite(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = _run(
        capsys, ["verify", "all", "--seed", "0", "--trials", "2", "--out", str(out_path)]
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert [r["suite"] for r in doc["reports"]] == [
        "closed-forms",
        "oracle-equivalence",
        "gradient-identities",
        "duality",
        "transport",
    ]


def test_verify_reports_are_deterministic(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code, _, _ = _run(
            capsys,
            ["verify", "closed-forms", "--seed", "3", "--trials", "5", "--out", str(path)],
        )
        assert code == 0
    scrub = lambda text: re.sub(r'"wall_time_ms": \d+', '"wall_time_ms": 0', text)
    assert scrub(paths[0].read_text()) == scrub(paths[1].read_text())


def test_verify_tolerance_scale_env(tmp_path, capsys, monkeypatch):
    # an absurdly small scale must fail the machine-precision checks
    monkeypatch.setenv("VATTN_TOL_SCALE", "1e-30")
    code, _, _ = _run(capsys, ["verify", "gradient-identities", "--trials", "2"])
    assert code == 1
    monkeypatch.setenv("VATTN_TOL_SCALE", "1e6")
    code, _, _ = _run(capsys, ["verify", "gradient-identities", "--trials", "2"])
    assert code == 0
    monkeypatch.setenv("VATTN_TOL_SCALE", "banana")
    code, _, _ = _run(capsys, ["verify", "gradient-identities", "--trials", "2"])
    assert code == 2


def test_verify_rejects_bad_run_flags(capsys):
    assert _run(capsys, ["verify", "duality", "--seed", "-1", "--trials", "2"])[0] == 3
    assert _run(capsys, ["verify", "duality", "--trials", "0"])[0] == 3
    assert _run(capsys, ["verify", "duality", "--trials", "2", "--jobs", "0"])[0] == 3
    assert _run(capsys, ["verify", "bogus-suite", "--trials", "2"])[0] == 3


def test_verify_failed_check_still_writes_report(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("VATTN_TOL_SCALE", "1e-30")
    out_path = tmp_path / "report.json"
    code, _, _ = _run(
        capsys, ["verify", "gradient-identities", "--trials", "2", "--out", str(out_path)]
    )
    assert code == 1
    doc = json.loads(out_path.read_text())
    assert doc["reports"][0]["cases_passed"] < doc["reports"][0]["cases_run"]


def test_float_fields_round_trip_exactly(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    _run(capsys, ["verify", "duality", "--seed", "1", "--trials", "3", "--out", str(out_path)])
    text = out_path.read_text()
    doc = json.loads(text)
    # 17 significant digits: parsing and re-serializing must be lossless
    for check in doc["reports"][0]["per_check"]:
        rendered = format(check["residual"], ".17g")
        assert float(rendered) == check["residual"]


# ---------------------------------------------------------------- gradcheck


def test_gradcheck_random_instance(tmp_path, capsys):
    rng = np.random.default_rng(0)
    path = _write(
        tmp_path,
        "in.json",
        {
            "scores": list(rng.uniform(-3, 3, 5)),
            "temperature": 1.0,
            "utilities": list(rng.uniform(-2, 2, 5)),
        },
    )
    out_path = tmp_path / "report.json"
    code, _, _ = _run(capsys, ["gradcheck", path, "--out", str(out_path)])
    assert code == 0
    (report,) = json.loads(out_path.read_text())["reports"]
    names = {c["name"] for c in report["per_check"]}
    assert "lse-gradient-matches-softmax" in names
    assert "primal-gradient-matches-neg-softmax" in names
    assert "lse-hessian-matches-tau-fisher" in names
    assert "advantage-equals-chain-rule" in names
    assert "natural-gradient-identity" in names
    assert "loss-gradient-matches-advantage" in names


def test_gradcheck_constant_scores(tmp_path, capsys):
    path = _write(tmp_path, "in.json", {"scores": [0.5, 0.5, 0.5], "temperature": 1.0})
    code, out, _ = _run(capsys, ["gradcheck", path])
    assert code == 0
    (report,) = json.loads(out)["reports"]
    assert report["cases_passed"] == report["cases_run"]


def test_gradcheck_values_route(tmp_path, capsys):
    path = _write(
        tmp_path,
        "in.json",
        {
            "scores": [1.0, -0.5, 0.2],
            "temperature": 0.9,
            "values": [[1.0, 0.0], [0.0, 1.0], [2.0, -1.0]],
            "context_gradient": [0.3, -0.7],
        },
    )
    code, out, _ = _run(capsys, ["gradcheck", path])
    assert code == 0
    (report,) = json.loads(out)["reports"]
    assert report["cases_passed"] == report["cases_run"]
    details = {c["name"]: c.get("details", "") for c in report["per_check"]}
    assert "derived from values" in details["advantage-equals-chain-rule"]


def test_gradcheck_small_temperature_flags_adjustment(tmp_path, capsys):
    path = _write(tmp_path, "in.json", {"scores": [0.4, -0.2, 0.1], "temperature": 1e-6})
    code, out, _ = _run(capsys, ["gradcheck", path])
    assert code == 0, "small-temperature instances must degrade tolerances, not fail"
    (report,) = json.loads(out)["reports"]
    assert report["cases_passed"] == report["cases_run"]
    by_name = {c["name"]: c for c in report["per_check"]}
    grad_check = by_name["lse-gradient-matches-softmax"]
    assert grad_check["tolerance"] > 1e-7  # widened
    assert "widened" in grad_check["details"]


def test_gradcheck_requires_temperature(tmp_path, capsys):
    path = _write(tmp_path, "in.json", {"scores": [0.4, -0.2]})
    assert _run(capsys, ["gradcheck", path])[0] == 2


# ---------------------------------------------------------------- transport


def test_transport_closed_form(tmp_path, capsys):
    rng = np.random.default_rng(1)
    queries = rng.uniform(-1, 1, (2, 3))
    keys = rng.uniform(-1, 1, (4, 3))
    path = _write(
        tmp_path, "in.json", {"queries": queries.tolist(), "keys": keys.tolist()}
    )
    code, out, _ = _run(capsys, ["transport", path, "--tau", "1.0"])
    assert code == 0
    doc = json.loads(out)
    plan = np.asarray(doc["plan"])
    assert plan.shape == (2, 4)
    assert np.allclose(plan.sum(axis=1), 1.0, atol=1e-12)


def test_transport_oracle_matches_closed_form(tmp_path, capsys):
    rng = np.random.default_rng(2)
    payload = {
        "queries": rng.uniform(-1, 1, (2, 2)).tolist(),
        "keys": rng.uniform(-1, 1, (3, 2)).tolist(),
        "temperature": 1.0,
    }
    path = _write(tmp_path, "in.json", payload)
    code, out_closed, _ = _run(capsys, ["transport", path])
    assert code == 0
    code, out_oracle, _ = _run(capsys, ["transport", path, "--method", "oracle"])
    assert code == 0
    closed = np.asarray(json.loads(out_closed)["plan"])
    found = np.asarray(json.loads(out_oracle)["plan"])
    assert float(np.max(np.abs(closed - found))) < 1e-6


def test_transport_requires_epsilon(tmp_path, capsys):
    path = _write(tmp_path, "in.json", {"queries": [[1.0]], "keys": [[1.0]]})
    assert _run(capsys, ["transport", path])[0] == 3


def test_transport_malformed_matrices(tmp_path, capsys):
    path = _write(tmp_path, "in.json", {"queries": [[1.0], [2.0, 3.0]], "keys": [[1.0]]})
    assert _run(capsys, ["transport", path, "--tau", "1"])[0] == 2


# Each kind's flags, and one valid value for every regularizer flag.
_KIND_FLAGS = {
    "shannon": ["--tau"],
    "l2": [],
    "tsallis": ["--alpha"],
    "alibi": ["--tau", "--gamma", "--pos"],
    "kl": ["--tau", "--prior"],
}
_FLAG_VALUES = {
    "--tau": "0.8",
    "--alpha": "1.5",
    "--gamma": "0.5",
    "--pos": "2",
    "--prior": "uniform",
}


def _flag_args(flags):
    return [arg for flag in flags for arg in (flag, _FLAG_VALUES[flag])]


def test_attn_takes_exactly_each_kinds_flags(tmp_path, capsys):
    path = _write(tmp_path, "in.json", {"scores": [0.3, -0.2, 0.9]})
    for kind, flags in _KIND_FLAGS.items():
        base = ["attn", path, "--reg", kind]
        assert _run(capsys, base + _flag_args(flags))[0] == 0, kind
        for extra in sorted(set(_FLAG_VALUES) - set(flags)):
            assert _run(capsys, base + _flag_args(flags + [extra]))[0] == 3, (kind, extra)
        for dropped in flags:
            kept = [flag for flag in flags if flag != dropped]
            assert _run(capsys, base + _flag_args(kept))[0] == 3, (kind, dropped)


def test_attn_file_regularizer_fields_are_type_checked(tmp_path, capsys):
    def attn(regularizer):
        doc = {"scores": [0.3, -0.2, 0.9], "temperature": 0.8, "regularizer": regularizer}
        return _run(capsys, ["attn", _write(tmp_path, "in.json", doc)])

    scores = _write(tmp_path, "scores.json", {"scores": [0.3, -0.2, 0.9]})
    flags = ["--reg", "alibi"] + _flag_args(_KIND_FLAGS["alibi"])
    code, out, _ = _run(capsys, ["attn", scores] + flags)
    assert code == 0
    alibi = {"kind": "alibi", "gamma": 0.5, "query_position": 2}
    assert attn(alibi)[:2] == (0, out)
    assert attn({**alibi, "query_position": 2.0})[:2] == (0, out)
    assert attn({**alibi, "query_position": 2.5})[0] == 3  # not truncated to 2
    assert attn({**alibi, "query_position": 0})[0] == 3
    assert attn({**alibi, "query_position": True})[0] == 2
    assert attn({**alibi, "query_position": "x"})[0] == 2
    assert attn({**alibi, "gamma": "0.5"})[0] == 2
    assert attn({**alibi, "gamma": -1})[0] == 3
    assert attn({"kind": "tsallis", "alpha": "1.5"})[0] == 2
    assert attn({"kind": "tsallis", "alpha": False})[0] == 2
    assert attn({"kind": "tsallis", "alpha": 1})[0] == 3
    assert attn({"kind": "tsallis", "alpha": 1.5})[0] == 0
    assert attn({"kind": ["l2"]})[0] == 2


# A JSON integer has no size limit: 401 nines is beyond the double range.
_HUGE = int("9" * 401)


def _input_error(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert "beyond the double range" in err
    assert "Traceback" not in err


def test_huge_integer_scalar_field_is_an_input_error(tmp_path, capsys):
    doc = {"scores": [0.3, -0.2], "temperature": _HUGE}
    _input_error(capsys, ["attn", _write(tmp_path, "t.json", doc), "--reg", "shannon"])
    _input_error(capsys, ["gradcheck", _write(tmp_path, "g.json", doc)])
    qk = {"queries": [[1.0]], "keys": [[1.0]], "temperature": _HUGE}
    _input_error(capsys, ["transport", _write(tmp_path, "q.json", qk)])
    for field, value in (("query_position", _HUGE), ("gamma", -_HUGE)):
        reg = {"kind": "alibi", "gamma": 0.5, "query_position": 2, field: value}
        doc = {"scores": [0.3, -0.2], "temperature": 1.0, "regularizer": reg}
        _input_error(capsys, ["attn", _write(tmp_path, "a.json", doc)])
    # Within the double range but beyond every integer type: a flag error.
    flags = ["--reg", "alibi", "--tau", "1", "--gamma", "0.5", "--pos", "9" * 400]
    scores = _write(tmp_path, "s.json", {"scores": [0.3, -0.2]})
    assert _run(capsys, ["attn", scores] + flags)[0] == 3


def test_huge_integer_vector_field_is_an_input_error(tmp_path, capsys):
    scores = _write(tmp_path, "s.json", {"scores": [0.3, _HUGE]})
    _input_error(capsys, ["attn", scores, "--reg", "l2"])
    doc = {"scores": [0.3, -0.2], "temperature": 1.0, "utilities": [1.0, -_HUGE]}
    _input_error(capsys, ["gradcheck", _write(tmp_path, "u.json", doc)])
    reg = {"kind": "kl", "prior": [_HUGE, 1]}
    doc = {"scores": [0.3, -0.2], "temperature": 1.0, "regularizer": reg}
    _input_error(capsys, ["attn", _write(tmp_path, "k.json", doc)])
    good = _write(tmp_path, "good.json", {"scores": [0.3, -0.2]})
    prior = _write(tmp_path, "prior.json", [_HUGE, 1])
    code, out, err = _run(capsys, ["attn", good, "--reg", "kl", "--tau", "1", "--prior", prior])
    assert (code, out) == (2, "") and "Traceback" not in err


def test_huge_integer_matrix_field_is_an_input_error(tmp_path, capsys):
    for queries, keys in (([[_HUGE, 1.0]], [[1.0, 1.0]]), ([[1.0]], [[1.0], [-_HUGE]])):
        qk = _write(tmp_path, "q.json", {"queries": queries, "keys": keys})
        _input_error(capsys, ["transport", qk, "--tau", "1"])
    doc = {"scores": [0.3, -0.2], "temperature": 1.0, "values": [[_HUGE], [1.0]]}
    _input_error(capsys, ["gradcheck", _write(tmp_path, "v.json", doc)])
