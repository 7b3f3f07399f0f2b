import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import filtermc as fm
from filtermc.cli import build_parser, run

from helpers import kesten_perm_params, random_measure


def make_trivial_model(tmp_path):
    P = fm.TransitionMatrix.from_dense([[0.6, 0.4], [0.3, 0.7]])
    model = fm.FilterModel(fm.Partition.trivial(P), meta={"name": "trivial"})
    path = tmp_path / "trivial.json"
    fm.save_model(model, path)
    return path


def test_gallery_then_nonstability_check(tmp_path, capsys):
    model_path = tmp_path / "k.json"
    assert run(["gallery", "kesten", "--out", str(model_path)]) == 0
    verdict_path = tmp_path / "verdict.json"
    code = run(["check", "--model", str(model_path), "--condition", "thm11",
                "--subset", "0,1,2,3", "--out", str(verdict_path)])
    assert code == 0
    verdict = json.loads(verdict_path.read_text())
    assert verdict["kind"] == "nonstable"
    assert verdict["passed"] is True
    assert verdict["separation"] > 0


@pytest.mark.parametrize("subset, state", [("0,0", 0), ("0,0,1", 0), ("2,1,2,3", 2)])
def test_thm11_rejects_a_subset_that_repeats_a_state(tmp_path, capsys, kesten_file, subset,
                                                     state):
    # exited 0: a repeated state made the two vertex starts coincide and every
    # random start wrote its mass twice into one coordinate, off the simplex
    out = tmp_path / "verdict.json"
    assert run(["check", "--model", str(kesten_file), "--condition", "thm11",
                "--subset", subset, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: subset repeats state {state}\n"
    assert not out.exists()


def test_gallery_roundtrip_identical_bytes(tmp_path):
    p1 = tmp_path / "m1.json"
    p2 = tmp_path / "m2.json"
    assert run(["gallery", "random-walk", "--out", str(p1)]) == 0
    model = fm.load_model(p1)
    fm.save_model(model, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_simulate_deterministic_bytes(tmp_path):
    model_path = tmp_path / "k.json"
    run(["gallery", "kesten", "--out", str(model_path)])
    t1 = tmp_path / "t1.csv"
    t2 = tmp_path / "t2.csv"
    assert run(["simulate", "--model", str(model_path), "--steps", "100",
                "--seed", "7", "--out", str(t1)]) == 0
    assert run(["simulate", "--model", str(model_path), "--steps", "100",
                "--seed", "7", "--out", str(t2)]) == 0
    assert t1.read_bytes() == t2.read_bytes()
    lines = t1.read_text().splitlines()
    assert len(lines) == 102  # header + start row + 100 steps
    assert lines[0].startswith("step,label,x0")


def test_entropy_trivial_model_all_zero(tmp_path, capsys):
    model_path = make_trivial_model(tmp_path)
    out_path = tmp_path / "ent.csv"
    assert run(["entropy", "--model", str(model_path), "--horizon", "5",
                "--bracket", "--out", str(out_path)]) == 0
    rows = out_path.read_text().splitlines()[1:]
    assert len(rows) == 5
    for row in rows:
        fields = row.split(",")
        for v in fields[1:5]:
            assert abs(float(v)) <= 1e-12


def test_entropy_mc_option(tmp_path, capsys):
    model_path = make_trivial_model(tmp_path)
    code = run(["entropy", "--model", str(model_path), "--horizon", "2",
                "--mc", "samples=100", "burn=10", "seed=3",
                "--out", str(tmp_path / "e.csv")])
    assert code == 0
    out = capsys.readouterr().out
    assert "mc_estimate=0" in out


def test_distance_prints_twelve_significant_digits(tmp_path, capsys):
    rng = np.random.default_rng(0)
    mu = random_measure(rng, 3, 2)
    nu = random_measure(rng, 3, 3)
    mu_path = tmp_path / "mu.json"
    nu_path = tmp_path / "nu.json"
    fm.save_measure(mu, mu_path)
    fm.save_measure(nu, nu_path)
    plan_path = tmp_path / "plan.json"
    code = run(["distance", "--mu", str(mu_path), "--nu", str(nu_path),
                "--plan", str(plan_path)])
    assert code == 0
    printed = capsys.readouterr().out.strip()
    d, _ = fm.kantorovich_distance(mu, nu)
    assert float(printed) == pytest.approx(d, rel=1e-11)
    doc = json.loads(plan_path.read_text())
    assert doc["cost"] == pytest.approx(d, abs=1e-15)


def test_check_b1_undecided_exit_code(tmp_path, capsys):
    model_path = tmp_path / "k.json"
    run(["gallery", "kesten", "--out", str(model_path)])
    code = run(["check", "--model", str(model_path), "--condition", "b1",
                "--max-word-len", "6", "--out", str(tmp_path / "v.json")])
    assert code == 2
    verdict = json.loads((tmp_path / "v.json").read_text())
    assert verdict["kind"] == "undecided"


def test_check_support_searches_refute_on_kesten_with_exit_0(tmp_path):
    # Kesten's word supports close at length 7: a decided verdict, like hypotheses_failed
    model_path = tmp_path / "k.json"
    run(["gallery", "kesten", "--out", str(model_path)])
    out = tmp_path / "v.json"
    for condition, extra, what in (("a", {}, "subrectangular"),
                                   ("localizing", {"col_bound": 2}, "localizing")):
        assert run(["check", "--model", str(model_path), "--condition", condition,
                    "--out", str(out)]) == 0
        assert json.loads(out.read_text()) == {
            "condition": condition, **extra, "kind": "refuted",
            "note": f"the word supports closed at length 7: no word of any length is {what}"}
        # a walk stopped one length short of the closure is undecided
        assert run(["check", "--model", str(model_path), "--condition", condition,
                    "--max-word-len", "6", "--out", str(out)]) == 2
        assert json.loads(out.read_text())["kind"] == "undecided"


def test_check_condition_a_on_identity_lumping(tmp_path):
    P = fm.TransitionMatrix.from_dense(np.full((3, 3), 1.0 / 3.0))
    model = fm.FilterModel(
        fm.partition_from_lumping(P, [0, 1, 2]),
        meta={"partition_spec": {"lumping": [0, 1, 2]}},
    )
    model_path = tmp_path / "id.json"
    fm.save_model(model, model_path)
    out = tmp_path / "v.json"
    assert run(["check", "--model", str(model_path), "--condition", "a",
                "--out", str(out)]) == 0
    verdict = json.loads(out.read_text())
    assert verdict["kind"] == "condition_a"
    assert len(verdict["word"]) == 1
    # localizing with the tight default bound ceil(3/4) = 1
    assert run(["check", "--model", str(model_path), "--condition", "localizing",
                "--out", str(out)]) == 0
    verdict = json.loads(out.read_text())
    assert verdict["kind"] == "localizing"


def test_check_thm93_exit_codes(tmp_path):
    P = fm.TransitionMatrix.from_dense(np.full((3, 3), 1.0 / 3.0))
    model = fm.FilterModel(
        fm.partition_from_lumping(P, [0, 1, 2]),
        meta={"partition_spec": {"lumping": [0, 1, 2]}},
    )
    id_path = tmp_path / "id.json"
    fm.save_model(model, id_path)
    assert run(["check", "--model", str(id_path), "--condition", "thm93",
                "--out", str(tmp_path / "v1.json")]) == 0
    # Kesten's word supports close at length 7 without a subrectangular
    # word: the composer cannot succeed, a decided verdict; within length 2
    # the search is cut short, which is undecided
    k_path = tmp_path / "k.json"
    run(["gallery", "kesten", "--out", str(k_path)])
    assert run(["check", "--model", str(k_path), "--condition", "thm93",
                "--out", str(tmp_path / "v2.json")]) == 0
    verdict = json.loads((tmp_path / "v2.json").read_text())
    assert verdict == {"condition": "thm93", "kind": "refuted",
                       "note": "no witness: the word supports closed at length 7: "
                               "no word of any length is subrectangular"}
    assert run(["check", "--model", str(k_path), "--condition", "thm93", "--max-word-len", "2",
                "--out", str(tmp_path / "v3.json")]) == 2
    assert json.loads((tmp_path / "v3.json").read_text())["kind"] == "undecided"


def test_evolve_subcommand(tmp_path, capsys):
    model_path = tmp_path / "k.json"
    run(["gallery", "kesten", "--out", str(model_path)])
    out = tmp_path / "mu.json"
    assert run(["evolve", "--model", str(model_path), "--steps", "10",
                "--out", str(out)]) == 0
    mu = fm.load_measure(out)
    assert mu.size <= 8
    assert abs(float(mu.weights.sum()) - 1.0) <= 1e-9


def test_gallery_perm_family_default(tmp_path):
    out = tmp_path / "pf.json"
    assert run(["gallery", "perm-family", "--out", str(out)]) == 0
    model = fm.load_model(out)
    kest = fm.kesten_model()
    assert np.array_equal(model.partition.base.toarray(), kest.partition.base.toarray())


def test_gallery_birkhoff_params(tmp_path):
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"matrix": [[0.7, 0.3], [0.3, 0.7]]}))
    out = tmp_path / "b.json"
    assert run(["gallery", "birkhoff", "--params", str(params), "--out", str(out)]) == 0
    model = fm.load_model(out)
    assert model.partition.num_labels == 2


def test_error_exit_codes(tmp_path, capsys):
    # missing file -> validation error
    assert run(["simulate", "--model", str(tmp_path / "nope.json"),
                "--steps", "3", "--out", str(tmp_path / "t.csv")]) == 1
    # malformed JSON -> validation error
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["simulate", "--model", str(bad), "--steps", "3",
                "--out", str(tmp_path / "t.csv")]) == 1
    # unknown flag -> validation error, not a crash
    assert run(["simulate", "--bogus"]) == 1
    # invariant violation inside the model file
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps({
        "states": 2,
        "P": [[0, 0, 0.9], [0, 1, 0.5], [1, 0, 0.5], [1, 1, 0.5]],
        "partition": {"lumping": [0, 1]},
    }))
    assert run(["evolve", "--model", str(broken), "--steps", "1",
                "--out", str(tmp_path / "m.json")]) == 1


def test_threads_flag_accepted(tmp_path, monkeypatch):
    model_path = tmp_path / "k.json"
    assert run(["--threads", "4", "gallery", "kesten", "--out", str(model_path)]) == 0
    assert run(["--threads", "0", "gallery", "kesten", "--out", str(model_path)]) == 1
    monkeypatch.setenv("FILTERMC_THREADS", "2")
    assert run(["gallery", "kesten", "--out", str(model_path)]) == 0


def test_gallery_random_walk_explicit_params(tmp_path):
    params = tmp_path / "p.json"
    params.write_text(json.dumps({
        "n": 4,
        "a": [0.5, 0.5, 0.5],
        "b": [0.25, 0.25, 0.25, 0.25],
        "c": [0.75, 0.25, 0.25, 0.25],
    }))
    out = tmp_path / "rw.json"
    assert run(["gallery", "random-walk", "--params", str(params), "--out", str(out)]) == 0
    model = fm.load_model(out)
    P = model.partition.base.toarray()
    assert P[3, 3] == pytest.approx(0.5)  # reflection: 0.25 + 0.25
    assert model.partition.labels == (1, 2)


def test_thm11_output_independent_of_hash_seed(tmp_path):
    # string labels hash differently under each PYTHONHASHSEED; the witness
    # words must not depend on it (Kesten's deviations tie at rounding level,
    # and every single letter separates the two starts of the 4-state chain)
    kesten = tmp_path / "k.json"
    run(["gallery", "kesten", "--out", str(kesten)])
    P = fm.TransitionMatrix.from_dense([[0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5],
                                        [0.25] * 4, [0.25] * 4])
    lumping = ["a", "b", "c", "d"]
    four = tmp_path / "four.json"
    fm.save_model(fm.FilterModel(fm.partition_from_lumping(P, lumping),
                                 meta={"partition_spec": {"lumping": lumping}}), four)
    jobs = [["--model", str(kesten), "--subset", "0,1,2,3", "--seed", str(seed)]
            for seed in range(4)]
    jobs.append(["--model", str(four), "--subset", "0,1"])
    script = ("from filtermc.cli import run\n"
              f"for job in {jobs!r}:\n"
              "    assert run(['check', '--condition', 'thm11', *job]) in (0, 1)\n")
    src = str(Path(fm.__file__).resolve().parents[1])
    outputs = set()
    for hash_seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              check=True)
        outputs.add(done.stdout)
    assert len(outputs) == 1
    out = tmp_path / "v.json"
    run(["check", "--condition", "thm11", *jobs[-1], "--out", str(out)])
    assert json.loads(out.read_text())["witnesses"]["equal_words"]["differing_word"] == ["a"]


@pytest.mark.parametrize("kind, params, check_args, digest", [
    # 551 curve proximities and the witness W of the random walk at n = 63
    ("random-walk", {"case": "a", "n": 63}, ["--condition", "b1"],
     "3feb6eaf8efbc837d2e6c548e3b6ab33389ca939e71399adbc0e7a91e042829f"),
    ("kesten", None, ["--condition", "thm11", "--subset", "0,1,2,3"],
     "019ceb0aed1288dc8118d7b6b2da0bb493f2173a741abfcde21edcc9a0584778"),
])
def test_check_output_bytes_are_pinned(tmp_path, kind, params, check_args, digest):
    # digests of the output written before the blocked distance kernel and
    # the fixed-point power walk replaced the all-pairs proximity
    gallery_args = ["gallery", kind, "--out", str(tmp_path / "model.json")]
    if params is not None:
        (tmp_path / "params.json").write_text(json.dumps(params))
        gallery_args += ["--params", str(tmp_path / "params.json")]
    assert run(gallery_args) == 0
    out = tmp_path / "verdict.json"
    assert run(["check", "--model", str(tmp_path / "model.json"), *check_args,
                "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_evolve_renormalises_after_heavy_pruning(tmp_path, capsys):
    # from a Dirichlet start on the random walk at n = 63, pruning at 0.05
    # drops over a fifth of the mass; the measure is renormalised, not refused
    model_path, params = tmp_path / "rw63.json", tmp_path / "params.json"
    params.write_text(json.dumps({"case": "a", "n": 63}))
    assert run(["gallery", "random-walk", "--params", str(params), "--out", str(model_path)]) == 0
    x0 = np.random.default_rng(1).dirichlet(np.ones(63))
    out = tmp_path / "mu.json"
    capsys.readouterr()
    assert run(["evolve", "--model", str(model_path), "--steps", "6", "--prune", "0.05",
                "--x0", ",".join(map(repr, x0.tolist())), "--out", str(out)]) == 0
    mu = fm.load_measure(out)
    assert abs(float(mu.weights.sum()) - 1.0) <= 1e-12
    want = fm.evolve(x0, fm.load_model(model_path).partition, 6, prune=0.05)
    assert want.pruned_mass > 0.2
    assert capsys.readouterr().out == f"atoms={want.size} pruned_mass={want.pruned_mass:.17g}\n"


def test_entropy_bracket_computes_the_stationary_series_once(tmp_path, monkeypatch):
    model_path = tmp_path / "k.json"
    run(["gallery", "kesten", "--out", str(model_path)])
    args = ["entropy", "--model", str(model_path), "--horizon", "6", "--bracket"]
    assert run([*args, "--out", str(tmp_path / "a.csv")]) == 0

    def refuse(*args, **kwargs):
        raise AssertionError("the bracket report carries the series")

    monkeypatch.setattr("filtermc.cli.entropy_series", refuse)
    assert run([*args, "--out", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_entropy_mc_solves_the_stationary_vector_once(tmp_path, monkeypatch, capsys):
    # the Monte Carlo path starts from the model's stationary vector, solved once
    model_path = tmp_path / "k.json"
    run(["gallery", "kesten", "--out", str(model_path)])
    args = ["entropy", "--model", str(model_path), "--horizon", "2",
            "--mc", "samples=100", "burn=10", "seed=1", "--out", str(tmp_path / "e.csv")]
    assert run(args) == 0
    want = capsys.readouterr().out
    solve, solves = fm.core_model.stationary_vector, []

    def counted(*a, **kw):
        solves.append(a)
        return solve(*a, **kw)

    monkeypatch.setattr("filtermc.core_model.stationary_vector", counted)
    monkeypatch.setattr("filtermc.entropy.stationary_vector", counted)
    assert run(args) == 0
    assert len(solves) == 1
    assert capsys.readouterr().out == want


def _gallery(tmp_path, kind, params, name="model.json"):
    argv = ["gallery", kind, "--out", str(tmp_path / name)]
    if params is not None:
        (tmp_path / "params.json").write_text(json.dumps(params))
        argv += ["--params", str(tmp_path / "params.json")]
    return run(argv)


def test_gallery_perm_family_params_match_the_default(tmp_path):
    assert _gallery(tmp_path, "perm-family", None, "default.json") == 0
    assert _gallery(tmp_path, "perm-family", kesten_perm_params(), "params.json") == 0
    data = (tmp_path / "params.json").read_bytes()
    assert data == (tmp_path / "default.json").read_bytes()
    assert hashlib.sha256(data).hexdigest().startswith("49a1d7c9f5bae5c1")


def test_gallery_perm_family_q_keys_name_labels_by_text(tmp_path):
    assert _gallery(tmp_path, "perm-family", kesten_perm_params((0, 1))) == 0
    got = fm.load_model(tmp_path / "model.json").partition
    want = fm.perm_family_model(fm.kesten_perm_spec()).partition
    assert got.labels == (0, 1)
    for w, v in zip(got.labels, want.labels):
        assert np.array_equal(got.member(w).toarray(), want.member(v).toarray())


def test_gallery_perm_family_rejects_labels_with_one_text(tmp_path, capsys):
    params = kesten_perm_params()
    params["members"] = {"explicit": {"1": [[0, 0, 0.5], [1, 0, 0.5]],
                                      '"1"': [[0, 1, 0.5], [1, 1, 0.5]]},
                         "labels": [1, "1"]}
    assert _gallery(tmp_path, "perm-family", params) == 1
    assert "labels in [1, '1'] have the same text" in capsys.readouterr().err
    assert not (tmp_path / "model.json").exists()


def test_gallery_random_walk_rejects_an_unknown_case(tmp_path, capsys):
    assert _gallery(tmp_path, "random-walk", {"case": "c", "n": 8}) == 1
    assert "random-walk case must be 'a' or 'b', got 'c'" in capsys.readouterr().err
    assert not (tmp_path / "model.json").exists()


def test_entropy_rejects_an_unknown_mc_key(tmp_path, capsys):
    model_path = tmp_path / "k.json"
    run(["gallery", "kesten", "--out", str(model_path)])
    out = tmp_path / "h.csv"
    assert run(["entropy", "--model", str(model_path), "--horizon", "2",
                "--mc", "sampels=100", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "unknown --mc key 'sampels'" in err and "samples, burn and seed" in err
    assert not out.exists()


@pytest.mark.parametrize("mc, burn", [(["burn=-5"], -5),
                                      (["samples=2000", "burn=-1000"], -1000)])
def test_entropy_rejects_a_negative_burn(tmp_path, capsys, mc, burn):
    # burn=-5 raised a ValueError from reshape; burn=-1000 averaged only the
    # last 1,000 of the 2,000 samples
    model_path = tmp_path / "k.json"
    run(["gallery", "kesten", "--out", str(model_path)])
    assert run(["entropy", "--model", str(model_path), "--horizon", "1", "--mc", *mc,
                "--out", str(tmp_path / "h.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: burn_in must be >= 0, got {burn}\n"
    assert captured.out == ""


@pytest.mark.parametrize("condition", ["b1", "thm93"])
def test_check_rejects_a_negative_tol(tmp_path, capsys, condition):
    assert _gallery(tmp_path, "random-walk", {"case": "a", "n": 8}) == 0
    out = tmp_path / "verdict.json"
    assert run(["check", "--model", str(tmp_path / "model.json"), "--condition", condition,
                "--tol", "-1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: tol must be nonnegative, got -1.0\n"
    assert not out.exists()


def test_evolve_rejects_a_start_of_the_wrong_dimension(tmp_path, capsys):
    model_path = tmp_path / "k.json"
    run(["gallery", "kesten", "--out", str(model_path)])
    out = tmp_path / "mu.json"
    assert run(["evolve", "--model", str(model_path), "--steps", "2", "--x0", "0.5,0.5",
                "--out", str(out)]) == 1
    assert (capsys.readouterr().err
            == "error: state vector dimension does not match the partition\n")
    assert not out.exists()


@pytest.mark.parametrize("w, x, message", [
    (float("nan"), [0.2, 0.8], "measure file weights must be finite and positive"),
    (0.5, [float("nan"), 1.0], "measure file coordinates must be finite and nonnegative"),
    (0.5, [-0.5, 1.5], "measure file coordinates must be finite and nonnegative"),
    (0.5, [0.5, 0.25, 0.25], "measure file points must be vectors of one length"),
    (0.5, [0.7, 0.7], "measure file points must sum to 1 within 1e-09"),
], ids=["nan-weight", "nan-coordinate", "negative-coordinate", "unequal-lengths", "off-simplex"])
def test_distance_rejects_a_malformed_measure_file(tmp_path, capsys, w, x, message):
    # without the file checks, the NaN-coordinate, negative and off-simplex
    # points gave exit 0 and a printed distance
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps({"atoms": [{"w": 0.5, "x": [0.2, 0.8]}, {"w": 0.5, "x": [0.6, 0.4]}]}))
    bad.write_text(json.dumps({"atoms": [{"w": 0.5, "x": [0.2, 0.8]}, {"w": w, "x": x}]}))
    assert run(["distance", "--mu", str(bad), "--nu", str(good)]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {message}\n"


def _model_file(tmp_path, P, partition):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"states": 2, "P": P, "partition": partition}))
    return str(path)


def test_a_model_file_with_a_nan_entry_is_rejected(tmp_path, capsys):
    # NaN passed the sign test, so this model loaded, evolved and was certified
    model = _model_file(tmp_path, [[0, 0, float("nan")], [0, 1, 0.5], [1, 0, 0.5], [1, 1, 0.5]],
                        {"lumping": ["a", "b"]})
    out = tmp_path / "out.json"
    assert run(["evolve", "--model", model, "--steps", "1", "--x0", "0.5,0.5",
                "--out", str(out)]) == 1
    assert run(["check", "--model", model, "--condition", "a", "--out", str(out)]) == 1
    err = "error: NonnegMatrix stored values must be finite and strictly positive\n"
    assert capsys.readouterr().err == err * 2
    assert not out.exists()


def test_a_model_file_with_list_lumping_labels_is_rejected(tmp_path, capsys):
    model = _model_file(tmp_path, [[0, 0, 0.5], [0, 1, 0.5], [1, 0, 0.5], [1, 1, 0.5]],
                        {"lumping": [[0, 1], [1, 0]]})
    out = tmp_path / "mu.json"
    assert run(["evolve", "--model", model, "--steps", "1", "--out", str(out)]) == 1
    assert (capsys.readouterr().err
            == "error: lumping labels must be hashable: ints, strings or tuples of those\n")
    assert not out.exists()


def test_the_parser_is_built_once_and_filtermc_threads_read_on_each_run(
        tmp_path, monkeypatch, capsys):
    model_path = tmp_path / "k.json"
    argv = ["gallery", "kesten", "--out", str(model_path)]
    assert build_parser() is build_parser()
    monkeypatch.setenv("FILTERMC_THREADS", "abc")
    assert run(argv) == 1  # was an uncaught ValueError from building the parser
    assert capsys.readouterr().err == "error: FILTERMC_THREADS must be an integer, got 'abc'\n"
    assert run(["--threads", "2"] + argv) == 0  # the flag wins over the variable
    monkeypatch.setenv("FILTERMC_THREADS", "0")
    assert run(argv) == 1  # a later value of the variable still counts
    assert capsys.readouterr().err == "error: --threads must be >= 1\n"
    monkeypatch.setenv("FILTERMC_THREADS", "3")
    assert run(argv) == 0


_P2 = [[0, 0, 0.5], [0, 1, 0.5], [1, 0, 0.5], [1, 1, 0.5]]


@pytest.mark.parametrize("doc, message", [
    ([2, _P2], "a model file must be a JSON object"),
    ({"states": 2, "P": 5, "partition": {"lumping": [0, 1]}},
     "'P' must be a list of [i, j, v] triplets"),
    ({"states": 2.5, "P": _P2, "partition": {"lumping": [0, 1]}},
     "model file 'states' must be an integer, got 2.5"),
    ({"states": 2, "P": _P2, "partition": {"explicit": {"a": 7}}},
     "'explicit' must be a list of [i, j, v] triplets"),
    ({"states": 2, "P": _P2, "partition": 5},
     "model file partition must be lumping, observation or explicit"),
    ({"states": 2, "P": _P2, "partition": {"lumping": [0, 1]}, "meta": 5},
     "model file 'meta' must be an object"),
    ({"states": 2, "P": _P2, "partition": {"lumping": 5}},
     "model file 'lumping' must be a list"),
    ({"states": 2, "P": _P2, "partition": {"explicit": {"a": _P2}, "labels": 5}},
     "model file 'labels' must be a list"),
    ({"states": 2, "P": _P2, "partition": {"explicit": [_P2]}},
     "model file 'explicit' must be an object"),
    ({"states": 2, "P": [[10**30, 0, 0.5]] + _P2[1:], "partition": {"lumping": [0, 1]}},
     "'P' holds an index out of range"),
    ({"states": 2, "P": [[float("inf"), 0, 0.5]] + _P2[1:], "partition": {"lumping": [0, 1]}},
     "'P' must be a list of [i, j, v] triplets"),
    ({"states": 2, "P": _P2, "partition": {"lumping": [0, 1]},
      "meta": {"default_start": {"a": 1}}},
     "model file 'default_start' must be a list of numbers"),
    ({"states": 2, "P": _P2, "partition": {"explicit": {"[1, {}]": _P2}, "labels": [[1, {}]]}},
     "model file 'labels' must hold ints, strings and lists of those"),
    ({"states": 2**40, "P": _P2, "partition": {"lumping": [0, 1]}},
     "model file 'states' is 1099511627776, but 'P' has 4 entries"),
    ({"states": 2, "P": _P2, "partition": {"observation": [[0, 2**40, 1.0], [1, 0, 1.0]]}},
     "'observation' names label 1099511627776, but has 2 entries"),
    ({"states": 2, "P": [_P2[0], [0, 1.5, 0.5]] + _P2[2:], "partition": {"lumping": [0, 1]}},
     "'P' must be a list of [i, j, v] triplets"),
    ({"states": 2, "P": _P2, "partition": {"explicit": {"a": [[0.5, 0, 0.5]] + _P2[1:]}}},
     "'explicit' must be a list of [i, j, v] triplets"),
    ({"states": 2, "P": _P2, "partition": {"observation": [[0, 0, 1.0], [1, 0.9, 1.0]]}},
     "'observation' must be a list of [i, j, v] triplets"),
], ids=["list-document", "P-not-a-list", "fractional-states", "explicit-not-a-list",
        "partition-not-an-object", "meta-a-number", "lumping-a-number", "labels-a-number",
        "explicit-a-list", "P-index-beyond-int64", "P-index-infinite",
        "default-start-an-object", "label-an-object", "states-beyond-P",
        "observation-label-beyond-its-entries", "P-index-fractional",
        "explicit-index-fractional", "observation-label-fractional"])
def test_a_malformed_model_file_is_an_error_naming_the_field(tmp_path, capsys, doc, message):
    # the list document and "P": 5 raised a TypeError out of `run`, and
    # "states": 2.5 was read as 2; so did a number for "meta", "lumping" or
    # "labels", and an "explicit" list raised an AttributeError.  A P index
    # beyond int64 or infinite raised an OverflowError, an object for
    # "default_start" or in "labels" a TypeError, and "states" of 2**40 a
    # MemoryError.  A fractional index was truncated: [0, 1.5, 0.5] in P
    # loaded as column 1
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    out = tmp_path / "mu.json"
    assert run(["evolve", "--model", str(model), "--steps", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_gallery_perm_family_rejects_a_q_key_that_names_no_label(tmp_path, capsys):
    params = kesten_perm_params()
    params["Q"]["0,0,zzz"] = params["Q"]["0,0,a"]
    assert _gallery(tmp_path, "perm-family", params) == 1
    assert ("perm-family Q key '0,0,zzz' names no label of ['a', 'b']"
            in capsys.readouterr().err)
    assert not (tmp_path / "model.json").exists()


_ATOMS = [{"w": 0.5, "x": [0.2, 0.8]}, {"w": 0.5, "x": [0.6, 0.4]}]


@pytest.mark.parametrize("doc, message", [
    (None, "a measure file must be an object whose 'atoms' is a nonempty list of objects"),
    (_ATOMS, "a measure file must be an object whose 'atoms' is a nonempty list of objects"),
    ({"atoms": 5}, "a measure file must be an object whose 'atoms' is a nonempty list of objects"),
    ({"atoms": []}, "a measure file must be an object whose 'atoms' is a nonempty list of objects"),
    ({"atoms": [5]}, "a measure file must be an object whose 'atoms' is a nonempty list of objects"),
    ({"atoms": [{"w": {}, "x": [0.2, 0.8]}]}, "measure file atom 'w' must be a number"),
    ({"atoms": [{"w": 1.0, "x": [{}, 0.8]}]}, "measure file atom 'x' must be a list of numbers"),
    ({"atoms": [{"w": 1.0}]}, "measure file atom 'x' must be a list of numbers"),
    ({"atoms": [{"w": 10**400, "x": [0.2, 0.8]}]}, "measure file atom 'w' must be a number"),
], ids=["null", "list", "atoms-a-number", "atoms-empty", "atom-a-number", "w-an-object",
        "coordinate-an-object", "no-x", "w-beyond-float"])
def test_a_malformed_measure_file_is_an_error_naming_the_field(tmp_path, capsys, doc, message):
    # all but the atom without "x" (`error: KeyError: 'x'`) raised a
    # TypeError or OverflowError out of `run`
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps({"atoms": _ATOMS}))
    bad.write_text(json.dumps(doc))
    plan = tmp_path / "plan.json"
    for mu, nu in ((bad, good), (good, bad)):
        assert run(["distance", "--mu", str(mu), "--nu", str(nu), "--plan", str(plan)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not plan.exists()


def _perm_params(**edits) -> dict:
    """The Kesten perm family's params with ``edits`` applied; an edit to
    None removes its key."""
    params = {**kesten_perm_params(), **edits}
    return {k: v for k, v in params.items() if v is not None}


@pytest.mark.parametrize("kind, params, message", [
    ("birkhoff", None, "gallery params must be a JSON object"),
    ("random-walk", None, "gallery params must be a JSON object"),
    ("perm-family", [], "gallery params must be a JSON object"),
    ("random-walk", {"n": {}}, "gallery param 'n' must be an integer, got {}"),
    ("random-walk", {"n": 8}, "gallery params need 'a'"),
    ("random-walk", {"case": "a", "n": {}}, "gallery param 'n' must be an integer, got {}"),
    ("random-walk", {"case": "a", "n": 1e400}, "gallery param 'n' must be an integer, got inf"),
    ("random-walk", {"case": "a", "n": 2**20 + 1},
     "gallery param 'n' must be at most 1048576, got 1048577"),
    ("random-walk", {"case": "b", "n": 10**30},
     f"gallery param 'n' must be at most 1048576, got {10**30}"),
    ("random-walk", {"a": [0.5], "b": 5, "c": [0.5, 0.5], "n": 2},
     "gallery param 'b' must be a list of numbers, got 5"),
    ("birkhoff", {}, "gallery params need 'matrix'"),
    ("birkhoff", {"matrix": [[{}, 1.0], [1.0, 0.0]]},
     "gallery param 'matrix' must be a square matrix of numbers, got [[{}, 1.0], [1.0, 0.0]]"),
    ("birkhoff", {"matrix": [[float("nan"), 0.5], [0.5, 0.5]]},
     "matrix is not doubly stochastic within tol"),
    ("perm-family", _perm_params(Q=[1]), "gallery param 'Q' must be an object, got [1]"),
    ("perm-family", _perm_params(Q={"0,0,a": 5}),
     "perm-family Q['0,0,a'] must be a list of integers, got 5"),
    ("perm-family", _perm_params(Q={"0,0,a": [0, 1, 3, 2**70]}),
     "Q(0, 0, 'a') is not a permutation of range(d)"),
    ("perm-family", _perm_params(d={}), "gallery param 'd' must be an integer, got {}"),
    ("perm-family", _perm_params(d=10**12), "Q(0, 0, 'a') is not a permutation of range(d)"),
    ("perm-family", _perm_params(Q={"0,0a": [0, 1, 3, 2]}),
     "perm-family Q key '0,0a' must be 'i,k,label' with integers i and k"),
    ("perm-family", _perm_params(Q={"x,0,a": [0, 1, 3, 2]}),
     "perm-family Q key 'x,0,a' must be 'i,k,label' with integers i and k"),
    ("perm-family", _perm_params(base=None), "gallery params need 'base'"),
    ("perm-family", _perm_params(base=[[0.5, 0.5], [0.5]]),
     "gallery param 'base' must be a square matrix of numbers, got [[0.5, 0.5], [0.5]]"),
    ("perm-family", _perm_params(members=None), "gallery params need 'members'"),
], ids=["birkhoff-null", "random-walk-null", "perm-family-list", "random-walk-n-only",
        "random-walk-n-missing-a", "random-walk-n-an-object", "random-walk-n-infinite",
        "random-walk-case-n-beyond-bound", "random-walk-case-n-beyond-memory",
        "random-walk-b-a-number",
        "birkhoff-no-matrix", "birkhoff-matrix-with-an-object", "birkhoff-matrix-with-a-nan",
        "perm-family-q-a-list",
        "perm-family-permutation-a-number", "perm-family-permutation-beyond-int64",
        "perm-family-d-an-object", "perm-family-d-beyond-memory", "perm-family-q-key-with-one-comma",
        "perm-family-q-key-with-a-text-index", "perm-family-no-base", "perm-family-ragged-base",
        "perm-family-no-members"])
def test_malformed_gallery_params_are_an_error_naming_the_problem(tmp_path, capsys, kind,
                                                                   params, message):
    # null params and an object for "n" or inside "matrix" raised a
    # TypeError out of `run`, {"n": {}} gave `error: KeyError: 'a'`, and an
    # infinite "n" an OverflowError; in perm-family params, a list as "Q" raised
    # an AttributeError, a number as a permutation or "d" a TypeError, and an
    # index beyond int64 an OverflowError, a "d" beyond memory built range(d)
    # as a list, and a Q key without two commas or with a text index, a ragged
    # base and a missing key printed their ValueError or KeyError; a random-walk
    # case with an "n" beyond memory built its chain's tuples; a NaN in a
    # Birkhoff matrix passed the doubly-stochastic check and failed later as
    # "no perfect matching on the residual support"
    (tmp_path / "params.json").write_text(json.dumps(params))
    out = tmp_path / "model.json"
    assert run(["gallery", kind, "--params", str(tmp_path / "params.json"),
                "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.fixture(scope="module")
def kesten_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("kesten") / "k.json"
    assert run(["gallery", "kesten", "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize("argv", [
    ["entropy", "--horizon", "0"],
    ["entropy", "--horizon", "0", "--bracket"],
    ["entropy", "--horizon", "2", "--mc", "samples=5"],
    ["entropy", "--horizon", "2", "--mc", "burn=-3"],
    ["entropy", "--horizon", "2", "--mc", "seed=-1"],
    ["entropy", "--horizon", "2", "--bracket", "--mc", "samples=10", "seed=x"],
    ["evolve", "--steps", "2", "--x0", "0.5,0.5"],
    ["simulate", "--steps", "2", "--x0", "0.5,0.5"],
    ["check", "--condition", "thm11"],
    ["check", "--condition", "b1", "--tol", "-1"],
], ids=lambda argv: " ".join(argv))
def test_a_failed_run_leaves_no_output_file(tmp_path, capsys, kesten_file, argv):
    # `--mc samples=5` and `burn=-3` exited 1 after writing the whole CSV,
    # and `--horizon 0` exited 0 with a header-only one
    out = tmp_path / "out"
    code = run([argv[0], "--model", str(kesten_file), *argv[1:], "--out", str(out)])
    assert code == 1 and capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_entropy_checks_the_horizon_before_anything_else(tmp_path, capsys, kesten_file):
    assert run(["entropy", "--model", str(kesten_file), "--horizon", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: --horizon must be >= 1, got 0\n"


@pytest.mark.parametrize("argv, flag", [
    # merging and pruning were off: 4 atoms where the default writes 3
    (["evolve", "--steps", "2", "--merge-eps", "nan"], "--merge-eps must be >= 0, got nan"),
    (["evolve", "--steps", "2", "--prune", "nan"], "--prune must be in [0, 1), got nan"),
    (["entropy", "--horizon", "2", "--prune", "nan"], "--prune must be in [0, 1), got nan"),
    # exited 0 with every H_n 0.0 and pruned_mass 1.0
    (["entropy", "--horizon", "2", "--prune", "inf"], "--prune must be in [0, 1), got inf"),
    (["evolve", "--steps", "2", "--prune", "1.0"], "--prune must be in [0, 1), got 1.0"),
    # said "rank_one_proximity: all rows at or below the floor"
    (["check", "--condition", "b1", "--tol", "inf"], "--tol must be below 1, got inf"),
    (["check", "--condition", "thm93", "--tol", "1"], "--tol must be below 1, got 1.0"),
    # exited 2, undecided
    (["check", "--condition", "b1", "--max-word-len", "-1"], "--max-word-len must be >= 1, got -1"),
    (["check", "--condition", "localizing", "--col-bound", "-3"], "--col-bound must be >= 1, got -3"),
    # said "word search requires max_len >= 1"
    (["check", "--condition", "a", "--max-word-len", "0"], "--max-word-len must be >= 1, got 0"),
    # an IndexError out of `run`
    (["check", "--condition", "thm11", "--subset", "0,1", "--samples", "-1"],
     "sample_count (--samples) must be >= 0, got -1"),
    # said "simulate_filter requires steps >= 1" and "evolve requires n >= 1"
    (["simulate", "--steps", "0"], "--steps must be >= 1, got 0"),
    (["evolve", "--steps", "0"], "--steps must be >= 1, got 0"),
    # said "n_max must be at least 1": no word is active at depth 0, so no
    # hypothesis has any evidence
    (["check", "--condition", "thm11", "--subset", "0,1", "--depth", "0"],
     "--depth must be >= 1, got 0"),
    # said "need at least as many samples as batches"; entropy_rate_mc forms 20
    (["entropy", "--horizon", "1", "--mc", "samples=10"], "--mc samples must be >= 20, got 10"),
    # said "subset index out of range"
    (["check", "--condition", "thm11", "--subset", "0,9"],
     "--subset names state 9, but the model has 8 states"),
    (["check", "--condition", "thm11", "--subset=-1,0"],
     "--subset names state -1, but the model has 8 states"),
    # a value that starts as a negative number reaches its check; argparse
    # took each for a flag: "argument --tol: expected one argument"
    (["check", "--condition", "thm11", "--subset", "-1,0"],
     "--subset names state -1, but the model has 8 states"),
    (["evolve", "--steps", "2", "--merge-eps", "-inf"], "--merge-eps must be >= 0, got -inf"),
    (["evolve", "--steps", "2", "--prune", "-1e-3"], "--prune must be in [0, 1), got -0.001"),
    (["check", "--condition", "b1", "--tol", "-nan"], "--tol must be below 1, got nan"),
    (["check", "--condition", "b1", "--tol", "-1e-9"], "tol must be nonnegative, got -1e-09"),
    (["check", "--condition", "thm93", "--tol", "-INF"], "tol must be nonnegative, got -inf"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else "")
def test_a_numeric_flag_out_of_range_is_an_error_naming_it(tmp_path, capsys, kesten_file,
                                                           argv, flag):
    out = tmp_path / "out"
    assert run([argv[0], "--model", str(kesten_file), *argv[1:], "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {flag}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    # each said "ValueError: invalid literal for int() with base 10"
    *[(["check", "--condition", "thm11", "--subset", subset],
       f"--subset must be comma-separated state indices, got {subset!r}")
      for subset in ("0,x", "0,,1", "0,1,", "0,1e3")],
    # said "ValueError: could not convert string to float: 'a'"
    (["simulate", "--steps", "2", "--x0", "a,b"], "--x0 must be comma-separated numbers, got 'a,b'"),
    # said "ValueError: invalid literal for int() with base 10"
    (["entropy", "--horizon", "1", "--mc", "samples=abc"],
     "--mc samples must be an integer, as samples=K, got 'abc'"),
    (["entropy", "--horizon", "1", "--mc", "samples"],
     "--mc samples must be an integer, as samples=K, got ''"),
    # said "ValueError: expected non-negative integer", from numpy's default_rng
    (["simulate", "--steps", "2", "--seed", "-1"], "--seed must be >= 0, got -1"),
    (["check", "--condition", "thm11", "--subset", "0,1", "--seed", "-1"],
     "--seed must be >= 0, got -1"),
    (["entropy", "--horizon", "1", "--mc", "seed=-1"], "--mc seed must be >= 0, got -1"),
    # exited 0 from the model's start, and said "--subset is required for thm11"
    (["simulate", "--steps", "2", "--x0", ""], "--x0 must be comma-separated numbers, got ''"),
    (["check", "--condition", "thm11", "--subset", ""],
     "--subset must be comma-separated state indices, got ''"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else "")
def test_a_flag_that_does_not_parse_is_an_error_naming_it(tmp_path, capsys, kesten_file, argv,
                                                          flag):
    out = tmp_path / "out"
    assert run([argv[0], "--model", str(kesten_file), *argv[1:], "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {flag}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, stray", [
    (["entropy", "--horizon", "2", "--bracket", "-1"], "unrecognized arguments: -1"),
    (["entropy", "--horizon", "2", "--bracket", "-inf"], "unrecognized arguments: -inf"),
    (["check", "--condition", "b1", "--tol", "-infile"], "argument --tol: expected one argument"),
    (["check", "--condition", "b1", "--tol", "-nanx"], "argument --tol: expected one argument"),
])
def test_a_negative_number_is_read_only_as_a_flag_value(tmp_path, capsys, kesten_file, argv,
                                                       stray):
    # after a flag that takes no value, a negative number keeps argparse's
    # report, and so does a value that starts with - and is not a number
    out = tmp_path / "out"
    assert run([argv[0], "--model", str(kesten_file), *argv[1:], "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines()[-1].endswith(f"error: {stray}")
    assert not out.exists()


def test_mc_samples_at_the_batch_count_is_accepted(tmp_path, capsys, kesten_file):
    out = tmp_path / "h.csv"
    assert run(["entropy", "--model", str(kesten_file), "--horizon", "1", "--mc", "samples=20",
                "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("mc_estimate=")


def test_thm93_honours_col_bound(tmp_path, capsys):
    # exited 2, "prerequisite words not found": the bound reached only `localizing`
    P = fm.TransitionMatrix.from_dense([[0.1, 0.2, 0.3, 0.4], [0.25, 0.25, 0.25, 0.25],
                                        [0.4, 0.3, 0.2, 0.1], [0.3, 0.3, 0.2, 0.2]])
    model = tmp_path / "one_label.json"
    fm.save_model(fm.FilterModel(fm.Partition.trivial(P)), model)
    out = tmp_path / "verdict.json"
    assert run(["check", "--model", str(model), "--condition", "thm93", "--col-bound", "4",
                "--out", str(out)]) == 0
    verdict = json.loads(out.read_text())
    assert verdict["kind"] == "b1_converged" and verdict["word"] == list(
        fm.compose_rank_one_witness(fm.load_model(model).partition, col_bound=4)[0])
    # every product of the positive P has 4 columns, so at bound 3 no word is
    # localizing: a decided verdict that names the prerequisite
    assert run(["check", "--model", str(model), "--condition", "thm93", "--col-bound", "3",
                "--out", str(out)]) == 0
    assert json.loads(out.read_text())["note"] == (
        "no witness: the word supports closed at length 2: "
        "no word of any length is localizing")


def test_merge_eps_inf_is_accepted_and_merges_every_atom(tmp_path, capsys, kesten_file):
    out = tmp_path / "mu.json"
    assert run(["evolve", "--model", str(kesten_file), "--steps", "2", "--merge-eps", "inf",
                "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("atoms=1 ")


_NUMERIC_FLAGS = [
    (["simulate", "--steps", "2"], "--steps"), (["simulate", "--steps", "2"], "--seed"),
    (["evolve", "--steps", "2"], "--steps"), (["evolve", "--steps", "2"], "--prune"),
    (["evolve", "--steps", "2"], "--merge-eps"),
    (["entropy", "--horizon", "2"], "--horizon"), (["entropy", "--horizon", "2"], "--prune"),
    (["entropy", "--horizon", "1", "--mc"], "samples="), (["entropy", "--horizon", "1", "--mc"], "burn="),
    (["check", "--condition", "a"], "--max-word-len"),
    (["check", "--condition", "localizing"], "--col-bound"),
    (["check", "--condition", "b1", "--max-word-len", "2"], "--tol"),
    (["check", "--condition", "thm93", "--max-word-len", "2"], "--tol"),
    (["check", "--condition", "thm11", "--subset", "0,1", "--depth", "2"], "--samples"),
    (["check", "--condition", "thm11", "--subset", "0,1", "--samples", "2"], "--depth"),
    (["check", "--condition", "thm11", "--subset", "0,1", "--depth", "2"], "--seed"),
]


@settings(max_examples=160, deadline=None)
@given(case=st.sampled_from(_NUMERIC_FLAGS),
       value=st.sampled_from(["-3", "-1", "0", "nan", "inf", "-inf", "1", "2", "1e-3", "0.5",
                              "-1e-9", "-nan"]))
@example(case=_NUMERIC_FLAGS[13], value="-1")  # an IndexError out of `run`
# each said neither `--steps`, `--depth` nor `--mc samples`
@example(case=_NUMERIC_FLAGS[0], value="0")
@example(case=_NUMERIC_FLAGS[14], value="0")
@example(case=_NUMERIC_FLAGS[7], value="1")
def test_numeric_flags_end_in_an_exit_code_not_a_traceback(kesten_file, case, value):
    # every value is small: `simulate --steps 10000000000` would draw one
    # array of that many numbers, and `thm11 --depth 40` walk 2**40 words
    argv, flag = case
    setting = [flag + value] if flag.endswith("=") else [flag, value]
    if flag == "burn=":
        setting = ["samples=100", *setting]
    out = Path(kesten_file).parent / "fuzz.out"
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run([argv[0], "--model", str(kesten_file), *argv[1:], *setting, "--out", str(out)])
    assert code in (0, 1, 2)
    # an error names the flag as typed, or is one of the library's own checks
    typed = f"--mc {flag[:-1]}" if flag.endswith("=") else flag
    assert code != 1 or typed in err.getvalue() or any(m in err.getvalue() for m in (
        "tol must be nonnegative", "burn_in must be >= 0",
        "pushforward pruned away all mass; lower `prune`")), err.getvalue()
