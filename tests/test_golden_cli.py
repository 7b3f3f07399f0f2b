"""Golden corpus of CLI output bytes.

A fixed list of jobs runs through ``filtermc.cli.run``; the sha256 digests of
each job's exit code, stdout and output files must equal those recorded in
``golden/cli_sha256.json``.  The digests hold for the numpy, scipy and BLAS
recorded there.  The OpenBLAS kernel each library picked for the CPU is
recorded too, as information only: it is printed when digests differ, since
the summation order of BLAS products can depend on it.  A deliberate change
to output bits rewrites the file with

    PYTHONPATH=src python3 tests/test_golden_cli.py
"""

import ctypes
import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import scipy

from filtermc.cli import run

from helpers import kesten_perm_params

CORPUS = Path(__file__).parent / "golden" / "cli_sha256.json"

# a doubly stochastic 5 x 5 matrix: six weighted permutations
_B5 = sum(w * np.eye(5)[list(p)] for w, p in [
    (0.3, (0, 1, 2, 3, 4)), (0.2, (1, 2, 3, 4, 0)), (0.15, (2, 0, 4, 1, 3)),
    (0.15, (4, 3, 1, 0, 2)), (0.12, (3, 4, 0, 2, 1)), (0.08, (1, 0, 3, 2, 4))])
# a doubly stochastic 6 x 6 matrix: seven weighted permutations
_B6 = sum(w * np.eye(6)[list(p)] for w, p in [
    (0.25, (0, 1, 2, 3, 4, 5)), (0.2, (1, 2, 3, 4, 5, 0)), (0.15, (5, 4, 3, 2, 1, 0)),
    (0.12, (2, 0, 1, 5, 3, 4)), (0.1, (3, 5, 4, 0, 2, 1)), (0.1, (1, 0, 3, 2, 5, 4)),
    (0.08, (4, 3, 5, 1, 0, 2))])
MODELS = {
    "kesten": ("kesten", None),
    "rw63": ("random-walk", {"case": "a", "n": 63}),
    "rw64": ("random-walk", {"case": "a", "n": 64}),
    "rw256": ("random-walk", {"case": "a", "n": 256}),
    "rw1024": ("random-walk", {"case": "a", "n": 1024}),
    "b5": ("birkhoff", {"matrix": _B5.tolist()}),
    # the bytes of `gallery perm-family` without params
    "perm": ("perm-family", kesten_perm_params()),
}


def environment() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def blas_cores() -> dict:
    """The OpenBLAS core name of numpy's and of scipy's copy (None where
    there is no such library or symbol)."""
    cores = {}
    for mod, symbol in ((np, "scipy_openblas_get_corename64_"),
                        (scipy, "scipy_openblas_get_corename")):
        cores[mod.__name__] = None
        for lib in sorted(Path(mod.__file__).parent.parent.glob(f"{mod.__name__}.libs/*openblas*")):
            fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                cores[mod.__name__] = fn().decode()
    return cores


def _x0(n: int, seed: int) -> str:
    return ",".join(repr(float(v)) for v in np.random.default_rng(seed).dirichlet(np.ones(n)))


def jobs(d: Path) -> list[tuple[str, list[str], list[str]]]:
    """(name, argv, output files) of every job, in run order."""
    out = []
    for name, (kind, params) in MODELS.items():
        argv = ["gallery", kind, "--out", str(d / f"{name}.json")]
        if params is not None:
            (d / f"{name}.params.json").write_text(json.dumps(params))
            argv += ["--params", str(d / f"{name}.params.json")]
        out.append((f"gallery {name}", argv, [f"{name}.json"]))

    def job(name, *argv, files=()):
        argv = [str(d / a) if a.endswith((".json", ".csv")) else a for a in argv]
        out.append((name, argv, list(files)))

    dims = {"kesten": 8, "rw63": 63, "rw64": 64, "rw256": 256, "b5": 5}
    for seed, (name, steps, x0) in enumerate([("kesten", 200, True), ("kesten", 200, False),
                                              ("rw63", 100, True), ("rw64", 100, True),
                                              ("rw256", 40, False), ("b5", 100, True)]):
        extra = ["--x0", _x0(dims[name], seed)] if x0 else []
        job(f"simulate {name}{' --x0' if x0 else ''}", "simulate", "--model", f"{name}.json",
            "--steps", str(steps), "--seed", str(seed), *extra, "--out", "trace.csv",
            files=["trace.csv"])
    # from pi, whose zero tail the filter keeps on the face of M(w); and a
    # start with a negative zero, which the trace writes as -0.0
    job("simulate rw1024", "simulate", "--model", "rw1024.json", "--steps", "130",
        "--seed", "6", "--out", "trace.csv", files=["trace.csv"])
    job("simulate kesten --x0 -0.0", "simulate", "--model", "kesten.json", "--steps", "200",
        "--seed", "7", "--x0=-0.0," + _x0(7, 7), "--out", "trace.csv", files=["trace.csv"])
    for seed, (name, steps, x0, mu) in enumerate([
            ("kesten", 4, True, "mu_k4"), ("kesten", 3, False, "mu_k3"),
            ("rw63", 2, True, "mu_rw63"), ("rw64", 2, False, "mu_rw64"),
            ("rw256", 2, True, "mu_rw256"), ("b5", 2, True, "mu_b5a"),
            ("b5", 3, True, "mu_b5b"), ("b5", 2, False, "mu_b5pi")]):
        extra = ["--x0", _x0(dims[name], 100 + seed)] if x0 else []
        job(f"evolve {name} t{steps}{' --x0' if x0 else ''}", "evolve", "--model",
            f"{name}.json", "--steps", str(steps), *extra, "--out", f"{mu}.json",
            files=[f"{mu}.json"])
    job("evolve kesten t8 pruned", "evolve", "--model", "kesten.json", "--steps", "8",
        "--prune", "1e-3", "--merge-eps", "1e-4", "--out", "mu_k8.json", files=["mu_k8.json"])
    # prunes at several steps: stdout reports the share of the start's mass
    job("evolve rw63 t8 --x0 pruned", "evolve", "--model", "rw63.json", "--steps", "8",
        "--prune", "0.05", "--x0", _x0(63, 1), "--out", "mu_rw63p.json", files=["mu_rw63p.json"])
    for a, b in [("mu_b5a", "mu_b5b"), ("mu_k4", "mu_k3"), ("mu_b5b", "mu_b5pi")]:
        job(f"distance {a} {b}", "distance", "--mu", f"{a}.json", "--nu", f"{b}.json",
            "--plan", "plan.json", files=["plan.json"])
    for name, horizon, opts in [
            ("kesten", 10, ["--bracket", "--mc", "samples=300", "burn=30", "seed=4"]),
            ("rw63", 6, ["--bracket", "--mc", "samples=200", "burn=20", "seed=5"]),
            ("rw63", 5, ["--bracket", "--prune", "1e-3"]),
            ("rw64", 6, ["--bracket"]),
            ("rw256", 10, ["--prune", "1e-6"]),
            ("b5", 3, ["--bracket", "--mc", "samples=200", "burn=20", "seed=6"])]:
        job(f"entropy {name} h{horizon} {' '.join(opts)}", "entropy", "--model",
            f"{name}.json", "--horizon", str(horizon), *opts, "--out", "entropy.csv",
            files=["entropy.csv"])
    job("entropy kesten h3 stdout", "entropy", "--model", "kesten.json", "--horizon", "3",
        "--bracket", "--mc", "samples=100", "burn=10")
    for name, condition, extra in [
            ("rw63", "b1", []), ("rw64", "b1", []), ("kesten", "b1", []),
            ("rw63", "a", []), ("rw64", "a", []),
            ("rw63", "localizing", ["--col-bound", "31"]),
            ("rw64", "localizing", ["--col-bound", "32"]),
            ("rw63", "thm93", ["--col-bound", "31"]),
            ("kesten", "thm11", ["--subset", "0,1,2,3", "--seed", "3"]),
            ("b5", "thm11", ["--subset", "0,1,2,3,4", "--depth", "2", "--samples", "2"]),
            ("kesten", "thm11", [])]:  # no --subset: exit code 1
        job(f"check {condition} {name} {' '.join(extra)}", "check", "--model", f"{name}.json",
            "--condition", condition, *extra, "--out", "verdict.json", files=["verdict.json"])
    job("check b1 kesten stdout", "check", "--model", "kesten.json", "--condition", "b1",
        "--max-word-len", "3")
    # appended after the jobs above, so their order and digests stay as recorded
    (d / "b6.params.json").write_text(json.dumps({"matrix": _B6.tolist()}))
    job("gallery b6", "gallery", "birkhoff", "--params", "b6.params.json", "--out", "b6.json",
        files=["b6.json"])
    job("check thm11 b5 --depth 3", "check", "--model", "b5.json", "--condition", "thm11",
        "--subset", "0,1,2,3,4", "--depth", "3", "--seed", "8", "--out", "verdict.json",
        files=["verdict.json"])
    job("evolve b6 t2 --x0", "evolve", "--model", "b6.json", "--steps", "2", "--x0",
        _x0(6, 9), "--out", "mu_b6.json", files=["mu_b6.json"])
    # a witness of 64 labels composed through both connector words
    job("check thm93 rw63 --max-word-len 64 --col-bound 31", "check", "--model", "rw63.json",
        "--condition", "thm93", "--max-word-len", "64", "--col-bound", "31",
        "--out", "verdict.json", files=["verdict.json"])
    return out


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(d: Path) -> dict:
    """Run every job in the directory ``d``; its digests by job name."""
    out = {}
    for name, argv, files in jobs(d):
        for f in files:
            (d / f).unlink(missing_ok=True)
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = run(argv)
        out[name] = {"code": code, "stdout": _sha(buf.getvalue().encode()),
                     "files": {f: _sha((d / f).read_bytes()) for f in files if (d / f).exists()}}
    return out


def test_cli_outputs_match_the_golden_corpus(tmp_path):
    golden = json.loads(CORPUS.read_text())
    env = environment()
    differ = [f"{k}: corpus {golden['environment'][k]!r}, here {env[k]!r}"
              for k in env if golden["environment"].get(k) != env[k]]
    assert not differ, "the corpus was recorded in another environment: " + "; ".join(differ)
    got = digests(tmp_path)
    assert list(got) == list(golden["jobs"])
    changed = [name for name in got if got[name] != golden["jobs"][name]]
    cores = f"BLAS cores: corpus {golden['environment'].get('blas_core')}, here {blas_cores()}"
    assert not changed, f"output bytes changed: {changed}; {cores}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        doc = {"environment": {**environment(), "blas_core": blas_cores()},
               "jobs": digests(Path(tmp))}
    CORPUS.write_text(json.dumps(doc, indent=1) + "\n")
    sys.stdout.write(f"wrote {len(doc['jobs'])} job digests to {CORPUS}\n")
