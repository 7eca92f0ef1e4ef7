"""The CI checks, one function per workflow step.

    python3 ci/checks.py [STEP]

STEP is one of tier1, bench-tests, smoke, replay, memory, package. With no
argument every step runs, in workflow order, past any that fails. Each step
prints its own lines; the run starts with one environment line and ends with
one PASS, FAIL or SKIPPED line per step, and exits 1 if any step FAILed.
The environment line also gives two sizes of src/blowlab, for information:
its `wc -l` total and its code lines (non-blank lines outside comments and
docstrings).
Every step writes into temporary directories, apart from what pytest and
perfbench leave in the checkout: their caches, bytecode unless
PYTHONDONTWRITEBYTECODE is set, and .perfbench_work/.
"""

from __future__ import annotations

import ast
import importlib.metadata
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PY = sys.executable

# the numpy and scipy releases that the workflow installs: the bitwise ports'
# tests, the modules blowlab loads by themselves from scipy, and the drift
# checks assume them. Another version is named on the environment line, and
# tier1 may then fail for that reason alone
PINS = {"numpy": "2.4.6", "scipy": "1.17.1"}

# (workload, the prefix its "reference drift:" line must start with). The
# three similarity-frame artifacts were moved on purpose after the reference
# was recorded; a re-record of perfbench/reference/ makes it "0 of".
SMOKE = [
    ("blowup-scaled", "reference drift: 0 of"),
    ("scan-wide", "reference drift: 0 of"),
    ("similarity-frame", "reference drift: 3 of 10"),
]

# (name, argv): each run must pass, and its replay must pass
PAIRS = [
    ("scan", ["scan"]),
    # bisect_tol below the float spacing: bisection stops at brackets one
    # ulp wide, and brackets-refined reads the same stop rule
    ("scan-tol-floor", ["scan", "--set", "bisect_tol=1e-20", "--set", "count=5"]),
    ("theorem13", ["theorem13"]),
    # the ball's radial window ladder, 0 <= y <= K about the centre
    ("theorem13-ball", ["theorem13", "--set", "geometry=ball", "--set", "n=2",
                        "--set", "amp=20"]),
    # K < 1: the K lam >= 4h rule leaves exactly MIN_WINDOWS = 3 windows
    ("theorem13-K05", ["theorem13", "--set", "K=0.5", "--set", "m=2001"]),
    # the ball's bands through the direct dgtsv solve
    ("ball-blowup", ["blowup", "--set", "geometry=ball", "--set", "n=3",
                     "--set", "amp=20", "--set", "u_cap=1e12"]),
    ("shoot", ["shoot", "--set", "alpha=0.7"]),
    # bounded at r_max: the mesh's kappa-tail test decides the outcome
    ("shoot-bounded", ["shoot", "--set", "alpha=0.99", "--set", "r_max=3"]),
    # |w| crosses the cap: the blew-up event, located on the dense output
    ("shoot-blew-up", ["shoot", "--set", "alpha=0.5", "--set", "cap=1"]),
    ("evolve-rescaled", ["evolve-rescaled", "--set", "init=stable-mode"]),
    # an energy drop at rounding level: no dissipation verdict, exit 0
    ("evolve-rescaled-kappa", ["evolve-rescaled", "--set", "init=kappa"]),
    ("spectrum-n2-shoot", ["spectrum", "--set", "n=2", "--set", "profile=shoot"]),
    ("spectrum-radial", ["spectrum", "--set", "basis=radial"]),
    # the radial basis at alpha = 1/2
    ("spectrum-radial-n3", ["spectrum", "--set", "basis=radial", "--set", "n=3"]),
    # the radial grid at n = 1, where binom takes its half-integer branch
    ("verify-identities", ["verify-identities"]),
    # two benchmark runs: spectrum.json from the spectrum report and the
    # stability modes, identities.csv from the check rows' pass rules
    ("spectrum-n2-N32", ["spectrum", "--set", "n=2", "--set", "N=32"]),
    ("verify-identities-n2", ["verify-identities", "--set", "n=2"]),
    # three-axis tensor grids: the calculus batteries on their points, and a
    # Hermite basis built through their node index
    ("verify-identities-n3", ["verify-identities", "--set", "n=3", "--set", "cases=5"]),
    ("spectrum-n3", ["spectrum", "--set", "n=3", "--set", "N=20"]),
]

# the manifest's config_text of this pair, passed back as --config, is the
# same run: every output it lists must be byte-identical
ROUND_TRIP = "theorem13"

# a run refused after it has started exits 2 and leaves its manifest and no
# other file (the window holds too few steps to check)
REFUSAL = ["evolve-rescaled", "--set", "diss_lo=1.995"]

# One fresh interpreter per case: peak RSS before and after cli.main, and
# whether the scipy.linalg or scipy.special package or hashlib's _hashlib
# (OpenSSL's libcrypto, ~3.5 MB) was loaded.
MEMORY_CASE = """
import json, resource, sys
from blowlab import cli
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
code = cli.main(json.loads(sys.argv[1]))
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps([code, before / 1024, after / 1024, "scipy.linalg" in sys.modules,
                  "scipy.special" in sys.modules, "_hashlib" in sys.modules]))
"""

# (argv, bound on peak RSS growth in MB, whether _hashlib may load): manifests
# hash with CPython's builtin SHA-256, so only a run that draws numpy random
# numbers maps OpenSSL (numpy.random -> secrets -> hmac)
MEMORY = [
    # 20,000 steps on 801 points: a run that kept its states would grow by ~500 MB
    (["evolve-rescaled", "--set", "amp=-0.1", "--set", "s_end=20"], 100, False),
    # the 40001-point run grows ~12.5 MB (its windows build spline coefficients
    # on their own knots only); the scipy.linalg package init (numpy.f2py,
    # numpy.testing, numpy.random, numpy.ma) would add ~20 MB
    (["theorem13", "--set", "m=40001"], 20, False),
    # dsyevr and dstebz come from the LAPACK extension module alone: the run
    # grows ~7 MB; the scipy.linalg package init would add ~18 MB
    (["spectrum", "--set", "n=2", "--set", "N=32"], 15, False),
    # the radial grid's gamma, gammaln and binom come from
    # scipy.special._special_ufuncs alone; the scipy.special package init
    # would add ~14 MB. Its randomized battery draws numpy random numbers, so
    # _hashlib loads inside cli.main, not before it: the run peaks at ~46 MB
    # and grows ~14.5 MB from a ~31.5 MB start when blowlab compiles from
    # source, ~16.8 MB from ~29.2 MB when its bytecode is cached
    (["verify-identities", "--set", "n=2"], 15, True),
]

# importing blowlab loads no scipy and no OpenSSL, and the installed version
# is blowlab.__version__
PACKAGE_CHECK = """
import importlib.metadata
import sys

import blowlab

exec("from blowlab import " + ", ".join(blowlab.__all__))
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
if loaded:
    sys.exit(f"importing blowlab loaded {loaded}; scipy belongs to the code that calls it")
# manifests hash with CPython's builtin SHA-256, not hashlib's OpenSSL
if "_hashlib" in sys.modules:
    sys.exit("importing blowlab loaded _hashlib, and with it OpenSSL's libcrypto")
installed = importlib.metadata.version("blowlab")
if installed != blowlab.__version__:
    sys.exit(f"installed version {installed} != blowlab.__version__ {blowlab.__version__}")
print(f"blowlab {installed} from {blowlab.__file__}: {len(blowlab.__all__)} public names")
"""

# pip's line when the build dependencies cannot be installed, as offline
OFFLINE = "No matching distribution found for setuptools>=68"


def run(argv, *, capture=True, cwd=ROOT, **env):
    """Run argv in cwd; keyword arguments are set in (or, as None, removed
    from) the environment. Output is captured unless capture is False."""
    full = dict(os.environ)
    for key, val in env.items():
        if val is None:
            full.pop(key, None)
        else:
            full[key] = str(val)
    sys.stdout.flush()
    return subprocess.run([str(a) for a in argv], cwd=cwd, env=full, text=True,
                          capture_output=capture)


def _with_src():
    """PYTHONPATH with the checkout's src/ first."""
    old = os.environ.get("PYTHONPATH")
    return f"{ROOT / 'src'}{os.pathsep + old if old else ''}"


def blowlab(*argv):
    return run([PY, "-m", "blowlab.cli", *argv], PYTHONPATH=_with_src())


def _show(proc):
    print(proc.stdout + proc.stderr, end="")


def tier1():
    proc = run([PY, "-m", "pytest", "-q", "--continue-on-collection-errors"],
               capture=False, PYTHONPATH=_with_src())
    return proc.returncode == 0


def bench_tests():
    return run([PY, "-m", "pytest", "-q", "perfbench/tests"], capture=False).returncode == 0


def smoke():
    """Each workload's artifacts must be correct, and drift from the recorded
    reference by exactly the expected count."""
    ok = True
    for workload, drift in SMOKE:
        t0 = time.perf_counter()
        proc = run([PY, "perfbench/run.py", "--workload", workload, "--seed", 1,
                    "--seconds", 1, "--trace", 0])
        lines = proc.stdout.splitlines()
        try:
            correct = json.loads(lines[-1])["correct"] is True
        except (IndexError, ValueError, KeyError):
            correct = False
        found = next((ln for ln in lines if ln.startswith("reference drift:")), "no drift line")
        good = proc.returncode == 0 and correct and found.startswith(drift)
        print(f"smoke {workload}: correct: {json.dumps(correct)}, {found} "
              f"(want {drift!r}), {time.perf_counter() - t0:.1f} s: "
              f"{'ok' if good else 'FAILED'}")
        if not good:
            _show(proc)
        ok = ok and good
    return ok


def replay():
    """Every pair must pass and replay, the round trip must reproduce its
    outputs byte for byte, and the refusal probe must leave only a manifest."""
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, argv in PAIRS:
            proc = blowlab(*argv, "--out", tmp / name)
            if proc.returncode == 0:
                proc = blowlab("replay", tmp / name, "--out", tmp / f"{name}-replay")
            print(f"replay pair {name}: {'ok' if proc.returncode == 0 else 'FAILED'}")
            if proc.returncode != 0:
                _show(proc)
                failed.append(name)

        src, dst = tmp / ROUND_TRIP, tmp / f"{ROUND_TRIP}-config"
        try:
            manifest = json.loads((src / "manifest.json").read_text())
            cfg = tmp / f"{ROUND_TRIP}.cfg"
            cfg.write_text(manifest["config_text"])
            names = [e["name"] for e in manifest["outputs"]]
            proc = blowlab(ROUND_TRIP, "--config", cfg, "--out", dst, "--quiet")
            same = (proc.returncode == 0 and bool(names) and
                    all((src / n).read_bytes() == (dst / n).read_bytes() for n in names))
        except (OSError, ValueError, KeyError) as exc:
            print(exc)
            same = False
        print(f"config round trip {ROUND_TRIP}: {'ok' if same else 'FAILED'}")
        if not same:
            failed.append(f"{ROUND_TRIP}-config")

        refused = tmp / "refused"
        proc = blowlab(*REFUSAL, "--out", refused)
        files = sorted(os.listdir(refused)) if refused.is_dir() else []
        if proc.returncode == 2 and files == ["manifest.json"]:
            print("refusal probe: ok")
        else:
            print(f"refusal probe: FAILED (exit {proc.returncode}, files: {files})")
            failed.append("refusal-probe")
    if failed:
        print("failed replay pairs: " + " ".join(failed))
    return not failed


def memory():
    """Every case must exit 0 within its peak RSS growth bound, without
    loading the scipy.linalg or scipy.special package, or _hashlib where no
    numpy random numbers are drawn. Each case runs from a copy of blowlab's
    sources with no bytecode, and from a copy compiled with compileall, the
    state the earlier steps leave in a checkout."""
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for reading in ("source", "bytecode"):
            src = tmp / reading / "src"
            shutil.copytree(ROOT / "src" / "blowlab", src / "blowlab",
                            ignore=shutil.ignore_patterns("__pycache__"))
            if reading == "bytecode":
                run([PY, "-m", "compileall", "-q", src / "blowlab"]).check_returncode()
            for i, (argv, bound, openssl_ok) in enumerate(MEMORY):
                name = f"{' '.join(argv)} [{reading}]"
                out = json.dumps(argv + ["--out", f"mem{i}", "--quiet"])
                proc = run([PY, "-c", MEMORY_CASE, out], cwd=tmp / reading,
                           PYTHONPATH=src, PYTHONDONTWRITEBYTECODE=1)
                try:
                    code, start, peak, linalg, special, openssl = json.loads(
                        proc.stdout.splitlines()[-1])
                except (IndexError, ValueError):
                    print(f"{name}: no result (exit {proc.returncode})\n{proc.stderr}")
                    failed.append(name)
                    continue
                grown = peak - start
                good = not (code != 0 or linalg or special or (openssl and not openssl_ok)
                            or grown > bound)
                print(f"{name}: exit {code}, scipy.linalg loaded: {linalg}, "
                      f"scipy.special loaded: {special}, _hashlib loaded: {openssl}, "
                      f"peak RSS {start:.1f} -> {peak:.1f} MB, grew {grown:.1f} MB "
                      f"(bound {bound} MB): {'ok' if good else 'FAILED'}")
                if not good:
                    failed.append(name)
    if failed:
        print("must exit 0 without loading scipy.linalg or scipy.special, or "
              "_hashlib where no numpy random numbers are drawn, within their "
              "peak RSS bounds: " + "; ".join(failed))
    return not failed


def package():
    """pip install . into a throwaway venv that sees the system's packages,
    run the installed console script, and check what importing blowlab
    loads. SKIPPED only when pip cannot get the build dependencies."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        # a clean copy, so the build leaves nothing in the checkout
        tree = tmp / "blowlab"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", ".perfbench_work", "runs", "build", "*.egg-info", "__pycache__"))
        run([PY, "-m", "venv", "--system-site-packages", tmp / "venv"]).check_returncode()
        bin_dir = tmp / "venv" / "bin"
        # nothing on the caller's PYTHONPATH may stand in for the install
        proc = run([bin_dir / "python", "-m", "pip", "install", "."], cwd=tree, PYTHONPATH=None)
        offline = [ln.strip() for ln in (proc.stdout + proc.stderr).splitlines() if OFFLINE in ln]
        if proc.returncode != 0 and offline:
            return f"SKIPPED ({offline[0]})"
        if proc.returncode == 0:
            proc = run([bin_dir / "blowlab", "exponents", "--out", tmp / "x"], cwd=tree,
                       PYTHONPATH=None)
        if proc.returncode == 0:
            proc = run([bin_dir / "python", "-c", PACKAGE_CHECK], cwd=tmp, PYTHONPATH=None)
        _show(proc)
        return proc.returncode == 0


STEPS = {
    "tier1": tier1,
    "bench-tests": bench_tests,
    "smoke": smoke,
    "replay": replay,
    "memory": memory,
    "package": package,
}


def _installed(name):
    version = importlib.metadata.version(name)
    return f"{name} {version}" + ("" if version == PINS[name] else f" (pinned {PINS[name]})")


def code_lines(text):
    """Non-blank lines of Python source text outside comments and docstrings."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and node.body and isinstance(node.body[0], ast.Expr)
                and isinstance(node.body[0].value, ast.Constant)
                and isinstance(node.body[0].value.value, str)):
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return sum(1 for i, line in enumerate(text.splitlines(), 1)
               if i not in docstrings and line.strip() and not line.lstrip().startswith("#"))


def source_size():
    """(wc -l total, code lines) of src/blowlab's modules."""
    texts = [path.read_text() for path in sorted((ROOT / "src" / "blowlab").glob("*.py"))]
    return sum(t.count("\n") for t in texts), sum(code_lines(t) for t in texts)


def environment():
    head = run(["git", "rev-parse", "HEAD"]).stdout.strip() or "unknown"
    lines, code = source_size()
    return (f"python {platform.python_version()}, "
            + "".join(f"{_installed(name)}, " for name in PINS)
            + f"nproc {len(os.sched_getaffinity(0))}, "
            f"PYTHONDONTWRITEBYTECODE={os.environ.get('PYTHONDONTWRITEBYTECODE', '')}, "
            f"HEAD {head}, src/blowlab {lines} lines ({code} code)")


def main(argv):
    if len(argv) > 1 or (argv and argv[0] not in STEPS):
        print(f"usage: checks.py [{'|'.join(STEPS)}]", file=sys.stderr)
        return 2
    print("environment: " + environment())
    verdicts = []
    for name in argv or STEPS:
        print(f"== {name}", flush=True)
        t0 = time.perf_counter()
        try:
            verdict = STEPS[name]()
        except Exception:  # one broken step must not hide the others
            traceback.print_exc()
            verdict = False
        if isinstance(verdict, bool):
            verdict = "PASS" if verdict else "FAIL"
        verdicts.append((name, verdict, time.perf_counter() - t0))
    print("== verdicts")
    for name, verdict, seconds in verdicts:
        print(f"{name}: {verdict} ({seconds:.1f} s)")
    return 1 if any(v == "FAIL" for _, v, _ in verdicts) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
