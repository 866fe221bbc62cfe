"""A standing mutant check for the bubble encoding and the solver.

Each mutant is one textual edit of one source file: it drops or weakens
one law of the encoding (``translate.py``), one step of the solver
(``solver.py``), or one refusal or memo key of the model checker
(``core.py``) or of the brute-force oracle (``oracle.py``). The script applies the mutants one at a time, each to
a fresh temporary copy of the checkout's ``src/``, ``tests/`` and
``perfbench/``, never to the checkout itself, and runs Tier-1 on the
copy with ``-x`` under a time limit. A mutant is killed when a test
fails or the run outlasts the limit, and the script prints the first
failing test; a mutant that passes Tier-1 survived, and needs a test or
a written argument that it is equivalent. The unmutated copy runs
first, and must pass.

Run it from the root of the checkout; a full pass takes a few
minutes::

    python tests/mutants.py

The exit status is 0 when every mutant was killed. pytest does not
collect this file; CI runs it in the ``mutants`` job of
``.github/workflows/tier1.yml``, which fails on a survivor.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOLVER = "src/polkit/dpdl/solver.py"
TRANSLATE = "src/polkit/dpdl/translate.py"
CORE = "src/polkit/dpdl/core.py"
ORACLE = "src/polkit/dpdl/oracle.py"
# seconds per Tier-1 run: an unmutated run takes about 30 s on two
# shared vCPUs, so only a mutant that makes the solver loop or blow up
# reaches it
LIMIT = 300

# (file, old text, new text, name); the old text occurs once in the file
MUTANTS = [
    (SOLVER,
     "        elif len(lits) == 1 or value[lits[1]] is False:\n",
     "        elif len(lits) == 1:\n"
     "            pass\n"
     "        elif value[lits[1]] is False:\n",
     "add_clause keeps a unit without asserting it"),
    (SOLVER,
     "                asserted.append(own)\n",
     "                add_clause([own])\n",
     "compile asserts a unit before its binary clauses"),
    (SOLVER,
     "                asserted.append(own)\n",
     "                asserted.append(own ^ 1)\n",
     "compile flips an empty junction's unit"),
    (SOLVER,
     "                        self.add_clause(learnt)\n"
     "                        if self.empty:\n"
     "                            return \"unsat\", []\n",
     "",
     "_search drops a learned unit"),
    (SOLVER,
     "        culprits = list(culprits)\n",
     "        culprits = list(culprits)[1:]\n",
     "_learn drops a culprit"),
    (SOLVER,
     "self._solve([lit[index[arg]] ^ (not want)])",
     "self._solve([lit[index[arg]] ^ want])",
     "_refute flips want"),
    (SOLVER,
     "            if status == \"unsat\":\n"
     "                g = sx.dia(pi, arg)",
     "            if True:\n"
     "                g = sx.dia(pi, arg)",
     "_refute skips its unsat check"),
    (SOLVER,
     "                b = boxes.get(d.arg)\n",
     "                b = None\n",
     "compile drops the diamond/box pair clause"),
    (SOLVER,
     "                self.charge(0)\n",
     "",
     "_search skips the meter check"),
    (SOLVER,
     "            self.dpll.charge(1)\n",
     "            self.dpll.charge(0)\n",
     "register charges nothing"),
    (SOLVER,
     "            outcome = _Exact(f, shape, dpll).run()\n",
     "            dpll.propagations = dpll.states = 0\n"
     "            outcome = _Exact(f, shape, dpll).run()\n",
     "_decide resets the meter before the exact regime"),
    (TRANSLATE,
     "                       *self._frame_laws(),\n",
     "",
     "no transitivity"),
    (TRANSLATE,
     "sx.dia(a, sx.lnot(self.surv(ell))))",
     "sx.dia(a, sx.top()))",
     "dead slots may revive"),
    (TRANSLATE,
     "if hat else dc.implies(link, chain)",
     "if hat else dc.implies(sx.lnot(link), chain)",
     "a flipped K chain link"),
    (TRANSLATE,
     "after[k] = (beyond(links[k], join(cells[k + 1], *after[k + 1])),)",
     "after[k] = (beyond(links[k], cells[k + 1]),)",
     "a right chain of one step"),
    (TRANSLATE,
     "return sx.box(psi.pi, dc.implies(self.surv(ell),\n"
     "                                             self.at(ell, psi.arg)))",
     "return sx.box(psi.pi, self.at(ell, psi.arg))",
     "a box that ignores survival"),
    (TRANSLATE,
     "for x in kept for a in letters]",
     "for x in kept[::2] for a in letters]",
     "half the persistence laws"),
    (TRANSLATE,
     "for g in (psi, sx.lnot(psi))]",
     "for g in (psi,)]",
     "negated propositions do not persist"),
    (TRANSLATE,
     "for x in (r, sx.lnot(r))]",
     "for x in (r,)]",
     "missing links may appear"),
    (TRANSLATE,
     "dc.land(self.surv(1), self.at(1, self.source),",
     "dc.land(self.at(1, self.source),",
     "slot 1 need not be alive"),
    (TRANSLATE,
     "        invariant += [sx.dia(a, sx.top()) for a in letters]\n",
     "",
     "no successor-existence law"),
    (TRANSLATE,
     "            if ell > 1 and not holds(self._rel[(agent, ell - 1, ell)]):\n",
     "            if ell > 1 and not (ell - 1 in live and\n"
     "                                holds(self._rel[(agent, ell - 1, ell)])):\n",
     "the run reader reads only the links of live slots"),
    (CORE,
     "    _check_formula(f)\n    return _evaluator(m)(s, f)\n",
     "    sx._check_depth(f)\n    return _evaluator(m)(s, f)\n",
     "dpdl_check skips the agent refusal"),
    (CORE,
     "        known = memo[st]\n",
     "        known = memo[m.states[0]]\n",
     "the evaluator's memo ignores the state"),
    (ORACLE,
     "    dc._check_formula(f)\n",
     "    sx._check_depth(f)\n",
     "brute_dpdl_sat skips its up-front agent refusal"),
]


def copy_checkout(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
    for name in ("src", "tests", "perfbench"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def first_failure(output: str) -> str:
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" - ")[0]
    return "no test named in the output"


def run(mutant) -> tuple:
    """(verdict, detail, seconds) of Tier-1 on a copy with ``mutant``
    applied; ``mutant`` None runs the copy unmutated."""
    with tempfile.TemporaryDirectory(prefix="polkit-mutant-") as tmp:
        tmp = Path(tmp)
        copy_checkout(tmp)
        if mutant is not None:
            path, old, new, _ = mutant
            text = (tmp / path).read_text()
            if text.count(old) != 1:
                return ("not applied", f"{text.count(old)} matches in {path}",
                        0.0)
            (tmp / path).write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH")]))
        start = time.perf_counter()
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x",
                 "-p", "no:cacheprovider", "--continue-on-collection-errors"],
                cwd=tmp, env=env, capture_output=True, text=True,
                timeout=LIMIT)
        except subprocess.TimeoutExpired:
            return "killed", f"timeout after {LIMIT} s", LIMIT
        seconds = time.perf_counter() - start
        if done.returncode == 0:
            return "survived", "Tier-1 passes", seconds
        return "killed", first_failure(done.stdout), seconds


def main() -> int:
    verdict, detail, seconds = run(None)
    print(f"unmutated: {detail} ({seconds:.0f} s)", flush=True)
    if verdict != "survived":
        print("the unmutated copy must pass Tier-1 first")
        return 2
    killed = 0
    for mutant in MUTANTS:
        verdict, detail, seconds = run(mutant)
        killed += verdict == "killed"
        print(f"{verdict:>11}  {mutant[3]}: {detail} ({seconds:.0f} s)",
              flush=True)
    print(f"score: {killed} of {len(MUTANTS)} killed")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
