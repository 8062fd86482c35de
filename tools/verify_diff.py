"""Compare the seeded CLI outputs of a parent and a change checkout.

Usage, from anywhere::

    python3 tools/verify_diff.py --parent DIR --change DIR \\
        [--seeds 0,3,7] [--scope all]

Each checkout runs its own ``src/`` through ``python -m nctorus.cli``:

* ``verify --scope S --grid G --seed s`` for both grids, ``full`` and
  ``small``, as text and with ``--json``;
* the same with ``--corrupt-phi``, so that a change to the output of a
  failing check (its ``dev`` or witness) shows line by line;
* ``verify --scope cocycle`` and ``verify --scope star``, each with
  ``--grid G --seed s --json --param P`` for both grids and the g = 3 and
  ``N = 2**64`` entries of ``PARAMS``, so that the sampled g >= 3 check
  and the Python-int paths are covered;
* ``fm demo --seed s``, as text and with ``--json``;
* ``star mul`` of two fixed multi-term polynomials under every entry of
  ``PARAMS``, so that star products are compared digit for digit;
* ``qweyl mul`` of two fixed words under every entry of ``PARAMS``, on
  the noncommutative side under the first and third and on the gerby side
  under the other two, so that crossed-product elements are too, and of
  ``QWEYL_HUGE`` under the default parameters, whose shift exponents only
  an exact exchange phase survives;
* ``param analyze --json`` on the default parameters and on the four of
  ``PARAMS`` (``N = 64``, ``N = 12`` with g = 3, ``N = 6``, and the
  ``N = 2**64`` quotient that ``param analyze`` refuses with exit 2).

For every command it reports whether stdout, stderr and the exit code
are byte-identical.  A differing text output shows its first differing
lines.  A differing ``--json`` output is compared field by field: each
field that changed is listed by name (under ``verify``, a check's field
under the check's name, such as ``hom-space-intertwines witness``), and
each floating ``dev`` figure that moved is listed apart: a check's
``max_dev`` under ``verify``, a ``*_dev`` key under ``fm demo``.  Exit
status is 0 when every output is identical, 1 otherwise.  Only the
standard library is used.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

RUN_TIMEOUT_S = 600
ABSENT = "<absent>"
PARAMS = [
    {"M": [[0, 1], [0, 0]], "N": 64},
    {"M": [[0, 1, 2], [0, 0, 3], [0, 0, 0]], "N": 12},
    {"M": [[0, 2], [0, 0]], "N": 6},
    {"M": [[0, 1], [0, 0]], "N": 2 ** 64},
]
# fixed factors for ``star mul``, by rank g; no term starts with a sign,
# which the argument parser would read as an option, and the 2**40 power
# moves the phases at N = 2**64 well above the printed precision
STAR_FACTORS = {
    2: ("2*t1^2*t2^-1 + 3/4i*t2 + 5 + 7/2*t1^-3*t2^2 - i*t1"
        " + 3*t1^1099511627776*t2",
        "1/2*t1*t2 + 3*t2^-2 - 5/4i*t1^-1 + 9*t1^2*t2^3"),
    3: ("2*t1^2*t3^-1 + 3/4i*t2*t3 + 5 + 7/2*t1^-3*t2^2 - i*t3^2",
        "1/2*t1*t2*t3 + 3*t2^-2 - 5/4i*t1^-1*t3 + 9*t1^2*t2^3*t3^-2"),
}

# fixed ``qweyl mul`` words, one pair per entry of ``PARAMS``; no word starts
# with a sign, and the products print a signed scalar, a phase or both
QWEYL_WORDS = [
    ("t2^-3*g2^4", "t1^8*g1^-1"),
    ("th3*gh2^-2*th1^2", "gh3^2*th2*gh1^-1"),
    ("g2^3*t2", "t1*g1^2"),
    ("gh2*th1^1099511627776", "th2^-1*gh1"),
]
# shift exponents written out in full: the exchange phase is w(1/4)
QWEYL_HUGE = ("g2^99999999999999999999", "t1^99999999999999999")


def commands(seeds, scope: str) -> list[list[str]]:
    out = []
    for seed in seeds:
        for grid in ("full", "small"):
            verify = ["verify", "--scope", scope, "--grid", grid,
                      "--seed", str(seed)]
            corrupt = verify + ["--corrupt-phi"]
            out += [verify, verify + ["--json"], corrupt,
                    corrupt + ["--json"]]
        out += [["verify", "--scope", battery, "--grid", grid, "--seed",
                 str(seed), "--json", "--param", json.dumps(p)]
                for battery in ("cocycle", "star")
                for p in (PARAMS[1], PARAMS[3]) for grid in ("full", "small")]
        demo = ["fm", "demo", "--seed", str(seed)]
        out += [demo, demo + ["--json"]]
    out += [["star", "mul", *STAR_FACTORS[len(p["M"])], "--param",
             json.dumps(p)] for p in PARAMS]
    out += [["qweyl", "mul", *words, "--param", json.dumps(p)]
            for p, words in zip(PARAMS, QWEYL_WORDS)]
    out.append(["qweyl", "mul", *QWEYL_HUGE])
    out.append(["param", "analyze", "--json"])
    out += [["param", "analyze", "--json", "--param", json.dumps(p)]
            for p in PARAMS]
    return out


def run(checkout: str, argv: list[str]) -> tuple[int, str, str]:
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    proc = subprocess.run([sys.executable, "-m", "nctorus.cli", *argv],
                          cwd=checkout, env=env, capture_output=True,
                          text=True, timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr


def json_fields(argv: list[str], out: str) -> dict | None:
    """A ``--json`` output as ``{name: value}``: a ``verify`` check's
    fields under ``"<check> <field>"``, every other key under its own
    name.  ``None`` for a text output or one that is no JSON object."""
    if "--json" not in argv:
        return None
    try:
        data = json.loads(out)
    except ValueError:
        return None
    if not isinstance(data, dict):
        return None
    fields = {}
    for key, value in data.items():
        if argv[0] == "verify" and key == "results":
            fields.update({f"{r['name']} {field}": v for r in value
                           for field, v in r.items() if field != "name"})
        else:
            fields[key] = value
    return fields


def compare(argv, parent, change) -> list[str]:
    """Report lines for one command; empty when both sides agree."""
    lines = []
    if parent[0] != change[0]:
        lines.append(f"  exit code {parent[0]} -> {change[0]}")
    if parent[2] != change[2]:
        lines.append(f"  stderr {parent[2]!r} -> {change[2]!r}")
    if parent[1] == change[1]:
        return lines
    before, after = json_fields(argv, parent[1]), json_fields(argv,
                                                              change[1])
    fields = []
    names = [] if before is None or after is None else \
        [*before, *(k for k in after if k not in before)]
    for name in names:
        old, new = before.get(name, ABSENT), after.get(name, ABSENT)
        if old == new:
            continue
        if name.endswith("_dev") and ABSENT not in (old, new):
            fields.append(f"  dev moved: {name.removesuffix(' max_dev')} "
                          f"{old!r} -> {new!r}")
        else:
            fields.append(f"  changed: {name} {old!r} -> {new!r}")
    if fields:
        return lines + fields
    # text, no JSON object, or JSON equal in value but not in bytes
    diff = difflib.unified_diff(parent[1].splitlines(),
                                change[1].splitlines(), "parent", "change",
                                n=0, lineterm="")
    return lines + [f"  {line}" for line in list(diff)[:12]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--change", required=True,
                        help="checkout of the change")
    parser.add_argument("--seeds", default=[0, 3, 7],
                        type=lambda text: [int(s) for s in text.split(",")],
                        help="comma-separated verify and demo seeds")
    parser.add_argument("--scope", default="all", help="verify --scope")
    args = parser.parse_args(argv)
    sides = [os.path.abspath(args.parent), os.path.abspath(args.change)]
    differing = 0
    with ThreadPoolExecutor(max_workers=2) as pool:
        for cmd in commands(args.seeds, args.scope):
            parent, change = pool.map(lambda side: run(side, cmd), sides)
            lines = compare(cmd, parent, change)
            differing += bool(lines)
            print(f"{'DIFFERS' if lines else 'same   '} (exit "
                  f"{change[0]}) nctorus {' '.join(cmd)}")
            for line in lines:
                print(line)
    print(f"{differing} of the outputs differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
