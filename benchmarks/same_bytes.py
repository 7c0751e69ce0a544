#!/usr/bin/env python3
"""Same bytes out: do two checkouts write the same reference artifacts?

    python benchmarks/same_bytes.py PARENT CHANGE

PARENT and CHANGE are checkouts of this repository (a ``git clone`` of
the parent commit and the working tree, say).  Every case runs once per
tree, each in a fresh ``PYTHONHASHSEED=0`` process with that tree's
``src`` on ``PYTHONPATH``, its root as the working directory, and no
bytecode written into it:

* the three reference scenarios at ``--seed 1`` (``python -m repro
  scenario run``), written under a temporary results directory:
  ``events.jsonl`` and ``flowtrace.jsonl`` are compared byte for byte,
  ``bundle.json`` leaf by leaf outside the wall-clock leaves, with the
  results directory masked in every string;
* the ten example invocations (every ``examples/*.py`` and
  ``chaos_demo.py --compare-protection --seed 1``): exit status and
  standard output, with temporary directory names masked.

One line per artifact says ``identical`` or ``different``; a
different one is followed by every differing bundle leaf, or by the
first differing line of a text artifact, each with both values.  The
exit status is 1 when anything differs.
Given the same checkout twice, it is a cross-process determinism check.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

SCENARIOS = ("fattree_baseline", "wan_chaos_soak", "wan_protected_soak")
EXAMPLES = (
    ("chain_migration.py",), ("chaos_demo.py",),
    ("chaos_demo.py", "--compare-protection", "--seed", "1"),
    ("click_playground.py",), ("custom_mapper.py",),
    ("interactive_cli.py",), ("monitoring_dashboard.py",),
    ("quickstart.py",), ("vnf_development.py",),
    ("web_service_chain.py",),
)
TEMP_NAME = re.compile(re.escape(tempfile.gettempdir()) + r"/[^\s/'\"]+")


def is_wall_clock(path):
    """Bundle leaves that time the host, not the simulation."""
    if path[-1] in ("wall_seconds", "udp_pps_wall"):
        return True
    if path[0] == "profiler" and path[-1].endswith("_s"):
        return True
    # the telemetry bundle's own overhead gauges, e.g.
    # metrics["telemetry.profiler.overhead_seconds"]["value"]
    return (len(path) > 1 and path[0] == "metrics"
            and path[1].startswith("telemetry.")
            and path[1].endswith("_seconds"))


def leaves(value, path=()):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from leaves(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from leaves(item, path + (str(index),))
    elif not is_wall_clock(path):
        yield path, value


def bundle_leaves(path, results):
    with open(path) as handle:
        bundle = json.load(handle)
    return {key: value.replace(results, "<results>")
            if isinstance(value, str) else value
            for key, value in leaves(bundle)}


def differences(old, new):
    """Where two artifacts part: every differing bundle leaf, or the
    first differing line of a text, each with the two values."""
    if "<missing>" in (old, new):
        return ["written on one side only"]
    if not isinstance(old, (dict, str)):
        return ["%r != %r" % (old, new)]
    if isinstance(old, dict):
        return ["%s: %r != %r" % (".".join(key), old.get(key, "<missing>"),
                                  new.get(key, "<missing>"))
                for key in sorted(set(old) | set(new))
                if old.get(key, "<missing>") != new.get(key, "<missing>")]
    old_lines, new_lines = old.splitlines(), new.splitlines()
    end = max(len(old_lines), len(new_lines))
    old_lines += ["<end>"] * (end - len(old_lines))
    new_lines += ["<end>"] * (end - len(new_lines))
    return next(["line %d: %r != %r" % (number, a, b)]
                for number, (a, b) in enumerate(zip(old_lines, new_lines), 1)
                if a != b)


def start(tree, argv):
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.path.join(tree, "src"))
    return subprocess.Popen([sys.executable] + list(argv), cwd=tree,
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)


def run_pair(trees, argv_of):
    """Run one case on both trees at once; (exit status, stdout) each."""
    procs = [start(tree, argv_of(tree, side))
             for side, tree in enumerate(trees)]
    return [(proc.returncode, out.decode())
            for proc, out in ((proc, proc.communicate()[0])
                              for proc in procs)]


def scenario_artifacts(trees, work, name):
    def argv(tree, side):
        return ["-m", "repro", "scenario", "run",
                os.path.join(tree, "examples", "scenarios", name + ".yaml"),
                "--seed", "1", "--results-dir",
                os.path.join(work, str(side), name)]

    statuses = [status for status, _out in run_pair(trees, argv)]
    yield name + " exit status", statuses[0], statuses[1]
    files = [{}, {}]
    for side in (0, 1):
        results = os.path.join(work, str(side), name)
        for root, _dirs, names in os.walk(results):
            for file_name in names:
                path = os.path.join(root, file_name)
                files[side][os.path.relpath(path, results)] = (path, results)
    for rel in sorted(set(files[0]) | set(files[1])):
        sides = []
        for side in (0, 1):
            if rel not in files[side]:
                sides.append("<missing>")
            elif rel.endswith("bundle.json"):
                sides.append(bundle_leaves(*files[side][rel]))
            else:
                with open(files[side][rel][0]) as handle:
                    sides.append(handle.read())
        yield "%s/%s" % (name, rel), sides[0], sides[1]


def example_artifacts(trees, args):
    def argv(tree, _side):
        return [os.path.join(tree, "examples", args[0])] + list(args[1:])

    (status0, out0), (status1, out1) = run_pair(trees, argv)
    yield (" ".join(args), "exit %d\n%s" % (status0, TEMP_NAME.sub(
        "<tmp>", out0)), "exit %d\n%s" % (status1, TEMP_NAME.sub(
            "<tmp>", out1)))


def main():
    args = sys.argv[1:]
    if len(args) != 2 or not all(os.path.isdir(tree) for tree in args):
        print("usage: python benchmarks/same_bytes.py PARENT CHANGE",
              file=sys.stderr)
        return 2
    trees = [os.path.abspath(tree) for tree in args]
    work = tempfile.mkdtemp(prefix="same-bytes-")
    differ = 0
    try:
        cases = [scenario_artifacts(trees, work, name) for name in SCENARIOS]
        cases += [example_artifacts(trees, case) for case in EXAMPLES]
        for case in cases:
            for label, old, new in case:
                same = old == new
                differ += not same
                print("%-10s %s" % ("identical" if same else "different",
                                    label), flush=True)
                for detail in [] if same else differences(old, new):
                    print("    " + detail, flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("%d artifact(s) differ" % differ)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
