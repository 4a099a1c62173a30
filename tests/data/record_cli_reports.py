"""Regenerate cli_reports.json from the argvs recorded in it.

Each recorded case holds a CLI argv and the exit code, standard output and
standard error of that call; ``tests/test_cli.py`` compares them byte for
byte.  Run from the root of a source checkout:

    PYTHONPATH=src python tests/data/record_cli_reports.py            # every case
    PYTHONPATH=src python tests/data/record_cli_reports.py CASE ...   # only these

Cases not named keep their recorded bytes.  The script prints each case
whose bytes changed, followed by its exit code if that moved and by the
stdout and stderr lines that differ, old (``-``) before new (``+``).  To
pin a new case, add an entry holding only its ``argv`` under a new name
and run the script with that name; the entry is recorded and printed as
changed, with every line new.  A numpy RuntimeWarning is an error here,
as it is in the tests.
"""

import contextlib
import io
import json
import pathlib
import sys
import warnings

from geodet.cli import main

REPORTS = pathlib.Path(__file__).with_name("cli_reports.json")


def record(argv):
    """(exit code, stdout, stderr) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def regenerate(cases=None) -> list:
    """Record ``cases`` (default: all) again; return (name, old, new) for each that changed.

    ``old`` and ``new`` map "exit", "stdout" and "stderr" to the recorded
    and the fresh values; ``old`` holds None for a case never recorded.
    """
    reports = json.loads(REPORTS.read_text())
    unknown = set(cases or ()) - set(reports)
    if unknown:
        raise SystemExit(f"no recorded case named {', '.join(sorted(unknown))}")
    changed = []
    for name in sorted(cases or reports):
        rec = reports[name]
        new = dict(zip(("exit", "stdout", "stderr"), record(rec["argv"])))
        if any(rec.get(key) != value for key, value in new.items()):
            changed.append((name, {key: rec.get(key) for key in new}, new))
            rec.update(new)
    REPORTS.write_text(json.dumps(reports, indent=1, sort_keys=True))
    return changed


def describe(name, old, new) -> list:
    """The lines that print one changed case: its name, then what moved in it."""
    lines = [name]
    if old["exit"] != new["exit"]:
        lines.append(f"  exit {old['exit']!r} -> {new['exit']!r}")
    for stream in ("stdout", "stderr"):
        before = (old[stream] or "").splitlines()
        after = new[stream].splitlines()
        lines += [f"  {stream} - {line}" for line in before if line not in after]
        lines += [f"  {stream} + {line}" for line in after if line not in before]
    return lines


if __name__ == "__main__":
    for case in regenerate(sys.argv[1:]):
        print("\n".join(describe(*case)))
