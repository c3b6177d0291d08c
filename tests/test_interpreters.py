"""A trace is the same bytes on every interpreter that ``requires-python``
admits. The C encoder behind ``trace._encode`` returns its chunks as a list
before Python 3.12 and as a tuple from 3.12 on; without the ``_json`` C
module there is no C encoder at all. Each case must write the pinned bytes,
and so must every other installed interpreter from 3.10 to 3.13 that runs
``python -m dynsync run`` on the bundled scenarios and on the benchmark's
tiny workloads."""
import glob
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from dynsync import cli, trace
from dynsync.trace import RunTrace
from test_pins import BUNDLED, workloads

SRC = Path(__file__).resolve().parents[1] / "src"


def digests(out, name):
    return tuple(
        hashlib.sha256((out / f"{name}{suffix}").read_bytes()).hexdigest()
        for suffix in (".trace.jsonl", ".h.json", ".report.txt")
    )


def test_lines_are_written_from_a_tuple_of_chunks(monkeypatch, tmp_path, capsys):
    """As from 3.12 on: the encoder's chunks come as a tuple, and the run
    still writes, in its forked writer too, the pinned bytes."""
    as_list = trace._encode
    monkeypatch.setattr(trace, "_encode", lambda obj, level: tuple(as_list(obj, level)))
    small = RunTrace({"n": 1}, [{"kind": "stage", "t": 0}], {"stages": 1})
    assert list(small.lines()) == [
        '{"kind":"header","n":1}\n', '{"kind":"stage","t":0}\n', '{"kind":"footer","stages":1}\n'
    ]
    assert cli.main(["run", "static_triangle", "--out", str(tmp_path), "-q"]) == 0
    assert capsys.readouterr().out.strip() == "RESULT PASS"
    assert digests(tmp_path, "static_triangle") == BUNDLED["static_triangle"]


# runs one bundled scenario with json.encoder.c_make_encoder gone, as where
# the _json C module is missing
WITHOUT_C_ENCODER = """
import json.encoder, sys
json.encoder.c_make_encoder = None
sys.path.insert(0, sys.argv[1])
from dynsync import cli, trace
assert not hasattr(trace._encode, "markers"), "the C encoder is still in use"
sys.exit(cli.main(["run", sys.argv[2], "--out", sys.argv[3], "-q"]))
"""


def test_without_the_c_encoder_the_pinned_bytes_are_written(tmp_path):
    name = "churn_mesh"
    proc = subprocess.run(
        [sys.executable, "-I", "-c", WITHOUT_C_ENCODER, str(SRC), name, str(tmp_path)],
        capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stdout.strip()) == (0, "RESULT PASS"), proc.stderr
    assert digests(tmp_path, name) == BUNDLED[name]


def interpreter(minor):
    """A working ``python3.MINOR`` on ``PATH`` or under ``~/.pyenv/versions``,
    or None. A pyenv shim for a version that is not selected is on ``PATH``
    but exits non-zero, so each candidate must report its own version."""
    pattern = os.path.expanduser(f"~/.pyenv/versions/3.{minor}.*/bin/python3.{minor}")
    for path in [shutil.which(f"python3.{minor}"), *sorted(glob.glob(pattern))]:
        if path is None:
            continue
        try:
            proc = subprocess.run(
                [path, "-c", "import sys; print('%d.%d' % sys.version_info[:2])"],
                capture_output=True, text=True, timeout=30,
            )
        except (OSError, subprocess.TimeoutExpired):
            continue
        if proc.returncode == 0 and proc.stdout.strip() == f"3.{minor}":
            return path
    return None


@pytest.mark.parametrize("minor", [10, 11, 12, 13], ids=lambda minor: f"3.{minor}")
def test_another_interpreter_writes_the_pinned_bytes(minor, tmp_path):
    if minor == sys.version_info.minor:
        pytest.skip("this interpreter runs the rest of the suite")
    python = interpreter(minor)
    if python is None:
        pytest.skip(f"no python3.{minor} installed")
    env = {**os.environ, "PYTHONPATH": str(SRC)}

    def run(scenario, name):
        proc = subprocess.run(
            [python, "-m", "dynsync", "run", scenario, "--out", str(tmp_path), "-q"],
            capture_output=True, text=True, env=env, cwd=tmp_path,
        )
        assert (proc.returncode, proc.stdout.strip()) == (0, "RESULT PASS"), (name, proc.stderr)
        return digests(tmp_path, name)

    for name in sorted(BUNDLED):
        assert run(name, name) == BUNDLED[name], name
    for name in sorted(workloads.WORKLOADS):
        config = tmp_path / f"{name}.json"
        spec = workloads.WORKLOADS[name].config(workloads.DEFAULT_SEED, "tiny")
        config.write_text(json.dumps(spec, sort_keys=True) + "\n", encoding="utf-8")
        pins = workloads.PINS[name, "tiny"]
        assert run(str(config), name)[:2] == (pins["trace"], pins["history"]), name
