"""The session commands' deployments and the command-line surface."""

import argparse
import json
import os
import re
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from falcon import cli

ROOT = Path(__file__).resolve().parents[1]
RELU = ["bench", "--protocol", "relu", "--threat", "malicious", "--n", "64", "--json"]


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _counts(measured: dict) -> tuple:
    return measured["rounds"], measured["acct_bytes"], measured["wire_bytes"]


def test_three_process_tcp_run_matches_in_process(tmp_path, capsys):
    assert cli.main(RELU) == 0
    want = _counts(json.loads(capsys.readouterr().out)["measured"])
    assert want[0] > 0
    peers = tmp_path / "peers.json"
    peers.write_text(json.dumps({str(i): ["127.0.0.1", _free_port()] for i in (1, 2, 3)}))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    procs = [subprocess.Popen([sys.executable, "-m", "falcon.cli", *RELU, "--party", str(i),
                               "--config", str(peers), "--timeout", "20"],
                              env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for i in (1, 2, 3)]
    try:
        outs = [p.communicate(timeout=60) for p in procs]
    finally:
        for p in procs:
            p.kill()
    for party, (p, (out, err)) in enumerate(zip(procs, outs), start=1):
        assert p.returncode == 0, f"P{party}: {err}"
        assert _counts(json.loads(out)["measured"]) == want, f"P{party}"


def test_party_runs_over_tcp(tmp_path, capsys):
    # a lone party dials peers that never come up, gives up after --timeout
    # and exits with status 3 and an error line, not a traceback
    peers = tmp_path / "peers.json"
    peers.write_text(json.dumps({str(i): ["127.0.0.1", _free_port()] for i in (1, 2, 3)}))
    rc = cli.main(["bench", "--protocol", "mult", "--n", "4", "--party", "1", "--config", str(peers),
                   "--timeout", "0.5"])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error: ") and "P1 could not reach P2" in err and "Traceback" not in err


def test_timeout_reaches_the_in_process_session():
    args = cli.build_parser().parse_args(["bench", "--timeout", "7.5"])
    assert cli.run_cmd(args, lambda sess: sess.timeout) == 7.5


def _refused(capsys, argv) -> str:
    """Run a command that must fail cleanly; returns its stderr."""
    try:
        rc = cli.main(argv)
    except SystemExit as exc:  # argparse's refusal
        rc = exc.code
    assert rc == 2
    err = capsys.readouterr().err
    assert "error: " in err and "Traceback" not in err
    return err


def test_party_needs_config(capsys):
    assert "--config" in _refused(capsys, ["bench", "--protocol", "mult", "--n", "4", "--party", "1"])


def test_config_needs_party(capsys):
    argv = ["bench", "--protocol", "mult", "--n", "4", "--config", "nosuch.json"]
    assert "--config needs --party" in _refused(capsys, argv)


@pytest.mark.parametrize("prep", ["bogus", "file:", "Dealer"])
def test_prep_is_checked_at_parse_time(capsys, prep):
    assert "--prep" in _refused(capsys, ["bench", "--protocol", "mult", "--n", "4", "--prep", prep])


@pytest.mark.parametrize("content", [None, "{not json", json.dumps({"1": ["127.0.0.1", 1], "2": ["127.0.0.1", 2]})],
                         ids=["missing", "not_json", "no_party_3"])
def test_bad_peers_file_is_refused(tmp_path, capsys, content):
    peers = tmp_path / "peers.json"
    if content is not None:
        peers.write_text(content)
    err = _refused(capsys, ["bench", "--protocol", "mult", "--n", "4", "--party", "1", "--config", str(peers)])
    assert err.startswith("error: ") and "peers file" in err


def test_readme_command_line_flags_exist():
    # every flag the README's Command line section names is an option of
    # some falcon subcommand, so a removed flag cannot linger in the docs
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {o for p in sub.choices.values() for a in p._actions for o in a.option_strings}
    assert named and not named - options, sorted(named - options)
