"""tests/cli_digest.py tells a run that raised from a failed verification."""

import cli_digest

import scarf.cli


def test_raising_run_reads_traceback(monkeypatch, capsys):
    def raising(*args):
        raise RuntimeError("stub")

    monkeypatch.setattr(scarf.cli, "run_verification", raising)
    assert cli_digest.main_digest() == 1
    runs = [line.split(" ", 2) for line in capsys.readouterr().out.splitlines()]
    verify = [code for code, _, label in runs if label.startswith("verify ")]
    others = [code for code, _, label in runs if not label.startswith("verify ")]
    assert verify and set(verify) == {"traceback:RuntimeError"}
    assert others and not any(code.startswith("traceback") for code in others)
