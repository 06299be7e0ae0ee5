"""CLI tests (parser structure and the fast commands)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_commands_registered(self):
        parser = build_parser()
        for argv in (
            ["upath", "ADD"],
            ["decisions", "LW"],
            ["uspec", "ADD", "LW"],
            ["table2"],
            ["sc-safe", "DIV", "arf_w1"],
            ["synth-all"],
            ["synth-all", "ADD", "DIV", "--jobs", "4",
             "--cache-dir", ".repro-cache", "--trace", "run.jsonl",
             "--timeout", "120", "--max-attempts", "2"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_synth_all_defaults(self):
        args = build_parser().parse_args(["synth-all"])
        assert args.instrs == []
        assert args.jobs is None
        assert args.cache_dir is None
        assert args.trace is None
        assert args.max_attempts == 3

    def test_synth_all_unknown_instruction_exit_code(self, capsys):
        assert main(["synth-all", "NOPE"]) == 2
        assert "unknown instruction" in capsys.readouterr().out

    def test_invalid_instruction_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["upath", "NOPE"])

    @pytest.mark.parametrize(
        "flag",
        [
            # one CDCL path
            "--no-coi", "--no-preprocess", "--no-clause-sharing",
            # one local scheduler
            "--broker", "--priority", "--cache-server",
            # certification budgets are constants
            "--certify-proof-limit", "--certify-time-budget",
            # --metrics FILE is the one metrics export
            "--metrics-port",
        ],
    )
    def test_removed_flags_rejected(self, flag, capsys):
        """Retired switches are gone, not silently ignored."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["synth-all", flag])
        assert exc.value.code == 2
        assert "unrecognized arguments: %s" % flag in capsys.readouterr().err

    def test_certify_modes(self, capsys):
        """``--certify`` takes ``off`` or ``full``; the retired ``spot``
        mode is an invalid choice, not a silent alias."""
        parser = build_parser()
        assert parser.parse_args(["synth-all"]).certify == "off"
        assert parser.parse_args(
            ["synth-all", "--certify", "full"]
        ).certify == "full"
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["synth-all", "--certify", "spot"])
        assert exc.value.code == 2
        assert "invalid choice: 'spot'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["broker", "worker", "top"])
    def test_removed_commands_rejected(self, command, capsys):
        """The multi-node fleet's commands are gone with it."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command])
        assert exc.value.code == 2
        assert "invalid choice: '%s'" % command in capsys.readouterr().err

    def test_command_required(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])


class TestFastCommands:
    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "core" in out and "cache" in out and "uFSMs" in out

    def test_sc_safe_violation_exit_code(self, capsys):
        # DIV with a secret dividend: must report a violation (exit 1)
        assert main(["sc-safe", "DIV", "arf_w1"]) == 1
        out = capsys.readouterr().out
        assert "VIOLATION" in out

    def test_sc_safe_clean_exit_code(self, capsys):
        assert main(["sc-safe", "XOR", "arf_w1"]) == 0
        out = capsys.readouterr().out
        assert "holds" in out
