"""Tests for the ``python -m repro optimize`` entry point."""

from __future__ import annotations

from repro.cli import main
from repro.optimize.cli import optimize_main


class TestOptimizeCLI:
    def test_main_dispatches_optimize(self, capsys):
        code = main(
            [
                "optimize",
                "--line",
                "2",
                "--objective",
                "availability",
                "--crews",
                "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "OPT" in out
        assert "policy iteration: converged" in out

    def test_rollout_objective_and_metrics_flag(self, capsys):
        code = optimize_main(
            [
                "--line",
                "2",
                "--objective",
                "survivability",
                "--points",
                "9",
                "--metrics",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "rollout:" in out
        # --metrics prints this run's counters, not a process-wide total.
        [line] = [
            line
            for line in out.splitlines()
            if line.startswith("repro_optimizer_rollout_iterations_total ")
        ]
        assert int(line.split()[1]) >= 1

    def test_crew_limit_below_one_exits_2(self, capsys):
        code = optimize_main(["--line", "2", "--crews", "0"])
        assert code == 2
        assert "error:" in capsys.readouterr().out
