"""Tests for the CLI entry points and the shipped examples."""

from __future__ import annotations

import importlib
import json
import os
import pathlib
import py_compile
import subprocess
import sys
import threading
import time

import pytest

from repro import cli
from repro.clock import WallClock
from repro.core.backends import FileBackend
from repro.core.heartbeat import Heartbeat
from repro.experiments import claims
from repro.experiments.runner import available_experiments, main
from repro.net import NetworkBackend

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src"
PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_every_console_script_resolves_to_a_callable():
    """Each ``[project.scripts]`` target names a callable an install can run."""
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"]
    assert {"repro", "repro-experiments"} <= set(scripts)
    for command, target in scripts.items():
        module, _, attribute = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attribute)), command


class TestRunnerCLI:
    def test_list_option(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert set(available_experiments()) <= set(out)

    def test_runs_selected_experiment_and_writes_output(self, capsys, tmp_path):
        out_file = tmp_path / "report.txt"
        assert main(["fig6", "--output", str(out_file)]) == 0
        stdout = capsys.readouterr().out
        assert "fig6" in stdout
        assert "ran 1 experiment(s)" in stdout
        assert "fig6" in out_file.read_text()
        # One PASS line per full-size claim row of the experiment.
        verdicts = [line for line in stdout.splitlines() if line.startswith("claim ")]
        assert len(verdicts) == sum(c.experiment == "fig6" and c.size == "full" for c in claims.CLAIMS)
        assert all(line.endswith("PASS") for line in verdicts)

    def test_unknown_experiment_returns_error_code(self, capsys):
        assert main(["definitely-not-real"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_default_is_all(self):
        # Only check argument plumbing, not a full run: --list short-circuits.
        assert main(["--list"]) == 0


class TestTelemetryCLI:
    """`python -m repro` — the collect and watch subcommands."""

    def test_collect_prints_endpoint_and_summaries(self, capsys):
        assert cli.main(["collect", "--duration", "0.3", "--interval", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "collector listening on 127.0.0.1:" in out
        assert "streams=0" in out

    def test_collect_propagates_port_via_port_file(self, tmp_path, capsys):
        port_file = tmp_path / "port"
        done = threading.Event()

        def run() -> None:
            cli.main(
                ["collect", "--duration", "2.0", "--interval", "0.1", "--quiet",
                 "--port-file", str(port_file)]
            )
            done.set()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        deadline = time.monotonic() + 5.0
        while not port_file.exists() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert port_file.exists(), "collect never wrote its port file"
        port = int(port_file.read_text().strip())
        assert port > 0
        # A producer can dial the propagated port while collect runs.
        backend = NetworkBackend(("127.0.0.1", port), stream="cli-svc", flush_interval=0.01)
        hb = Heartbeat(window=5, backend=backend)
        hb.heartbeat_batch(10)
        hb.finalize()
        assert done.wait(timeout=10.0)
        assert not port_file.exists()  # cleaned up on exit

    def test_watch_once_with_inline_collector(self, capsys):
        assert cli.main(["watch", "tcp://127.0.0.1:0", "--once"]) == 0
        out = capsys.readouterr().out
        assert "collector listening on 127.0.0.1:" in out
        assert "stream" in out and "status" in out
        assert "0 streams" in out

    def test_watch_nothing_to_watch_errors(self, capsys):
        assert cli.main(["watch"]) == 2
        assert "nothing to watch" in capsys.readouterr().err

    def test_watch_file_attachment(self, tmp_path, capsys):
        log = tmp_path / "svc.hblog"
        hb = Heartbeat(window=5, backend=FileBackend(log))
        for _ in range(10):
            hb.heartbeat()
        hb.finalize()
        assert cli.main(["watch", f"file://{log}", "--once"]) == 0
        out = capsys.readouterr().out
        assert "file:svc.hblog" in out
        assert "1 streams, 1 measurable" in out

    def test_watch_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert cli.main(["watch", f"file://{tmp_path / 'absent.hblog'}", "--once"]) == 1
        assert "cannot attach heartbeat log" in capsys.readouterr().err

    def test_watch_sees_live_producer(self, capsys):
        rc: list[int] = []
        ready = threading.Event()
        real_emit = cli._emit

        def emit_and_signal(line: str, *, stream=None) -> None:
            real_emit(line, stream=stream)
            if "collector listening on" in line:
                ready.set()
                emit_and_signal.port = int(line.rsplit(":", 1)[1])  # type: ignore[attr-defined]

        thread = threading.Thread(
            target=lambda: rc.append(
                cli.main(["watch", "tcp://127.0.0.1:0", "--duration", "1.2",
                          "--interval", "0.1"])
            ),
            daemon=True,
        )
        cli._emit, undo = emit_and_signal, real_emit
        try:
            thread.start()
            assert ready.wait(timeout=5.0)
            port = emit_and_signal.port  # type: ignore[attr-defined]
            backend = NetworkBackend(("127.0.0.1", port), stream="live-svc", flush_interval=0.01)
            hb = Heartbeat(window=5, backend=backend)
            for _ in range(20):
                hb.heartbeat()
                time.sleep(0.005)
            hb.finalize()
            thread.join(timeout=10.0)
        finally:
            cli._emit = undo
        assert rc == [0]
        assert "live-svc" in capsys.readouterr().out


class TestAdaptCLI:
    """`python -m repro adapt` — spec-driven advisory adaptation."""

    def write_spec(self, tmp_path, data=None):
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                data
                if data is not None
                else {"loops": [{"match": "*", "controller": "step", "actuator": "log"}]}
            )
        )
        return spec

    def test_adapt_over_a_log_file_dry_runs_decisions(self, tmp_path, capsys):
        log = tmp_path / "svc.hblog"
        hb = Heartbeat(window=5, backend=FileBackend(log))
        hb.set_target_rate(1e6, 2e6)  # unreachably fast: the loop must step up
        for _ in range(10):
            hb.heartbeat()
        hb.finalize()
        spec = self.write_spec(
            tmp_path,
            {"loops": [{"match": "file:*", "target": "published", "actuator": "log"}]},
        )
        assert cli.main(["adapt", "--spec", str(spec), f"file://{log}", "--once"]) == 0
        out = capsys.readouterr().out
        assert "advisory actuators" in out
        assert "tick=0" in out and "loops=1" in out and "decisions=1" in out
        assert "file:svc.hblog" in out  # the final per-loop table

    def test_adapt_nothing_to_adapt_errors(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path)
        assert cli.main(["adapt", "--spec", str(spec)]) == 2
        assert "nothing to adapt" in capsys.readouterr().err

    def test_adapt_rejects_bad_specs(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"loops": [{"match": "x", "controller": "warp"}]}))
        assert cli.main(["adapt", "--spec", str(bad), "tcp://127.0.0.1:0"]) == 2
        assert "cannot load adaptation spec" in capsys.readouterr().err
        assert cli.main(["adapt", "--spec", str(tmp_path / "absent.json"), "--once"]) == 2

    def test_adapt_with_inline_collector_and_live_producer(self, tmp_path, capsys):
        spec = self.write_spec(
            tmp_path,
            {
                "engine": {"interval": 0.1},
                "loops": [{"match": "*", "target": [1e6, 2e6], "actuator": "log"}],
            },
        )
        rc: list[int] = []
        ready = threading.Event()
        real_emit = cli._emit

        def emit_and_signal(line: str, *, stream=None) -> None:
            real_emit(line, stream=stream)
            if "collector listening on" in line:
                ready.set()
                emit_and_signal.port = int(line.rsplit(":", 1)[1])  # type: ignore[attr-defined]

        thread = threading.Thread(
            target=lambda: rc.append(
                cli.main(["adapt", "--spec", str(spec), "tcp://127.0.0.1:0",
                          "--duration", "1.2", "--interval", "0.1"])
            ),
            daemon=True,
        )
        cli._emit, undo = emit_and_signal, real_emit
        try:
            thread.start()
            assert ready.wait(timeout=5.0)
            port = emit_and_signal.port  # type: ignore[attr-defined]
            backend = NetworkBackend(("127.0.0.1", port), stream="live-svc", flush_interval=0.01)
            # Remote producers stamp with the collector's time base, like
            # every other wire producer (see examples/remote_fleet.py);
            # otherwise liveness reads them as STALLED and nothing is steered.
            hb = Heartbeat(window=5, backend=backend, clock=WallClock(rebase=False))
            for _ in range(20):
                hb.heartbeat()
                time.sleep(0.005)
            hb.finalize()
            thread.join(timeout=10.0)
        finally:
            cli._emit = undo
        assert rc == [0]
        out = capsys.readouterr().out
        assert "live-svc" in out
        assert "loops=1" in out
        # The unreachable target forces real decisions on the live stream.
        assert any(
            line.startswith("tick=") and "decisions=0" not in line
            for line in out.splitlines()
        ), out


class TestEndpointCLI:
    """Positional endpoint URLs, --version, and the atomic port file."""

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            cli.main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"

    def test_version_via_python_m_repro(self):
        from repro import __version__

        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-m", "repro", "--version"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0
        assert result.stdout.strip() == f"repro {__version__}"

    def test_collect_positional_tcp_endpoint(self, capsys):
        assert cli.main(
            ["collect", "tcp://127.0.0.1:0", "--duration", "0.2", "--interval", "0.1"]
        ) == 0
        out = capsys.readouterr().out
        assert "collector listening on 127.0.0.1:" in out
        assert "producers dial tcp://127.0.0.1:" in out

    def test_collect_rejects_non_tcp_endpoint(self, capsys):
        assert cli.main(["collect", "shm://x", "--duration", "0.1"]) == 2
        assert "tcp://" in capsys.readouterr().err

    def test_collect_rejects_endpoint_plus_bind(self, capsys):
        """The removed ``--bind`` flag is refused by the parser (exit 2)."""
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["collect", "tcp://127.0.0.1:0", "--bind", "127.0.0.1:0"])
        assert exit_info.value.code == 2
        assert "--bind" in capsys.readouterr().err

    def test_collect_reports_bind_failure_in_one_line(self, capsys):
        import socket

        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            rc = cli.main(["collect", f"tcp://127.0.0.1:{port}", "--duration", "0.1"])
        finally:
            blocker.close()
        assert rc == 1
        err = capsys.readouterr().err
        assert "cannot bind" in err and str(port) in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_watch_positional_file_endpoint(self, tmp_path, capsys):
        log = tmp_path / "svc.hblog"
        hb = Heartbeat(window=5, backend=FileBackend(log))
        for _ in range(10):
            hb.heartbeat()
        hb.finalize()
        assert cli.main(["watch", f"file://{log}", "--once"]) == 0
        out = capsys.readouterr().out
        assert "file:svc.hblog" in out
        assert "1 streams, 1 measurable" in out

    def test_watch_rejects_mem_endpoint(self, capsys):
        assert cli.main(["watch", "mem://x", "--once"]) == 2
        assert "process-local" in capsys.readouterr().err

    def test_watch_rejects_invalid_endpoint_url(self, capsys):
        assert cli.main(["watch", "warp://x", "--once"]) == 2
        assert "unknown endpoint scheme" in capsys.readouterr().err

    def test_adapt_positional_endpoint_matches_spec_attach(self, tmp_path, capsys):
        """The same file:// URL works as a positional arg and in the spec."""
        log = tmp_path / "svc.hblog"
        hb = Heartbeat(window=5, backend=FileBackend(log))
        hb.set_target_rate(1e6, 2e6)
        for _ in range(10):
            hb.heartbeat()
        hb.finalize()
        spec_positional = tmp_path / "spec.json"
        spec_positional.write_text(json.dumps(
            {"loops": [{"match": "file:*", "target": "published", "actuator": "log"}]}
        ))
        assert cli.main(
            ["adapt", "--spec", str(spec_positional), f"file://{log}", "--once"]
        ) == 0
        positional_out = capsys.readouterr().out
        spec_attach = tmp_path / "spec_attach.json"
        spec_attach.write_text(json.dumps({
            "engine": {"attach": [f"file://{log}"]},
            "loops": [{"match": "file:*", "target": "published", "actuator": "log"}],
        }))
        assert cli.main(["adapt", "--spec", str(spec_attach), "--once"]) == 0
        attach_out = capsys.readouterr().out
        for out in (positional_out, attach_out):
            assert "tick=0" in out and "loops=1" in out and "decisions=1" in out
            assert "file:svc.hblog" in out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["collect", "tcp://127.0.0.1:0?stream=x"], "producer-side"),
            (["collect", "tcp://127.0.0.1:0?via=127.0.0.1:9"], "producer-side"),
            (["collect", "--arena", "shm://x"], "mem-arena:// or shm-arena://"),
            (["watch", "tcp://127.0.0.1:0?stream=x", "--once"], "producer-side"),
            (["watch", "mem-arena://fleet", "--once"], "process-local"),
        ],
    )
    def test_unusable_endpoint_is_exit_2_with_the_endpoint_error(self, argv, message, capsys):
        """collect/watch/adapt share one mapping: EndpointError -> exit 2, its text."""
        assert cli.main([*argv, "--duration", "0.1"]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "cannot open arena" not in err and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_adapt_shares_the_endpoint_error_mapping(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"loops": [{"match": "*", "actuator": "log"}]}))
        assert cli.main(
            ["adapt", "--spec", str(spec), "tcp://127.0.0.1:0?stream=x", "--once"]
        ) == 2
        assert "producer-side" in capsys.readouterr().err
        assert cli.main(
            ["adapt", "--spec", str(spec), f"file://{tmp_path / 'absent.hblog'}", "--once"]
        ) == 1
        assert "cannot attach heartbeat log" in capsys.readouterr().err

    def test_help_lists_the_schemes_from_the_table(self, capsys):
        from repro.endpoints import describe_schemes

        for command in ("watch", "adapt", "collect"):
            with pytest.raises(SystemExit):
                cli.main([command, "--help"])
            # argparse re-wraps (and breaks at hyphens): compare sans whitespace.
            assert "".join(describe_schemes().split()) in "".join(capsys.readouterr().out.split())

    def test_port_file_written_atomically(self, tmp_path):
        """The port file appears fully-formed: temp file + rename, no tail."""
        port_file = tmp_path / "port"
        observed: list[str] = []
        real_replace = os.replace

        def spying_replace(src, dst, **kwargs):
            observed.append(pathlib.Path(src).read_text())
            return real_replace(src, dst, **kwargs)

        cli.os.replace = spying_replace
        try:
            cli._write_port_file(str(port_file), 43210)
        finally:
            cli.os.replace = real_replace
        assert observed == ["43210\n"]  # fully written before the rename
        assert port_file.read_text() == "43210\n"
        assert [p.name for p in tmp_path.iterdir()] == ["port"]  # no temp left


class TestExamples:
    """The examples must at least be importable/compilable as shipped."""

    @pytest.mark.parametrize(
        "example",
        sorted(p.name for p in EXAMPLES_DIR.glob("*.py")),
    )
    def test_example_compiles(self, example, tmp_path):
        source = EXAMPLES_DIR / example
        py_compile.compile(str(source), cfile=str(tmp_path / (example + "c")), doraise=True)

    def test_expected_examples_present(self):
        names = {p.name for p in EXAMPLES_DIR.glob("*.py")}
        assert {
            "quickstart.py",
            "adaptive_encoder.py",
            "external_scheduler.py",
            "fault_tolerance.py",
            "parsec_suite.py",
            "cloud_balancer.py",
            "cross_process_monitor.py",
            "fleet_aggregator.py",
            "remote_fleet.py",
            "adaptation_engine.py",
            "collector_federation.py",
        } <= names

    def test_adaptation_engine_example_runs_green(self):
        """Spec-driven co-adaptation demo at example-default scale.

        (The 1000-stream acceptance run of the same script lives in
        tests/test_adapt_engine_fleet.py.)
        """
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
        env.update(ADAPT_FLEET_STREAMS="24", ADAPT_FLEET_TICKS="14")
        result = subprocess.run(
            [sys.executable, str(EXAMPLES_DIR / "adaptation_engine.py")],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, f"stdout:\n{result.stdout}\nstderr:\n{result.stderr}"
        assert "adaptation engine demo OK" in result.stdout
        assert "converged" in result.stdout

    def test_collector_federation_example_runs_green(self):
        """Two edges -> one root: delivery, relay stats, STALLED two hops up."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
        env.update(FEDERATION_TICKS="6", FEDERATION_BATCH="8", FEDERATION_PRODUCERS="2")
        result = subprocess.run(
            [sys.executable, str(EXAMPLES_DIR / "collector_federation.py")],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, f"stdout:\n{result.stdout}\nstderr:\n{result.stderr}"
        assert "collector federation demo OK" in result.stdout
        assert "two hops from the death" in result.stdout

    def test_remote_fleet_example_runs_green(self):
        """The acceptance demo: subprocess producers → collector → aggregator.

        Runs the real example (its own assertions check collected totals
        against producer ground truth) with shrunk knobs so the whole
        pipeline — 4 subprocess producers, TCP collector, fleet queries,
        remote balancer failover — finishes in a few seconds.
        """
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
        env.update(REMOTE_FLEET_TICKS="6", REMOTE_FLEET_BATCH="16")
        result = subprocess.run(
            [sys.executable, str(EXAMPLES_DIR / "remote_fleet.py")],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, f"stdout:\n{result.stdout}\nstderr:\n{result.stderr}"
        assert "remote fleet demo OK" in result.stdout
        assert "failover" in result.stdout
