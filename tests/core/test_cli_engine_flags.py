"""The engine flags on the command line: --workers/--checkpoint/--resume."""

import pytest

from repro.cli import main
from repro.obs import METRICS, TRACER


@pytest.fixture(autouse=True)
def clean_obs():
    TRACER.reset()
    METRICS.reset()
    yield
    TRACER.reset()
    METRICS.reset()


class TestWorkers:
    # --workers picks processes for cases and shards; there is one
    # explorer, so the verbs that only model-check do not take it
    def test_check_with_workers(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["check", "example", "--workers", "2"])
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_testgen_with_workers(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["testgen", "example", "--workers", "2"])
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["check", "testgen", "conform"])
    def test_help_does_not_offer_workers(self, verb, capsys):
        with pytest.raises(SystemExit):
            main([verb, "--help"])
        assert "--workers" not in capsys.readouterr().out

    def test_test_with_workers(self, capsys):
        assert main(["test", "toycache", "--workers", "2"]) == 0
        assert "0 divergent" in capsys.readouterr().out

    def test_workers_metrics_reported(self, capsys):
        assert main(["test", "toycache", "--workers", "2", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "engine.executor_workers" in out
        assert "engine.cases_per_sec" in out


class TestCheckpointResume:
    def test_check_checkpoint_then_resume(self, tmp_path, capsys):
        directory = str(tmp_path / "ck")
        assert main(["check", "example", "--checkpoint", directory]) == 0
        first = capsys.readouterr().out
        assert "checkpoint directory" in first
        assert main(["check", "example", "--checkpoint", directory,
                     "--resume"]) == 0
        assert "13 states" in capsys.readouterr().out

    def test_resume_without_prior_checkpoint_fails(self, tmp_path):
        from repro.engine import CheckpointError

        with pytest.raises(CheckpointError, match="no checkpoint found"):
            main(["check", "example",
                  "--checkpoint", str(tmp_path / "empty"), "--resume"])

    def test_resume_wrong_model_fails(self, tmp_path):
        from repro.engine import CheckpointError

        directory = str(tmp_path / "ck")
        assert main(["check", "example", "--checkpoint", directory]) == 0
        with pytest.raises(CheckpointError, match="is for spec"):
            main(["check", "raftkv", "--checkpoint", directory, "--resume"])
