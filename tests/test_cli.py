"""Command-line interface."""

import pytest

from repro import cli


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([])

    def test_schedule_defaults(self):
        args = cli.build_parser().parse_args(
            ["schedule", "vgg19", "resnet152"]
        )
        assert args.models == ["vgg19", "resnet152"]
        assert args.platform == "orin"
        assert args.objective == "latency"

    def test_schedule_overrides(self):
        args = cli.build_parser().parse_args(
            [
                "schedule",
                "googlenet",
                "--platform",
                "xavier",
                "--objective",
                "throughput",
                "--max-transitions",
                "1",
            ]
        )
        assert args.platform == "xavier"
        assert args.max_transitions == 1

    def test_invalid_objective_rejected(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(
                ["schedule", "vgg19", "--objective", "speed"]
            )

    def test_serve_defaults(self):
        args = cli.build_parser().parse_args(
            ["serve", "googlenet:100:30", "resnet18"]
        )
        assert args.tenants == ["googlenet:100:30", "resnet18"]
        assert args.policy == "haxconn"
        assert args.arrivals == "poisson"
        assert args.horizon == 0.5

    def test_serve_invalid_policy(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(
                ["serve", "googlenet", "--policy", "random"]
            )


class TestTenantSpec:
    def test_model_only(self):
        assert cli.parse_tenant_spec("googlenet", 0) == (
            "googlenet",
            30.0,
            None,
        )

    def test_full_spec(self):
        model, rate, slo = cli.parse_tenant_spec("vgg19:80:40", 1)
        assert (model, rate) == ("vgg19", 80.0)
        assert slo == pytest.approx(0.040)

    def test_invalid(self):
        with pytest.raises(ValueError):
            cli.parse_tenant_spec("a:1:2:3", 0)
        with pytest.raises(ValueError):
            cli.parse_tenant_spec("googlenet:0", 0)
        for spec in ("googlenet:abc", "googlenet:nan", "googlenet:inf",
                     "googlenet:10:x", "googlenet:10:0"):
            with pytest.raises(ValueError, match="positive number"):
                cli.parse_tenant_spec(spec, 0)


class TestCommands:
    def test_platforms(self, capsys):
        assert cli.main(["platforms"]) == 0
        out = capsys.readouterr().out
        assert "orin" in out and "xavier" in out and "sd865" in out

    def test_models(self, capsys):
        assert cli.main(["models"]) == 0
        out = capsys.readouterr().out
        assert "vgg19" in out and "GFLOPs" in out

    def test_unknown_experiment(self, capsys):
        assert cli.main(["experiment", "table99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_experiment_table2(self, capsys):
        assert cli.main(["experiment", "table2"]) == 0
        out = capsys.readouterr().out
        assert "GoogleNet layer groups" in out

    def test_experiment_registry_complete(self):
        assert set(cli.EXPERIMENTS) == {
            "fig1",
            "table2",
            "fig3",
            "fig4",
            "table5",
            "fig5",
            "table6",
            "fig6",
            "fig7",
            "table7",
            "table8",
            "sensitivity",
            "batching",
            "dsa-design",
            "serving",
            "solver-race",
        }

    def test_serve_command(self, capsys, tmp_path):
        trace = tmp_path / "serve.json"
        code = cli.main(
            [
                "serve",
                "googlenet:80:30",
                "resnet18:60:40",
                "--platform",
                "xavier",
                "--horizon",
                "0.1",
                "--max-transitions",
                "1",
                "--trace",
                str(trace),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "googlenet" in out and "resnet18" in out
        assert "fleet:" in out and "policy:" in out
        assert trace.exists()

    def test_serve_duplicate_models_disambiguated(self, capsys):
        code = cli.main(
            [
                "serve",
                "googlenet:50",
                "googlenet:50",
                "--platform",
                "xavier",
                "--policy",
                "gpu-only",
                "--horizon",
                "0.05",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "googlenet@1" in out

    def test_serve_single_replica_honours_batching(self, capsys):
        """``--batching`` reaches the single-replica server too: two
        tenants on the same model share one dispatch stream under
        ``continuous`` batching, so the report must differ from the
        one-stream-per-tenant run."""
        outputs = {}
        for batching in ("tenant", "continuous"):
            code = cli.main(
                [
                    "serve",
                    "googlenet:400",
                    "googlenet:400",
                    "--platform",
                    "xavier",
                    "--policy",
                    "naive",
                    "--horizon",
                    "0.1",
                    "--batching",
                    batching,
                ]
            )
            assert code == 0
            outputs[batching] = capsys.readouterr().out
        assert outputs["tenant"] != outputs["continuous"]
        assert "solves=2" in outputs["tenant"]
        assert "solves=1" in outputs["continuous"]

    #: sha256 of "\n".join("tenant|seq|rejected|finish_s") over every
    #: request of the run below, recorded when ``--max-queue-depth``
    #: bounded the policy's queue (``rejected=`` on the policy line);
    #: the admission controller's depth cap must shed the same requests
    #: and serve the rest at the same instants
    DEPTH_CAP_RECORDS = {
        "naive": (
            508,
            "723b3c49b24514aa99280d886a79b6b664d98ce6679689b89b3f9114916be3dc",
        ),
        "haxconn": (
            451,
            "41c7c0b193377b2229cf08823ad59c97c06a7cc9f8dd52e7017f2846211c5575",
        ),
    }

    @pytest.mark.parametrize("policy", ["naive", "haxconn"])
    def test_serve_max_queue_depth_is_an_admission_depth_cap(
        self, capsys, monkeypatch, policy
    ):
        import hashlib

        from repro.serve.fleet import Fleet

        reports = []
        real_run = Fleet.run

        def run(self, **kwargs):
            reports.append(real_run(self, **kwargs))
            return reports[-1]

        monkeypatch.setattr(Fleet, "run", run)
        code = cli.main(
            [
                "serve",
                "googlenet:400:10",
                "resnet18:400:10",
                "vgg19:400:10",
                "--arrivals",
                "bursty",
                "--max-batch",
                "1",
                "--max-queue-depth",
                "2",
                "--policy",
                policy,
                "--horizon",
                "0.5",
                "--max-transitions",
                "1",
            ]
        )
        assert code == 0
        [report] = [o.report for r in reports for o in r.outcomes]
        text = "\n".join(
            f"{r.tenant}|{r.seq}|{r.rejected}|{r.finish_s!r}"
            for r in report.requests
        )
        shed, digest = self.DEPTH_CAP_RECORDS[policy]
        assert len(report.rejected) == shed
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert {r.shed_reason for r in report.rejected} == {"depth"}
        out = capsys.readouterr().out
        assert f"shed={shed}, shed_depth={shed}" in out
        assert "rejected=" not in out

    def test_serve_unknown_model(self, capsys):
        assert cli.main(["serve", "notanet", "--horizon", "0.05"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["googlenet:abc"], "rate must be a positive number"),
            (["googlenet:-5"], "rate must be a positive number"),
            (["googlenet:0"], "rate must be a positive number"),
            (["googlenet:10:x"], "slo must be a positive number"),
            (["googlenet:10:-3"], "slo must be a positive number"),
            (["googlenet:10:20:30"], "bad tenant spec"),
            (["googlenet", "--horizon", "-1"], "--horizon must be >= 0"),
            (["googlenet", "--shards", "0"], "--shards must be >= 1"),
            (["googlenet", "--sync-rounds", "0"], "--sync-rounds must be >= 1"),
            (
                ["googlenet", "--max-transitions", "-1"],
                "--max-transitions must be >= 0",
            ),
            (
                ["googlenet", "--max-queue-depth", "0"],
                "--max-queue-depth must be >= 1",
            ),
        ],
        ids=[
            "rate-not-a-number",
            "rate-negative",
            "rate-zero",
            "slo-not-a-number",
            "slo-negative",
            "four-part-spec",
            "horizon-negative",
            "shards-zero",
            "sync-rounds-zero",
            "max-transitions-negative",
            "max-queue-depth-zero",
        ],
    )
    def test_serve_malformed_input_is_a_typed_error(
        self, capsys, argv, message
    ):
        """Malformed serve input prints ``error: ...`` and exits 2,
        like an unknown model: no traceback, no silent default."""
        assert cli.main(["serve", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (
                ["schedule", "googlenet", "resnet18", "--max-transitions", "-1"],
                "--max-transitions must be >= 0",
            ),
            (
                ["verify", "googlenet", "resnet18", "--max-transitions", "-1"],
                "--max-transitions must be >= 0",
            ),
            (["verify", "--random", "-2"], "--random must be >= 1"),
            (["verify", "--random", "0"], "--random must be >= 1"),
            (["fuzz", "--seeds", "0:2", "--budget", "-1"], "--budget must be >= 1"),
            (["fuzz", "--seeds", "0:2", "--budget", "0"], "--budget must be >= 1"),
        ],
        ids=[
            "schedule-max-transitions-negative",
            "verify-max-transitions-negative",
            "verify-random-negative",
            "verify-random-zero",
            "fuzz-budget-negative",
            "fuzz-budget-zero",
        ],
    )
    def test_negative_counts_are_a_typed_error(self, capsys, argv, message):
        """A count below its floor prints ``error: ...`` and exits 2
        before any work: no solver traceback, no vacuous success."""
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert message in captured.err
        assert captured.out == ""

    def test_serve_has_no_transport_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["serve", "googlenet", "--transport", "shm"])
        assert exc.value.code == 2

    def test_serve_has_no_backend_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["serve", "googlenet", "--backend", "fork"])
        assert exc.value.code == 2

    def test_serve_has_no_max_lag_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["serve", "googlenet", "--max-lag", "2"])
        assert exc.value.code == 2

    def test_store_unknown_version_is_a_typed_error(self, capsys, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text('{"v": 2, "kind": "schedule"}\n')
        assert cli.main(["store", "stats", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: solve store {path} line 1")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["store", "stats"],
            ["store", "gc"],
            ["serve", "googlenet", "--horizon", "0.05", "--store"],
        ],
        ids=["store-stats", "store-gc", "serve"],
    )
    def test_store_path_that_is_a_directory_is_a_typed_error(
        self, capsys, tmp_path, argv
    ):
        """A store path that cannot be read prints ``error: PATH:
        REASON`` and exits 2 instead of an ``IsADirectoryError``."""
        assert cli.main([*argv, str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {tmp_path}: ")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["learn", "stats", "--store", "x"],
            ["serve", "googlenet", "--learn-train"],
        ],
        ids=["learn-verb", "serve-learn-train"],
    )
    def test_learned_guidance_surface_is_gone(self, capsys, argv):
        """The learned search guide is retired: its verb and its
        serve flag are rejected by argparse before any work."""
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["schedule", "googlenet", "resnet18"],
            ["verify", "googlenet", "resnet18"],
            ["serve", "googlenet"],
        ],
        ids=["schedule", "verify", "serve"],
    )
    def test_workers_flag_is_gone(self, capsys, argv):
        """The anytime solver runs one search: ``--workers`` is an
        unknown flag, rejected by argparse before any work."""
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--workers", "2"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_schedule_command(self, capsys):
        code = cli.main(
            [
                "schedule",
                "googlenet",
                "resnet18",
                "--platform",
                "xavier",
                "--max-transitions",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "measured latency" in out
        assert "baseline" in out
