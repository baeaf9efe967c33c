"""ServiceConfig: the one validated configuration surface of the query service.

Both CLI modes, the socket server and the factories all consume the same
frozen dataclass, so these tests pin (a) validation of every tunable, (b) the
argparse round-trip for file mode and serve mode, and (c) the session /
executor factories honouring the config.
"""

import argparse

import pytest

from repro.errors import ServiceError
from repro.service.config import (
    OVERLOAD_POLICIES,
    ServiceConfig,
    add_config_arguments,
    config_from_args,
    parse_dependency_text,
)
from repro.service.executor import ShardExecutor
from repro.service.session import Session


class TestValidation:
    def test_defaults_are_valid(self):
        config = ServiceConfig()
        assert config.shards == 1
        assert config.batch
        assert config.overload in OVERLOAD_POLICIES
        assert config.port == 0

    @pytest.mark.parametrize(
        "kwargs,needle",
        [
            ({"shards": 0}, "shards"),
            ({"shards": 2, "batch": False}, "cannot be combined"),
            ({"result_cache_size": -1}, "result_cache_size"),
            ({"foreign_context_limit": 0}, "foreign_context_limit"),
            ({"max_batch": 0}, "max_batch"),
            ({"queue_limit": 0}, "queue_limit"),
            ({"overload": "explode"}, "overload"),
            ({"port": 70000}, "port"),
            ({"stats_window": 0}, "stats_window"),
        ],
    )
    def test_invalid_values_are_rejected_with_named_errors(self, kwargs, needle):
        with pytest.raises(ServiceError, match=needle):
            ServiceConfig(**kwargs)

    def test_dependency_text_parsing(self):
        deps = parse_dependency_text("A = A*B; B = B*C")
        assert [str(pd) for pd in deps] == ["A = A * B", "B = B * C"]
        assert parse_dependency_text("") == ()
        assert parse_dependency_text(None) == ()
        with pytest.raises(ServiceError):
            parse_dependency_text("A = = B")

    def test_with_dependencies_returns_a_new_config(self):
        base = ServiceConfig(max_batch=8)
        derived = base.with_dependencies("A = A*B")
        assert base.dependencies == ()
        assert [str(pd) for pd in derived.dependencies] == ["A = A * B"]
        assert derived.max_batch == 8  # other fields carried over


class TestArgparseRoundTrip:
    def _parse(self, argv, serve):
        parser = argparse.ArgumentParser()
        add_config_arguments(parser, serve=serve)
        return config_from_args(parser.parse_args(argv))

    def test_file_mode_flags(self):
        config = self._parse(
            ["-d", "A = A*B", "--shards", "3", "--cache-size", "64", "--stats"], serve=False
        )
        assert [str(pd) for pd in config.dependencies] == ["A = A * B"]
        assert config.shards == 3
        assert config.result_cache_size == 64
        assert config.stats
        assert config.batch  # --no-batch not given
        # Serve-only knobs keep their defaults in file mode.
        assert config.max_batch == ServiceConfig.max_batch
        assert config.overload == ServiceConfig.overload

    def test_file_mode_no_batch(self):
        config = self._parse(["--no-batch"], serve=False)
        assert not config.batch

    def test_serve_mode_flags(self):
        config = self._parse(
            [
                "--host", "0.0.0.0",
                "--port", "4321",
                "--max-batch", "16",
                "--queue-limit", "9",
                "--overload", "shed",
            ],
            serve=True,
        )
        assert (config.host, config.port) == ("0.0.0.0", 4321)
        assert config.max_batch == 16
        assert config.queue_limit == 9
        assert config.overload == "shed"
        assert config.batch  # the server always batches

    def test_serve_mode_has_no_no_batch_flag(self):
        parser = argparse.ArgumentParser()
        add_config_arguments(parser, serve=True)
        with pytest.raises(SystemExit):
            parser.parse_args(["--no-batch"])

    def test_serve_mode_has_no_window_timer_flag(self):
        # Windows are work-conserving: there is no timer to tune.
        parser = argparse.ArgumentParser()
        add_config_arguments(parser, serve=True)
        with pytest.raises(SystemExit):
            parser.parse_args(["--max-wait-ms", "5"])
        with pytest.raises(TypeError):
            ServiceConfig(max_wait_ms=5.0)

    def test_cache_size_is_the_only_result_cache_knob(self):
        # One cache per backend, sized by --cache-size in either mode.
        parser = argparse.ArgumentParser()
        add_config_arguments(parser, serve=True)
        with pytest.raises(SystemExit):
            parser.parse_args(["--shared-cache-size", "8"])
        with pytest.raises(TypeError):
            ServiceConfig(shared_cache_size=8)

    def test_bad_dependency_flag_names_the_flag(self):
        parser = argparse.ArgumentParser()
        add_config_arguments(parser, serve=False)
        with pytest.raises(ServiceError, match="cannot parse --dependencies"):
            config_from_args(parser.parse_args(["-d", "A = = B"]))

    def test_invalid_values_surface_as_service_errors(self):
        parser = argparse.ArgumentParser()
        add_config_arguments(parser, serve=True)
        with pytest.raises(ServiceError):
            config_from_args(parser.parse_args(["--queue-limit", "0"]))


class TestFactories:
    def test_make_session_applies_dependencies_and_tuning(self):
        config = ServiceConfig(result_cache_size=7).with_dependencies("A = A*B; B = B*C")
        session = config.make_session()
        assert isinstance(session, Session)
        assert session.implies("A = A * C").implied  # transitively, via the config's Γ

    def test_make_executor_carries_the_shard_count(self):
        config = ServiceConfig(shards=2)
        executor = config.make_executor()
        assert isinstance(executor, ShardExecutor)
        assert executor.shards == 2

    def test_make_executor_sizes_the_parent_result_cache(self):
        executor = ServiceConfig(shards=2, result_cache_size=7).make_executor()
        assert executor.cache_info()["maxsize"] == 7
