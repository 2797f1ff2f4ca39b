"""The unified compilation pipeline: stages, artifacts, caching, registries."""

import dataclasses
import sqlite3

import pytest

from repro import obs
from repro.codes import CODES, get_spec
from repro.pipeline import (
    MAPPINGS,
    SCHEDULES,
    ArtifactCache,
    StageError,
    UnknownNameError,
    compile_spec,
)

STAGE_ORDER = [
    "parse",
    "dependence",
    "uov-search",
    "mapping-select",
    "schedule-select",
    "lint",
    "execute",
    "codegen",
]


class TestCompile:
    @pytest.mark.parametrize("name", ["simple2d", "stencil5", "psm", "jacobi"])
    def test_every_registered_code_compiles_end_to_end(self, name):
        result = compile_spec(
            get_spec(name), lint=True, codegen=True, cache=ArtifactCache()
        )
        assert [r.name for r in result.records] == STAGE_ORDER
        assert result.artifact("dependence").ok
        assert result.artifact("schedule-select").legal
        assert result.artifact("execute").verified
        assert result.artifact("lint").max_severity == "info"

    def test_search_runs_when_spec_has_no_override(self):
        spec = dataclasses.replace(get_spec("stencil5"), uov=None)
        result = compile_spec(spec, execute=False, cache=ArtifactCache())
        uov = result.artifact("uov-search")
        assert uov.source == "search"
        assert uov.optimal
        assert tuple(uov.ov) == (2, 0)

    def test_uov_override_is_certified(self):
        result = compile_spec(
            get_spec("stencil5"), execute=False, cache=ArtifactCache()
        )
        assert result.artifact("uov-search").source == "override"

    def test_bad_uov_override_fails_in_uov_stage(self):
        spec = dataclasses.replace(get_spec("stencil5"), uov=(0, 1))
        with pytest.raises(StageError, match="not universal") as exc_info:
            compile_spec(spec, execute=False, cache=ArtifactCache())
        assert exc_info.value.stage == "uov-search"

    def test_illegal_schedule_fails_in_schedule_stage(self):
        spec = dataclasses.replace(get_spec("stencil5"), schedule="wavefront")
        with pytest.raises(StageError, match="violates") as exc_info:
            compile_spec(spec, execute=False, cache=ArtifactCache())
        assert exc_info.value.stage == "schedule-select"

    def test_missing_size_binding_is_a_value_error(self):
        spec = get_spec("stencil5")
        with pytest.raises(ValueError, match="size symbol"):
            compile_spec(spec, sizes={"T": 4}, cache=ArtifactCache())

    def test_undeclared_size_binding_is_a_value_error(self):
        # A stray name would split every stage key it reaches; the tile
        # bindings are the only names besides the size symbols.
        spec = get_spec("stencil5")
        cache = ArtifactCache()
        with pytest.raises(ValueError, match=r"unknown size binding.*'X'"):
            compile_spec(spec, sizes={"T": 4, "L": 8, "X": 3}, cache=cache)
        assert cache.hits == cache.misses == 0  # refused before any stage
        result = compile_spec(
            spec, sizes={"T": 4, "L": 8, "tile": 4}, execute=False, cache=cache
        )
        assert result.sizes == {"T": 4, "L": 8, "tile": 4}

    def test_dependence_stage_does_no_sized_work(self, monkeypatch):
        # Its key does not cover the sizes, so neither may its work: the
        # sized region analysis belongs to the lint pass alone.
        import repro.analysis.regions as regions

        def sized(*args, **kwargs):
            raise AssertionError("region analysis ran outside lint")

        monkeypatch.setattr(regions, "analyse_regions", sized)
        result = compile_spec(
            get_spec("stencil5"), execute=False, cache=ArtifactCache()
        )
        assert result.artifact("dependence").ok

    def test_tiled_compile_honours_the_binding_tile(self):
        spec = dataclasses.replace(get_spec("stencil5"), schedule="tiled")
        result = compile_spec(
            spec,
            sizes={"T": 8, "L": 64, "tile_h": 4, "tile_w": 8},
            execute=False,
            cache=ArtifactCache(),
        )
        schedule = result.artifact("schedule-select")
        assert schedule.tile == [4, 8]
        assert schedule.batches == 70

    def test_schedule_artifact_reports_the_tile_it_runs(self):
        spec = get_spec("stencil5")
        lex = compile_spec(spec, execute=False, cache=ArtifactCache())
        assert spec.tile == (8, 64)
        assert lex.artifact("schedule-select").tile is None
        tiled = compile_spec(
            dataclasses.replace(spec, schedule="tiled"),
            execute=False,
            cache=ArtifactCache(),
        )
        assert tiled.artifact("schedule-select").tile == [8, 64]

    def test_empty_box_is_a_value_error(self):
        with pytest.raises(ValueError, match="empty loop range"):
            compile_spec(
                get_spec("stencil5"),
                sizes={"T": 0, "L": 8},
                execute=False,
                cache=ArtifactCache(),
            )


class TestCaching:
    def test_unchanged_spec_hits_every_stage(self):
        cache = ArtifactCache()
        spec = get_spec("jacobi")
        first = compile_spec(spec, lint=True, codegen=True, cache=cache)
        assert first.stages_run == STAGE_ORDER
        second = compile_spec(spec, lint=True, codegen=True, cache=cache)
        assert second.stages_run == []
        assert second.cache_hits == STAGE_ORDER
        # Cached artifacts deserialise to equal values.
        for name in STAGE_ORDER:
            assert second.artifact(name) == first.artifact(name)

    def test_editing_schedule_invalidates_only_downstream_stages(self):
        cache = ArtifactCache()
        spec = get_spec("jacobi")
        compile_spec(spec, lint=True, codegen=True, cache=cache)
        edited = dataclasses.replace(spec, schedule="tiled", tile=(2, 4))
        result = compile_spec(edited, lint=True, codegen=True, cache=cache)
        assert result.cache_hits == [
            "parse", "dependence", "uov-search", "mapping-select",
        ]
        assert result.stages_run == [
            "schedule-select", "lint", "execute", "codegen",
        ]

    def test_editing_mapping_keeps_the_analysis_prefix(self):
        cache = ArtifactCache()
        spec = get_spec("jacobi")
        compile_spec(spec, cache=cache)
        edited = dataclasses.replace(spec, mapping="natural")
        result = compile_spec(edited, cache=cache)
        assert result.cache_hits == ["parse", "dependence", "uov-search"]
        assert result.stages_run[0] == "mapping-select"

    def test_editing_a_structural_field_invalidates_everything(self):
        cache = ArtifactCache()
        spec = get_spec("jacobi")
        compile_spec(spec, cache=cache)
        edited = dataclasses.replace(
            spec, costs={"flops": 7, "int_ops": 0, "branches": 0}
        )
        result = compile_spec(edited, cache=cache)
        assert result.cache_hits == []

    def test_notes_do_not_invalidate_structural_stages(self):
        # `notes` is a directive-level field: not part of any payload.
        cache = ArtifactCache()
        spec = get_spec("jacobi")
        compile_spec(spec, cache=cache)
        edited = dataclasses.replace(spec, notes="annotated")
        result = compile_spec(edited, cache=cache)
        assert result.stages_run == []

    def test_disk_cache_survives_a_fresh_cache_instance(self, tmp_path):
        spec = get_spec("simple2d")
        compile_spec(spec, cache=ArtifactCache(cache_dir=tmp_path))
        result = compile_spec(spec, cache=ArtifactCache(cache_dir=tmp_path))
        assert result.stages_run == []

    def test_corrupt_disk_entry_is_a_miss_not_a_crash(self, tmp_path):
        spec = get_spec("simple2d")
        compile_spec(spec, cache=ArtifactCache(cache_dir=tmp_path))
        for artifact_file in tmp_path.glob("*.json"):
            artifact_file.write_text("{not json")
        result = compile_spec(spec, cache=ArtifactCache(cache_dir=tmp_path))
        assert result.stages_run == STAGE_ORDER[:5] + ["execute"]


class TestRegistries:
    def test_unknown_code_suggests_close_match(self):
        with pytest.raises(UnknownNameError) as exc_info:
            CODES.get("stencil6")
        message = exc_info.value.args[0]
        assert message.startswith("unknown code 'stencil6'; one of")
        assert "did you mean 'stencil5'?" in message

    def test_unknown_name_error_is_a_key_error(self):
        with pytest.raises(KeyError, match="unknown mapping"):
            MAPPINGS.get("row-major")

    def test_schedule_registry_contents(self):
        assert {"lex", "interchange", "wavefront", "tiled"} <= set(
            SCHEDULES.names()
        )

    def test_mapping_registry_contents(self):
        assert {"natural", "ov", "ov-interleaved", "rolling-buffer"} <= set(
            MAPPINGS.names()
        )


class TestSymbolicCertificates:
    def test_uov_artifact_carries_symbolic_certificate(self):
        from repro.analysis.symcert import SymbolicCertificate

        result = compile_spec(get_spec("stencil5"))
        uov = result.artifact("uov-search")
        assert uov.certificate is not None
        assert uov.certificate["verdict"] == "universal"
        # The proof object round-trips and re-verifies from JSON alone.
        back = SymbolicCertificate.from_json(uov.certificate)
        assert back.verify()
        assert tuple(back.ov) == tuple(uov.ov)

    def test_hook_spec_still_gets_a_code_level_proof(self):
        """The psm spec's combine is an opaque hook, but the pipeline
        certifies at the program-IR level where the hook is irrelevant —
        so even the hook spec ships a parametric proof."""
        result = compile_spec(get_spec("psm"))
        cert = result.artifact("uov-search").certificate
        assert cert is not None
        assert cert["verdict"] == "universal"

    def test_warm_cache_serves_the_proof(self, tmp_path):
        compile_spec(
            get_spec("stencil5"), cache=ArtifactCache(cache_dir=tmp_path)
        )
        warm = compile_spec(
            get_spec("stencil5"), cache=ArtifactCache(cache_dir=tmp_path)
        )
        assert "uov-search" in warm.cache_hits
        cert = warm.artifact("uov-search").certificate
        assert cert is not None and cert["verdict"] == "universal"


class TestStageKeys:
    def test_stencil5_chained_keys_are_pinned(self, monkeypatch):
        """The stage keys name every stored artifact: a change to their
        bytes orphans every warm store, so they are pinned literally."""
        from repro.store import fingerprint

        monkeypatch.setattr(fingerprint, "_ENGINE_FINGERPRINT", "0123456789abcdef")
        result = compile_spec(
            get_spec("stencil5"),
            lint=True,
            codegen=True,
            engine="vectorized",
            cache=ArtifactCache(),
        )
        assert [(r.name, r.key) for r in result.records] == [
            ("parse", "ceba3ef52d081038c01c0e31"),
            ("dependence", "3916abe9d906415ae0385d88"),
            ("uov-search", "9e154370cf07208a9f63aef2"),
            ("mapping-select", "406b61ac23f89275bd05d882"),
            ("schedule-select", "20e50ab190af300f6fd99bbe"),
            ("lint", "35fc35e3972feda9ed548b63"),
            ("execute", "1781e0af8a60836a1235baa8"),
            ("codegen", "38087c412011efb20622613e"),
        ]


class TestLazyWarmReads:
    """A warm compile verifies every stage entry it reports cached at
    lookup, and parses only the artifacts its caller reads."""

    @pytest.fixture(autouse=True)
    def fresh_metrics(self):
        obs.reset()
        yield
        obs.reset()

    @pytest.fixture(params=["dir", "sqlite"])
    def cache_path(self, request, tmp_path):
        return tmp_path / ("cache.sqlite" if request.param == "sqlite" else "cache")

    @staticmethod
    def compile(cache):
        return compile_spec(
            get_spec("stencil5"), lint=True, codegen=True, cache=cache
        )

    @staticmethod
    def counters():
        return obs.get_metrics().snapshot()["counters"]

    def test_reading_execute_parses_one_entry(self, cache_path):
        self.compile(ArtifactCache(cache_path))
        obs.reset()
        cache = ArtifactCache(cache_path)
        warm = self.compile(cache)
        assert warm.artifact("execute").verified
        counters = self.counters()
        assert warm.cache_hits == STAGE_ORDER
        assert cache.hits == 8 and cache.misses == 0
        assert counters["pipeline.stage.cache_hits"] == 8
        assert counters["store.hits"] == 8  # every entry was verified...
        assert counters["pipeline.stage.parses"] == 1  # ...one was parsed
        assert counters["pipeline.stage.parses.execute"] == 1

    def test_warm_result_equals_the_cold_one(self, cache_path):
        def comparable(result):
            data = result.to_json()
            for stage in data["stages"]:
                del stage["cached"], stage["wall_s"]
            return data

        cold = self.compile(ArtifactCache(cache_path))
        warm = self.compile(ArtifactCache(cache_path))
        assert warm.stages_run == []
        assert comparable(warm) == comparable(cold)
        assert self.counters()["pipeline.stage.parses"] == 8

    def test_an_unread_corrupt_entry_is_caught_at_lookup(self, cache_path):
        cold = self.compile(ArtifactCache(cache_path))
        lint_key = f"lint-{next(r.key for r in cold.records if r.name == 'lint')}"
        if cache_path.suffix == ".sqlite":
            with sqlite3.connect(cache_path) as conn:
                conn.execute(
                    "UPDATE entries SET body = ? WHERE key = ?",
                    ('{"tampered": true}', lint_key),
                )
        else:
            entry = cache_path / f"{lint_key}.json"
            entry.write_bytes(entry.read_bytes()[:40])
        obs.reset()
        with pytest.warns(UserWarning, match="quarantined"):
            warm = self.compile(ArtifactCache(cache_path))
        assert warm.artifact("execute").verified  # the caller never reads lint
        assert warm.stages_run == ["lint"]
        assert self.counters()["store.heal.pipeline.cache"] == 1

    def test_a_handle_outlives_its_entry(self, cache_path):
        cold = self.compile(ArtifactCache(cache_path))
        cache = ArtifactCache(cache_path)
        warm = self.compile(cache)
        execute = next(r for r in warm.records if r.name == "execute")
        store = ArtifactCache.open_store(cache_path)
        assert store.delete(f"execute-{execute.key}")
        store.close()
        assert execute.artifact == cold.artifact("execute")
        assert self.compile(ArtifactCache(cache_path)).stages_run == ["execute"]
