"""Unit tests for the content-addressed on-disk result store."""

import dataclasses
import hashlib
import json
import os
import tracemalloc

import pytest

from repro.common.config import SCHEDULERS
from repro.dram.power import PowerReport
from repro.experiments import store
from repro.system.presets import ABLATION_CONFIGS, CONFIG_NAMES, make_config
from repro.system.results import RunResult


def sample_result(**overrides):
    fields = dict(
        config_name="PMS",
        benchmark="tpcc",
        cycles=12345,
        instructions=67890,
        cpu_ratio=8,
        stats={"mc.reads_arrived": 100, "pb.inserts": 7, "mc.lat_sum_demand": 3.5},
        power=PowerReport(
            elapsed_ns=1000.25,
            energy_uj=12.5,
            avg_power_mw=640.125,
            activate_energy_uj=1.0,
            burst_energy_uj=2.0,
            background_energy_uj=9.5,
        ),
    )
    fields.update(overrides)
    return RunResult(**fields)


def sample_spec(config=None, **overrides):
    config = config or make_config("PMS")
    spec = store.job_spec("tpcc", "PMS", 2000, 1, 1, "ahb", config)
    spec.update(overrides)
    return spec


class TestCodec:
    def test_round_trip_is_field_for_field_equal(self):
        result = sample_result()
        assert store.decode_result(store.encode_result(result)) == result

    def test_round_trip_through_json_text(self):
        result = sample_result()
        payload = json.loads(json.dumps(store.encode_result(result)))
        assert store.decode_result(payload) == result

    def test_round_trip_without_power(self):
        result = sample_result(power=None)
        assert store.decode_result(store.encode_result(result)) == result

    def test_traced_results_are_rejected(self):
        traced = sample_result(telemetry={"events": 5})
        with pytest.raises(ValueError, match="never stored"):
            store.encode_result(traced)


class TestKeys:
    def test_key_is_deterministic(self):
        assert store.job_key(sample_spec()) == store.job_key(sample_spec())

    def test_key_depends_on_every_spec_field(self):
        base = store.job_key(sample_spec())
        for field, other in [
            ("benchmark", "milc"),
            ("accesses", 4000),
            ("seed", 2),
            ("threads", 2),
            ("scheduler", "in_order"),
            ("mutate_key", "x"),
        ]:
            assert store.job_key(sample_spec(**{field: other})) != base, field

    def test_fingerprint_tracks_config_changes(self):
        config = make_config("PMS")
        base = store.config_fingerprint(config)
        config.ms_prefetcher.buffer.entries = 32
        assert store.config_fingerprint(config) != base

    def test_fingerprint_equals_the_asdict_digest(self):
        # the field walk must hash the same canonical JSON that
        # dataclasses.asdict gives, or every stored key moves
        def reference(config):
            text = store._canonical(dataclasses.asdict(config))
            return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]

        configs = [
            make_config(name, threads=threads, scheduler=scheduler)
            for name in dict.fromkeys(CONFIG_NAMES + ABLATION_CONFIGS)
            for threads in (1, 2)
            for scheduler in SCHEDULERS
        ]
        configs.append(make_config("PMS").with_overrides(
            (("ms_prefetcher.buffer.entries", 8), ("core.mlp", 2))
        ))
        for config in configs:
            assert store.config_fingerprint(config) == reference(config), config.name

    def test_config_change_invalidates_the_entry(self, tmp_path):
        st = store.ResultStore(str(tmp_path))
        st.put(sample_spec(), sample_result())
        mutated = make_config("PMS")
        mutated.ms_prefetcher.slh.epoch_reads = 500
        assert st.get(sample_spec(config=mutated)) is None


class TestResultStore:
    def test_put_get_round_trip(self, tmp_path):
        st = store.ResultStore(str(tmp_path))
        spec, result = sample_spec(), sample_result()
        st.put(spec, result)
        assert st.get(spec) == result
        assert st.stats.as_dict() == {
            "hits": 1, "misses": 0, "puts": 1, "errors": 0
        }

    def test_miss_on_empty_store(self, tmp_path):
        st = store.ResultStore(str(tmp_path))
        assert st.get(sample_spec()) is None
        assert st.stats.misses == 1

    def test_corrupt_entry_is_a_miss_not_a_crash(self, tmp_path):
        st = store.ResultStore(str(tmp_path))
        spec = sample_spec()
        path = st.put(spec, sample_result())
        with open(path, "w") as handle:
            handle.write("{not json")
        assert st.get(spec) is None
        assert st.stats.errors == 1

    def test_spec_mismatch_inside_entry_is_a_miss(self, tmp_path):
        st = store.ResultStore(str(tmp_path))
        spec = sample_spec()
        path = st.put(spec, sample_result())
        with open(path) as handle:
            document = json.load(handle)
        document["spec"]["seed"] = 99  # hand-tampered entry
        with open(path, "w") as handle:
            json.dump(document, handle)
        assert st.get(spec) is None
        assert st.stats.errors == 1

    def test_entries_len_and_clear(self, tmp_path):
        st = store.ResultStore(str(tmp_path))
        st.put(sample_spec(), sample_result())
        st.put(sample_spec(seed=2), sample_result())
        assert len(st) == 2
        listed = list(st.entries())
        assert len(listed) == 2
        assert all(isinstance(r, RunResult) for _, r in listed)
        assert st.clear() == 2
        assert len(st) == 0

    def test_writes_are_atomic_no_temp_residue(self, tmp_path):
        st = store.ResultStore(str(tmp_path))
        st.put(sample_spec(), sample_result())
        assert not [n for n in os.listdir(tmp_path) if n.startswith(".tmp-")]


class TestMemoryStore:
    def test_put_get_returns_fresh_equal_objects(self):
        st = store.MemoryStore()
        spec = sample_spec()
        assert st.get(spec) is None
        st.put(spec, sample_result())
        first, second = st.get(spec), st.get(spec)
        assert first == second == sample_result()
        assert first is not second
        assert st.stats.as_dict() == {
            "hits": 2, "misses": 1, "puts": 1, "errors": 0,
        }

    def test_keyed_by_the_job_key(self):
        st = store.MemoryStore()
        st.put(sample_spec(), sample_result())
        assert st.get(sample_spec(seed=2)) is None
        assert st.get(dict(sample_spec())) is not None

    def test_clear_and_len(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        st = store.MemoryStore()
        st.put(sample_spec(), sample_result())
        st.put(sample_spec(seed=2), sample_result())
        assert len(st) == 2
        assert st.clear() == 2
        assert len(st) == 0
        assert os.listdir(tmp_path) == []  # nothing ever hit the disk

    def test_least_recently_used_entry_goes_first(self, monkeypatch):
        monkeypatch.setattr(store, "MEMORY_STORE_ENTRIES", 2)
        st = store.MemoryStore()
        st.put(sample_spec(seed=1), sample_result())
        st.put(sample_spec(seed=2), sample_result())
        assert st.get(sample_spec(seed=1)) is not None  # refreshed
        st.put(sample_spec(seed=3), sample_result())    # evicts seed 2
        assert len(st) == 2
        assert st.get(sample_spec(seed=2)) is None
        assert st.get(sample_spec(seed=1)) is not None

    def test_memory_stays_flat_over_three_times_the_cap(self):
        # a long-lived `repro fabric work` agent puts every result it runs
        cap = store.MEMORY_STORE_ENTRIES
        spec, result = sample_spec(), sample_result()
        st = store.MemoryStore()
        held = []
        tracemalloc.start()
        try:
            for third in range(3):
                for n in range(cap):
                    st.put(dict(spec, seed=third * cap + n), result)
                assert len(st) == cap
                held.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        assert abs(held[2] - held[0]) <= 0.1 * held[0], held


class TestSweepOrphans:
    @staticmethod
    def plant_orphan(tmp_path, name, age_seconds):
        path = tmp_path / name
        path.write_text("{}")
        stamp = os.path.getmtime(path) - age_seconds
        os.utime(path, (stamp, stamp))
        return path

    def test_old_orphans_are_reaped(self, tmp_path):
        st = store.ResultStore(str(tmp_path))
        old = self.plant_orphan(
            tmp_path, ".tmp-dead.json", store.ORPHAN_MIN_AGE_SECONDS + 60
        )
        assert st.sweep_orphans() == 1
        assert not old.exists()

    def test_young_temp_files_survive(self, tmp_path):
        # a writer may be mid-put right now: the age guard keeps the
        # sweep from racing a live os.replace
        st = store.ResultStore(str(tmp_path))
        young = self.plant_orphan(tmp_path, ".tmp-live.json", 5)
        assert st.sweep_orphans() == 0
        assert young.exists()

    def test_results_are_never_touched(self, tmp_path):
        st = store.ResultStore(str(tmp_path))
        spec = sample_spec()
        st.put(spec, sample_result())
        self.plant_orphan(
            tmp_path, ".tmp-dead.json", store.ORPHAN_MIN_AGE_SECONDS + 60
        )
        assert st.sweep_orphans() == 1
        assert st.get(spec) == sample_result()

    def test_min_age_is_tunable(self, tmp_path):
        st = store.ResultStore(str(tmp_path))
        self.plant_orphan(tmp_path, ".tmp-x.json", 30)
        assert st.sweep_orphans(min_age_seconds=10) == 1

    def test_coordinator_startup_sweeps(self, tmp_path):
        from repro.fabric.coordinator import Coordinator

        self.plant_orphan(
            tmp_path, ".tmp-dead.json", store.ORPHAN_MIN_AGE_SECONDS + 60
        )
        Coordinator(result_store=store.ResultStore(str(tmp_path)))
        assert not (tmp_path / ".tmp-dead.json").exists()


class TestEnvironment:
    def test_store_dir_env_controls_root(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "here"))
        assert store.store_root() == str(tmp_path / "here")
        assert store.get_store().root == os.path.abspath(
            str(tmp_path / "here")
        )

    def test_store_disable_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", "0")
        assert not store.store_enabled()
        monkeypatch.setenv("REPRO_STORE", "1")
        assert store.store_enabled()

    def test_get_store_is_cached_per_root(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "a"))
        first = store.get_store()
        assert store.get_store() is first
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "b"))
        assert store.get_store() is not first

    def test_active_store_follows_the_switch(self, monkeypatch):
        assert store.active_store() is store.get_store()
        assert isinstance(store.active_store(use_store=False),
                          store.MemoryStore)
        monkeypatch.setenv("REPRO_STORE", "0")
        assert store.active_store() is store.active_store(use_store=False)
        assert store.active_store(use_store=True) is store.get_store()

    def test_version_bump_invalidates_keys(self, monkeypatch):
        base = store.job_key(sample_spec())
        monkeypatch.setattr(store, "STORE_VERSION", store.STORE_VERSION + 1)
        assert store.job_key(sample_spec()) != base


class TestFidelityPayload:
    """The result codec and key discipline for the fast tier
    (docs/fidelity.md)."""

    def fidelity_record(self):
        return {
            "tier": "fast",
            "model_version": 1,
            "error_bars": {"cycles": 0.051, "coverage": 0.031},
            "calibration": {
                "samples": 3,
                "fraction": 0.2,
                "model_version": 1,
                "errors": {"cycles": {"max": 0.04, "mean": 0.02,
                                      "bound": 0.051}},
            },
        }

    def test_codec_round_trips_the_fidelity_field(self):
        result = sample_result(fidelity=self.fidelity_record())
        decoded = store.decode_result(store.encode_result(result))
        assert decoded == result
        assert decoded.fidelity["error_bars"]["cycles"] == 0.051

    def test_round_trip_through_json_text(self):
        result = sample_result(fidelity=self.fidelity_record())
        payload = json.loads(json.dumps(store.encode_result(result)))
        assert store.decode_result(payload) == result

    def test_exact_payloads_omit_the_key(self):
        assert "fidelity" not in store.encode_result(sample_result())

    def test_store_round_trip_preserves_error_bars(self, tmp_path):
        active = store.ResultStore(str(tmp_path))
        spec = store.job_spec("tpcc", "PMS", 2000, 1, 1, "ahb",
                              make_config("PMS"), fidelity="fast")
        result = sample_result(fidelity=self.fidelity_record())
        active.put(spec, result)
        fetched = active.get(spec)
        assert fetched == result
        assert fetched.error_bar("cycles") == 0.051
        assert fetched.fidelity_tier == "fast"

    def test_exact_spec_shape_is_unchanged(self):
        # pre-existing store entries must stay addressable
        spec = sample_spec()
        assert "fidelity" not in spec and "fast_model" not in spec

    def test_fast_spec_keys_cover_the_model_version(self, monkeypatch):
        from repro.fastsim import version as fv
        config = make_config("PMS")
        spec_v1 = store.job_spec("tpcc", "PMS", 2000, 1, 1, "ahb",
                                 config, fidelity="fast")
        monkeypatch.setattr(fv, "FAST_MODEL_VERSION",
                            fv.FAST_MODEL_VERSION + 1)
        spec_v2 = store.job_spec("tpcc", "PMS", 2000, 1, 1, "ahb",
                                 config, fidelity="fast")
        assert store.job_key(spec_v1) != store.job_key(spec_v2)

    def test_unknown_fidelity_rejected(self):
        with pytest.raises(ValueError, match="fidelity"):
            store.job_spec("tpcc", "PMS", 2000, 1, 1, "ahb",
                           make_config("PMS"), fidelity="approximate")
