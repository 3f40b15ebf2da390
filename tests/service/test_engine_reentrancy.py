"""Engine reentrancy: N threads through one shared engine/store must
produce byte-identical outputs to serial one-shot runs."""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

from repro.core.cache import ArtifactStore, CacheConfig
from repro.core.observe import Observer
from repro.core.parallel import ExecutorConfig
from repro.core.pipeline import RewriteOptions
from repro.frontend.engine import EngineConfig, RewriteEngine
from repro.frontend.tool import instrument_elf

from tests.service.conftest import make_binary


def serial_reference(data: bytes, options: RewriteOptions) -> bytes:
    """The one-shot CLI path: fresh everything, no sharing."""
    return instrument_elf(data, "jumps", options=options).result.data


class TestReentrancy:
    def test_threads_same_binary_byte_identical(self, tmp_path):
        data = make_binary(seed=11)
        options = RewriteOptions(mode="loader")
        expected = serial_reference(data, options)

        engine = RewriteEngine(EngineConfig(
            cache=CacheConfig.from_env(tmp_path),
            executor=ExecutorConfig(jobs=1),
        ))
        with ThreadPoolExecutor(max_workers=8) as pool:
            outputs = list(pool.map(
                lambda _: engine.rewrite(data, options=options).result.data,
                range(16)))
        assert all(out == expected for out in outputs)
        stats = engine.store.stats
        assert stats.errors == 0
        assert stats.hits + stats.misses > 0

    def test_threads_different_binaries_share_nothing_but_store(self,
                                                                tmp_path):
        binaries = {seed: make_binary(seed=seed, sites=20)
                    for seed in (1, 2, 3, 4)}
        options = RewriteOptions(mode="loader")
        expected = {seed: serial_reference(data, options)
                    for seed, data in binaries.items()}

        engine = RewriteEngine(EngineConfig(
            cache=CacheConfig.from_env(tmp_path)))
        results: dict[int, list[bytes]] = {seed: [] for seed in binaries}
        lock = threading.Lock()

        def worker(seed: int) -> None:
            out = engine.rewrite(binaries[seed], options=options).result.data
            with lock:
                results[seed].append(out)

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(worker, [s for s in binaries for _ in range(4)]))

        for seed, outs in results.items():
            assert len(outs) == 4
            assert all(out == expected[seed] for out in outs)

    def test_shared_store_across_engines(self, tmp_path):
        """Two engines over one store: the second is all warm hits."""
        data = make_binary(seed=9)
        store = ArtifactStore(tmp_path)
        options = RewriteOptions(mode="loader")

        first = RewriteEngine(store=store)
        second = RewriteEngine(store=store)
        a = first.rewrite(data, options=options)
        observer = Observer()
        b = second.rewrite(data, options=options, observer=observer)
        assert a.result.data == b.result.data
        assert observer.runs("decode") == 0  # served from the shared store

    def test_per_request_observer_isolation(self, tmp_path):
        data = make_binary(seed=5)
        engine = RewriteEngine()
        obs_a, obs_b = Observer(), Observer()
        engine.rewrite(data, options=RewriteOptions(mode="loader"),
                       observer=obs_a)
        engine.rewrite(data, options=RewriteOptions(mode="loader"),
                       observer=obs_b)
        # Each request's observer saw exactly its own pipeline.
        assert obs_a.runs("decode") == 1
        assert obs_b.runs("decode") == 1

    def test_matcher_expression_accepted(self):
        data = make_binary(seed=3)
        engine = RewriteEngine()
        report = engine.rewrite(
            data, matcher='mnemonic == "jmp" and size >= 2',
            options=RewriteOptions(mode="loader"))
        assert report.n_sites > 0


class TestOptionsFromDict:
    def test_full_round_trip(self):
        options = RewriteOptions.from_dict({
            "mode": "loader", "grouping": False, "granularity": 4,
            "t3": False, "verify": True,
        })
        assert options.mode == "loader"
        assert options.grouping is False
        assert options.granularity == 4
        assert options.toggles.t3 is False
        assert options.verify is True
        assert RewriteOptions.from_dict(options.to_dict()) == options
