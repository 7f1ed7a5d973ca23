"""Fixture tests for the five flow-aware concurrency rules.

Each rule gets at least one true-positive fixture and one *near-miss*
negative — a snippet one edit away from the violation that must stay
clean, pinning the rule's precision as well as its recall.
"""

from __future__ import annotations

import textwrap

from repro.analysis import get_rules, lint_paths


def lint_snippet(tmp_path, rule, source, relpath="pkg/mod.py"):
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return lint_paths([path], rules=get_rules([rule]), root=tmp_path)


class TestAsyncBlockingCall:
    RULE = "async-blocking-call"

    def test_time_sleep_in_coroutine_is_flagged(self, tmp_path):
        src = """
            import time

            async def handler():
                time.sleep(1)
        """
        (finding,) = lint_snippet(tmp_path, self.RULE, src)
        assert "time.sleep" in finding.message
        assert "asyncio" in finding.message

    def test_from_import_alias_is_resolved(self, tmp_path):
        src = """
            from time import sleep as pause

            async def handler():
                pause(1)
        """
        (finding,) = lint_snippet(tmp_path, self.RULE, src)
        assert "time.sleep" in finding.message

    def test_sync_function_is_exempt(self, tmp_path):
        src = """
            import time

            def worker():
                time.sleep(1)
        """
        assert lint_snippet(tmp_path, self.RULE, src) == []

    def test_unreachable_call_is_not_flagged(self, tmp_path):
        # The CFG knows the sleep is dead code.
        src = """
            import time

            async def handler():
                return 0
                time.sleep(1)
        """
        assert lint_snippet(tmp_path, self.RULE, src) == []

    def test_put_on_unbounded_queue_is_clean(self, tmp_path):
        src = """
            import queue

            async def handler(x):
                q = queue.Queue()
                q.put(x)
        """
        assert lint_snippet(tmp_path, self.RULE, src) == []

    def test_put_on_bounded_queue_is_flagged(self, tmp_path):
        src = """
            import queue

            async def handler(x):
                q = queue.Queue(8)
                q.put(x)
        """
        (finding,) = lint_snippet(tmp_path, self.RULE, src)
        assert "bounded queue" in finding.message

    def test_get_blocks_even_unbounded(self, tmp_path):
        src = """
            import queue

            async def handler():
                q = queue.Queue()
                return q.get()
        """
        (finding,) = lint_snippet(tmp_path, self.RULE, src)
        assert ".get()" in finding.message

    def test_asyncio_queue_is_not_confused_with_queue_queue(
        self, tmp_path
    ):
        src = """
            import asyncio

            async def handler():
                q = asyncio.Queue()
                return await q.get()
        """
        assert lint_snippet(tmp_path, self.RULE, src) == []

    def test_pragma_suppresses(self, tmp_path):
        src = """
            import time

            async def handler():
                time.sleep(1)  # repro-lint: disable=async-blocking-call
        """
        assert lint_snippet(tmp_path, self.RULE, src) == []

    SHUTDOWN_SHAPE = """
        import threading

        def _run():
            pass

        class _Backend:
            def __init__(self):
                self._threads = []
                thread = threading.Thread(target=_run)
                self._threads.append(thread)

            def close(self):
                for thread in self._threads:
                    thread.join()

        class Service:
            def __init__(self):
                self._pools = {{}}
                pool = _Backend()
                self._pools["k"] = pool

            async def shutdown(self):
                for pool in self._pools.values():
                    {call}
    """

    def test_pool_close_via_class_summary_is_flagged(self, tmp_path):
        # Regression mirror of DetectionService.shutdown: close() joins
        # worker threads, traced through the class summary and the
        # self._pools container.
        src = self.SHUTDOWN_SHAPE.format(call="pool.close()")
        (finding,) = lint_snippet(tmp_path, self.RULE, src)
        assert "_Backend.close" in finding.message

    def test_to_thread_wrapper_is_the_fix(self, tmp_path):
        src = self.SHUTDOWN_SHAPE.format(
            call="await asyncio.to_thread(pool.close)"
        )
        assert lint_snippet(tmp_path, self.RULE, src) == []

    EXECUTOR_SHAPE = """
        import asyncio

        from repro.parallel import ProcessExecutor, ThreadExecutor

        class Service:
            def __init__(self, spec, process):
                self._pools = {{}}
                if process:
                    pool = ProcessExecutor(spec, 1)
                else:
                    pool = ThreadExecutor(spec.build, 1)
                self._pools["k"] = pool

            async def shutdown(self, merged):
                for pool in self._pools.values():
                    {call}
    """

    def test_executor_close_is_flagged(self, tmp_path):
        # The executors live in another module, so no class summary
        # covers them: their close() is known to join by name.
        src = self.EXECUTOR_SHAPE.format(call="pool.close(merged)")
        (finding,) = lint_snippet(tmp_path, self.RULE, src)
        assert ".close() on an executor" in finding.message

    def test_executor_close_off_loop_is_clean(self, tmp_path):
        src = self.EXECUTOR_SHAPE.format(
            call="await asyncio.to_thread(pool.close, merged)"
        )
        assert lint_snippet(tmp_path, self.RULE, src) == []


class TestLockHeldAcrossAwait:
    RULE = "lock-held-across-await"

    def test_await_under_module_lock_is_flagged(self, tmp_path):
        src = """
            import asyncio
            import threading

            _STATE_LOCK = threading.Lock()

            async def handler():
                with _STATE_LOCK:
                    await asyncio.sleep(0)
        """
        (finding,) = lint_snippet(tmp_path, self.RULE, src)
        assert "_STATE_LOCK" in finding.message
        assert "suspends" in finding.message

    def test_lockish_attribute_name_is_flagged(self, tmp_path):
        src = """
            import asyncio

            class S:
                async def handler(self):
                    with self._lock:
                        await asyncio.sleep(0)
        """
        (finding,) = lint_snippet(tmp_path, self.RULE, src)
        assert "self._lock" in finding.message

    def test_await_after_with_block_is_clean(self, tmp_path):
        # Near-miss: the await happens after the lock is released.
        src = """
            import asyncio

            class S:
                async def handler(self):
                    with self._lock:
                        self.x = 1
                    await asyncio.sleep(0)
        """
        assert lint_snippet(tmp_path, self.RULE, src) == []

    def test_async_with_asyncio_lock_is_the_fix(self, tmp_path):
        src = """
            import asyncio

            class S:
                async def handler(self):
                    async with self._lock:
                        await asyncio.sleep(0)
        """
        assert lint_snippet(tmp_path, self.RULE, src) == []

    def test_non_lock_context_manager_is_clean(self, tmp_path):
        src = """
            async def handler(path, session):
                with open(path) as fh:
                    await session.send(fh.read())
        """
        assert lint_snippet(tmp_path, self.RULE, src) == []

    def test_unreachable_with_is_not_flagged(self, tmp_path):
        src = """
            import asyncio

            class S:
                async def handler(self):
                    return
                    with self._lock:
                        await asyncio.sleep(0)
        """
        assert lint_snippet(tmp_path, self.RULE, src) == []

    def test_pragma_suppresses(self, tmp_path):
        src = """
            import asyncio

            class S:
                async def handler(self):
                    with self._lock:
                        await asyncio.sleep(0)  \
# repro-lint: disable=lock-held-across-await
        """
        assert lint_snippet(tmp_path, self.RULE, src) == []


class TestLoopThreadTelemetry:
    RULE = "loop-thread-telemetry"

    def test_thread_target_recording_serve_is_flagged(self, tmp_path):
        src = """
            import threading

            def _worker(tm):
                tm.inc("serve.frames_dropped", 1)

            def start(tm):
                threading.Thread(target=_worker, args=(tm,)).start()
        """
        (finding,) = lint_snippet(tmp_path, self.RULE, src)
        assert "serve.frames_dropped" in finding.message
        assert "thread-side" in finding.message

    def test_propagates_through_direct_calls(self, tmp_path):
        src = """
            import threading

            def _helper(tm):
                tm.set_gauge("serve.workers", 0.0)

            def _worker(tm):
                _helper(tm)

            def start(tm):
                threading.Thread(target=_worker, args=(tm,)).start()
        """
        (finding,) = lint_snippet(tmp_path, self.RULE, src)
        assert "_helper" in finding.message

    def test_call_soon_threadsafe_callback_is_the_bridge(self, tmp_path):
        # Near-miss: the record site is only *referenced* from the
        # thread side; call_soon_threadsafe runs it on the loop.
        src = """
            import threading

            def _record(tm):
                tm.inc("serve.frames_dropped", 1)

            def _worker(loop, tm):
                loop.call_soon_threadsafe(_record, tm)

            def start(loop, tm):
                threading.Thread(
                    target=_worker, args=(loop, tm)
                ).start()
        """
        assert lint_snippet(tmp_path, self.RULE, src) == []

    def test_non_serve_names_are_fine_off_loop(self, tmp_path):
        src = """
            import threading

            def _worker(tm):
                tm.inc("parallel.batches", 1)

            def start(tm):
                threading.Thread(target=_worker, args=(tm,)).start()
        """
        assert lint_snippet(tmp_path, self.RULE, src) == []

    def test_untargeted_function_is_not_flagged(self, tmp_path):
        src = """
            def record(tm):
                tm.inc("serve.frames_dropped", 1)
        """
        assert lint_snippet(tmp_path, self.RULE, src) == []


class TestShmLifecycle:
    RULE = "shm-lifecycle"

    def test_leaked_local_segment_is_flagged_twice(self, tmp_path):
        src = """
            from multiprocessing.shared_memory import SharedMemory

            def make():
                shm = SharedMemory(create=True, size=64)
                shm.buf[0] = 1
        """
        findings = lint_snippet(tmp_path, self.RULE, src)
        assert len(findings) == 2
        assert any(".close()" in f.message for f in findings)
        assert any(".unlink()" in f.message for f in findings)

    def test_straight_line_cleanup_is_not_enough(self, tmp_path):
        # Near-miss: close+unlink exist but an exception before them
        # leaks the segment — the rule demands a finally.
        src = """
            from multiprocessing.shared_memory import SharedMemory

            def make():
                shm = SharedMemory(create=True, size=64)
                shm.buf[0] = 1
                shm.close()
                shm.unlink()
        """
        findings = lint_snippet(tmp_path, self.RULE, src)
        assert len(findings) == 2

    def test_try_finally_cleanup_is_clean(self, tmp_path):
        src = """
            from multiprocessing.shared_memory import SharedMemory

            def make():
                shm = SharedMemory(create=True, size=64)
                try:
                    shm.buf[0] = 1
                finally:
                    shm.close()
                    shm.unlink()
        """
        assert lint_snippet(tmp_path, self.RULE, src) == []

    def test_finalize_handoff_transfers_ownership(self, tmp_path):
        src = """
            import weakref
            from multiprocessing.shared_memory import SharedMemory

            def make(owner, cleanup):
                shm = SharedMemory(create=True, size=64)
                weakref.finalize(owner, cleanup, shm)
                return shm
        """
        assert lint_snippet(tmp_path, self.RULE, src) == []

    def test_discarded_creation_is_flagged(self, tmp_path):
        src = """
            from multiprocessing.shared_memory import SharedMemory

            def make():
                SharedMemory(create=True, size=64)
        """
        (finding,) = lint_snippet(tmp_path, self.RULE, src)
        assert "discarded" in finding.message

    def test_attach_side_unlink_is_flagged(self, tmp_path):
        src = """
            from multiprocessing.shared_memory import SharedMemory

            def steal(name):
                shm = SharedMemory(name=name)
                shm.unlink()
        """
        (finding,) = lint_snippet(tmp_path, self.RULE, src)
        assert "attach-side unlink()" in finding.message

    def test_attach_side_close_only_is_clean(self, tmp_path):
        # Near-miss: the correct worker-side teardown.
        src = """
            from multiprocessing.shared_memory import SharedMemory

            def attach(name):
                shm = SharedMemory(name=name)
                try:
                    return bytes(shm.buf)
                finally:
                    shm.close()
        """
        assert lint_snippet(tmp_path, self.RULE, src) == []

    def test_class_owner_missing_unlink_is_flagged(self, tmp_path):
        src = """
            from multiprocessing.shared_memory import SharedMemory

            class Owner:
                def __init__(self):
                    self._shm = SharedMemory(create=True, size=64)

                def close(self):
                    self._shm.close()
        """
        (finding,) = lint_snippet(tmp_path, self.RULE, src)
        assert "unlink()" in finding.message

    def test_class_owner_protected_unlink_is_clean(self, tmp_path):
        src = """
            from multiprocessing.shared_memory import SharedMemory

            class Owner:
                def __init__(self):
                    self._shm = SharedMemory(create=True, size=64)

                def close(self):
                    try:
                        self._shm.close()
                    finally:
                        self._shm.unlink()
        """
        assert lint_snippet(tmp_path, self.RULE, src) == []

    def test_class_owner_unprotected_unlink_is_flagged(self, tmp_path):
        src = """
            from multiprocessing.shared_memory import SharedMemory

            class Owner:
                def __init__(self):
                    self._shm = SharedMemory(create=True, size=64)

                def close(self):
                    self._shm.close()
                    self._shm.unlink()
        """
        (finding,) = lint_snippet(tmp_path, self.RULE, src)
        assert "not exception-protected" in finding.message


class TestArenaLoanEscape:
    RULE = "arena-loan-escape"

    def test_attribute_store_of_loan_is_flagged(self, tmp_path):
        src = """
            class Cache:
                def stash(self, arena):
                    self._view = arena.get("x", (4,), "f8")
        """
        (finding,) = lint_snippet(tmp_path, self.RULE, src)
        assert "attribute store" in finding.message

    def test_derived_view_return_is_flagged(self, tmp_path):
        src = """
            def flatten(out=None):
                return out.reshape(-1)
        """
        (finding,) = lint_snippet(tmp_path, self.RULE, src)
        assert "derived view" in finding.message

    def test_slice_return_is_flagged(self, tmp_path):
        src = """
            def head(out):
                return out[:2]
        """
        (finding,) = lint_snippet(tmp_path, self.RULE, src)
        assert "returned" in finding.message

    def test_identity_echo_is_clean(self, tmp_path):
        src = """
            def fill(out):
                out.fill(0)
                return out
        """
        assert lint_snippet(tmp_path, self.RULE, src) == []

    def test_alias_echo_is_clean(self, tmp_path):
        # Near-miss: the scoring.py shape — a local alias of the out
        # parameter is still the caller's own storage.
        src = """
            import numpy as np

            def scores(out=None):
                if out is None:
                    acc = np.zeros(4)
                else:
                    acc = out
                return acc
        """
        assert lint_snippet(tmp_path, self.RULE, src) == []

    def test_fresh_loan_return_is_clean(self, tmp_path):
        src = """
            def dest(arena):
                return arena.get("x", (4,), "f8")
        """
        assert lint_snippet(tmp_path, self.RULE, src) == []

    def test_copy_launders(self, tmp_path):
        src = """
            def snapshot(out):
                return out.reshape(-1).copy()
        """
        assert lint_snippet(tmp_path, self.RULE, src) == []

    def test_closure_capture_is_flagged(self, tmp_path):
        src = """
            def f(arena):
                view = arena.get("x", (4,), "f8")

                def peek():
                    return view[0]

                return peek
        """
        (finding,) = lint_snippet(tmp_path, self.RULE, src)
        assert "captured by a nested function" in finding.message

    def test_shadowing_parameter_is_not_capture(self, tmp_path):
        src = """
            def f(arena):
                view = arena.get("x", (4,), "f8")

                def scale(view):
                    return view * 2

                scale(view)
        """
        assert lint_snippet(tmp_path, self.RULE, src) == []

    def test_non_array_out_annotation_is_exempt(self, tmp_path):
        src = """
            def gather(out_paths: list[str]):
                return out_paths[0]
        """
        assert lint_snippet(tmp_path, self.RULE, src) == []
