//! The pool's thread budget, measured from outside: the first parallel
//! call spawns exactly one worker per available core, and no later job
//! (flat, nested, or one whose map function panics) adds a thread.
//!
//! This file holds a single test so that nothing else in its process
//! touches the pool before the first reading. It reads the process's
//! thread list from `/proc/self/task` and returns early where that
//! directory cannot be read.

use man_par::{available_cores, parallel_map, Parallelism};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Live threads in this process: one directory entry per thread under
/// `/proc/self/task`; `None` where that cannot be read.
fn thread_count() -> Option<usize> {
    Some(std::fs::read_dir("/proc/self/task").ok()?.count())
}

#[test]
fn pool_spawns_one_worker_per_core_once() {
    let Some(before) = thread_count() else {
        return;
    };
    let expected = before + available_cores();
    let read = || thread_count().expect("/proc/self/task stays readable");

    let out = parallel_map(Parallelism::Threads(2), 64, |i| i as u64 * 3);
    assert_eq!(out, (0..64).map(|i| i * 3).collect::<Vec<u64>>());
    assert_eq!(
        read(),
        expected,
        "the first parallel call spawns one worker per core"
    );

    for _ in 0..16 {
        let out = parallel_map(Parallelism::Auto, 503, |i| i as u64 * 3);
        assert_eq!(out.len(), 503);
        assert_eq!(out[500], 1500);
    }
    assert_eq!(read(), expected, "flat jobs add no thread");

    let nested = parallel_map(Parallelism::Threads(4), 8, |i| {
        parallel_map(Parallelism::Threads(4), 16, move |j| (i * 16 + j) as u64)
            .iter()
            .sum::<u64>()
    });
    assert_eq!(nested.iter().sum::<u64>(), (0..128).sum::<u64>());
    assert_eq!(read(), expected, "nested jobs add no thread");

    let caught = catch_unwind(AssertUnwindSafe(|| {
        parallel_map(Parallelism::Threads(4), 32, |i| {
            assert_ne!(i, 11, "poisoned item");
            i
        })
    }));
    assert!(caught.is_err(), "the panic resumes on the caller");
    assert_eq!(
        parallel_map(Parallelism::Threads(4), 32, |i| i),
        (0..32).collect::<Vec<_>>()
    );
    assert_eq!(read(), expected, "a contained panic adds no thread");
}
