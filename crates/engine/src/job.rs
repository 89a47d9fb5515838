//! Job execution: map, shuffle, sort, reduce.

use std::cell::Cell;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::{Mutex, OnceLock};

use dt_common::{Error, Result};

use crate::counters::JobCounters;

/// Parallelism configuration for one job.
#[derive(Debug, Clone)]
pub struct JobConfig {
    /// Maximum concurrent map tasks (the paper's workers run up to 6
    /// mappers each).
    pub max_mappers: usize,
    /// Number of reduce partitions (and concurrent reduce tasks).
    pub num_reducers: usize,
}

impl Default for JobConfig {
    fn default() -> Self {
        let cores = cores();
        JobConfig {
            max_mappers: cores,
            num_reducers: (cores / 2).max(2),
        }
    }
}

thread_local! {
    /// The degree a [`with_degree`] scope granted the statement running on
    /// this thread; `None` outside every scope.
    static GRANTED: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Every core of the machine, asked of the OS once: on Linux the question
/// reads cgroup files, too slow to ask per statement.
pub(crate) fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// The degree granted to the statement running on this thread: the most
/// workers its fan-out may use. What the innermost [`with_degree`] scope
/// set — the [`ServicePool`](crate::ServicePool) sets one around every job
/// — and all cores outside every scope, where the engine is idle but for
/// this statement.
pub fn degree() -> usize {
    GRANTED.with(Cell::get).unwrap_or_else(cores)
}

/// Runs `f` with [`degree`] at `degree` (at least 1) on this thread, and
/// restores the enclosing grant afterwards, on unwind too.
pub fn with_degree<R>(degree: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            GRANTED.with(|granted| granted.set(self.0));
        }
    }
    let _restore = Restore(GRANTED.with(|granted| granted.replace(Some(degree.max(1)))));
    f()
}

/// Runs `task` over every split on at most `workers` threads, returning
/// one output per split, in split order; the first error in split order
/// wins (later splits may still have run). A panicking task fails the
/// call with `Error::Internal`. With one worker (or one split) every task
/// runs inline on the caller's thread, in order.
pub fn parallel_map_fallible<I, O, F>(workers: usize, splits: Vec<I>, task: F) -> Result<Vec<O>>
where
    I: Send,
    O: Send,
    F: Fn(I) -> Result<O> + Sync,
{
    let n = splits.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    let workers = workers.max(1).min(n);
    if workers == 1 {
        return splits.into_iter().map(&task).collect();
    }
    let inputs: Vec<Mutex<Option<I>>> = splits.into_iter().map(|s| Mutex::new(Some(s))).collect();
    let outputs: Vec<Mutex<Option<Result<O>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);

    crossbeam::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|_| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= n {
                    return;
                }
                let input = inputs[i]
                    .lock()
                    .expect("input mutex poisoned")
                    .take()
                    .expect("split taken twice");
                let out = task(input);
                *outputs[i].lock().expect("output mutex poisoned") = Some(out);
            });
        }
    })
    .map_err(|_| Error::internal("a map task panicked"))?;

    outputs
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("output mutex poisoned")
                .expect("task completed without output")
        })
        .collect()
}

fn partition_of<K: Hash>(key: &K, partitions: usize) -> usize {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() % partitions as u64) as usize
}

/// Runs a full map-shuffle-sort-reduce job.
///
/// * `splits`: the inputs, one per map task;
/// * `mapper`: consumes a split, emitting `(key, value)` pairs;
/// * `reducer`: consumes one key with all its values (keys arrive sorted
///   within a partition) and returns any number of output records.
///
/// Output records from all partitions are concatenated (partition order),
/// matching the "part files" a Hadoop job leaves behind.
pub fn run_map_reduce<I, K, V, O, M, R>(
    config: &JobConfig,
    counters: &JobCounters,
    splits: Vec<I>,
    mapper: M,
    reducer: R,
) -> Result<Vec<O>>
where
    I: Send,
    K: Ord + Hash + Clone + Send,
    V: Send,
    O: Send,
    M: Fn(I, &mut dyn FnMut(K, V)) -> Result<()> + Sync,
    R: Fn(K, Vec<V>) -> Result<Vec<O>> + Sync,
{
    let (mappers, partitions) = (config.max_mappers, config.num_reducers.max(1));

    // Map phase: each task produces `partitions` buckets.
    let bucketed: Vec<Vec<(K, V)>> = {
        let per_task: Vec<Vec<Vec<(K, V)>>> = parallel_map_fallible(mappers, splits, |split| {
            let mut buckets: Vec<Vec<(K, V)>> = (0..partitions).map(|_| Vec::new()).collect();
            let mut emitted = 0u64;
            mapper(split, &mut |k, v| {
                emitted += 1;
                let p = partition_of(&k, partitions);
                buckets[p].push((k, v));
            })?;
            counters.add_map_input(1);
            counters.add_map_output(emitted);
            Ok(buckets)
        })?;
        // Shuffle: concatenate each partition across tasks.
        let mut merged: Vec<Vec<(K, V)>> = (0..partitions).map(|_| Vec::new()).collect();
        for task_buckets in per_task {
            for (p, bucket) in task_buckets.into_iter().enumerate() {
                merged[p].extend(bucket);
            }
        }
        merged
    };

    // Reduce phase: sort each partition by key, group, reduce.
    let reduced: Vec<Vec<O>> = parallel_map_fallible(mappers, bucketed, |mut bucket| {
        bucket.sort_by(|a, b| a.0.cmp(&b.0));
        let mut out = Vec::new();
        let mut iter = bucket.into_iter().peekable();
        let mut groups = 0u64;
        while let Some((key, first)) = iter.next() {
            let mut values = vec![first];
            while matches!(iter.peek(), Some((k, _)) if *k == key) {
                values.push(iter.next().expect("peeked").1);
            }
            groups += 1;
            let produced = reducer(key, values)?;
            counters.add_reduce_output(produced.len() as u64);
            out.extend(produced);
        }
        counters.add_reduce_groups(groups);
        Ok(out)
    })?;

    Ok(reduced.into_iter().flatten().collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> JobConfig {
        JobConfig {
            max_mappers: 4,
            num_reducers: 3,
        }
    }

    #[test]
    fn outputs_come_back_in_split_order() {
        let out = parallel_map_fallible(4, (0..100).collect(), |i: i32| {
            // Make early splits finish late to stress the ordering.
            if i % 3 == 0 {
                std::thread::yield_now();
            }
            Ok(i * 2)
        })
        .unwrap();
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
        let none: Vec<i32> = parallel_map_fallible(4, Vec::new(), Ok).unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn one_worker_runs_inline_in_order() {
        let caller = std::thread::current().id();
        let seen = Mutex::new(Vec::new());
        // Zero workers means one.
        for workers in [0, 1] {
            seen.lock().unwrap().clear();
            parallel_map_fallible(workers, vec![1, 2, 3], |i| {
                assert_eq!(std::thread::current().id(), caller);
                seen.lock().unwrap().push(i);
                Ok(())
            })
            .unwrap();
            assert_eq!(*seen.lock().unwrap(), vec![1, 2, 3]);
        }
    }

    #[test]
    fn workers_run_at_once() {
        // Deadlocks unless both splits run concurrently.
        let barrier = std::sync::Barrier::new(2);
        let out = parallel_map_fallible(2, vec![0, 1], |i| {
            barrier.wait();
            Ok(i)
        })
        .unwrap();
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn first_error_in_split_order_wins() {
        let err = parallel_map_fallible(4, (0..16).collect(), |i: i32| {
            if i >= 3 {
                Err(Error::internal(format!("split {i} failed")))
            } else {
                Ok(i)
            }
        })
        .unwrap_err();
        assert_eq!(
            err.to_string(),
            Error::internal("split 3 failed").to_string()
        );
    }

    #[test]
    fn a_panicking_task_becomes_an_error() {
        let err = parallel_map_fallible(2, vec![0u8, 1], |i| {
            if i == 1 {
                panic!("boom");
            }
            Ok(i)
        })
        .unwrap_err();
        assert!(matches!(err, Error::Internal(_)), "{err}");
    }

    #[test]
    fn a_scope_grants_the_degree_and_restores_the_outer_one() {
        assert_eq!(degree(), cores());
        with_degree(3, || {
            assert_eq!(degree(), 3);
            with_degree(0, || assert_eq!(degree(), 1));
            let inner = std::panic::catch_unwind(|| with_degree(2, || panic!("unwinds")));
            assert!(inner.is_err());
            assert_eq!(degree(), 3);
            // A grant is per thread.
            std::thread::scope(|s| s.spawn(|| assert_eq!(degree(), cores())).join().unwrap());
        });
        assert_eq!(degree(), cores());
    }

    #[test]
    fn word_count() {
        let splits = vec![vec!["a", "b", "a"], vec!["b", "c"], vec!["a"]];
        let counters = JobCounters::new();
        let mut out = run_map_reduce(
            &config(),
            &counters,
            splits,
            |words, emit| {
                for w in words {
                    emit(w.to_string(), 1u64);
                }
                Ok(())
            },
            |word, counts| Ok(vec![(word, counts.iter().sum::<u64>())]),
        )
        .unwrap();
        out.sort();
        assert_eq!(
            out,
            vec![
                ("a".to_string(), 3),
                ("b".to_string(), 2),
                ("c".to_string(), 1)
            ]
        );
        let (mi, mo, rg, ro) = counters.snapshot();
        assert_eq!(mi, 3);
        assert_eq!(mo, 6);
        assert_eq!(rg, 3);
        assert_eq!(ro, 3);
    }

    #[test]
    fn reduce_sees_sorted_keys_within_partition() {
        // With a single reducer, output order equals sorted key order.
        let cfg = JobConfig {
            max_mappers: 4,
            num_reducers: 1,
        };
        let counters = JobCounters::new();
        let out = run_map_reduce(
            &cfg,
            &counters,
            vec![vec![5, 3, 9, 1], vec![7, 2]],
            |nums, emit| {
                for n in nums {
                    emit(n, ());
                }
                Ok(())
            },
            |k, _| Ok(vec![k]),
        )
        .unwrap();
        assert_eq!(out, vec![1, 2, 3, 5, 7, 9]);
    }

    #[test]
    fn reducer_error_propagates() {
        let counters = JobCounters::new();
        let r: Result<Vec<u64>> = run_map_reduce(
            &config(),
            &counters,
            vec![vec![1u64]],
            |nums, emit| {
                for n in nums {
                    emit(n, n);
                }
                Ok(())
            },
            |_, _| Err(Error::invalid("reduce failure")),
        );
        assert!(r.is_err());
    }

    #[test]
    fn large_job_is_consistent() {
        let splits: Vec<Vec<u64>> = (0..32)
            .map(|s| (0..1000).map(|i| (s * 1000 + i) % 97).collect())
            .collect();
        let counters = JobCounters::new();
        let out = run_map_reduce(
            &config(),
            &counters,
            splits,
            |nums, emit| {
                for n in nums {
                    emit(n, 1u64);
                }
                Ok(())
            },
            |k, vs| Ok(vec![(k, vs.len() as u64)]),
        )
        .unwrap();
        assert_eq!(out.len(), 97);
        let total: u64 = out.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 32_000);
    }
}
