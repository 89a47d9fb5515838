//! Job execution: map, shuffle, sort, reduce.

use std::cell::Cell;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock, PoisonError};

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
pub fn cores() -> usize {
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

/// Statements running in this process: what [`read_degree`] leaves the
/// cores to.
static IN_FLIGHT: AtomicUsize = AtomicUsize::new(0);

/// One statement in flight, counted from [`InFlight::begin`] until the
/// guard drops (on unwind too). A session holds one around each statement.
#[must_use = "the statement counts only while the guard lives"]
pub struct InFlight(());

impl InFlight {
    /// Counts the calling statement in flight.
    pub fn begin() -> Self {
        IN_FLIGHT.fetch_add(1, Ordering::Relaxed);
        InFlight(())
    }
}

impl Drop for InFlight {
    fn drop(&mut self) {
        IN_FLIGHT.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The most workers a read may fan out over: the granted [`degree`],
/// capped at its own core plus the cores no in-flight statement holds. A
/// read beside another running statement therefore runs inline; a
/// rewrite keeps the whole [`degree`].
pub fn read_degree() -> usize {
    let busy = IN_FLIGHT.load(Ordering::Relaxed);
    degree().min(1 + cores().saturating_sub(busy))
}

/// Runs `task` over every split on at most `workers` threads, the caller's
/// one of them, returning one output per split, in split order; the first
/// error in split order wins (later splits may still have run). A
/// panicking task fails the call with `Error::Internal`. With one worker
/// (or one split) every task runs inline on the caller's thread, in order.
/// It is [`ordered_map`] with no bound on how far ahead a split starts.
pub fn parallel_map_fallible<I, O, F>(workers: usize, splits: Vec<I>, task: F) -> Result<Vec<O>>
where
    I: Send,
    O: Send,
    F: Fn(I) -> Result<O> + Sync,
{
    let mut out = Vec::with_capacity(splits.len());
    let window = splits.len();
    let _all = ordered((workers, window), |_| true, splits, task, &mut |o| {
        out.push(o);
        Ok(ControlFlow::Continue(()))
    })?;
    Ok(out)
}

/// Runs `task` over every morsel on at most `workers` threads, the
/// caller's one of them, and hands each output to `consume` on the
/// calling thread, in morsel order. At most twice `workers` morsels run
/// or wait ahead of the one being consumed: memory stays flat however
/// many there are, and a worker seldom waits while the caller, busy with
/// a morsel of its own, has not consumed. The first error in morsel
/// order — a task's, or `consume`'s — ends the run, as does `Break` from
/// `consume`: no further morsel starts, the running ones finish, and the
/// call returns it. A panicking task fails the call with
/// `Error::Internal`. With one worker each task runs inline (a panic
/// unwinds to the caller) and its output is consumed before the next one
/// starts. A spawned worker steps back — finishes its morsel and starts
/// no other — once the statements in flight hold its core
/// ([`read_degree`]): a statement that starts beside the run takes the
/// core back at the next morsel, and the caller finishes alone.
pub fn ordered_map<I, O, F>(
    workers: usize,
    morsels: Vec<I>,
    task: F,
    consume: &mut dyn FnMut(O) -> Result<ControlFlow<()>>,
) -> Result<ControlFlow<()>>
where
    I: Send,
    O: Send,
    F: Fn(I) -> Result<O> + Sync,
{
    // Cores the statements in flight leave: the caller's own, and one per
    // core no statement holds.
    let keeps = |helper| helper < 1 + cores().saturating_sub(IN_FLIGHT.load(Ordering::Relaxed));
    ordered((workers, 2 * workers), keeps, morsels, task, consume)
}

/// The shared state of one [`ordered`] run.
struct Lane<I, O> {
    inputs: Vec<Option<I>>,
    outputs: Vec<Option<Result<O>>>,
    /// The next item to start, and the one being consumed.
    next: usize,
    head: usize,
    /// Set once the caller returns: nothing more starts.
    stop: bool,
}

/// Stops an [`ordered`] run when its caller leaves it, by any path.
struct StopOnExit<'a, I, O>(&'a Mutex<Lane<I, O>>, &'a Condvar);

impl<I, O> Drop for StopOnExit<'_, I, O> {
    fn drop(&mut self) {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).stop = true;
        self.1.notify_all();
    }
}

/// [`ordered_map`] with items started at most `window` ahead of the one
/// being consumed, spawned worker `k` (from 1) starting one only while
/// `keeps(k)`.
fn ordered<I, O, F>(
    (workers, window): (usize, usize),
    keeps: impl Fn(usize) -> bool + Copy + Send,
    items: Vec<I>,
    task: F,
    consume: &mut dyn FnMut(O) -> Result<ControlFlow<()>>,
) -> Result<ControlFlow<()>>
where
    I: Send,
    O: Send,
    F: Fn(I) -> Result<O> + Sync,
{
    let n = items.len();
    let workers = workers.max(1).min(n);
    if workers <= 1 {
        for item in items {
            if consume(task(item)?)?.is_break() {
                return Ok(ControlFlow::Break(()));
            }
        }
        return Ok(ControlFlow::Continue(()));
    }
    let lane = Mutex::new(Lane {
        inputs: items.into_iter().map(Some).collect(),
        outputs: (0..n).map(|_| None).collect(),
        next: 0,
        head: 0,
        stop: false,
    });
    let changed = Condvar::new();
    let (lane, changed) = (&lane, &changed);
    let lock = || lane.lock().unwrap_or_else(PoisonError::into_inner);
    let claim = |lane: &mut Lane<I, O>| {
        let i = lane.next;
        let open = !lane.stop && i < n && i < lane.head + window;
        open.then(|| {
            lane.next += 1;
            (i, lane.inputs[i].take().expect("an item starts once"))
        })
    };
    let run = |(i, item): (usize, I)| {
        let out = catch_unwind(AssertUnwindSafe(|| task(item)));
        let out = out.unwrap_or_else(|_| Err(Error::internal("a map task panicked")));
        lock().outputs[i] = Some(out);
        changed.notify_all();
    };
    let flow = crossbeam::thread::scope(|scope| {
        for helper in 1..workers {
            scope.spawn(move |_| loop {
                let mut lane = lock();
                let item = loop {
                    if lane.stop || lane.next >= n || !keeps(helper) {
                        return;
                    }
                    match claim(&mut lane) {
                        Some(item) => break item,
                        None => lane = changed.wait(lane).unwrap_or_else(PoisonError::into_inner),
                    }
                };
                drop(lane);
                run(item);
            });
        }
        let _stop = StopOnExit(lane, changed);
        for head in 0..n {
            let out = loop {
                let mut lane = lock();
                if let Some(out) = lane.outputs[head].take() {
                    break out;
                }
                // Work rather than wait: start the next item if the
                // window has room (it always has for `head` itself).
                match claim(&mut lane) {
                    Some(item) => {
                        drop(lane);
                        run(item);
                    }
                    None => drop(changed.wait(lane)),
                }
            };
            if consume(out?)?.is_break() {
                return Ok(ControlFlow::Break(()));
            }
            lock().head = head + 1;
            changed.notify_all();
        }
        Ok(ControlFlow::Continue(()))
    });
    flow.map_err(|_| Error::internal("a map task panicked"))?
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
    use std::collections::HashSet;

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

    /// The threads that ran `splits` tasks of `work`, each task held until
    /// the second one is running.
    fn task_threads(workers: usize, splits: usize) -> HashSet<std::thread::ThreadId> {
        let barrier = std::sync::Barrier::new(2);
        let seen = Mutex::new(HashSet::new());
        parallel_map_fallible(workers, (0..splits).collect(), |i: usize| {
            if i < 2 {
                barrier.wait();
            }
            seen.lock().unwrap().insert(std::thread::current().id());
            Ok(i)
        })
        .unwrap();
        seen.into_inner().unwrap()
    }

    #[test]
    fn the_caller_is_one_of_the_workers() {
        // Two workers: the caller and exactly one spawned thread, however
        // many splits there are.
        for splits in [2, 9] {
            let threads = task_threads(2, splits);
            assert_eq!(threads.len(), 2, "{splits} splits");
            assert!(threads.contains(&std::thread::current().id()));
        }
    }

    #[test]
    fn an_ordered_map_consumes_in_order_within_its_window() {
        for workers in [1, 2, 3] {
            let consumed = AtomicUsize::new(0);
            let mut seen = Vec::new();
            let flow = ordered_map(
                workers,
                (0..40).collect(),
                |i: usize| {
                    // Started at most twice `workers` ahead of the one
                    // consumed.
                    assert!(i < consumed.load(Ordering::SeqCst) + 2 * workers, "{i}");
                    if i.is_multiple_of(3) {
                        std::thread::yield_now();
                    }
                    Ok(i * 2)
                },
                &mut |o| {
                    seen.push(o);
                    consumed.fetch_add(1, Ordering::SeqCst);
                    Ok(ControlFlow::Continue(()))
                },
            )
            .unwrap();
            assert_eq!(flow, ControlFlow::Continue(()));
            assert_eq!(seen, (0..40).map(|i| i * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn an_ordered_map_stops_at_break_and_at_the_first_error_in_order() {
        for workers in [1, 2, 4] {
            let started = AtomicUsize::new(0);
            let mut seen = Vec::new();
            let flow = ordered_map(
                workers,
                (0..100).collect(),
                |i: usize| {
                    started.fetch_add(1, Ordering::SeqCst);
                    Ok(i)
                },
                &mut |o| {
                    seen.push(o);
                    Ok(match o {
                        5 => ControlFlow::Break(()),
                        _ => ControlFlow::Continue(()),
                    })
                },
            )
            .unwrap();
            assert_eq!(flow, ControlFlow::Break(()));
            assert_eq!(seen, (0..=5).collect::<Vec<_>>());
            assert!(started.load(Ordering::SeqCst) <= 6 + 2 * workers);

            let err = ordered_map(
                workers,
                (0..16).collect(),
                |i: i32| match i {
                    3.. => Err(Error::internal(format!("morsel {i} failed"))),
                    _ => Ok(i),
                },
                &mut |_| Ok(ControlFlow::Continue(())),
            )
            .unwrap_err();
            assert_eq!(
                err.to_string(),
                Error::internal("morsel 3 failed").to_string()
            );
            if workers == 1 {
                continue; // Inline: a panic unwinds to the caller.
            }
            let err = ordered_map(
                workers,
                vec![0u8, 1, 2],
                |i| match i {
                    1 => panic!("boom"),
                    _ => Ok(i),
                },
                &mut |_| Ok(ControlFlow::Continue(())),
            )
            .unwrap_err();
            assert!(matches!(err, Error::Internal(_)), "{err}");
        }
    }

    #[test]
    fn an_ordered_map_leaves_the_cores_statements_hold() {
        // Every core held: the spawned worker starts nothing, the caller
        // runs every morsel.
        let held: Vec<InFlight> = (0..cores()).map(|_| InFlight::begin()).collect();
        let caller = std::thread::current().id();
        let mut seen = Vec::new();
        let flow = ordered_map(
            2,
            (0..8).collect(),
            |i: usize| {
                assert_eq!(std::thread::current().id(), caller);
                Ok(i)
            },
            &mut |o| {
                seen.push(o);
                Ok(ControlFlow::Continue(()))
            },
        )
        .unwrap();
        drop(held);
        assert_eq!(flow, ControlFlow::Continue(()));
        assert_eq!(seen, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn a_read_fans_out_only_onto_cores_no_statement_holds() {
        // Other tests of this binary may hold statements too: only the
        // bound is certain, and that our guards count.
        with_degree(64, || {
            let before = IN_FLIGHT.load(Ordering::SeqCst);
            let ours = InFlight::begin();
            assert!(read_degree() <= (1 + cores()).saturating_sub(before + 1).max(1));
            let others: Vec<InFlight> = (0..cores()).map(|_| InFlight::begin()).collect();
            assert_eq!(read_degree(), 1, "every core is held");
            drop(others);
            drop(ours);
        });
        with_degree(1, || {
            let _ours = InFlight::begin();
            assert_eq!(read_degree(), 1, "never above the granted degree");
        });
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
