//! The one observability instrument: a relaxed atomic [`Counter`] and the
//! [`counters!`](crate::counters!) form that turns a list of counter names
//! into a tier's live struct, its plain-data snapshot, and `snapshot()`,
//! `since()` and `metrics()` over it.
//!
//! Each tier (dfs, kvstore, table, server, shard) declares the counters it
//! bumps, once, next to the code that bumps them; the same struct backs
//! the cost model's per-tier I/O volumes (paper §IV), the benches and
//! `SHOW HEALTH`. Adding a counter is one line in one declaration.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonic counter or a gauge. Relaxed: it is observability data, not
/// synchronisation, and publishes nothing but its own value.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Counts one event.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Counts `n` events (or bytes).
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Lowers a gauge by `n`. Saturating: a stray double-close or
    /// double-drop must never wrap it.
    pub fn sub(&self, n: u64) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
    }

    /// Publishes a gauge's current value.
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Declares one tier's counters: `struct Live => Snapshot { names… }`
/// expands to the live struct of [`Counter`]s, a `Copy` snapshot struct of
/// `pub u64`s with the same field names, `Live::snapshot()`,
/// `Snapshot::since()` and `Snapshot::metrics()` (rows in declaration
/// order, named after the fields). A leading `..group: Live => Snapshot,`
/// line embeds another declaration (the shared retry group) ahead of the
/// tier's own counters.
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $live:ident => $snap:ident {
            $( .. $group:ident : $GroupLive:ty => $GroupSnap:ty, )*
            $( $(#[$fmeta:meta])* $field:ident ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Default)]
        $vis struct $live {
            $(
                #[doc = concat!("The embedded `", stringify!($group), "` group.")]
                pub $group: $GroupLive,
            )*
            $( $(#[$fmeta])* pub $field: $crate::Counter, )*
        }

        #[doc = concat!("Point-in-time copy of [`", stringify!($live), "`].")]
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $vis struct $snap {
            $(
                #[doc = concat!("The embedded `", stringify!($group), "` group.")]
                pub $group: $GroupSnap,
            )*
            $( $(#[$fmeta])* pub $field: u64, )*
        }

        impl $live {
            /// Copies every counter.
            pub fn snapshot(&self) -> $snap {
                $snap {
                    $( $group: self.$group.snapshot(), )*
                    $( $field: self.$field.get(), )*
                }
            }
        }

        impl $snap {
            /// Counts since `earlier` (a gauge that fell reads 0).
            pub fn since(&self, earlier: &$snap) -> $snap {
                $snap {
                    $( $group: self.$group.since(&earlier.$group), )*
                    $( $field: self.$field.saturating_sub(earlier.$field), )*
                }
            }

            /// `(name, value)` rows in declaration order — one tier's
            /// share of `SHOW HEALTH`.
            pub fn metrics(&self) -> Vec<(&'static str, u64)> {
                let mut rows = Vec::new();
                $( rows.extend(self.$group.metrics()); )*
                rows.extend([ $( (stringify!($field), self.$field), )* ]);
                rows
            }
        }
    };
}

#[cfg(test)]
mod tests {
    counters! {
        /// A group, as the retry counters are.
        struct Inner => InnerSnap {
            /// Tries.
            tries,
        }
    }

    counters! {
        /// Three counters of a pretend tier, after an embedded group.
        struct Demo => DemoSnap {
            ..inner: Inner => InnerSnap,
            /// Bytes moved.
            bytes,
            /// Operations.
            ops,
            /// A gauge.
            depth,
        }
    }

    #[test]
    fn declaration_gives_snapshot_since_and_metrics_in_order() {
        let live = Demo::default();
        live.bytes.add(10);
        live.ops.inc();
        live.depth.set(7);
        live.inner.tries.inc();
        let first = live.snapshot();
        assert_eq!((first.bytes, first.ops, first.depth), (10, 1, 7));
        assert_eq!(first.inner.tries, 1);

        live.bytes.add(5);
        live.ops.inc();
        live.depth.sub(9);
        live.inner.tries.add(2);
        let second = live.snapshot();
        assert_eq!(second.depth, 0, "a gauge saturates at zero");
        let delta = second.since(&first);
        assert_eq!(
            delta,
            DemoSnap {
                inner: InnerSnap { tries: 2 },
                bytes: 5,
                ops: 1,
                depth: 0,
            }
        );
        assert_eq!(
            second.metrics(),
            vec![("tries", 3), ("bytes", 15), ("ops", 2), ("depth", 0)]
        );
    }
}
