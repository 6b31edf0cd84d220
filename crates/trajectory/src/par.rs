//! The workspace's one fan-out.
//!
//! Every piece of work that splits into independent parts — the seed
//! matrix and training rounds offline, the corpus embed, graph build
//! rounds and shard scans online — runs its parts through [`fan_out`].
//! The caller owns the split, so a result is a function of the parts
//! alone and never of how many threads ran them; [`threads`] is the host
//! count the callers size their splits by.

use std::panic::resume_unwind;
use std::thread;

/// Runs `work` over `parts` and returns the results in part order: the
/// first part on the calling thread, every other on a scoped thread of
/// its own. One part spawns nothing. A worker's panic resumes on the
/// caller with its own payload (a dead tape, a shape mismatch) rather
/// than a generic "worker panicked".
pub fn fan_out<P: Send, R: Send>(
    parts: impl IntoIterator<Item = P>,
    work: impl Fn(P) -> R + Sync,
) -> Vec<R> {
    let mut parts = parts.into_iter();
    let Some(first) = parts.next() else {
        return Vec::new();
    };
    let work = &work;
    thread::scope(|scope| {
        let handles: Vec<_> = parts.map(|p| scope.spawn(move || work(p))).collect();
        let mut out = vec![work(first)];
        out.extend(
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|payload| resume_unwind(payload))),
        );
        out
    })
}

/// The host's available parallelism, or 1 when it is unknown.
pub fn threads() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uneven_parts_come_back_in_part_order() {
        let items: Vec<usize> = (0..23).collect();
        let parts: Vec<&[usize]> = vec![&items[..1], &items[1..10], &items[10..12], &items[12..]];
        let out = fan_out(parts, |part| part.iter().map(|x| x * 3).collect::<Vec<_>>());
        assert_eq!(out.len(), 4);
        let flat: Vec<usize> = out.into_iter().flatten().collect();
        assert_eq!(flat, (0..23).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn chunked_map_preserves_order() {
        let items: Vec<i32> = (0..37).collect();
        let map = |threads: usize, f: fn(&i32) -> i32| -> Vec<i32> {
            let parts = items.chunks(items.len().div_ceil(threads));
            fan_out(parts, |part| part.iter().map(f).collect::<Vec<_>>())
                .into_iter()
                .flatten()
                .collect()
        };
        let out = map(5, |x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        let single = map(1, |x| x + 1);
        assert_eq!(single[36], 37);
    }

    #[test]
    fn one_part_runs_on_the_calling_thread() {
        let caller = thread::current().id();
        let out = fan_out([7], |x| (x, thread::current().id()));
        assert_eq!(out, vec![(7, caller)]);
        let many = fan_out(0..3, |_| thread::current().id());
        assert_eq!(many[0], caller);
        assert!(many[1..].iter().all(|&id| id != caller));
    }

    #[test]
    fn no_parts_give_no_results() {
        let out: Vec<u8> = fan_out(std::iter::empty::<u8>(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "part 2 failed")]
    fn a_worker_panic_resumes_with_its_own_message() {
        fan_out(0..4, |i| {
            if i == 2 {
                panic!("part {i} failed");
            }
            i
        });
    }

    #[test]
    fn threads_is_at_least_one() {
        assert!(threads() >= 1);
    }
}
