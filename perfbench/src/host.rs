//! Measuring on a shared host. The host's speed swings while a run
//! measures: the same CPU-bound loop took from 214 to 415 ms of CPU time
//! within one minute on the two-vCPU machine this benchmark was built
//! on, in episodes of a few seconds, and CPU steal came on top. The
//! program's own cost is what a change can move, so wall-clock figures
//! are taken from the better half of short windows, and CPU-bound ones
//! from the fastest of identical repetitions.

use std::time::Duration;

/// This thread's time on a CPU so far (`/proc/thread-self/schedstat`;
/// with paravirtual steal accounting it excludes stolen time). `None`
/// where the kernel does not report it.
pub fn thread_cpu_time() -> Option<Duration> {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .map(Duration::from_nanos)
}

/// Which of `scores` to keep: the better half (rounded up), where a
/// lower score is better; earlier entries first among equals.
pub fn better_half(scores: &[f64]) -> Vec<bool> {
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]).then(a.cmp(&b)));
    let mut keep = vec![false; scores.len()];
    for &i in order.iter().take(scores.len().div_ceil(2)) {
        keep[i] = true;
    }
    keep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_the_better_half() {
        assert_eq!(
            better_half(&[5.0, 0.0, 3.0, 0.0]),
            vec![false, true, false, true]
        );
        assert_eq!(better_half(&[1.0, 1.0, 1.0]), vec![true, true, false]);
        assert!(better_half(&[]).is_empty());
    }

    #[test]
    fn this_thread_has_cpu_time_on_linux() {
        // The kernel folds running time in at scheduler ticks: spin
        // across several of them.
        let a = thread_cpu_time();
        let t = std::time::Instant::now();
        let mut x = 0u64;
        while t.elapsed() < Duration::from_millis(50) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        if let (Some(a), Some(b)) = (a, thread_cpu_time()) {
            assert!(b > a);
        }
    }
}
