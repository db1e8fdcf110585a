//! Speed floors, timed one way. A row `(what, floor, applies, fast,
//! slow)` holds where `fast` runs at least `floor` times as fast as
//! `slow`; each crate keeps its rows in one `#[ignore]` test named
//! `speed_floors`, which `scripts/ci.sh` runs in release mode.
//!
//! A row is timed in rounds, at least three of them and until they fill
//! half a second. A round times both sides, one after the other, the
//! one that goes first alternating; a timing is back-to-back calls
//! filling 10 ms. The row reads the median over its rounds of the
//! slow timing over the fast one. The host's speed wanders by up to 2×
//! from one fraction of a second to the next, and not by the same factor
//! for every kind of code: two timings side by side see the same host,
//! and the median drops the rounds that straddle a change. A best of
//! each side instead takes each side's luckiest moment, which need not be
//! the same moment: over twenty rounds of the DeepCAM lockstep row it
//! read as low as 1.06× where the paired median read 1.25× or more.
//!
//! A kernel runs in the [`Shape::Loader`] shape, on
//! `min(available_parallelism, 2)` threads at once, as the loader's
//! decode pool runs it: one thread alone leaves the other vCPU to the
//! host.

use std::sync::Barrier;
use std::time::{Duration, Instant};

/// The least rounds a row is timed in: what a row of sides that take a
/// few hundred milliseconds a call gets.
const ROUNDS: usize = 3;

/// The least time a row's rounds fill: about twenty rounds of a side of
/// a few milliseconds.
const WINDOW: Duration = Duration::from_millis(500);

/// The least time one timing's back-to-back calls fill.
const BUDGET: Duration = Duration::from_millis(10);

/// How a row's sides run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// A kernel: each side on the loader's threads, started together off
    /// a barrier.
    Loader,
    /// A side that is itself a thread count (a pipeline, a pool): alone,
    /// on the calling thread.
    Scaling,
}

/// The benchmark's decode pool: `min(available_parallelism, 2)` threads.
fn loader_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// One side of a row: any `Fn() + Sync`, or [`with`] where each thread
/// needs buffers of its own.
pub trait Side: Sync {
    /// Makes what the calls need, waits at `start`, then calls back to
    /// back for 10 ms: the time taken and the calls made.
    fn timing(&self, start: &Barrier) -> (Duration, u32);
}

impl<F: Fn() + Sync> Side for F {
    fn timing(&self, start: &Barrier) -> (Duration, u32) {
        start.wait();
        fill(&mut || self())
    }
}

/// A side whose calls get a state made by `init` on their thread, before
/// the timing starts (an output buffer), and handed once to an untimed
/// call.
pub fn with<S, I: Fn() -> S + Sync, C: Fn(&mut S) + Sync>(init: I, call: C) -> With<I, C> {
    With { init, call }
}

/// See [`with`].
pub struct With<I, C> {
    init: I,
    call: C,
}

impl<S, I: Fn() -> S + Sync, C: Fn(&mut S) + Sync> Side for With<I, C> {
    fn timing(&self, start: &Barrier) -> (Duration, u32) {
        let mut state = (self.init)();
        // Untimed: a fresh buffer's pages fault in, and a fresh thread's
        // scratch grows, on its first call.
        (self.call)(&mut state);
        start.wait();
        fill(&mut || (self.call)(&mut state))
    }
}

fn fill(call: &mut dyn FnMut()) -> (Duration, u32) {
    let started = Instant::now();
    let mut calls = 0;
    loop {
        call();
        calls += 1;
        let took = started.elapsed();
        if took >= BUDGET {
            return (took, calls);
        }
    }
}

/// Seconds a call of `side` took in one timing, over all its threads.
fn time(shape: Shape, side: &dyn Side) -> f64 {
    let (took, calls) = match shape {
        Shape::Scaling => side.timing(&Barrier::new(1)),
        Shape::Loader => {
            let start = Barrier::new(loader_threads());
            std::thread::scope(|scope| {
                let runs: Vec<_> = (0..loader_threads())
                    .map(|_| scope.spawn(|| side.timing(&start)))
                    .collect();
                runs.into_iter()
                    .map(|run| run.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                    .fold((Duration::ZERO, 0), |(t, n), (dt, dn)| (t + dt, n + dn))
            })
        }
    };
    took.as_secs_f64() / f64::from(calls.max(1))
}

/// What a row read: the median seconds per call of each side, and the
/// median over the rounds of the slow timing over the fast one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    /// The fast side's seconds per call.
    pub fast_s: f64,
    /// The slow side's seconds per call.
    pub slow_s: f64,
    /// How many times as fast the fast side ran.
    pub ratio: f64,
}

/// Times `fast` against `slow` in rounds, `fast` first in even rounds.
pub fn compare(shape: Shape, fast: &dyn Side, slow: &dyn Side) -> Reading {
    reading(&rounds(shape, fast, slow, None).0)
}

/// The host's control for a table whose rows need every vCPU: two sides
/// whose `slow / fast` reads near the vCPU count where they are all
/// there, and near 1 where one was taken away.
pub struct Control<'a> {
    /// What the control times.
    pub what: &'a str,
    /// The least `slow / fast` at which a round counts.
    pub floor: f64,
    /// The side that uses every vCPU.
    pub fast: &'a dyn Side,
    /// The side that uses one.
    pub slow: &'a dyn Side,
}

/// How long a controlled row waits for rounds in which the control
/// reads its floor before it fails.
const PATIENCE: Duration = Duration::from_secs(60);

/// Times a row's rounds: `fast` and `slow` side by side, and where there
/// is a control, its two sides around them in the same round (`control
/// fast, fast, slow, control slow` in even rounds, the reverse in odd
/// ones). Returns the `(fast, slow)` timings of the rounds that count —
/// all of them without a control, those in which the control read its
/// floor with one — and how many rounds were timed. Rounds go on until
/// at least [`ROUNDS`] count and they fill [`WINDOW`], or, with a
/// control, until [`PATIENCE`] runs out.
fn rounds(
    shape: Shape,
    fast: &dyn Side,
    slow: &dyn Side,
    control: Option<&Control>,
) -> (Vec<(f64, f64)>, usize) {
    let started = Instant::now();
    let mut kept = Vec::new();
    let mut timed = 0;
    let control_fast = || control.map(|c| time(shape, c.fast));
    let control_slow = || control.map(|c| time(shape, c.slow));
    while kept.len() < ROUNDS || started.elapsed() < WINDOW {
        if control.is_some() && started.elapsed() >= PATIENCE {
            break;
        }
        let (f, s, cf, cs) = if timed % 2 == 0 {
            let cf = control_fast();
            let f = time(shape, fast);
            let s = time(shape, slow);
            (f, s, cf, control_slow())
        } else {
            let cs = control_slow();
            let s = time(shape, slow);
            let f = time(shape, fast);
            (f, s, control_fast(), cs)
        };
        timed += 1;
        let counts = match (control, cf, cs) {
            (Some(c), Some(cf), Some(cs)) => cs / cf >= c.floor,
            _ => true,
        };
        if counts {
            kept.push((f, s));
        }
    }
    (kept, timed)
}

/// The medians of rounds' `(fast, slow)` timings and of their ratios
/// (NaN where no round counted).
fn reading(rounds: &[(f64, f64)]) -> Reading {
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        match v.len() {
            0 => f64::NAN,
            n => (v[(n - 1) / 2] + v[n / 2]) / 2.0,
        }
    };
    Reading {
        fast_s: median(rounds.iter().map(|r| r.0).collect()),
        slow_s: median(rounds.iter().map(|r| r.1).collect()),
        ratio: median(rounds.iter().map(|r| r.1 / r.0).collect()),
    }
}

/// A row of a speed table: `(what, floor, applies, fast, slow)`.
pub type Row<'a> = (&'a str, f64, bool, &'a dyn Side, &'a dyn Side);

/// Times every row that applies with [`compare`], prints one line a row
/// (`skipped at <at>` for the others), and fails after the last one,
/// naming every row whose `slow / fast` is under its floor.
pub fn floors(shape: Shape, at: &str, rows: &[Row]) {
    table(shape, at, None, rows);
}

/// [`floors`] for rows that need every vCPU: `control` is timed in each
/// of a row's rounds, beside its sides, and only the rounds in which it
/// read its floor count. So a row asserts on every run, on the rounds
/// the host was all there for, and fails — naming itself — only where
/// the control reads under its floor for a minute of rounds.
pub fn floors_controlled(shape: Shape, at: &str, control: &Control, rows: &[Row]) {
    table(shape, at, Some(control), rows);
}

fn table(shape: Shape, at: &str, control: Option<&Control>, rows: &[Row]) {
    let sides = match shape {
        Shape::Loader => format!("each side on {} threads at once", loader_threads()),
        Shape::Scaling => "each side alone".to_string(),
    };
    let (budget, window) = (BUDGET.as_millis(), WINDOW.as_millis());
    println!(
        "speed floors: {sides}, median of {ROUNDS}+ rounds over {window} ms or more, \
         timings of {budget} ms or more"
    );
    if let Some(c) = control {
        println!(
            "  a round counts where {} reads {}x or more in it",
            c.what, c.floor
        );
    }
    let mut failed = Vec::new();
    for &(what, floor, applies, fast, slow) in rows {
        if !applies {
            println!("  {what}: skipped at {at} (floor {floor}x)");
            continue;
        }
        let (kept, timed) = rounds(shape, fast, slow, control);
        if kept.is_empty() {
            println!("  {what}: no round of {timed} had the control at its floor (floor {floor}x)");
            failed.push(what);
            continue;
        }
        let Reading {
            fast_s,
            slow_s,
            ratio,
        } = reading(&kept);
        let (f, s) = (fast_s * 1e3, slow_s * 1e3);
        let counted = match control {
            Some(_) => format!(", {} of {timed} rounds", kept.len()),
            None => String::new(),
        };
        println!("  {what}: {f:.3} ms against {s:.3} ms, {ratio:.2}x (floor {floor}x{counted})");
        if ratio < floor {
            failed.push(what);
        }
    }
    assert!(failed.is_empty(), "below the floor: {failed:?}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Mutex, MutexGuard};
    use std::thread::ThreadId;

    /// One timing as a recording side saw it on one thread: its side, its
    /// thread and each call's start and end, the untimed first one first.
    struct Seen {
        side: &'static str,
        thread: ThreadId,
        calls: Vec<(Instant, Instant)>,
    }

    fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
        m.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A side that records every timing it runs into `log`, in the order
    /// the timings start, and sleeps `nap` a call.
    fn recording<'a>(
        side: &'static str,
        nap: Duration,
        log: &'a Mutex<Vec<Seen>>,
    ) -> impl Side + 'a {
        with(
            move || {
                let mut log = lock(log);
                let thread = std::thread::current().id();
                log.push(Seen {
                    side,
                    thread,
                    calls: Vec::new(),
                });
                log.len() - 1
            },
            move |&mut at: &mut usize| {
                let started = Instant::now();
                std::thread::sleep(nap);
                lock(log)[at].calls.push((started, Instant::now()));
            },
        )
    }

    #[test]
    fn sides_alternate_on_the_loader_threads_and_each_timing_fills_its_budget() {
        let log = Mutex::new(Vec::new());
        let fast = recording("fast", Duration::from_millis(2), &log);
        let slow = recording("slow", Duration::from_millis(3), &log);
        let started = Instant::now();
        let read = compare(Shape::Loader, &fast, &slow);
        assert!(started.elapsed() >= WINDOW);
        assert!(read.fast_s >= 0.002 && read.slow_s >= 0.003, "{read:?}");
        let log = lock(&log);
        let threads = loader_threads();
        // Timings in the order they ran, `threads` entries each.
        let timings: Vec<&[Seen]> = log.chunks(threads).collect();
        let rounds = timings.len() / 2;
        assert!(rounds >= ROUNDS && log.len() == 2 * rounds * threads);
        let order: Vec<&str> = timings.iter().map(|t| t[0].side).collect();
        let mut want = Vec::new();
        for round in 0..rounds {
            want.extend(if round % 2 == 0 {
                ["fast", "slow"]
            } else {
                ["slow", "fast"]
            });
        }
        assert_eq!(order, want);
        for timing in timings {
            let mut ids: Vec<ThreadId> = timing.iter().map(|s| s.thread).collect();
            ids.dedup();
            assert_eq!(ids.len(), threads, "one side on every loader thread");
            for seen in timing {
                assert_eq!(seen.side, timing[0].side);
                let timed = &seen.calls[1..];
                let (first, last) = (timed[0].0, timed[timed.len() - 1].1);
                // Short of BUDGET only by the instants read around the calls.
                let filled = last - first + Duration::from_micros(100);
                assert!(filled >= BUDGET, "{} calls in {filled:?}", timed.len());
            }
        }
    }

    #[test]
    fn a_scaling_side_runs_alone_on_the_calling_thread() {
        let log = Mutex::new(Vec::new());
        let side = recording("side", Duration::from_millis(1), &log);
        compare(Shape::Scaling, &side, &side);
        let log = lock(&log);
        assert!(log.len() >= 2 * ROUNDS);
        let me = std::thread::current().id();
        assert!(log.iter().all(|s| s.thread == me));
    }

    #[test]
    #[should_panic(expected = "below the floor: [\"one closure on both sides\"]")]
    fn a_row_whose_sides_are_one_closure_fails_naming_it() {
        let spin = || {
            std::hint::black_box((0..20_000u64).fold(0, |a, x| a ^ x.wrapping_mul(a | 1)));
        };
        floors(
            Shape::Loader,
            "any",
            &[
                ("a row that holds", 0.5, true, &spin, &spin),
                ("one closure on both sides", 1.5, true, &spin, &spin),
            ],
        );
    }

    /// A control whose fast side is quick in every other timing of it
    /// reads about 4x or more in the even rounds and 1x in the odd ones:
    /// under a floor of 2 only the even rounds count, and the row still
    /// gets its least rounds.
    #[test]
    fn a_controlled_row_counts_only_the_rounds_its_control_passes() {
        let timings = AtomicUsize::new(0);
        let control_fast = with(
            || timings.fetch_add(1, Ordering::Relaxed).is_multiple_of(2),
            |&mut quick: &mut bool| {
                std::thread::sleep(Duration::from_millis(if quick { 1 } else { 8 }))
            },
        );
        let control_slow = || std::thread::sleep(Duration::from_millis(8));
        let control = Control {
            what: "a sleeping control",
            floor: 2.0,
            fast: &control_fast,
            slow: &control_slow,
        };
        let side = || std::thread::sleep(Duration::from_millis(1));
        let (kept, timed) = rounds(Shape::Scaling, &side, &side, Some(&control));
        assert!(kept.len() >= ROUNDS, "{} of {timed}", kept.len());
        assert_eq!(kept.len(), timed.div_ceil(2), "{} of {timed}", kept.len());
    }

    #[test]
    fn a_row_that_does_not_apply_runs_neither_side() {
        let calls = AtomicUsize::new(0);
        let count = || {
            calls.fetch_add(1, Ordering::Relaxed);
        };
        floors(
            Shape::Loader,
            "any",
            &[("never timed", 1e9, false, &count, &count)],
        );
        assert_eq!(calls.load(Ordering::Relaxed), 0);
    }
}
