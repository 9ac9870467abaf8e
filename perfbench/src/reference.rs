//! A fixed reference workload that measures how fast the host runs at the
//! moment.
//!
//! On a shared host the CPU time of identical work moves by ±30% within
//! minutes, with the load other guests put on the same cores, caches and
//! memory. The benchmark therefore times this reference all through every
//! cycle and every set-up (a [`Window`]): at its start and end, and at the
//! first layer-call boundary ([`checkpoint`]) after each [`INTERVAL_S`] of
//! work, with the readings' own time kept out of the cycle's. The cycle's
//! time is then scaled to the reference's time on the reference machine
//! ([`NOMINAL_S`]): a cycle that ran while the reference ran 20% slow is
//! counted 20% shorter. The reference is the benchmark's own code and
//! never changes with the program, so a faster or slower program moves the
//! scaled times exactly as much as the raw ones.
//!
//! One pass mixes two kinds of work the simulator does: a binary-heap
//! event queue with map lookups and small allocations (the event engine's
//! shape) and a quality-weighted Hamming sweep over bytes (the WHD
//! kernel's shape). Over five minutes on the reference machine under
//! other tenants' load, the time of this mix followed the time of both a
//! cold oracle precompute and a warm engine run closely enough to halve
//! their spread (IQR/median 15.7% to 7.4% and 15.9% to 6.9%, in windows
//! of about two seconds); a pointer chase through a large table followed
//! them poorly and is left out.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;

use crate::clock::CpuInstant;

/// CPU seconds of one reading on the reference machine (a 2-vCPU AVX-512
/// Xeon KVM guest).
pub const NOMINAL_S: f64 = 0.00375;

/// CPU seconds of work between readings inside a [`Window`].
pub const INTERVAL_S: f64 = 0.1;

const SWEEP_LEN: usize = 8 * 1024;
const SWEEP_QUERY: usize = 128;
const SWEEP_REPS: usize = 2;
const EVENTS: usize = 20_000;
const KEYS: u32 = 4096;

/// The reference's inputs, built once from a fixed seed, and its working
/// memory, kept between passes so that a pass never allocates: its time
/// must not depend on the state the workload left the allocator in.
struct Reference {
    text: Vec<u8>,
    query: Vec<u8>,
    quals: Vec<u8>,
    keys: Vec<u32>,
    queue: BinaryHeap<(Reverse<u32>, u32)>,
    open: HashMap<u32, Vec<u32>, BuildHasherDefault<DefaultHasher>>,
}

impl Reference {
    /// Builds the inputs; the same on every run and machine.
    fn new() -> Self {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as u32
        };
        let mut base = || b"ACGT"[(next() & 3) as usize];
        let text: Vec<u8> = (0..SWEEP_LEN).map(|_| base()).collect();
        let query: Vec<u8> = (0..SWEEP_QUERY).map(|_| base()).collect();
        let quals: Vec<u8> = (0..SWEEP_QUERY).map(|i| 2 + (i % 40) as u8).collect();
        let keys: Vec<u32> = (0..EVENTS).map(|_| next() % KEYS).collect();
        let mut reference = Reference {
            text,
            query,
            quals,
            keys,
            queue: BinaryHeap::with_capacity(EVENTS),
            open: HashMap::default(),
        };
        // The first pass sizes the working memory.
        reference.pass();
        reference
    }

    /// CPU seconds of one pass: one reading.
    fn time(&mut self) -> f64 {
        let start = CpuInstant::now();
        black_box(self.pass());
        start.elapsed_secs()
    }

    fn pass(&mut self) -> u64 {
        self.sweep() ^ self.events()
    }

    fn sweep(&self) -> u64 {
        let mut best = u64::MAX;
        for _ in 0..SWEEP_REPS {
            for window in black_box(&self.text).windows(SWEEP_QUERY) {
                let score: u64 = window
                    .iter()
                    .zip(&self.query)
                    .zip(&self.quals)
                    .map(|((a, b), q)| u64::from(*q) * u64::from(a != b))
                    .sum();
                best = best.min(score);
            }
        }
        best
    }

    fn events(&mut self) -> u64 {
        let (queue, open) = (&mut self.queue, &mut self.open);
        queue.clear();
        open.values_mut().for_each(Vec::clear);
        let mut acc = 0u64;
        for (i, &key) in (0u32..).zip(&self.keys) {
            queue.push((Reverse(key ^ i.rotate_left(7)), i));
            open.entry(key).or_default().push(i);
            if i % 2 == 1 {
                let (_, id) = queue.pop().expect("pushed at least one");
                if let Some(list) = open.get_mut(&self.keys[id as usize]) {
                    acc += list.pop().map_or(0, u64::from);
                }
            }
        }
        acc + queue.len() as u64
    }
}

/// `secs`, measured while readings averaged `reference_s`, scaled to the
/// reference machine's speed.
pub fn scale(secs: f64, reference_s: f64) -> f64 {
    secs * NOMINAL_S / reference_s
}

struct Sampler {
    reference: Reference,
    open: bool,
    since: CpuInstant,
    readings: Vec<f64>,
}

impl Sampler {
    fn read(&mut self) {
        self.readings.push(self.reference.time());
        self.since = CpuInstant::now();
    }
}

thread_local! {
    static SAMPLER: RefCell<Option<Sampler>> = const { RefCell::new(None) };
}

/// Readings of the reference through one timed phase, on this thread.
/// Only one window is open at a time.
#[derive(Debug)]
pub struct Window(());

impl Window {
    /// Takes the first reading and starts sampling at [`checkpoint`]s.
    pub fn open() -> Window {
        SAMPLER.with_borrow_mut(|slot| {
            let sampler = slot.get_or_insert_with(|| Sampler {
                reference: Reference::new(),
                open: false,
                since: CpuInstant::now(),
                readings: Vec::new(),
            });
            assert!(!sampler.open, "one reference window at a time");
            sampler.open = true;
            sampler.readings.clear();
            sampler.read();
        });
        Window(())
    }

    /// Takes the last reading, stops sampling and returns the mean reading.
    pub fn close(self) -> f64 {
        SAMPLER.with_borrow_mut(|slot| {
            let sampler = slot.as_mut().expect("opened");
            sampler.read();
            sampler.open = false;
            sampler.readings.iter().sum::<f64>() / sampler.readings.len() as f64
        })
    }
}

/// Takes a reading if a [`Window`] is open and [`INTERVAL_S`] of work has
/// passed since the last one, and returns the CPU seconds that took (0
/// otherwise), for the caller to keep out of the phase's time.
pub fn checkpoint() -> f64 {
    SAMPLER.with_borrow_mut(|slot| match slot {
        Some(sampler) if sampler.open && sampler.since.elapsed_secs() >= INTERVAL_S => {
            let start = CpuInstant::now();
            sampler.read();
            start.elapsed_secs()
        }
        _ => 0.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_taken_only_in_an_open_window() {
        assert_eq!(checkpoint(), 0.0);
        let window = Window::open();
        let start = CpuInstant::now();
        while start.elapsed_secs() < INTERVAL_S {
            std::hint::spin_loop();
        }
        assert!(checkpoint() > 0.0, "a reading was due");
        assert_eq!(checkpoint(), 0.0, "the next one is not due yet");
        assert!(window.close() > 0.0);
        assert_eq!(checkpoint(), 0.0);
    }
}
