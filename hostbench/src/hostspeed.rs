//! How fast the host runs right now, measured with a fixed reference loop.
//!
//! A shared host switches between states up to 2x apart in speed, for
//! seconds to minutes at a time, and the share of a run spent in each
//! differs from run to run. The switch slows code with a large footprint,
//! like the simulator's, far more than a tight loop: a chain of arithmetic
//! does not see it, and a bytecode interpreter or a sort over a small
//! array slows about half as much as the simulator. The loop here runs a
//! spread of library code instead (float formatting and parsing, string
//! splitting, hashing, allocation, sorting). Across the switch it slows by
//! 0.8 to 1.0 times as much as the simulator, in step with it
//! (correlation 0.9 to 0.99 over 2 s windows).
//!
//! So after every operation the benchmark runs a short slice of the loop
//! and counts host time in *reference seconds*: host seconds times the
//! loop's speed ÷ [`REF_RATE`]. The loop is written here and nothing in
//! the program can change it, so a change to the program moves its time in
//! reference seconds, while a change of host state moves the program and
//! the loop together and largely cancels.

use std::collections::HashMap;
use std::fmt::Write;
use std::hint::black_box;
use std::time::Instant;

/// Loop items per host second that make one reference second: about the
/// loop's speed on a 2-vCPU Xeon VM at 2.0 GHz with busy neighbours, so
/// there one reference second is about one host second.
pub const REF_RATE: f64 = 800e3;

/// Items per slice of the loop (about 45 µs).
const ITEMS: u64 = 32;

/// Runs the reference loop and reports the host's speed.
#[derive(Debug)]
pub struct Meter {
    state: u64,
    text: String,
}

impl Default for Meter {
    fn default() -> Meter {
        Meter::new()
    }
}

impl Meter {
    /// A meter with its fixed starting state.
    pub fn new() -> Meter {
        Meter {
            state: 0x2545_f491_4f6c_dd1d,
            text: String::with_capacity(128),
        }
    }

    /// One slice of [`ITEMS`] items: each formats a number three ways,
    /// parses one back, splits the text and keys a map with it; the keys are
    /// then sorted.
    fn slice(&mut self) {
        let mut k = self.state;
        let mut map: HashMap<String, f64> = HashMap::new();
        for i in 0..ITEMS {
            k = k
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let x = (k >> 11) as f64 / 9.7e3;
            self.text.clear();
            let _ = write!(self.text, "{x:.9e} {} {k:x} {i}", k as i64);
            let back: f64 = self
                .text
                .split(' ')
                .next()
                .and_then(|t| t.parse().ok())
                .unwrap_or(0.0);
            map.insert(self.text.clone(), back);
            let words = self.text.split(['e', ' ']).count();
            k ^= words as u64 ^ map.get(&self.text).map_or(0, |v| v.to_bits());
        }
        let mut keys: Vec<String> = map.into_keys().collect();
        keys.sort();
        self.state = black_box(k ^ keys.len() as u64);
    }

    /// Runs the loop for at least `at_least` host seconds (one slice at
    /// least) and returns reference seconds per host second.
    pub fn sample(&mut self, at_least: f64) -> f64 {
        // Untimed: refills the caches the program has just used.
        self.slice();
        let t = Instant::now();
        let mut items = 0;
        loop {
            self.slice();
            items += ITEMS;
            let dt = t.elapsed().as_secs_f64();
            if dt >= at_least {
                return items as f64 / dt / REF_RATE;
            }
        }
    }
}
