//! Property tests: the trace-file decoder is total.

use vecycle_trace::Trace;
use vecycle_types::rng::{split, Xorshift};

/// Arbitrary bytes never panic the trace loader.
#[test]
fn decoder_is_total_on_garbage() {
    for case in 0..256 {
        let mut rng = Xorshift::new(split(1, case));
        let len = rng.below(8192);
        let bytes: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        let _ = Trace::read_from(&bytes[..]);
    }
}
