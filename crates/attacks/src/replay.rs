//! The active replay framework of §II-2 / §IV-C4: equality-oracle
//! recovery with **width chunking**.
//!
//! "Because these optimizations check for equality, the attacker can
//! exponentially reduce the number of experiments needed to learn each
//! value if it can perform checks with narrower-width v. For example,
//! if v is a Word (Byte) then learning 32 (8) bits takes 2^32 (2^8)
//! tries in expectation."
//!
//! [`recover_byte`] realises this against silent stores: the victim
//! leaves a 64-bit secret in memory, and the attacker issues
//! **byte-width** amplified stores at one byte offset, learning that
//! byte in at most 2^8 experiments instead of searching the whole
//! word.

use pandora_isa::{Asm, Reg, Width};
use pandora_sim::{Machine, OptConfig, SimConfig};

use crate::amplify::{AmplifyGadget, FlushKind};

const TARGET: u64 = 0x1_0000;
const DELAY: u64 = 0x8_0000;

/// One amplified byte-store experiment: returns the end-to-end cycles
/// of overwriting byte `offset` of the victim's word with `guess`.
/// Fast (silent) iff `guess` equals the secret's byte at that offset.
#[must_use]
pub fn byte_store_probe(secret_word: u64, offset: u64, guess: u8) -> u64 {
    assert!(offset < 8, "a word has eight bytes");
    let cfg = SimConfig::with_opts(OptConfig::with_silent_stores());
    let g = AmplifyGadget::new(&cfg, TARGET + offset, DELAY, FlushKind::Contention);
    let mut a = Asm::new();
    // Precondition: the victim's line (and the pressure lines) warm.
    a.ld(Reg::T0, Reg::ZERO, TARGET as i64);
    a.fence();
    a.li(Reg::T0, u64::from(guess));
    g.emit(&mut a);
    a.store(Reg::T0, Reg::ZERO, (TARGET + offset) as i64, Width::Byte);
    g.emit_pressure(&mut a);
    a.fence();
    a.halt();
    let prog = a.assemble().expect("probe assembles");
    let mut m = Machine::new(cfg);
    m.load_program(&prog);
    m.mem_mut()
        .write_u64(TARGET, secret_word)
        .expect("victim word in memory");
    g.setup_memory(m.mem_mut());
    m.run(1_000_000).expect("probe completes");
    m.stats().cycles
}

/// Recovers one byte of the victim's word: at most 2^8 experiments.
#[must_use]
pub fn recover_byte(secret_word: u64, offset: u64) -> Option<u8> {
    let mut best: Option<(u8, u64)> = None;
    let mut second: Option<u64> = None;
    for guess in 0..=255u8 {
        let t = byte_store_probe(secret_word, offset, guess);
        match best {
            None => best = Some((guess, t)),
            Some((_, bt)) if t < bt => {
                second = Some(bt);
                best = Some((guess, t));
            }
            _ => second = Some(second.map_or(t, |s| s.min(t))),
        }
    }
    let (g, t) = best?;
    (second? >= t + 60).then_some(g)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_probe_is_an_equality_oracle() {
        let secret = 0x1122_3344_5566_77A9_u64;
        let hit = byte_store_probe(secret, 0, 0xA9);
        let miss = byte_store_probe(secret, 0, 0xAA);
        assert!(hit + 100 <= miss, "{hit} vs {miss}");
        // And at a different offset.
        let hit7 = byte_store_probe(secret, 7, 0x11);
        let miss7 = byte_store_probe(secret, 7, 0x12);
        assert!(hit7 + 100 <= miss7);
    }

    #[test]
    fn one_byte_recovers_in_256_experiments() {
        let secret = 0xDEAD_BEEF_0102_03C4u64;
        assert_eq!(recover_byte(secret, 0), Some(0xC4));
        assert_eq!(recover_byte(secret, 4), Some(0xEF), "little-endian byte 4");
    }
}
