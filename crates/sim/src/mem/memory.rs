//! Flat, byte-addressable data memory.

use std::fmt;

use pandora_isa::Width;

/// A fault raised by an out-of-bounds data memory access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MemFault {
    /// The faulting byte address.
    pub addr: u64,
    /// The access size in bytes.
    pub len: usize,
}

impl fmt::Display for MemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "memory fault: {}-byte access at {:#x} out of bounds",
            self.len, self.addr
        )
    }
}

impl std::error::Error for MemFault {}

/// Flat, byte-addressable data memory.
///
/// The simulator uses a single physical address space (virtual ==
/// physical); software-level protection is provided by the sandbox
/// verifier, not by paging — which is exactly the setting of the
/// paper's DMP attack (§V-B).
///
/// ```
/// use pandora_sim::Memory;
/// let mut m = Memory::new(4096);
/// m.write_u64(16, 0xdead_beef).unwrap();
/// assert_eq!(m.read_u64(16).unwrap(), 0xdead_beef);
/// assert!(m.read_u64(4090).is_err());
/// ```
#[derive(Eq)]
pub struct Memory {
    bytes: Vec<u8>,
    /// Exclusive upper bound of bytes that may be nonzero — the
    /// write high-water mark. Whole-memory [`Memory::clear`] (the
    /// [`Machine::reset`] path, and therefore every fleet machine
    /// recycle) zero-fills only `..dirty_hi` instead of the full
    /// backing store: a trial that touched a few KiB of a multi-MiB
    /// memory resets in proportion to its footprint, which is what
    /// makes a pooled fleet machine cheaper to recycle than a fresh
    /// `Machine::new` is to construct.
    ///
    /// [`Machine::reset`]: crate::Machine::reset
    dirty_hi: usize,
}

impl fmt::Debug for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Memory")
            .field("size", &self.bytes.len())
            .field("dirty_hi", &self.dirty_hi)
            .finish()
    }
}

/// Cloning copies only the dirty prefix: the clone's backing store is a
/// fresh zeroed allocation (pages the OS hands out on first touch), and
/// bytes at or above `dirty_hi` are zero by invariant. A checkpoint of a
/// 4 MiB machine that dirtied half a megabyte therefore costs half a
/// megabyte of copying and resident memory, not four.
impl Clone for Memory {
    fn clone(&self) -> Memory {
        let mut bytes = vec![0; self.bytes.len()];
        bytes[..self.dirty_hi].copy_from_slice(&self.bytes[..self.dirty_hi]);
        Memory {
            bytes,
            dirty_hi: self.dirty_hi,
        }
    }

    fn clone_from(&mut self, src: &Memory) {
        self.restore_from(src);
    }
}

/// Equality is over contents only: the dirty high-water mark is a
/// conservative bookkeeping bound (a cleared-then-reused memory may
/// carry a higher mark than a fresh one with identical bytes).
impl PartialEq for Memory {
    fn eq(&self, other: &Memory) -> bool {
        self.bytes == other.bytes
    }
}

impl Memory {
    /// Creates a zero-filled memory of `size` bytes.
    #[must_use]
    pub fn new(size: usize) -> Memory {
        Memory {
            bytes: vec![0; size],
            dirty_hi: 0,
        }
    }

    /// The memory size in bytes.
    #[must_use]
    pub fn size(&self) -> usize {
        self.bytes.len()
    }

    /// Whether an access of `len` bytes at `addr` lies in bounds.
    #[must_use]
    pub fn contains(&self, addr: u64, len: usize) -> bool {
        (addr as usize)
            .checked_add(len)
            .is_some_and(|end| end <= self.bytes.len())
    }

    fn check(&self, addr: u64, len: usize) -> Result<usize, MemFault> {
        if self.contains(addr, len) {
            Ok(addr as usize)
        } else {
            Err(MemFault { addr, len })
        }
    }

    /// Reads `width` bytes at `addr` as a little-endian value,
    /// zero-extended to 64 bits.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] if the access is out of bounds.
    pub fn read(&self, addr: u64, width: Width) -> Result<u64, MemFault> {
        let n = width.bytes();
        let base = self.check(addr, n)?;
        let mut v: u64 = 0;
        for (i, &b) in self.bytes[base..base + n].iter().enumerate() {
            v |= u64::from(b) << (8 * i);
        }
        Ok(v)
    }

    /// Writes the low `width` bytes of `value` at `addr`, little-endian.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] if the access is out of bounds.
    pub fn write(&mut self, addr: u64, value: u64, width: Width) -> Result<(), MemFault> {
        let n = width.bytes();
        let base = self.check(addr, n)?;
        for i in 0..n {
            self.bytes[base + i] = (value >> (8 * i)) as u8;
        }
        self.dirty_hi = self.dirty_hi.max(base + n);
        Ok(())
    }

    /// Reads a `u64` at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] if the access is out of bounds.
    pub fn read_u64(&self, addr: u64) -> Result<u64, MemFault> {
        self.read(addr, Width::Dword)
    }

    /// Writes a `u64` at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] if the access is out of bounds.
    pub fn write_u64(&mut self, addr: u64, value: u64) -> Result<(), MemFault> {
        self.write(addr, value, Width::Dword)
    }

    /// Reads a single byte at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] if the access is out of bounds.
    pub fn read_u8(&self, addr: u64) -> Result<u8, MemFault> {
        self.read(addr, Width::Byte).map(|v| v as u8)
    }

    /// Writes a single byte at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] if the access is out of bounds.
    pub fn write_u8(&mut self, addr: u64, value: u8) -> Result<(), MemFault> {
        self.write(addr, u64::from(value), Width::Byte)
    }

    /// Copies `data` into memory starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] if the region is out of bounds.
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) -> Result<(), MemFault> {
        let base = self.check(addr, data.len())?;
        self.bytes[base..base + data.len()].copy_from_slice(data);
        self.dirty_hi = self.dirty_hi.max(base + data.len());
        Ok(())
    }

    /// Reads `len` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] if the region is out of bounds.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Result<&[u8], MemFault> {
        let base = self.check(addr, len)?;
        Ok(&self.bytes[base..base + len])
    }

    /// The write high-water mark: the exclusive upper bound of bytes
    /// that may be nonzero. Exposed so checkpoint/restore code (and its
    /// regression tests) can prove the mark travels with the contents.
    #[must_use]
    pub fn dirty_hi(&self) -> usize {
        self.dirty_hi
    }

    /// Makes `self` equal to `src` — contents *and* dirty mark — in
    /// place, touching only the dirty prefixes instead of the whole
    /// backing store.
    ///
    /// Restoring the mark is a correctness requirement, not an
    /// optimization detail: [`Memory`] equality is contents-only and a
    /// partial [`Memory::clear`] keeps the mark, so a checkpoint
    /// restore that copied bytes but left a *lower* stale mark would
    /// let live bytes above it survive the next whole-memory clear
    /// (the recycled-pool `reset_to` path) — leaking one trial's
    /// secrets into the next. This routine therefore (1) zeroes the
    /// stale region between `src`'s mark and `self`'s old mark, and
    /// (2) adopts `src`'s mark, relying on the invariant that bytes at
    /// or above a memory's mark are zero.
    pub fn restore_from(&mut self, src: &Memory) {
        if self.bytes.len() != src.bytes.len() {
            self.bytes.clone_from(&src.bytes);
            self.dirty_hi = src.dirty_hi;
            return;
        }
        if self.dirty_hi > src.dirty_hi {
            self.bytes[src.dirty_hi..self.dirty_hi].fill(0);
        }
        self.bytes[..src.dirty_hi].copy_from_slice(&src.bytes[..src.dirty_hi]);
        self.dirty_hi = src.dirty_hi;
    }

    /// Zero-fills `len` bytes starting at `addr`. A clear that covers
    /// the whole dirty prefix (notably the whole-memory clear issued by
    /// machine reset) zero-fills only up to the write high-water mark —
    /// everything beyond it is already zero — and rewinds the mark.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] if the region is out of bounds.
    pub fn clear(&mut self, addr: u64, len: usize) -> Result<(), MemFault> {
        let base = self.check(addr, len)?;
        if base == 0 && len >= self.dirty_hi {
            self.bytes[..self.dirty_hi].fill(0);
            self.dirty_hi = 0;
        } else {
            self.bytes[base..base + len].fill(0);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip_all_widths() {
        let mut m = Memory::new(64);
        for (w, mask) in [
            (Width::Byte, 0xffu64),
            (Width::Half, 0xffff),
            (Width::Word, 0xffff_ffff),
            (Width::Dword, u64::MAX),
        ] {
            m.write(8, 0x1122_3344_5566_7788, w).unwrap();
            assert_eq!(m.read(8, w).unwrap(), 0x1122_3344_5566_7788 & mask);
        }
    }

    #[test]
    fn little_endian_layout() {
        let mut m = Memory::new(16);
        m.write_u64(0, 0x0807_0605_0403_0201).unwrap();
        for i in 0..8 {
            assert_eq!(m.read_u8(i).unwrap(), (i + 1) as u8);
        }
    }

    #[test]
    fn out_of_bounds_faults() {
        let m = Memory::new(16);
        assert_eq!(m.read_u64(9), Err(MemFault { addr: 9, len: 8 }));
        assert_eq!(m.read_u64(16), Err(MemFault { addr: 16, len: 8 }));
        assert!(m.read_u8(15).is_ok());
        assert!(m.read_u8(16).is_err());
    }

    #[test]
    fn overflowing_address_faults_instead_of_panicking() {
        let m = Memory::new(16);
        assert!(m.read_u64(u64::MAX - 3).is_err());
        assert!(!m.contains(u64::MAX, 8));
    }

    #[test]
    fn bulk_bytes() {
        let mut m = Memory::new(32);
        m.write_bytes(4, &[1, 2, 3, 4]).unwrap();
        assert_eq!(m.read_bytes(4, 4).unwrap(), &[1, 2, 3, 4]);
        m.clear(5, 2).unwrap();
        assert_eq!(m.read_bytes(4, 4).unwrap(), &[1, 0, 0, 4]);
        assert!(m.write_bytes(30, &[0; 4]).is_err());
    }

    #[test]
    fn whole_memory_clear_rewinds_the_dirty_mark() {
        let mut m = Memory::new(1 << 16);
        m.write_u64(0x100, 0x1111).unwrap();
        m.write_bytes(0x4000, &[0xff; 32]).unwrap();
        assert_eq!(m.dirty_hi, 0x4020);
        m.clear(0, 1 << 16).unwrap();
        assert_eq!(m.dirty_hi, 0, "full clear rewinds the mark");
        assert_eq!(m, Memory::new(1 << 16), "cleared memory equals fresh");
        // Partial clears zero their range but keep the mark (they
        // cannot prove anything about bytes above them).
        m.write_u8(0x200, 7).unwrap();
        m.clear(0x200, 1).unwrap();
        assert_eq!(m.read_u8(0x200).unwrap(), 0);
        assert_eq!(m.dirty_hi, 0x201);
        // A clear covering the dirty prefix from 0 counts as full even
        // if shorter than the memory.
        m.write_u8(0x80, 3).unwrap();
        m.clear(0, 0x1000).unwrap();
        assert_eq!(m.dirty_hi, 0);
        assert_eq!(m, Memory::new(1 << 16));
    }

    #[test]
    fn restore_from_adopts_contents_and_dirty_mark() {
        // The checkpoint: a small dirty prefix.
        let mut ck = Memory::new(1 << 16);
        ck.write_u64(0x100, 0x00c0_ffee).unwrap();
        assert_eq!(ck.dirty_hi(), 0x108);

        // A recycled machine whose previous trial wrote "secrets" far
        // above the checkpoint's mark.
        let mut m = Memory::new(1 << 16);
        m.write_u64(0x100, 0xdead).unwrap();
        m.write_bytes(0x8000, &[0xaa; 64]).unwrap();
        assert_eq!(m.dirty_hi(), 0x8040);

        m.restore_from(&ck);
        assert_eq!(m, ck, "contents restored");
        assert_eq!(
            m.dirty_hi(),
            0x108,
            "the mark must be restored with the contents"
        );
        assert_eq!(
            m.read_bytes(0x8000, 64).unwrap(),
            &[0u8; 64],
            "stale bytes above the restored mark are zeroed, not leaked"
        );

        // The hazard the mark-restore prevents: the next whole-memory
        // clear trusts the mark, so a stale lower mark would leave the
        // previous trial's bytes alive.
        m.write_u64(0x4000, 0x5ec2e7).unwrap();
        m.clear(0, 1 << 16).unwrap();
        assert_eq!(m, Memory::new(1 << 16), "recycle leaves no residue");

        // Size mismatch falls back to a full adopt.
        let mut other = Memory::new(1 << 12);
        other.write_u8(7, 9).unwrap();
        other.restore_from(&ck);
        assert_eq!(other.size(), 1 << 16);
        assert_eq!(other, ck);
        assert_eq!(other.dirty_hi(), ck.dirty_hi());
    }

    #[test]
    fn clone_copies_the_dirty_prefix_and_keeps_the_mark() {
        let mut m = Memory::new(1 << 16);
        m.write_u64(0x100, 0x00c0_ffee).unwrap();
        m.write_bytes(0x2000, &[0x5a; 40]).unwrap();
        let c = m.clone();
        assert_eq!(c, m, "clone equals the original");
        assert_eq!(c.dirty_hi(), 0x2028, "clone keeps the mark");
        assert!(
            c.read_bytes(0x2028, (1 << 16) - 0x2028)
                .unwrap()
                .iter()
                .all(|&b| b == 0),
            "bytes above the mark are zero"
        );

        // clone_from is a restore: it adopts contents and mark and
        // zeroes the stale tail of the destination.
        let mut d = Memory::new(1 << 16);
        d.write_bytes(0x8000, &[0xaa; 16]).unwrap();
        d.clone_from(&m);
        assert_eq!(d, m);
        assert_eq!(d.dirty_hi(), m.dirty_hi());
    }

    #[test]
    fn fault_display() {
        let e = MemFault { addr: 0x20, len: 8 };
        assert!(e.to_string().contains("0x20"));
    }
}
