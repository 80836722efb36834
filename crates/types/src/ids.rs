//! Identifier newtypes for hosts, VMs, traced machines and pages.

use std::fmt;

use serde::{Deserialize, Serialize};

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash,
            Serialize, Deserialize,
        )]
        pub struct $name(u32);

        impl $name {
            /// Creates an identifier from a raw index.
            pub const fn new(raw: u32) -> Self {
                $name(raw)
            }

            /// The raw index.
            pub const fn as_u32(self) -> u32 {
                self.0
            }

            /// The raw index as `usize`, for table lookups.
            pub const fn as_usize(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            fn from(raw: u32) -> Self {
                $name(raw)
            }
        }
    };
}

id_type!(
    /// Identifies a physical host in a simulated cluster.
    HostId,
    "host-"
);
id_type!(
    /// Identifies a virtual machine.
    VmId,
    "vm-"
);
id_type!(
    /// Identifies a traced machine from the trace catalog (Table 1).
    MachineId,
    "machine-"
);

/// The index of a page within a guest's physical memory.
///
/// Page indexes are dense: a VM with `n` pages uses indexes `0..n`.
///
/// # Examples
///
/// ```
/// use vecycle_types::PageIndex;
///
/// let p = PageIndex::new(42);
/// assert_eq!(p.as_u64(), 42);
/// ```
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct PageIndex(u64);

impl PageIndex {
    /// Creates a page index.
    pub const fn new(raw: u64) -> Self {
        PageIndex(raw)
    }

    /// The raw index.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The raw index as `usize`.
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PageIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "page-{}", self.0)
    }
}

impl From<u64> for PageIndex {
    fn from(raw: u64) -> Self {
        PageIndex(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display_with_prefix() {
        assert_eq!(format!("{}", HostId::new(3)), "host-3");
        assert_eq!(format!("{}", VmId::new(0)), "vm-0");
        assert_eq!(format!("{}", MachineId::new(9)), "machine-9");
        assert_eq!(format!("{}", PageIndex::new(5)), "page-5");
    }

    #[test]
    fn ids_round_trip() {
        assert_eq!(HostId::from(7).as_u32(), 7);
        assert_eq!(VmId::new(8).as_usize(), 8);
        assert_eq!(PageIndex::from(11u64).as_u64(), 11);
    }

    #[test]
    fn ids_order_by_raw_value() {
        assert!(HostId::new(1) < HostId::new(2));
        assert!(PageIndex::new(9) < PageIndex::new(10));
    }
}
